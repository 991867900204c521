"""Command-line front end.

Subcommands: bound, curve, convert, table, verify, sweep-tau. Outputs are
deterministic given the config and seed: JSON uses shortest round-trip floats,
CSV prints 17 significant digits. Exit codes: 0 success, 2 validation error,
3 accuracy budget exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

from . import accountant as acct
from . import conversions as conv
from .errors import AccuracyError, DomainError

if TYPE_CHECKING:
    from .tradeoff import TradeoffCurve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ACCURACY = 3
EXIT_VERIFICATION = 4


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _write_json(report, out: str | None) -> None:
    """Write a report as strict JSON: a non-finite float is written as null,
    and any that slips through raises instead of printing Infinity/NaN."""
    _write(json.dumps(_finite_or_null(report), allow_nan=False), out)


def _csv(rows, header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _curve_csv(curve: TradeoffCurve) -> str:
    from .tradeoff import CSV_HEADER  # deferred: only curves need NumPy
    return _csv(zip(curve.alphas, curve.values), CSV_HEADER)


def _load_params(args) -> acct.AlgoParams:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        # The one untyped input: check it before the --leff arithmetic. A
        # null field takes its default, as in AlgoParams.from_dict.
        acct._check_json_doc(doc)
        doc = {k: v for k, v in doc.items() if v is not None}
    for key in acct._JSON_FIELDS:
        value = getattr(args, key, None)
        if value is not None and key != "constrained":
            doc[key] = value
    if getattr(args, "leff", None) is not None:
        # Effective sensitivity L/(n sigma); bounds that depend only on it
        # are computed with n = 1, sigma = 1.
        doc.setdefault("n", 1)
        doc.setdefault("sigma", 1.0)
        doc["L"] = args.leff * doc["n"] * doc["sigma"]
    if getattr(args, "constrained", False):
        # bound's --constrained mode; unset, AlgoParams derives it from D.
        doc["constrained"] = True
    doc.setdefault("kind", "gd")
    return acct.AlgoParams.from_dict(doc)


def _mode(args) -> str:
    chosen = [name for name, on in
              [("sc", args.sc), ("constrained", args.constrained),
               ("composition", args.composition)] if on]
    if len(chosen) > 1:
        raise DomainError(f"choose one of --sc/--constrained/--composition, got {chosen}")
    return chosen[0] if chosen else "composition"


def _bounds() -> dict:
    """(kind, mode) -> (bound, whether it takes a window start --tau). Built
    per call from acct's attributes, so a wrapper installed on one is used."""
    return {
        ("gd", "composition"): (acct.bound_gd_composition, False),
        ("gd", "sc"): (acct.bound_gd_sc, False),
        ("gd", "constrained"): (acct.bound_gd_proj, True),
        ("cgd", "composition"): (acct.bound_cgd_composition, False),
        ("cgd", "sc"): (acct.bound_cgd_sc, False),
        ("cgd", "constrained"): (acct.bound_cgd_proj, False),
        ("sgd", "composition"): (acct.bound_sgd_composition, False),
        ("sgd", "sc"): (acct.bound_sgd_sc, True),
        ("sgd", "constrained"): (acct.bound_sgd_proj, True),
    }


def _reject_unused_bound_flags(args, kind: str, windowed: bool) -> None:
    """A flag the chosen bound would ignore is a validation error."""
    if args.tau is not None and not windowed:
        raise DomainError("--tau applies only to windowed bounds: gd "
                          "--constrained and sgd --sc/--constrained")
    if kind == "sgd":
        if args.delta:
            raise DomainError("--delta is not supported for sgd bounds; "
                              "query delta at given eps with --eps")
        if args.curve_out:
            raise DomainError("--curve-out is not supported for sgd bounds")
    elif args.eps:
        raise DomainError(f"--eps is not supported for {kind} bounds; "
                          "use convert gdp-to-epsdelta --mu MU --eps EPS")


def _reject_unused_global_flags(args) -> None:
    """--config outside bound and sweep-tau, --seed outside verify, or --grid
    where no curve is written, would be ignored: a validation error."""
    if args.config is not None and args.command not in ("bound", "sweep-tau"):
        raise DomainError("--config applies only to bound and sweep-tau")
    if args.seed is not None and args.command != "verify":
        raise DomainError("--seed applies only to verify")
    writes_curve = args.command == "curve" or getattr(args, "curve_out", None)
    if args.grid is not None and not writes_curve:
        raise DomainError("--grid applies only to curve and to gd/cgd bound "
                          "--curve-out")


def cmd_bound(args) -> int:
    params = _load_params(args)
    mode = _mode(args)
    bound, windowed = _bounds()[params.kind, mode]
    _reject_unused_bound_flags(args, params.kind, windowed)
    deltas = args.delta or []
    report: dict = {"params": params.to_dict(), "mode": mode}
    if params.kind == "sgd":
        from . import prv  # deferred: only sgd bounds need SciPy's FFT
        eps_list = args.eps or [1.0]
        pairs = None
        if not windowed:
            cb = bound(params)
        else:
            tau = args.tau
            if tau is None:
                # The bound holds for every window: take the sweep's best at
                # the first eps, and the deltas of its row.
                sweep = acct.sweep_tau(params, eps_list, setting=(
                    "sc" if mode == "sc" else "proj"))
                tau = sweep["best"][0]["tau"]
                pairs = list(zip(sweep["eps"],
                                 sweep["deltas"][sweep["taus"].index(tau)]))
            cb = bound(params, tau)
            report["tau"] = tau
        report["composite"] = cb.describe()
        if pairs is None:
            pairs = prv.evaluate_composite(cb, eps_list)
        if args.out and args.out.endswith(".csv"):
            # The uncertainty column is a heuristic, not a certified width:
            # 0.5 mesh^2 is the midpoint rule's second-order scale on the
            # DEFAULT_MESH lattice, and halving the mesh should move delta by
            # at most about 4x this value.
            unc = 0.5 * prv.DEFAULT_MESH ** 2
            _write(_csv([(e, d, unc) for e, d in pairs], "eps,delta,uncertainty"),
                   args.out)
            return EXIT_OK
        report["delta_at_eps"] = [{"eps": e, "delta": d} for e, d in pairs]
    else:
        # Only gd --constrained (bound_gd_proj) gets here with a --tau.
        mu = bound(params) if args.tau is None else bound(params, args.tau)
        report["mu"] = mu
        if deltas:
            report["conversions"] = {"eps_at_delta": [
                {"delta": d, "eps": conv.gdp_to_eps(mu, d)} for d in deltas]}
        if args.curve_out:
            from . import tradeoff  # deferred: only curves need NumPy
            _write(_curve_csv(tradeoff.curve_of_gdp(mu, args.grid)),
                   args.curve_out)
            report["curve_ref"] = args.curve_out
    _write_json(report, args.out)
    return EXIT_OK


def cmd_curve(args) -> int:
    from . import tradeoff  # deferred: only curves need NumPy

    curve = tradeoff.curve_of_gdp(args.mu, args.grid)
    if args.subsample_p is not None:
        curve = tradeoff.subsample(curve, args.subsample_p)
    _write(_curve_csv(curve), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    # The notions of the rows: gdp-to-epsdelta converts gdp to eps-delta.
    source, target = (args.conversion.replace("epsdelta", "eps-delta")
                      .split("-to-"))

    def row(inputs: dict, output: float) -> dict:
        return {"notion_from": source, "notion_to": target, "inputs": inputs,
                "output": output}

    if args.conversion == "gdp-to-epsdelta":
        rows = [row({"mu": args.mu, "delta": d}, conv.gdp_to_eps(args.mu, d))
                for d in args.delta or []]
        rows += [row({"mu": args.mu, "eps": e}, conv.gdp_to_delta(args.mu, e))
                 for e in args.eps or []]
    elif args.conversion == "gdp-to-rdp":
        rows = [row({"mu": args.mu, "alpha": a}, conv.gdp_to_rdp(args.mu, a))
                for a in args.order or [2.0]]
    else:  # rdp-to-epsdelta: argparse's choices admit no other
        rows = [row({"rho": args.rho, "delta": d},
                    conv.rdp_to_epsdelta(args.rho, d))
                for d in args.delta or [1e-5]]
    _write_json(rows, args.out)
    return EXIT_OK


# -- reference tables ---------------------------------------------------------

GD_SC_C = (0.92, 0.96, 0.98, 0.99, 0.995)
GD_SC_T = (10, 100, 1000)
CGD_SC_L = (10, 20, 40)
CGD_SC_C = (0.98, 0.99, 0.995)
CGD_SC_E = (5, 50, 500)
PROJ_GD_LN = (0.25, 0.5, 1.0)
PROJ_GD_ETA = (0.2, 0.1, 0.05)
PROJ_CGD_L = (10, 20, 40)
PROJ_CGD_LB = (0.25, 0.5, 1.0)
PROJ_CGD_ETA = (0.04, 0.02, 0.01)
TABLES = ("gd-sc", "cgd-sc", "gd-proj", *(f"cgd-proj-l{l}" for l in PROJ_CGD_L))


def _gd_params(c: float, t: int, leff: float) -> acct.AlgoParams:
    return acct.AlgoParams(kind="gd", eta=1.0 - c, sigma=1.0, n=1, L=leff,
                           steps=t, m=1.0, M=1.0)


def _cgd_params(c: float, l: int, E: int, lbs: float) -> acct.AlgoParams:
    return acct.AlgoParams(kind="cgd", eta=1.0 - c, sigma=1.0, n=l, b=1,
                           L=lbs, epochs=E, m=1.0, M=1.0)


def table_rows(name: str):
    """Benchmark tables over the standard parameter grids."""
    if name not in TABLES:
        raise DomainError(f"unknown table {name!r}; available: {', '.join(TABLES)}")
    if name == "gd-sc":
        rows = []
        for t in GD_SC_T:
            for c in GD_SC_C:
                p = _gd_params(c, t, 0.1)
                rows.append((t, c, acct.bound_gd_composition(p), acct.bound_gd_sc(p)))
        return "t,c,mu_composition,mu", rows
    if name == "cgd-sc":
        rows = []
        for E in CGD_SC_E:
            for l in CGD_SC_L:
                for c in CGD_SC_C:
                    p = _cgd_params(c, l, E, 0.2)
                    rows.append((E, l, c, acct.bound_cgd_composition(p),
                                 acct.bound_cgd_sc(p)))
        return "E,l,c,mu_composition,mu", rows
    if name == "gd-proj":
        rows = []
        for ln in PROJ_GD_LN:
            for eta in PROJ_GD_ETA:
                p = acct.AlgoParams(kind="gd", eta=eta, sigma=8.0, n=1, L=ln,
                                    steps=10 ** 9, M=2.0 / eta, D=1.0)
                mu = acct.bound_gd_proj(p)
                rows.append((ln, eta, acct.crossover_step(mu, ln / 8.0), mu))
        return "L_over_n,eta,t_star,mu_star", rows
    l = int(name.removeprefix("cgd-proj-l"))
    rows = []
    for lb in PROJ_CGD_LB:
        for eta in PROJ_CGD_ETA:
            p = acct.AlgoParams(kind="cgd", eta=eta, sigma=3.0, n=l, b=1,
                                L=lb, epochs=10 ** 6, M=2.0 / eta, D=1.0)
            mu = acct.bound_cgd_proj(p)
            # e_star_crossover is this tool's composition-crossover epoch
            # count; it is not verified against any published reference.
            rows.append((l, lb, eta, acct.crossover_step(mu, lb / 3.0), mu))
    return "l,L_over_b,eta,e_star_crossover,mu_star", rows


def cmd_table(args) -> int:
    header, rows = table_rows(args.name)
    _write(_csv(rows, header), args.out)
    return EXIT_OK


# -- verification suite -------------------------------------------------------


def _verify_checks(seed: int, trials: int):
    """Deterministic empirical checks of the analytic bounds, as (check, cap)
    pairs. A band of cap or wider means the check could not fail: cap is 1
    for the two-sided check (a curve and its reference both lie in [0, 1]),
    and for a one-sided check the largest value of its reference on its
    grid (an empirical curve is never below 0)."""
    import numpy as np  # deferred: closed-form requests run without NumPy

    from . import oracle  # deferred: only verify needs the Monte-Carlo oracle
    from . import tradeoff

    checks = []
    alphas = np.linspace(0.05, 0.95, 19)

    def gdp_reference(mu: float) -> np.ndarray:
        # Float alphas keep G(mu) on the standard library: verify loads no
        # SciPy module.
        return np.array([tradeoff.gdp_eval(mu, a) for a in alphas.tolist()])

    # Exact worst-case contractive pair against its closed-form curve.
    spec = oracle.SimSpec(kind="gd", m=1.0, eta=0.05, sigma=2.0, L=0.1, n=1,
                          steps=60, trials=trials, seed=seed)
    xp, xq = oracle.simulate(spec)
    mu = oracle.worst_case_gd_sc_mu(1.0 - 0.05, 0.05 * 0.1, 0.05 * 2.0, 60)
    emp = oracle.empirical_tradeoff(xp, xq, method="exact-lr", alphas=alphas)
    dev = float(np.max(np.abs(emp.values - gdp_reference(mu))))
    checks.append(({"name": "gd-sc-exact-curve", "ci": emp.ci_halfwidth,
                    "margin": emp.ci_halfwidth - dev,
                    "passed": dev <= emp.ci_halfwidth}, 1.0))

    # Projected run must never beat the constrained-convex bound.
    pspec = oracle.SimSpec(kind="gd", m=0.0, eta=0.1, sigma=8.0, L=0.5, n=1,
                           steps=100, trials=trials, seed=seed + 1,
                           diameter=1.0)
    xp, xq = oracle.simulate(pspec)
    params = acct.AlgoParams(kind="gd", eta=0.1, sigma=8.0, n=1, L=0.5,
                             steps=100, M=20.0, D=1.0)
    mu_star = acct.bound_gd_proj(params)
    emp = oracle.empirical_tradeoff(xp, xq, method="histogram-lr", alphas=alphas)
    reference = gdp_reference(mu_star)
    margin = oracle.curve_margin(emp, reference)
    checks.append(({"name": "gd-proj-one-sided", "ci": emp.ci_halfwidth,
                    "margin": margin, "passed": margin >= 0.0},
                   float(reference.max())))

    # Bounded-shift Gaussian floor for a few laws of W.
    laws = [("constant", lambda r, size: np.full(size, 1.0)),
            ("uniform", lambda r, size: r.uniform(-1.0, 1.0, size)),
            ("two-point", lambda r, size: r.choice([-1.0, 1.0], size))]
    for i, (lname, law) in enumerate(laws):
        ok, margin, emp = oracle.check_gdpinf(1.0, 2.0, law, trials,
                                              seed=seed + 2 + i)
        # G(1/2) falls in alpha: its largest value is at the smallest alpha.
        cap = tradeoff.gdp_eval(1.0 / 2.0, float(emp.alphas.min()))
        checks.append(({"name": f"gdp-floor-{lname}", "ci": emp.ci_halfwidth,
                        "margin": margin, "passed": ok}, cap))
    return checks


def cmd_verify(args) -> int:
    seed = 0 if args.seed is None else args.seed
    # Checked before any simulation: a two-sample band needs two trials,
    # and NumPy seeds only from non-negative integers.
    if args.trials < 2:
        raise DomainError(f"--trials must be >= 2, got {args.trials}")
    if seed < 0:
        raise DomainError(f"--seed must be >= 0, got {seed}")
    checks = []
    for check, cap in _verify_checks(seed, args.trials):
        if check["ci"] >= cap:
            raise DomainError(
                f"--trials {args.trials} is too few: the {check['name']} band "
                f"({check['ci']:.3f}) is at least {cap:.3f}, so that check "
                "could not fail")
        checks.append(check)
    passed = all(c["passed"] for c in checks)
    report = {"seed": seed, "trials": args.trials,
              "max_ci": max(c["ci"] for c in checks),
              "passed": passed, "checks": checks}
    _write_json(report, args.out)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        sys.stderr.write(f"{status}  {c['name']}  margin={c['margin']:+.4f} "
                         f"ci={c['ci']:.4f}\n")
    if not passed:
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_sweep_tau(args) -> int:
    params = _load_params(args)
    setting = "sc" if args.sc else "proj"
    result = acct.sweep_tau(params, args.eps or [1.0], setting=setting,
                            max_candidates=args.candidates)
    if args.out and args.out.endswith(".csv"):
        rows = []
        for i, tau in enumerate(result["taus"]):
            for j, eps in enumerate(result["eps"]):
                rows.append((tau, eps, result["deltas"][i][j]))
        _write(_csv(rows, "tau,eps,delta"), args.out)
    else:
        _write_json(result, args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_param_flags(sub):
    """A --name flag per AlgoParams JSON field, then --leff. constrained has
    none: bound's --constrained mode flag sets it."""
    for name, (types, _) in acct._JSON_FIELDS.items():
        if name == "kind":
            sub.add_argument("--kind", choices=acct._KINDS)
        elif name != "constrained":
            sub.add_argument(f"--{name}", type=int if types is int else float)
    sub.add_argument("--leff", type=float,
                     help="effective sensitivity L/(n sigma) shorthand")


def _add_global_flags(p) -> None:
    """Flags accepted before and after the subcommand. Their defaults are set
    on the top-level parser only, so a subparser never overwrites a value
    given before the subcommand."""
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON file of run parameters for bound and sweep-tau")
    p.add_argument("--out", default=argparse.SUPPRESS,
                   help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="Monte-Carlo seed for verify (default 0)")
    p.add_argument("--grid", type=int, default=argparse.SUPPRESS,
                   help="alpha-grid size for curve and gd/cgd bound "
                        "--curve-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdp-accountant",
        description="f-DP / GDP accounting for noisy gradient descent variants")
    _add_global_flags(parser)
    parser.set_defaults(config=None, out=None, seed=None, grid=None)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="compute a privacy bound")
    _add_global_flags(b)
    _add_param_flags(b)
    b.add_argument("--sc", action="store_true", help="strongly convex bound")
    b.add_argument("--constrained", action="store_true",
                   help="constrained convex bound")
    b.add_argument("--composition", action="store_true",
                   help="step-counting composition bound")
    b.add_argument("--tau", type=int, help="window start for tau-indexed bounds")
    b.add_argument("--delta", type=float, action="append",
                   help="also report eps at this delta (gd/cgd; repeatable)")
    b.add_argument("--eps", type=float, action="append",
                   help="delta query points for composite bounds (repeatable)")
    b.add_argument("--curve-out", help="also write the bound's tradeoff curve "
                                       "as CSV and reference it in the report")
    b.set_defaults(fn=cmd_bound)

    c = sub.add_parser(
        "curve", help="emit a tradeoff curve as CSV",
        description="Emit a tradeoff curve as CSV (alpha,f) on the alpha "
                    "grid. The curve is an estimate: read as the "
                    "piecewise-linear curve through its nodes, it runs along "
                    "chords, which lie above the convex tradeoff function "
                    "between the nodes. So a delta read off it can fall below "
                    "the exact value. For G(0.5) that shortfall is 1.8e-3 "
                    "relative at eps = 2, and at eps = 4 delta reads 0.")
    _add_global_flags(c)
    c.add_argument("--mu", type=float, default=0.0,
                   help="Gaussian curve parameter (default 0: the identity)")
    c.add_argument("--subsample-p", type=float,
                   help="apply the subsampling operator at this rate")
    c.set_defaults(fn=cmd_curve)

    v = sub.add_parser("convert", help="convert between privacy notions")
    _add_global_flags(v)
    v.add_argument("conversion", choices=("gdp-to-epsdelta", "gdp-to-rdp",
                                          "rdp-to-epsdelta"))
    v.add_argument("--mu", type=float, default=1.0)
    v.add_argument("--rho", type=float, default=1.0)
    v.add_argument("--delta", type=float, action="append")
    v.add_argument("--eps", type=float, action="append")
    v.add_argument("--order", type=float, action="append")
    v.set_defaults(fn=cmd_convert)

    t = sub.add_parser("table", help="emit a benchmark table as CSV")
    _add_global_flags(t)
    t.add_argument("--name", required=True)
    t.set_defaults(fn=cmd_table)

    w = sub.add_parser("verify", help="run the Monte-Carlo verification suite")
    _add_global_flags(w)
    w.add_argument("--trials", type=int, default=200_000)
    w.set_defaults(fn=cmd_verify)

    s = sub.add_parser("sweep-tau", help="sweep tau for stochastic-batch bounds")
    _add_global_flags(s)
    _add_param_flags(s)
    s.add_argument("--sc", action="store_true")
    s.add_argument("--eps", type=float, action="append")
    s.add_argument("--candidates", type=int, default=64,
                   help="cap on the windows the search from the CLT "
                        "window evaluates")
    s.set_defaults(fn=cmd_sweep_tau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _reject_unused_global_flags(args)
        return args.fn(args)
    except AccuracyError as exc:
        sys.stderr.write(f"accuracy budget exceeded: {exc}\n")
        return EXIT_ACCURACY
    except (DomainError, ValueError, OSError) as exc:
        sys.stderr.write(f"invalid request: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
