"""Command-line front end.

Subcommands: bound, curve, convert, table, verify, sweep-tau. Outputs are
deterministic given the config and seed: JSON uses shortest round-trip floats,
CSV prints 17 significant digits. Exit codes: 0 success, 2 validation error,
3 accuracy budget exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import accountant as acct
from . import conversions as conv
from .errors import AccuracyError, DomainError, VerificationError

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
    overrides = {
        "kind": args.kind, "eta": args.eta, "sigma": args.sigma, "n": args.n,
        "b": args.b, "epochs": args.epochs, "steps": args.steps, "L": args.L,
        "m": args.m, "M": args.M, "D": args.D,
    }
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    if getattr(args, "leff", None) is not None:
        # Effective sensitivity L/(n sigma); bounds that depend only on it
        # are computed with n = 1, sigma = 1.
        doc.setdefault("n", 1)
        doc.setdefault("sigma", 1.0)
        doc["L"] = args.leff * doc["n"] * doc["sigma"]
    constrained_flag = getattr(args, "constrained", False)
    if constrained_flag or (doc.get("D") is not None and "constrained" not in doc):
        doc["constrained"] = bool(constrained_flag or doc.get("D") is not None)
    doc.setdefault("kind", "gd")
    return acct.AlgoParams.from_dict(doc)


def _mode(args) -> str:
    chosen = [name for name, on in
              [("sc", args.sc), ("constrained", args.constrained),
               ("composition", args.composition)] if on]
    if len(chosen) > 1:
        raise DomainError(f"choose one of --sc/--constrained/--composition, got {chosen}")
    return chosen[0] if chosen else "composition"


def cmd_bound(args) -> int:
    params = _load_params(args)
    mode = _mode(args)
    deltas = args.delta or []
    report: dict = {"params": params.to_dict(), "mode": mode}
    if params.kind == "sgd":
        if deltas:
            raise DomainError("--delta is not supported for sgd bounds; "
                              "query delta at given eps with --eps")
        from . import prv  # deferred: only sgd bounds need SciPy's FFT
        if mode == "composition":
            cb = acct.bound_sgd_composition(params)
        else:
            builder = acct.bound_sgd_sc if mode == "sc" else acct.bound_sgd_proj
            tau = args.tau if args.tau is not None else max(0, params.t - 1)
            cb = builder(params, tau)
            report["tau"] = tau
        eps_list = args.eps or [1.0]
        report["composite"] = cb.describe()
        if args.out and args.out.endswith(".csv"):
            rows = prv.delta_table_rows(cb, eps_list)
            _write(_csv(rows, "eps,delta,uncertainty"), args.out)
            return EXIT_OK
        report["delta_at_eps"] = [{"eps": e, "delta": d}
                                  for e, d in prv.evaluate_composite(cb, eps_list)]
    else:
        if params.kind == "gd":
            fns = {"composition": acct.bound_gd_composition,
                   "sc": acct.bound_gd_sc,
                   "constrained": acct.bound_gd_proj}
        else:
            fns = {"composition": acct.bound_cgd_composition,
                   "sc": acct.bound_cgd_sc,
                   "constrained": acct.bound_cgd_proj}
        fn = fns[mode]
        if params.kind == "gd" and mode == "constrained" and args.tau is not None:
            mu = acct.bound_gd_proj(params, args.tau)
        else:
            mu = fn(params)
        report["mu"] = mu
        if deltas:
            report["conversions"] = {"eps_at_delta": [
                {"delta": d, "eps": conv.gdp_to_eps(mu, d)} for d in deltas]}
        if args.curve_out:
            from . import tradeoff  # deferred: only curves need NumPy
            size = args.grid or tradeoff.DEFAULT_GRID_SIZE
            _write(_curve_csv(tradeoff.curve_of_gdp(mu, size)), args.curve_out)
            report["curve_ref"] = args.curve_out
    _write(json.dumps(report), args.out)
    return EXIT_OK


def cmd_curve(args) -> int:
    from . import tradeoff  # deferred: only curves need NumPy

    size = args.grid or tradeoff.DEFAULT_GRID_SIZE
    if args.subsample_p is not None:
        curve = tradeoff.subsample(tradeoff.curve_of_gdp(args.mu, size),
                                   args.subsample_p)
    elif args.mu is not None:
        curve = tradeoff.curve_of_gdp(args.mu, size)
    else:
        curve = tradeoff.identity_curve(tradeoff.alpha_grid(size))
    _write(_curve_csv(curve), args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    rows = []
    if args.conversion == "gdp-to-epsdelta":
        if args.delta:
            for d in args.delta:
                rows.append({"notion_from": "gdp", "notion_to": "eps-delta",
                             "inputs": {"mu": args.mu, "delta": d},
                             "output": conv.gdp_to_eps(args.mu, d)})
        for e in args.eps or []:
            rows.append({"notion_from": "gdp", "notion_to": "eps-delta",
                         "inputs": {"mu": args.mu, "eps": e},
                         "output": conv.gdp_to_delta(args.mu, e)})
    elif args.conversion == "gdp-to-rdp":
        for a in args.order or [2.0]:
            rows.append({"notion_from": "gdp", "notion_to": "rdp",
                         "inputs": {"mu": args.mu, "alpha": a},
                         "output": conv.gdp_to_rdp(args.mu, a)})
    elif args.conversion == "rdp-to-epsdelta":
        for d in args.delta or [1e-5]:
            rows.append({"notion_from": "rdp", "notion_to": "eps-delta",
                         "inputs": {"rho": args.rho, "delta": d},
                         "output": conv.rdp_to_epsdelta(args.rho, d)})
    else:
        raise DomainError(f"unknown conversion {args.conversion!r}")
    _write(json.dumps(rows), args.out)
    return EXIT_OK


# -- reference tables ---------------------------------------------------------

GD_SC_C = (0.92, 0.96, 0.98, 0.99, 0.995)
GD_SC_T = (10, 100, 1000)
CGD_SC_L = (10, 20, 40)
CGD_SC_C = (0.98, 0.99, 0.995)
CGD_SC_E = (5, 50, 500)
PROJ_GD_LN = (0.25, 0.5, 1.0)
PROJ_GD_ETA = (0.2, 0.1, 0.05)
PROJ_CGD_LB = (0.25, 0.5, 1.0)
PROJ_CGD_ETA = (0.04, 0.02, 0.01)


def _gd_params(c: float, t: int, leff: float) -> acct.AlgoParams:
    return acct.AlgoParams(kind="gd", eta=1.0 - c, sigma=1.0, n=1, L=leff,
                           steps=t, m=1.0, M=1.0)


def _cgd_params(c: float, l: int, E: int, lbs: float) -> acct.AlgoParams:
    return acct.AlgoParams(kind="cgd", eta=1.0 - c, sigma=1.0, n=l, b=1,
                           L=lbs, epochs=E, m=1.0, M=1.0)


def table_rows(name: str):
    """Benchmark tables over the standard parameter grids."""
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
                                    steps=10 ** 9, M=2.0 / eta, D=1.0,
                                    constrained=True)
                mu = acct.bound_gd_proj(p)
                rows.append((ln, eta, acct.crossover_step(mu, ln / 8.0), mu))
        return "L_over_n,eta,t_star,mu_star", rows
    if name.startswith("cgd-proj-l"):
        l = int(name.removeprefix("cgd-proj-l"))
        rows = []
        for lb in PROJ_CGD_LB:
            for eta in PROJ_CGD_ETA:
                p = acct.AlgoParams(kind="cgd", eta=eta, sigma=3.0, n=l, b=1,
                                    L=lb, epochs=10 ** 6, M=2.0 / eta, D=1.0,
                                    constrained=True)
                mu = acct.bound_cgd_proj(p)
                # e_star_crossover is this tool's composition-crossover epoch
                # count; it is not verified against any published reference.
                rows.append((l, lb, eta, acct.crossover_step(mu, lb / 3.0), mu))
        return "l,L_over_b,eta,e_star_crossover,mu_star", rows
    raise DomainError(
        f"unknown table {name!r}; available: gd-sc, cgd-sc, gd-proj, "
        "cgd-proj-l10, cgd-proj-l20, cgd-proj-l40")


def cmd_table(args) -> int:
    header, rows = table_rows(args.name)
    _write(_csv(rows, header), args.out)
    return EXIT_OK


# -- verification suite -------------------------------------------------------


def _verify_checks(seed: int, trials: int):
    """Deterministic empirical checks of the analytic bounds."""
    import numpy as np  # deferred: closed-form requests run without NumPy

    from . import oracle  # deferred: only verify needs the Monte-Carlo oracle
    from . import tradeoff

    checks = []
    alphas = np.linspace(0.05, 0.95, 19)

    # Exact worst-case contractive pair against its closed-form curve.
    spec = oracle.SimSpec(kind="gd", m=1.0, eta=0.05, sigma=2.0, L=0.1, n=1,
                          steps=60, trials=trials, seed=seed)
    xp, xq = oracle.simulate(spec)
    mu = oracle.worst_case_gd_sc_mu(1.0 - 0.05, 0.05 * 0.1, 0.05 * 2.0, 60)
    emp = oracle.empirical_tradeoff(xp, xq, method="exact-lr", alphas=alphas)
    dev = float(np.max(np.abs(emp.values - tradeoff.gdp_eval(mu, emp.alphas))))
    checks.append({"name": "gd-sc-exact-curve", "ci": emp.ci_halfwidth,
                   "margin": emp.ci_halfwidth - dev,
                   "passed": dev <= emp.ci_halfwidth})

    # Projected run must never beat the constrained-convex bound.
    pspec = oracle.SimSpec(kind="gd", m=0.0, eta=0.1, sigma=8.0, L=0.5, n=1,
                           steps=100, trials=trials, seed=seed + 1,
                           diameter=1.0)
    xp, xq = oracle.simulate(pspec)
    params = acct.AlgoParams(kind="gd", eta=0.1, sigma=8.0, n=1, L=0.5,
                             steps=100, M=20.0, D=1.0, constrained=True)
    mu_star = acct.bound_gd_proj(params)
    emp = oracle.empirical_tradeoff(xp, xq, method="histogram-lr", alphas=alphas)
    margin = oracle.curve_margin(emp, lambda a: tradeoff.gdp_eval(mu_star, a))
    checks.append({"name": "gd-proj-one-sided", "ci": emp.ci_halfwidth,
                   "margin": margin, "passed": margin >= 0.0})

    # Bounded-shift Gaussian floor for a few laws of W.
    laws = [("constant", lambda r, size: np.full(size, 1.0)),
            ("uniform", lambda r, size: r.uniform(-1.0, 1.0, size)),
            ("two-point", lambda r, size: r.choice([-1.0, 1.0], size))]
    for i, (lname, law) in enumerate(laws):
        ok, margin, emp = oracle.check_gdpinf(1.0, 2.0, law, trials,
                                              seed=seed + 2 + i)
        checks.append({"name": f"gdp-floor-{lname}", "ci": emp.ci_halfwidth,
                       "margin": margin, "passed": ok})
    return checks


def cmd_verify(args) -> int:
    checks = _verify_checks(args.seed, args.trials)
    passed = all(c["passed"] for c in checks)
    report = {"seed": args.seed, "trials": args.trials,
              "max_ci": max(c["ci"] for c in checks),
              "passed": passed, "checks": checks}
    _write(json.dumps(report), args.out)
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
        _write(json.dumps(result), args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_param_flags(sub):
    sub.add_argument("--kind", choices=("gd", "cgd", "sgd"))
    sub.add_argument("--eta", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--n", type=int)
    sub.add_argument("--b", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--steps", type=int)
    sub.add_argument("--L", type=float)
    sub.add_argument("--leff", type=float,
                     help="effective sensitivity L/(n sigma) shorthand")
    sub.add_argument("--m", type=float)
    sub.add_argument("--M", type=float)
    sub.add_argument("--D", type=float)


def _add_global_flags(p) -> None:
    """Flags accepted before and after the subcommand. Their defaults are set
    on the top-level parser only, so a subparser never overwrites a value
    given before the subcommand."""
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON file of run parameters")
    p.add_argument("--out", default=argparse.SUPPRESS,
                   help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--grid", type=int, default=argparse.SUPPRESS,
                   help="alpha-grid size for curve output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdp-accountant",
        description="f-DP / GDP accounting for noisy gradient descent variants")
    _add_global_flags(parser)
    parser.set_defaults(config=None, out=None, seed=0, grid=None)
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

    c = sub.add_parser("curve", help="emit a tradeoff curve as CSV")
    _add_global_flags(c)
    c.add_argument("--mu", type=float, help="Gaussian curve parameter")
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
    s.add_argument("--candidates", type=int, default=64)
    s.set_defaults(fn=cmd_sweep_tau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AccuracyError as exc:
        sys.stderr.write(f"accuracy budget exceeded: {exc}\n")
        return EXIT_ACCURACY
    except VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION
    except (DomainError, ValueError, OSError) as exc:
        sys.stderr.write(f"invalid request: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
