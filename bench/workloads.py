"""The benchmark's workloads: seeded inputs, how a request runs, and how its
output is checked.

A workload turns a seed into an endless stream of requests (`requests`),
runs one request (`execute`) and checks its output (`check`) against a
closed form from reference.py or against properties every privacy profile
has: delta in [0, 1] and non-increasing in eps. Parameters are drawn
stratified (`Draws`), so every seed covers the ranges the same way and the
cost mix hardly moves between seeds. The program only ever sees the
generated AlgoParams, factors, specs or argv.

Requests that fail at the seed stay in the mix at their user-facing sizes:
they are counted as failed, and as +inf in the latency percentiles.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

# Relative shortfall is only counted where the exact delta exceeds this.
DELTA_FLOOR = 1e-10
# A p = 1 composite whose delta is off by more than EXACT_REL_TOL where the
# exact delta is at least CHECK_FLOOR fails its check. Below CHECK_FLOOR the
# known tail shortfall (up to ~20% near 1e-10, from truncated mass that is
# not added back) is measured, not checked.
CHECK_FLOOR = 1e-6
EXACT_REL_TOL = 1e-2
EPS_GRID = [6.0 * i / 255 for i in range(256)]
MONOTONE_TOL = 1e-12


class RequestFailed(Exception):
    """A CLI request exited non-zero."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr}")
        self.label = f"exit {code}"


@dataclass
class Request:
    kind: str
    args: dict


@dataclass
class Checked:
    failures: list = field(default_factory=list)  # names of failed checks
    exact: list = field(default_factory=list)     # (exact, reported) deltas
    digest: str = ""


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


class Draws:
    """Log-uniform parameter draws, stratified by a fixed Latin-hypercube
    design of k points: point j lies in slice design[name][j] of k equal
    (log-scale) slices of each range, the same slices for every seed.

    The seed shuffles the order of each batch of k draws and moves every
    point within its slice, so every value the program sees changes with
    the seed while each batch covers the ranges the same way; the mix of
    request sizes, and with it the latency percentiles, hardly moves between
    seeds.
    """

    def __init__(self, rng: random.Random, k: int, **ranges):
        self.rng, self.k = rng, k
        self.ranges = ranges     # name -> (lo, hi)
        self.design = {}
        for d, name in enumerate(ranges):
            perm = list(range(k))
            random.Random(d).shuffle(perm)
            self.design[name] = perm
        self.batch = []

    def __next__(self) -> dict:
        if not self.batch:
            order = list(range(self.k))
            self.rng.shuffle(order)
            self.batch = [self._point(j) for j in order]
        return self.batch.pop()

    def _point(self, j: int) -> dict:
        out = {}
        for name, (lo, hi) in self.ranges.items():
            u = (self.design[name][j] + self.rng.random()) / self.k
            out[name] = lo * (hi / lo) ** u
        return out


def _profile_failures(deltas, label: str) -> list:
    """delta in [0, 1] and non-increasing along increasing eps."""
    bad = []
    if any(not 0.0 <= d <= 1.0 for d in deltas):
        bad.append(f"{label}: delta outside [0, 1]")
    if any(b > a + MONOTONE_TOL for a, b in zip(deltas, deltas[1:])):
        bad.append(f"{label}: delta increases with eps")
    return bad


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Workload:
    name = ""
    tail_level = 0.5   # fixed per workload; see README
    cycle = 1          # requests per cycle of the mix; runs end on a cycle
    in_process = True

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Import what the requests call and run one warm-up request."""

    def requests(self):
        raise NotImplementedError

    def execute(self, request: Request):
        raise NotImplementedError

    def check(self, request: Request, output) -> Checked:
        raise NotImplementedError


# -- cli-cold -------------------------------------------------------------------

# The README's CLI examples, in order; {seed} takes the workload seed and
# {dir} the scratch directory.
README_EXAMPLES = (
    ("bound-gd-sc", "bound --kind gd --sc --eta 0.05 --m 1 --M 10 --steps 160 --leff 0.1"),
    ("bound-gd-composition", "bound --kind gd --composition --eta 0.05 --m 1 --M 10 "
     "--steps 160 --leff 0.1"),
    ("bound-cgd-constrained", "bound --kind cgd --constrained --eta 0.02 --sigma 3 --n 20 --b 1 "
     "--L 0.5 --epochs 1000 --M 100 --D 1 --delta 1e-5"),
    ("bound-sgd-sc-csv", "bound --kind sgd --sc --eta 0.05 --sigma 5 --n 1000 --b 100 "
     "--L 10 --steps 500 --m 1 --M 10 --tau 450 --eps 1 --eps 2 --out {dir}/deltas.csv"),
    ("curve-gdp", "curve --mu 0.961 --out {dir}/curve.csv"),
    ("curve-subsampled", "curve --mu 2.5 --subsample-p 0.25 --out {dir}/subsampled.csv"),
    ("convert-gdp-epsdelta", "convert gdp-to-epsdelta --mu 1 --delta 1e-5"),
    ("convert-gdp-rdp", "convert gdp-to-rdp --mu 2 --order 3"),
    ("convert-rdp-epsdelta", "convert rdp-to-epsdelta --rho 0.5 --delta 1e-5"),
    ("table-gd-sc", "table --name gd-sc"),
    ("table-cgd-proj-l20", "table --name cgd-proj-l20"),
    ("verify", "verify --trials 200000 --seed {seed}"),
    ("sweep-tau-sc", "sweep-tau --kind sgd --sc --eta 0.02 --sigma 4 --n 400 --b 40 "
     "--L 4 --steps 300 --m 1 --M 10 --eps 1.0 --out {dir}/sweep.csv"),
)


def _csv_rows(data: bytes) -> list:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return [[float(x) for x in row] for row in rows[1:]]


def _check_curve(rows, lower, label: str) -> list:
    """A tradeoff curve: f(0) = 1, f(1) = 0, non-increasing, between
    lower(alpha) and 1 - alpha."""
    bad = []
    alphas = [a for a, _ in rows]
    values = [v for _, v in rows]
    if values[0] != 1.0 or values[-1] != 0.0 or alphas[0] != 0.0 or alphas[-1] != 1.0:
        bad.append(f"{label}: wrong endpoints")
    if any(b > a + MONOTONE_TOL for a, b in zip(values, values[1:])):
        bad.append(f"{label}: curve increases")
    for a, v in rows[::25]:
        if 1e-6 <= a <= 1.0 - 1e-6:
            if not lower(a) - 1e-9 <= v <= 1.0 - a + 1e-12:
                bad.append(f"{label}: value out of range at alpha={a}")
                break
    return bad


class CliCold(Workload):
    """Each request is a fresh `python -m fdp_accountant` process."""

    name = "cli-cold"
    tail_level = 0.6
    cycle = len(README_EXAMPLES)
    in_process = False

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.dir = scratch / f"cli-cold-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cli = None  # set by use_in_process()
        self.peak_rss_kb = 0

    def use_in_process(self) -> None:
        """Run requests as cli.main(argv) in this process (traced runs)."""
        from fdp_accountant import cli
        self.cli = cli

    def setup(self) -> None:
        first = next(self.requests())
        self.check(first, self.execute(first))

    def requests(self):
        while True:
            for label, template in README_EXAMPLES:
                argv = shlex.split(template.format(seed=self.seed, dir=self.dir))
                yield Request(label, {"argv": argv})

    def _run_process(self, argv):
        """Run the CLI as a fresh process; keep the largest child's peak RSS
        (from wait4, so that no other child of the worker counts)."""
        with tempfile.TemporaryFile(dir=self.dir) as out, \
                tempfile.TemporaryFile(dir=self.dir) as err:
            proc = subprocess.Popen([sys.executable, "-m", "fdp_accountant", *argv],
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def _out_path(self, argv):
        return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None

    def execute(self, request: Request):
        argv = request.args["argv"]
        out_path = self._out_path(argv)
        if out_path is not None and out_path.exists():
            out_path.unlink()
        if self.cli is None:
            code, stdout, stderr = self._run_process(argv)
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
        if code != 0:
            raise RequestFailed(code, stderr.decode().strip()[-200:])
        file_bytes = out_path.read_bytes() if out_path is not None else b""
        return stdout, file_bytes

    def check(self, request: Request, output) -> Checked:
        stdout, file_bytes = output
        result = Checked(digest=digest_of(stdout, file_bytes))
        bad = result.failures
        kind = request.kind
        if kind in ("bound-gd-sc", "bound-gd-composition", "bound-cgd-constrained"):
            report = json.loads(stdout)
            mu = report["mu"]
            if kind == "bound-gd-sc":
                exact = ref.worst_case_gd_sc_mu(0.05, 1.0, 1.0, 0.1, 1, 160)
                if not _rel_close(mu, exact, 1e-9):
                    bad.append(f"{kind}: mu {mu} != worst case {exact}")
            elif kind == "bound-gd-composition":
                if not _rel_close(mu, 0.1 * math.sqrt(160), 1e-12):
                    bad.append(f"{kind}: mu {mu} != L sqrt(t)/(n sigma)")
            else:
                if not 0.0 < mu <= 0.5 * math.sqrt(1000) / 3.0:
                    bad.append(f"{kind}: mu {mu} above the composition bound")
                for row in report["conversions"]["eps_at_delta"]:
                    if not _rel_close(ref.gauss_delta(mu, row["eps"]), row["delta"], 1e-6):
                        bad.append(f"{kind}: eps {row['eps']} misses delta")
        elif kind == "bound-sgd-sc-csv":
            rows = _csv_rows(file_bytes)
            bad += _profile_failures([r[1] for r in rows], kind)
            if [r[0] for r in rows] != [1.0, 2.0] or any(r[2] < 0 for r in rows):
                bad.append(f"{kind}: wrong eps column or negative uncertainty")
        elif kind == "curve-gdp":
            bad += _check_curve(_csv_rows(file_bytes), lambda a: ref.gauss_tradeoff(0.961, a), kind)
            for a, v in _csv_rows(file_bytes)[::25]:
                if 1e-6 <= a <= 1 - 1e-6 and abs(v - ref.gauss_tradeoff(0.961, a)) > 1e-9:
                    bad.append(f"{kind}: f({a}) = {v} is not G(0.961)")
                    break
        elif kind == "curve-subsampled":
            # Subsampling only adds privacy: C_p(G(mu)) >= G(mu).
            bad += _check_curve(_csv_rows(file_bytes), lambda a: ref.gauss_tradeoff(2.5, a), kind)
        elif kind == "convert-gdp-epsdelta":
            eps = json.loads(stdout)[0]["output"]
            if not _rel_close(ref.gauss_delta(1.0, eps), 1e-5, 1e-6):
                bad.append(f"{kind}: eps {eps} misses delta 1e-5")
        elif kind == "convert-gdp-rdp":
            if json.loads(stdout)[0]["output"] != 6.0:
                bad.append(f"{kind}: expected mu^2 alpha / 2 = 6")
        elif kind == "convert-rdp-epsdelta":
            eps = json.loads(stdout)[0]["output"]
            # The classic conversion at its optimal order bounds the result.
            if not 0.0 < eps <= 0.5 + 2.0 * math.sqrt(0.5 * math.log(1e5)) + 1e-9:
                bad.append(f"{kind}: eps {eps} above the classic conversion")
        elif kind == "table-gd-sc":
            rows = _csv_rows(stdout)
            if len(rows) != 15:
                bad.append(f"{kind}: expected 15 rows, got {len(rows)}")
            for t, c, mu_comp, mu in rows:
                exact = ref.worst_case_gd_sc_mu(1.0 - c, 1.0, 1.0, 0.1, 1, int(t))
                if not (_rel_close(mu, exact, 1e-9)
                        and _rel_close(mu_comp, 0.1 * math.sqrt(t), 1e-12)):
                    bad.append(f"{kind}: row t={t} c={c} off its closed form")
        elif kind == "table-cgd-proj-l20":
            rows = _csv_rows(stdout)
            if len(rows) != 9:
                bad.append(f"{kind}: expected 9 rows, got {len(rows)}")
            for l, lb, eta, e_star, mu in rows:
                # Smallest epoch count whose composition bound reaches mu.
                rate = lb / 3.0
                if not (mu > 0 and e_star >= 1
                        and rate * math.sqrt(e_star) >= mu * (1 - 1e-9)
                        and (e_star == 1 or rate * math.sqrt(e_star - 1) < mu * (1 + 1e-9))):
                    bad.append(f"{kind}: row L/b={lb} eta={eta} has a wrong crossover")
        elif kind == "verify":
            report = json.loads(stdout)
            if not report["passed"] or not all(c["passed"] for c in report["checks"]):
                bad.append(f"{kind}: a Monte-Carlo check left its band")
        elif kind == "sweep-tau-sc":
            rows = _csv_rows(file_bytes)
            bad += _profile_failures([r[2] for r in rows], kind)
        return result


# -- tau-sweep ------------------------------------------------------------------


class TauSweep(Workload):
    """sweep_tau on seeded SGD runs, constrained (proj) and strongly convex (sc)."""

    name = "tau-sweep"
    tail_level = 0.7
    # Per cycle of 10: 8 proj sweeps, 1 sc sweep, 1 large-batch proj sweep.
    CYCLE = ("proj",) * 4 + ("sc",) + ("proj",) * 4 + ("proj-large-batch",)
    cycle = len(CYCLE)
    CANDIDATES = 64

    def setup(self) -> None:
        from fdp_accountant import accountant
        self.acct = accountant
        warm = accountant.AlgoParams(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25,
                                     L=4.0, steps=50, M=20.0, D=1.0, constrained=True)
        accountant.sweep_tau(warm, [1.0], setting="proj", max_candidates=8)

    def requests(self):
        rng = self.rng
        common = dict(rate=(0.005, 0.1), eta=(0.01, 0.1), b=(16, 128), sigma=(2.0, 6.0),
                      ratio=(0.01, 0.1), n_eps=(1, 4), eps=(1, 2),
                      # D / (eta sigma) sets the head factor sqrt(2) D/(eta sigma sqrt(w)).
                      kappa=(2.0, 8.0))
        draws = {
            # One batch of the design per cycle of the mix.
            "proj": Draws(rng, self.CYCLE.count("proj"), t=(200, 2500), **common),
            # Strongly convex runs use README-like step sizes, eta t >= 12.
            "sc": Draws(rng, 4, t=(400, 2500), **(common | {"eta": (0.03, 0.06)})),
            # DP-SGD-style batches: per-step mu 2 sqrt(2) L/(b sigma) < 0.009.
            "proj-large-batch": Draws(rng, 4, t=(200, 2500), **(common | {
                "rate": (0.005, 0.05), "b": (400, 1024), "sigma": (0.8, 1.2)})),
        }
        while True:
            for kind in self.CYCLE:
                d = next(draws[kind])
                b = int(round(d["b"]))
                ratio = 1.0 / (b * d["sigma"]) if kind == "proj-large-batch" else d["ratio"]
                params = dict(kind="sgd", eta=d["eta"], sigma=d["sigma"],
                              n=int(round(b / d["rate"])), b=b, L=ratio * b * d["sigma"],
                              steps=int(round(d["t"])))
                if kind == "sc":
                    params.update(m=1.0, M=10.0)
                else:
                    params.update(M=1.0 / d["eta"], D=d["kappa"] * d["eta"] * d["sigma"],
                                  constrained=True)
                # 1 to 3 eps values spread over [0.5, 4].
                n_eps = int(d["n_eps"])
                u = math.log(d["eps"], 2)
                eps = [round(0.5 * 8 ** ((j + u) / n_eps), 3) for j in range(n_eps)]
                yield Request(kind, {"params": params, "eps": eps,
                                     "setting": "sc" if kind == "sc" else "proj"})

    def execute(self, request: Request):
        a = request.args
        params = self.acct.AlgoParams(**a["params"])
        return self.acct.sweep_tau(params, a["eps"], setting=a["setting"],
                                   max_candidates=self.CANDIDATES)

    def check(self, request: Request, output) -> Checked:
        result = Checked(digest=digest_of(output["taus"], output["deltas"]))
        bad = result.failures
        eps = request.args["eps"]
        matrix = output["deltas"]
        if output["eps"] != eps or len(matrix) != len(output["taus"]):
            bad.append("sweep: shape does not match the request")
            return result
        for row in matrix:
            bad += _profile_failures(row, "sweep row")
        for j, best in enumerate(output["best"]):
            column = [row[j] for row in matrix]
            if best["delta"] != min(column) or best["tau"] not in output["taus"]:
                bad.append("sweep: best is not the column minimum")
        bad += _profile_failures([b["delta"] for b in output["best"]], "sweep best")
        return result


# -- privacy-profile -------------------------------------------------------------


class PrivacyProfile(Workload):
    """One composite per request, evaluated on a 256-point eps grid, plus the
    curve-space profile of its per-step factor and eps at a few deltas."""

    name = "privacy-profile"
    tail_level = 0.9
    CYCLE = ("composition", "p1-composition", "proj", "p1-proj")
    cycle = len(CYCLE)
    DELTAS = (1e-3, 1e-5, 1e-7)

    def setup(self) -> None:
        from fdp_accountant import accountant, conversions, prv, tradeoff
        self.acct, self.conv, self.prv, self.tradeoff = accountant, conversions, prv, tradeoff
        first = next(self.requests())
        self.check(first, self.execute(first))
        self.rng = random.Random(self.seed)  # timed requests start from the top

    def requests(self):
        b, sigma = 32, 4.0
        # mu_sub is the GDP size of the subsampled part (its CLT limit when
        # p < 1, exact when p = 1); head that of the proj head factor.
        draws = {kind: Draws(self.rng, 16, rate=(0.001, 0.05), t=(1000, 50000), t1=(20, 400),
                             mu_sub=(0.5, 5.0), head=(0.2, 2.0), window=(0.05, 1.0),
                             eta=(0.02, 0.1))
                 for kind in self.CYCLE}
        while True:
            for kind in self.CYCLE:
                d = next(draws[kind])
                proj = kind.endswith("proj")
                if kind.startswith("p1"):
                    steps, n = int(round(d["t1"])), b
                else:
                    steps, n = int(round(d["t"])), int(round(b / d["rate"]))
                w = max(1, int(round(d["window"] * steps))) if proj else steps
                if n == b:
                    factor_mu = d["mu_sub"] / math.sqrt(w)
                else:
                    factor_mu = _clt_factor_mu(d["mu_sub"], b / n, w)
                # The subsampled factor is G(L/(b sigma)) for composition and
                # G(2 sqrt(2) L/(b sigma)) for the proj bound.
                L = factor_mu / (2.0 * math.sqrt(2.0) if proj else 1.0) * b * sigma
                params = dict(kind="sgd", eta=d["eta"], sigma=sigma, n=n, b=b,
                              L=L, steps=steps)
                tau = None
                if proj:
                    D = d["head"] * d["eta"] * sigma * math.sqrt(w) / math.sqrt(2.0)
                    params.update(M=1.0 / d["eta"], D=D, constrained=True)
                    tau = steps - w
                yield Request(kind, {"params": params, "tau": tau})

    def execute(self, request: Request):
        acct, conv, prv, tradeoff = self.acct, self.conv, self.prv, self.tradeoff
        params = acct.AlgoParams(**request.args["params"])
        tau = request.args["tau"]
        if tau is None:
            cb = acct.bound_sgd_composition(params)
        else:
            cb = acct.bound_sgd_proj(params, tau)
        prv_deltas = [d for _, d in prv.evaluate_composite(cb, EPS_GRID)]
        sub = cb.factors[-1]
        curve = tradeoff.invert_curve(tradeoff.subsample(tradeoff.curve_of_gdp(sub.mu), sub.p))
        curve_deltas = [conv.curve_to_delta(curve, e) for e in EPS_GRID]
        mu_gdp = self._gdp_mu(cb)
        eps_at = [conv.gdp_to_eps(mu_gdp, d) for d in self.DELTAS]
        return {"factors": cb.describe(), "prv": prv_deltas, "curve": curve_deltas,
                "mu_gdp": mu_gdp, "eps_at": eps_at}

    def _gdp_mu(self, cb) -> float:
        """The composite's GDP parameter: exact at p = 1, the CLT limit else."""
        total = 0.0
        for f in cb.factors:
            if not hasattr(f, "p"):
                total = math.hypot(total, f.mu)
            elif f.p == 1.0:
                total = math.hypot(total, f.mu * math.sqrt(f.multiplicity))
            else:
                total = math.hypot(total, self.acct.clt_subsampled(f.mu, f.p, f.multiplicity))
        return total

    def check(self, request: Request, output) -> Checked:
        result = Checked(digest=digest_of(output["prv"], output["curve"], output["eps_at"]))
        bad = result.failures
        bad += _profile_failures(output["prv"], "prv profile")
        bad += _profile_failures(output["curve"], "curve profile")
        sub = output["factors"][-1]
        # Subsampling only adds privacy, so the curve's delta is at most G(mu)'s.
        for e, d in zip(EPS_GRID, output["curve"]):
            if d > ref.gauss_delta(sub["mu"], e) + 1e-9:
                bad.append(f"curve profile: delta({e:.3f}) above G({sub['mu']:.4g})")
                break
        mu = output["mu_gdp"]
        for d, eps in zip(self.DELTAS, output["eps_at"]):
            ok = (ref.gauss_delta(mu, 0.0) <= d * (1 + 1e-9) if eps == 0.0
                  else _rel_close(ref.gauss_delta(mu, eps), d, 1e-6))
            if not ok:
                bad.append(f"gdp_to_eps: eps {eps} misses delta {d} at mu {mu:.4g}")
        if request.kind.startswith("p1"):
            for e, d in zip(EPS_GRID, output["prv"]):
                exact = ref.gauss_delta(mu, e)
                if exact > DELTA_FLOOR:
                    result.exact.append((exact, d))
                    if exact >= CHECK_FLOOR and abs(exact - d) > EXACT_REL_TOL * exact:
                        bad.append(f"p=1 composite: delta({e:.3f}) = {d} vs exact {exact}")
                        break
        return result


def _clt_factor_mu(mu_clt: float, p: float, t: int) -> float:
    """Per-step mu whose t-fold subsampled composition at rate p has CLT
    limit mu_clt = sqrt(2) p sqrt(t K(mu)), with
    K(mu) = e^{mu^2} Phi(1.5 mu) + 3 Phi(-0.5 mu) - 2 increasing in mu."""
    target = (mu_clt / (math.sqrt(2.0) * p * math.sqrt(t))) ** 2
    lo, hi = 0.0, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        K = math.exp(mid * mid) * ref.phi(1.5 * mid) + 3.0 * ref.phi(-0.5 * mid) - 2.0
        lo, hi = (mid, hi) if K < target else (lo, mid)
    return hi


# -- mc-verify -------------------------------------------------------------------


class McVerify(Workload):
    """The verify subcommand's Monte-Carlo checks, at seeded parameters."""

    name = "mc-verify"
    tail_level = 0.85
    TRIALS = 40_000
    ALPHAS = [0.05 + 0.05 * i for i in range(19)]
    LAWS = ("constant", "uniform", "two-point")

    def setup(self) -> None:
        import numpy as np
        from fdp_accountant import accountant, oracle
        self.np, self.acct, self.oracle = np, accountant, oracle
        self.seeds = np.random.SeedSequence(self.seed)
        first = next(self.requests())
        self.check(first, self.execute(first))
        self.rng = random.Random(self.seed)
        self.seeds = np.random.SeedSequence(self.seed)

    def requests(self):
        draws = Draws(self.rng, 16, eta=(0.03, 0.08), sigma=(1.5, 3.0), L=(0.05, 0.2),
                      p_eta=(0.05, 0.2), p_sigma=(4.0, 10.0), p_L=(0.25, 1.0))
        while True:
            d = next(draws)
            seed = int(self.seeds.spawn(1)[0].generate_state(1)[0])
            yield Request("suite", dict(
                sc=dict(eta=d["eta"], sigma=d["sigma"], L=d["L"], steps=60),
                proj=dict(eta=d["p_eta"], sigma=d["p_sigma"], L=d["p_L"], steps=100, D=1.0),
                seed=seed))

    def execute(self, request: Request):
        np, oracle = self.np, self.oracle
        a = request.args
        seed, alphas = a["seed"], np.asarray(self.ALPHAS)
        sc, pj = a["sc"], a["proj"]
        out = {}
        spec = oracle.SimSpec(kind="gd", m=1.0, eta=sc["eta"], sigma=sc["sigma"],
                              L=sc["L"], n=1, steps=sc["steps"], trials=self.TRIALS,
                              seed=seed)
        out["sc"] = oracle.empirical_tradeoff(*oracle.simulate(spec),
                                              method="exact-lr", alphas=alphas)
        spec = oracle.SimSpec(kind="gd", m=0.0, eta=pj["eta"], sigma=pj["sigma"],
                              L=pj["L"], n=1, steps=pj["steps"], trials=self.TRIALS,
                              seed=seed + 1, diameter=pj["D"])
        out["proj"] = oracle.empirical_tradeoff(*oracle.simulate(spec),
                                                method="histogram-lr", alphas=alphas)
        params = self.acct.AlgoParams(kind="gd", eta=pj["eta"], sigma=pj["sigma"], n=1,
                                      L=pj["L"], steps=pj["steps"], M=1.0 / pj["eta"],
                                      D=pj["D"], constrained=True)
        out["proj_mu"] = self.acct.bound_gd_proj(params)
        laws = {"constant": lambda r, size: np.full(size, 1.0),
                "uniform": lambda r, size: r.uniform(-1.0, 1.0, size),
                "two-point": lambda r, size: r.choice([-1.0, 1.0], size)}
        for i, name in enumerate(self.LAWS):
            out[name] = oracle.check_gdpinf(1.0, 2.0, laws[name], self.TRIALS,
                                            seed=seed + 2 + i, alphas=alphas)[2]
        return out

    def check(self, request: Request, output) -> Checked:
        curves = [output[k] for k in ("sc", "proj", *self.LAWS)]
        result = Checked(digest=digest_of(*[c.values.tobytes() for c in curves]))
        bad = result.failures
        sc = request.args["sc"]
        exact_mu = ref.worst_case_gd_sc_mu(sc["eta"], 1.0, sc["sigma"], sc["L"], 1, sc["steps"])
        # Each estimate must sit inside its own DKW band around the reference:
        # two-sided for the exact worst case, one-sided below for the bounds.
        refs = (("sc", exact_mu, True), ("proj", output["proj_mu"], False),
                *((law, 0.5, False) for law in self.LAWS))
        for name, mu, two_sided in refs:
            curve = output[name]
            for a, v in zip(self.ALPHAS, curve.values.tolist()):
                gap = v - ref.gauss_tradeoff(mu, a)
                if gap < -curve.ci_halfwidth or (two_sided and gap > curve.ci_halfwidth):
                    bad.append(f"{name}: estimate leaves its DKW band at alpha={a:.2f}")
                    break
        return result


WORKLOADS = {w.name: w for w in (CliCold, TauSweep, PrivacyProfile, McVerify)}


# -- accuracy panel ---------------------------------------------------------------

# Gaussian-only composites (GDP factors and p = 1 subsampled factors, as
# (mu, p, multiplicity)), whose exact delta(eps) is G(mu) with the mus
# composed in quadrature. Evaluated after the timed loop of every workload.
# The first panel's shortfall comes from the lattice (it grows ~4x when the
# mesh doubles); the second's from the truncated tail of a single subsampled
# factor (it does not move with the mesh).
PANELS = {
    "delta_underreport_max": (
        ((0.1, None, 1),),
        ((0.5, None, 1),),
        ((0.05, 1.0, 400),),
        ((0.5, None, 1), (0.2, 1.0, 20)),
    ),
    "delta_underreport_tail": (
        ((0.344, None, 1), (0.812, 1.0, 1)),
    ),
}


def shortfall(pairs, floor: float = DELTA_FLOOR) -> float:
    """Largest (exact - reported) / exact over pairs with exact > floor."""
    return max((e - r) / e for e, r in pairs if e > floor)


def accuracy_panels() -> dict:
    """Metric name -> (exact, reported) delta pairs of its panel on EPS_GRID."""
    from fdp_accountant import accountant as acct
    from fdp_accountant import prv
    out = {}
    for name, panel in PANELS.items():
        pairs = out[name] = []
        for factors in panel:
            cb = acct.CompositeBound(tuple(
                acct.GdpFactor(mu) if p is None else acct.SubsampledGdpFactor(mu, p, k)
                for mu, p, k in factors))
            mu = math.sqrt(sum(m * m * k for m, _, k in factors))
            pairs += [(ref.gauss_delta(mu, e), d)
                      for e, d in prv.evaluate_composite(cb, EPS_GRID)]
    return out
