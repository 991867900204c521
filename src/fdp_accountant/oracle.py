"""Independent verification: exact worst-case constructions, Monte-Carlo
tradeoff estimation for simulated noisy optimizers, and a convex-QP solver
for optimal shift schedules.

The worst-case strongly convex pair is rank-1, so one-dimensional quadratic
simulations capture it exactly; empirical curves are Neyman-Pearson estimates
with Dvoretzky-Kiefer-Wolfowitz confidence bands and are reported as
estimates, never as certified bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from .tradeoff import gdp_eval

_CHUNK = 1 << 18
_DKW_CONFIDENCE = 0.99  # coverage of every empirical curve's band
_MIN_BINS = 64          # histogram-lr bin-count floor


def dkw_halfwidth(n: int) -> float:
    """Uniform ECDF band half-width at 99% confidence."""
    if n < 1:
        raise DomainError("need at least one sample")
    return math.sqrt(math.log(2.0 / (1.0 - _DKW_CONFIDENCE)) / (2.0 * n))


# -- exact worst case ---------------------------------------------------------


def worst_case_gd_sc_mu(c: float, s: float, sigma: float, t: int) -> float:
    """Exact GDP parameter of the worst-case contractive pair.

    The two terminal laws are N(0, v) and N(g, v) with drift
    g = s (1-c^t)/(1-c) and variance v = sigma^2 (1-c^{2t})/(1-c^2); the
    parameter is the mean gap over the standard deviation.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"need 0 < c < 1, got {c}")
    if s < 0 or sigma <= 0 or t < 1:
        raise DomainError("need s >= 0, sigma > 0, t >= 1")
    gap = s * (1.0 - c ** t) / (1.0 - c)
    var = sigma * sigma * (1.0 - c ** (2 * t)) / (1.0 - c * c)
    return gap / math.sqrt(var)


# -- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    """Quadratic simulation of a noisy optimizer pair, 1-d by default.

    Every datum contributes gradient m*x; in the adjacent dataset the
    perturbed index contributes m*x - L e_1 instead (the worst-case pair is
    rank-1, so one dimension captures it exactly). Projection, when the
    diameter is finite, is onto the centered interval or ball of that
    diameter.
    """

    kind: str = "gd"            # gd | cgd | sgd
    dimension: int = 1          # the worst-case constructions are rank-1
    m: float = 1.0
    eta: float = 0.1
    sigma: float = 1.0          # noise rate in the update eta*(grad + sigma*xi)
    L: float = 1.0
    n: int = 1
    b: int = 1
    steps: int = 10
    trials: int = 100_000
    seed: int = 0
    diameter: float = math.inf
    j_star: int = 1             # 1-based batch holding the perturbed index (cgd)

    def __post_init__(self):
        if self.kind not in ("gd", "cgd", "sgd"):
            raise DomainError("kind must be gd, cgd or sgd")
        if self.trials < 1 or self.steps < 1 or self.dimension < 1:
            raise DomainError("need trials >= 1, steps >= 1, dimension >= 1")
        if self.kind != "gd":
            if self.n % self.b != 0:
                raise DomainError("need b dividing n for batch variants")
            if not 1 <= self.j_star <= self.n // self.b:
                raise DomainError("j_star out of range")


def _drifts(spec: SimSpec) -> np.ndarray:
    """Per-step gradient-gap drifts of the perturbed process (units of eta)."""
    if spec.kind == "gd":
        return np.full(spec.steps, spec.L / spec.n)
    l = spec.n // spec.b
    if spec.kind == "cgd":
        hit = (np.arange(1, spec.steps + 1) - 1) % l + 1 == spec.j_star
        return np.where(hit, spec.L / spec.b, 0.0)
    # sgd: uniform batches include the perturbed index w.p. b/n, fresh each step
    return None  # drawn per trial chunk


def _project_ball(x: np.ndarray, half: float) -> None:
    if x.ndim == 1:
        np.clip(x, -half, half, out=x)
        return
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    np.multiply(x, np.where(norms > half, half / norms, 1.0), out=x)


def _run_chunk(spec: SimSpec, n_trials: int, seed) -> tuple:
    rng = np.random.default_rng(seed)
    c_step = 1.0 - spec.eta * spec.m
    scale = spec.eta * spec.sigma
    half = spec.diameter / 2.0
    project = math.isfinite(spec.diameter)
    drifts = _drifts(spec)
    shape = (n_trials,) if spec.dimension == 1 else (n_trials, spec.dimension)

    x = np.zeros(shape)
    y = np.zeros(shape)
    z = np.empty(shape)  # one noise buffer, drawn for x, then for y
    for k in range(spec.steps):
        if spec.kind == "sgd":
            inc = rng.random(n_trials) < spec.b / spec.n
            drift = np.where(inc, spec.eta * spec.L / spec.b, 0.0)
        else:
            drift = spec.eta * drifts[k]
        for state in (x, y):  # state = c_step * state - scale * z, in place
            rng.standard_normal(out=z)
            z *= scale
            state *= c_step
            state -= z
        if spec.dimension == 1:
            y += drift
        else:
            y[:, 0] += drift  # perturbation direction is the first axis
        if project:
            _project_ball(x, half)
            _project_ball(y, half)
    return x, y


def simulate(spec: SimSpec):
    """Terminal iterates of the adjacent pair: (baseline, perturbed) arrays.

    Trials run in chunks of _CHUNK with independently derived seeds, so
    results are reproducible given the master seed.
    """
    n_chunks = (spec.trials + _CHUNK - 1) // _CHUNK
    sizes = [min(_CHUNK, spec.trials - i * _CHUNK) for i in range(n_chunks)]
    seeds = np.random.SeedSequence(spec.seed).spawn(n_chunks)
    parts = [_run_chunk(spec, size, seed) for size, seed in zip(sizes, seeds)]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


# -- empirical tradeoff curves ------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalCurve:
    """Estimated tradeoff curve with a uniform confidence half-width.

    Stored as raw estimate arrays (noise can break the tradeoff invariants,
    so this is deliberately not a TradeoffCurve).
    """

    alphas: np.ndarray
    values: np.ndarray
    ci_halfwidth: float


DEFAULT_ALPHAS = np.linspace(0.01, 0.99, 197)


def empirical_tradeoff(samples_p, samples_q, method: str = "exact-lr",
                       loglr=None, alphas=None) -> EmpiricalCurve:
    """Estimate the tradeoff curve T(P, Q) from samples of both laws.

    exact-lr thresholds a supplied monotone likelihood-ratio statistic
    (identity by default, valid for location families); histogram-lr builds a
    1-d histogram density-ratio test (Freedman-Diaconis bins with a floor,
    99% confidence band inflated 1.5x for the density estimation).
    """
    samples_p = np.asarray(samples_p, dtype=float)
    samples_q = np.asarray(samples_q, dtype=float)
    if samples_p.size == 0 or samples_q.size == 0:
        raise DomainError("both sample sets must be nonempty")
    multivariate = samples_p.ndim > 1 and samples_p.shape[-1] > 1
    if multivariate and method != "exact-lr":
        raise DomainError("histogram-lr supports one-dimensional samples only")
    if multivariate and loglr is None:
        raise DomainError("multivariate samples need an explicit loglr statistic")
    if not multivariate:
        samples_p = samples_p.ravel()
        samples_q = samples_q.ravel()
    n_p = samples_p.shape[0]
    n_q = samples_q.shape[0]
    alphas = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas, dtype=float)
    ci = dkw_halfwidth(n_p) + dkw_halfwidth(n_q)

    if method == "exact-lr":
        stat_p = samples_p if loglr is None else np.asarray(loglr(samples_p))
        stat_q = samples_q if loglr is None else np.asarray(loglr(samples_q))
        # Reject (declare Q) above the alpha-quantile threshold of P's statistic.
        thresholds = np.quantile(stat_p, 1.0 - alphas)
        stat_q_sorted = np.sort(stat_q)
        betas = np.searchsorted(stat_q_sorted, thresholds, side="right") / n_q
        return EmpiricalCurve(alphas, betas, ci)

    if method == "histogram-lr":
        # Split-sample to avoid selection bias: the first halves order the
        # bins by estimated likelihood ratio, the second halves estimate the
        # error rates of the induced tests, so the DKW band applies honestly.
        hp, hq = n_p // 2, n_q // 2
        fit_p, eval_p = samples_p[:hp], samples_p[hp:]
        fit_q, eval_q = samples_q[:hq], samples_q[hq:]
        pooled = np.concatenate([samples_p, samples_q])
        iqr = float(np.subtract(*np.percentile(pooled, [75, 25])))
        width = 2.0 * iqr * pooled.size ** (-1.0 / 3.0)
        span = float(pooled.max() - pooled.min())
        bins = _MIN_BINS if width <= 0 or span == 0 else max(
            _MIN_BINS, min(8192, int(math.ceil(span / width))))
        edges = np.linspace(pooled.min(), pooled.max(), bins + 1)
        fp = np.histogram(fit_p, edges)[0] / max(1, fit_p.size)
        fq = np.histogram(fit_q, edges)[0] / max(1, fit_q.size)
        # Likelihood-ratio ordering of the bins; empty-P bins have infinite
        # ratio and are rejected first.
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(fp > 0, fq / fp, np.where(fq > 0, np.inf, 0.0))
        order = np.argsort(-ratio, kind="stable")
        ep = np.histogram(eval_p, edges)[0][order] / eval_p.size
        eq = np.histogram(eval_q, edges)[0][order] / eval_q.size
        alpha_path = np.concatenate([[0.0], np.cumsum(ep)])
        beta_path = np.concatenate([[1.0], 1.0 - np.cumsum(eq)])
        # Randomized interpolation between the discrete tests is linear.
        vals = np.interp(alphas, alpha_path, beta_path)
        ci = dkw_halfwidth(eval_p.size) + dkw_halfwidth(eval_q.size)
        return EmpiricalCurve(alphas, vals, 1.5 * ci)

    raise DomainError(f"unknown method {method!r}")


def curve_margin(emp: EmpiricalCurve, reference) -> float:
    """min over the grid of emp - (reference - ci); >= 0 means the reference
    lower bound is not violated empirically."""
    ref = reference(emp.alphas) if callable(reference) else np.asarray(reference)
    return float(np.min(emp.values - (ref - emp.ci_halfwidth)))


def check_gdpinf(s: float, sigma: float, w_law, n_trials: int, seed: int = 0,
                 alphas=None):
    """Empirical check that T(W + Z, Z) >= G(s / sigma) for a bounded shift.

    w_law(rng, size) must return samples with |W| <= s. Returns
    (passed, margin, curve); margin is the worst signed slack against
    G(s/sigma) - ci over the alpha grid.
    """
    if s < 0 or sigma <= 0 or n_trials < 2:
        raise DomainError("need s >= 0, sigma > 0, n_trials >= 2")
    rng = np.random.default_rng(seed)
    w = np.asarray(w_law(rng, n_trials), dtype=float)
    if np.max(np.abs(w)) > s + 1e-12:
        raise DomainError("w_law produced samples outside [-s, s]")
    z_p = rng.standard_normal(n_trials) * sigma
    z_q = rng.standard_normal(n_trials) * sigma
    emp = empirical_tradeoff(w + z_p, z_q, method="histogram-lr", alphas=alphas)
    margin = curve_margin(emp, gdp_eval(s / sigma, emp.alphas))
    return margin >= 0.0, margin, emp


# -- optimal shift schedules ---------------------------------------------------


def optimal_schedule_qp(c: float, s_seq, z_tau: float = 0.0):
    """Minimum of sum a_k^2 over shifts closing the recursion from z_tau.

    With z_k = c z_{k-1} + s_k - a_k, the constraints a_k >= 0, z_k >= 0
    (k < n) and z_n = 0 are exactly lambda_k in [0, 1] with lambda_n = 1. As
    z = c^k z_tau + M (s - a) with M_kj = c^{k-j} (j <= k), this is a strictly
    convex QP, so one SLSQP solve from the feasible greedy start
    (a = s, a_1 += c z_tau) finds its unique optimum. Independent numerical
    check of the closed-form schedules; returns (sum_sq, a).
    """
    s_arr = np.asarray(s_seq, dtype=float).ravel()
    if s_arr.size == 0:
        raise DomainError("need at least one step")
    if c < 0 or z_tau < 0 or np.any(s_arr < 0):
        raise DomainError("need c >= 0, z_tau >= 0 and sensitivities >= 0")
    from scipy import optimize

    k = np.arange(s_arr.size)
    powers = float(c) ** np.arange(s_arr.size + 1)
    M = np.tril(powers[np.abs(k[:, None] - k[None, :])])
    z0 = powers[1:] * z_tau + M @ s_arr  # z with every a_k = 0
    a0 = s_arr.copy()
    a0[0] += c * z_tau
    res = optimize.minimize(
        lambda a: a @ a, a0, jac=lambda a: 2.0 * a, method="SLSQP",
        bounds=[(0.0, None)] * s_arr.size,
        constraints=[
            {"type": "ineq", "fun": lambda a: z0[:-1] - M[:-1] @ a,
             "jac": lambda a: -M[:-1]},
            {"type": "eq", "fun": lambda a: z0[-1:] - M[-1:] @ a,
             "jac": lambda a: -M[-1:]},
        ],
        options={"ftol": 1e-15, "maxiter": 1000})
    if not res.success:
        raise VerificationError(f"schedule QP did not converge: {res.message}")
    return float(res.x @ res.x), res.x
