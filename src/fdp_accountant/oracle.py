"""Independent verification: exact worst-case constructions and Monte-Carlo
tradeoff estimation for simulated noisy optimizers.

The worst-case pairs are rank-1 (N(0, v) against N(g, v), or a projected 1-d
walk), so 1-d simulations and estimators capture them exactly; empirical
curves are Neyman-Pearson estimates with Dvoretzky-Kiefer-Wolfowitz confidence
bands and are reported as estimates, never as certified bounds.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tradeoff import gdp_eval

_CHUNK = 1 << 14        # most trials in one Monte-Carlo chunk
# Cap on the trials of one simulation or bounded-shift check (128 MiB per
# float64 array of trials), checked before any array is allocated.
MAX_TRIALS = 1 << 24
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


def _check_trials(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise DomainError(f"{trials} trials exceeds the limit of {MAX_TRIALS}")


@dataclass(frozen=True)
class SimSpec:
    """One-dimensional quadratic simulation of a noisy optimizer pair.

    Every datum contributes gradient m*x; in the adjacent dataset the
    perturbed index contributes m*x - L instead (the worst-case pair is
    rank-1, so one dimension captures it exactly). Projection, when the
    diameter is finite, is onto the centered interval of that diameter.
    """

    dimension = 1  # not a field: bench/tracing.py reads it to count trial-steps
    kind: str = "gd"            # gd | sgd
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

    def __post_init__(self):
        if self.kind not in ("gd", "sgd"):
            raise DomainError("kind must be gd or sgd")
        for name in ("n", "b", "trials", "steps"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        _check_trials(self.trials)
        if not all(math.isfinite(v) for v in (self.eta, self.sigma, self.m, self.L)):
            raise DomainError("need finite eta, sigma, m and L")
        if min(self.eta, self.sigma, self.L) < 0:
            raise DomainError("need eta, sigma and L >= 0")
        if not self.diameter > 0:  # a NaN diameter fails too
            raise DomainError(f"need diameter > 0 (inf: no projection), got {self.diameter}")
        if self.kind == "sgd" and self.b > self.n:
            raise DomainError(f"need b <= n for sgd, got b={self.b}, n={self.n}")


def _drifts(spec: SimSpec) -> np.ndarray:
    """Per-step gradient-gap drifts of the perturbed process (units of eta)."""
    if spec.kind == "gd":
        return np.full(spec.steps, spec.L / spec.n)
    # sgd: uniform batches include the perturbed index w.p. b/n, fresh each step
    return None  # drawn at each step, from the chunk's stream


def _project(x: np.ndarray, half: float) -> None:
    """Project each iterate of x onto [-half, half], in place."""
    np.clip(x, -half, half, out=x)


def _run_chunk(spec: SimSpec, pair: np.ndarray, z: np.ndarray, seed) -> None:
    """Run one chunk of the pair in place: pair[0] is the baseline, pair[1]
    the perturbed process (zeros on entry), and z the chunk's noise buffer.

    Each step draws one noise vector from the chunk's stream and both rows
    take it; only row 1 takes the drift. For sgd the Bernoulli inclusions
    come from the same stream, before each step's noise, whatever L is, so
    the baseline never depends on L.
    """
    rng = np.random.Generator(np.random.SFC64(seed))
    c_step = 1.0 - spec.eta * spec.m
    scale = spec.eta * spec.sigma
    half = spec.diameter / 2.0
    project = math.isfinite(spec.diameter)
    drifts = _drifts(spec)
    perturbed = pair[1]
    for k in range(spec.steps):
        if spec.kind == "sgd":
            inc = rng.random(len(z)) < spec.b / spec.n
            drift = np.where(inc, spec.eta * spec.L / spec.b, 0.0)
        else:
            drift = spec.eta * drifts[k]
        rng.standard_normal(out=z)  # pair = c_step * pair - scale * z
        z *= scale
        pair *= c_step
        pair -= z
        perturbed += drift
        if project:
            _project(pair, half)


def _chunk_edges(trials: int) -> list:
    """Boundaries of the chunks of a run: the fewest chunks of at most _CHUNK
    trials, their count rounded up to an even number (so two threads get
    equal shares) but never above the trial count. The first trials % count
    chunks hold one trial more than the rest."""
    count = min(2 * -(-trials // (2 * _CHUNK)), trials)
    size, longer = divmod(trials, count)
    return [i * size + min(i, longer) for i in range(count + 1)]


def simulate(spec: SimSpec):
    """Terminal iterates of the adjacent pair: (baseline, perturbed) arrays.

    The two processes are coupled: at every step both take the same noise
    draw, so half as many random numbers are drawn. Each process on its own
    still has exactly its law, and a tradeoff curve depends only on the two
    marginal laws (empirical_tradeoff's band holds under the coupling).
    Without projection a gd perturbed iterate is the baseline plus a fixed
    drift, so one noise sample serves both laws.

    The trials are split into an even number of equal chunks (sizes differ
    by at most one) of at most _CHUNK trials; a run of fewer trials than
    two chunks holds no empty chunk. Each chunk draws from its own SFC64
    stream, seeded by its child of the master SeedSequence, on a thread
    pool (NumPy releases the GIL while drawing). The layout depends only on
    spec.trials and each chunk only on its seed, so the output depends only
    on spec.seed and spec.trials, not on the number of workers.
    """
    # The large arrays are allocated here: memory that a worker thread frees
    # stays in that thread's malloc arena and adds to the peak RSS.
    pair = np.zeros((2, spec.trials))
    noise = np.empty(spec.trials)
    edges = _chunk_edges(spec.trials)
    seeds = np.random.SeedSequence(spec.seed).spawn(len(edges) - 1)
    tasks = [(pair[:, lo:hi], noise[lo:hi], seed)
             for lo, hi, seed in zip(edges, edges[1:], seeds)]
    workers = min(len(tasks), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(lambda task: _run_chunk(spec, *task), tasks):
            pass  # reading each result re-raises a worker's exception
    return pair[0], pair[1]


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
                       alphas=None) -> EmpiricalCurve:
    """Estimate the tradeoff curve T(P, Q) from 1-d samples of both laws
    (arrays of any shape are raveled).

    exact-lr thresholds the samples themselves, the likelihood-ratio
    statistic of a location family such as the Gaussian worst-case pair;
    histogram-lr builds a histogram density-ratio test (Freedman-Diaconis
    bins with a floor, 99% confidence band inflated 1.5x for the density
    estimation).

    The two sample sets may be coupled, as simulate's pairs are: the band is
    a union of two DKW events, each about one set's own empirical CDF, so it
    holds whatever the joint law of the sets. histogram-lr fits its bins on
    the first half of each set and estimates the errors on the second; in a
    coupled pair of equal sizes the halves hold disjoint, independent
    trials, so the eval samples stay independent of the fitted bins.
    """
    samples_p = np.asarray(samples_p, dtype=float).ravel()
    samples_q = np.asarray(samples_q, dtype=float).ravel()
    n_p, n_q = samples_p.size, samples_q.size
    if n_p == 0 or n_q == 0:
        raise DomainError("both sample sets must be nonempty")
    alphas = DEFAULT_ALPHAS if alphas is None else np.asarray(alphas, dtype=float)
    if not np.all((alphas >= 0.0) & (alphas <= 1.0)):  # NaN fails too
        raise DomainError("alphas must lie in [0, 1]")
    ci = dkw_halfwidth(n_p) + dkw_halfwidth(n_q)

    if method == "exact-lr":
        # Reject (declare Q) above the alpha-quantile threshold of P's samples.
        thresholds = np.quantile(samples_p, 1.0 - alphas)
        betas = np.searchsorted(np.sort(samples_q), thresholds, side="right") / n_q
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
    """min over the grid of emp - (reference - ci), reference being values on
    emp.alphas; >= 0 means that lower bound is not violated empirically."""
    return float(np.min(emp.values - (np.asarray(reference) - emp.ci_halfwidth)))


def check_gdpinf(s: float, sigma: float, w_law, n_trials: int, seed: int = 0,
                 alphas=None):
    """Empirical check that T(W + Z, Z) >= G(s / sigma) for a bounded shift.

    w_law(rng, size) must return samples with |W| <= s. Returns
    (passed, margin, curve); margin is the worst signed slack against
    G(s/sigma) - ci over the alpha grid.
    """
    if not (math.isfinite(s) and math.isfinite(sigma)):
        raise DomainError("need finite s and sigma")
    if s < 0 or sigma <= 0 or n_trials < 2:
        raise DomainError("need s >= 0, sigma > 0, n_trials >= 2")
    _check_trials(n_trials)
    rng = np.random.default_rng(seed)
    w = np.asarray(w_law(rng, n_trials), dtype=float)
    if np.max(np.abs(w)) > s + 1e-12:
        raise DomainError("w_law produced samples outside [-s, s]")
    z_p = rng.standard_normal(n_trials) * sigma
    z_q = rng.standard_normal(n_trials) * sigma
    emp = empirical_tradeoff(w + z_p, z_q, method="histogram-lr", alphas=alphas)
    # Float alphas keep the reference curve on the standard library.
    reference = [gdp_eval(s / sigma, a) for a in emp.alphas.tolist()]
    margin = curve_margin(emp, reference)
    return margin >= 0.0, margin, emp
