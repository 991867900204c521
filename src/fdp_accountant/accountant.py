"""Privacy bounds for noisy gradient descent variants.

Covers full-batch (GD), cyclic-batch (CGD) and stochastic-batch (SGD)
optimizers, each in three flavours: the step-counting composition bound, the
convergent strongly-convex bound and the convergent constrained-convex bound.
GD and CGD bounds are single Gaussian parameters; SGD bounds are symbolic
products of Gaussian and subsampled-Gaussian factors evaluated numerically by
the prv module. Also includes the CLT approximations of the subsampled
compositions and the sampling / exponential-mechanism corollaries obtained in
the many-step limit.

Conventions: sigma is the noise rate inside the update
x <- Pi_K[x - eta (grad + Z)], Z ~ N(0, sigma^2 I); the per-step sensitivity
is eta L / n (full batch) or eta L / b (cyclic or stochastic batch) and the
per-step noise scale is eta sigma. The contraction factor
c = max(|1 - eta m|, |1 - eta M|) is always derived from (eta, m, M), never
supplied directly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from . import normal
from .errors import DomainError

GD, CGD, SGD = "gd", "cgd", "sgd"
_KINDS = (GD, CGD, SGD)

_JSON_FIELDS = ("kind", "eta", "sigma", "n", "b", "epochs", "steps",
                "L", "m", "M", "D", "constrained")
_SNAP_TOL = 1e-9  # relative distance to an integer that ceil_snap rounds to


def ceil_snap(x) -> int:
    """Ceiling with a snap-to-integer guard for floats; ratios like
    D n / (eta L) are discontinuous at integers."""
    r = round(x)
    if abs(x - r) <= _SNAP_TOL * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


@dataclass(frozen=True)
class AlgoParams:
    """Description of one private optimizer run."""

    kind: str
    eta: float
    sigma: float
    n: int
    L: float
    b: int | None = None
    epochs: int | None = None
    steps: int | None = None
    m: float = 0.0
    M: float = math.inf
    D: float = math.inf
    constrained: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for name in ("eta", "sigma", "L", "m", "M", "D"):
            value = getattr(self, name)
            # M and D may be +inf, their "unset" default.
            if math.isnan(value) or (math.isinf(value) and name not in ("M", "D")):
                raise DomainError(f"{name} must be a finite number, got {value}")
        if self.sigma <= 0:
            raise DomainError("noise rate sigma must be > 0")
        if self.n < 1:
            raise DomainError("dataset size n must be >= 1")
        if self.L < 0:
            raise DomainError("gradient sensitivity L must be >= 0")
        if self.eta < 0:
            raise DomainError("learning rate eta must be >= 0")
        if self.b is None:
            object.__setattr__(self, "b", self.n if self.kind == GD else None)
        if self.b is not None and not 1 <= self.b <= self.n:
            raise DomainError("batch size b must satisfy 1 <= b <= n")
        if self.kind == CGD:
            if self.b is None:
                raise DomainError("cyclic batches need a batch size b")
            if self.n % self.b != 0:
                raise DomainError("cyclic batches need n divisible by b")
            l = self.n // self.b
            if self.epochs is None and self.steps is not None:
                if self.steps % l != 0:
                    raise DomainError("cyclic steps must be a multiple of n/b")
                object.__setattr__(self, "epochs", self.steps // l)
            if self.epochs is not None:
                t = l * self.epochs
                if self.steps is None:
                    object.__setattr__(self, "steps", t)
                elif self.steps != t:
                    raise DomainError("steps must equal (n/b) * epochs for cyclic batches")

    @property
    def l(self) -> int:
        """Batches per epoch, n / b."""
        if self.b is None or self.n % self.b != 0:
            raise DomainError("batches per epoch undefined unless b divides n")
        return self.n // self.b

    @property
    def t(self) -> int:
        if self.steps is None:
            raise DomainError("number of steps is not set")
        return self.steps

    @property
    def E(self) -> int:
        if self.epochs is None:
            raise DomainError("number of epochs is not set")
        return self.epochs

    def contraction(self) -> float:
        """c = max(|1 - eta m|, |1 - eta M|)."""
        if not math.isfinite(self.M):
            raise DomainError("smoothness modulus M is required")
        return max(abs(1.0 - self.eta * self.m), abs(1.0 - self.eta * self.M))

    def require_strongly_convex(self) -> float:
        if self.m <= 0:
            raise DomainError("strongly convex bounds need modulus m > 0; "
                              "use the constrained convex bound for merely "
                              "convex losses")
        if not math.isfinite(self.M) or not 0.0 < self.eta < 2.0 / self.M:
            raise DomainError("strongly convex bounds need 0 < eta < 2/M")
        c = self.contraction()
        if c >= 1.0:
            raise DomainError("contraction factor is >= 1; use the constrained "
                              "convex bound instead")
        return c

    def require_constrained(self) -> None:
        if not math.isfinite(self.D) or self.D < 0:
            raise DomainError("constrained bounds need a finite diameter D >= 0")
        if not math.isfinite(self.M) or not 0.0 <= self.eta <= 2.0 / self.M:
            raise DomainError("constrained bounds need 0 <= eta <= 2/M")

    def to_dict(self) -> dict:
        """Parameters as a JSON-ready document; infinities become None."""
        doc = {}
        for name in _JSON_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float) and math.isinf(value):
                value = None
            doc[name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "AlgoParams":
        """Parameters from a decoded JSON document; None fields take the
        defaults."""
        unknown = set(doc) - set(_JSON_FIELDS)
        if unknown:
            raise DomainError(f"unknown parameter fields: {sorted(unknown)}")
        given = {k: v for k, v in doc.items() if v is not None}
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in given]
        if missing:
            raise DomainError(f"missing parameter fields: {missing}")
        return cls(**given)


# -- symbolic composite bounds ------------------------------------------------


@dataclass(frozen=True)
class GdpFactor:
    """A plain G(mu) factor."""
    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError("GDP factor needs mu >= 0")


@dataclass(frozen=True)
class SubsampledGdpFactor:
    """C_p(G(mu)) repeated `multiplicity` times."""
    mu: float
    p: float
    multiplicity: int = 1

    def __post_init__(self):
        if self.mu < 0 or not 0.0 <= self.p <= 1.0 or self.multiplicity < 1:
            raise DomainError("subsampled factor needs mu >= 0, p in [0,1], "
                              "multiplicity >= 1")


@dataclass(frozen=True)
class CompositeBound:
    """Product of tradeoff factors awaiting numerical evaluation."""
    factors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def describe(self) -> list:
        out = []
        for f in self.factors:
            if isinstance(f, SubsampledGdpFactor):
                out.append({"type": "subsampled_gdp", "mu": f.mu, "p": f.p,
                            "multiplicity": f.multiplicity})
            else:
                out.append({"type": "gdp", "mu": f.mu})
        return out


# -- full-batch bounds --------------------------------------------------------


def _gd_sc_mu(c: float, ratio: float, t: int) -> float:
    ct = c ** t
    return math.sqrt((1.0 - ct) / (1.0 + ct) * (1.0 + c) / (1.0 - c)) * ratio


def bound_gd_composition(p: AlgoParams) -> float:
    """mu = L sqrt(t) / (n sigma), the step-counting bound."""
    return p.L * math.sqrt(p.t) / (p.n * p.sigma)


def bound_gd_sc(p: AlgoParams) -> float:
    """Convergent (and optimal) GDP parameter for strongly convex losses:
    mu = sqrt((1-c^t)/(1+c^t) * (1+c)/(1-c)) * L/(n sigma)."""
    c = p.require_strongly_convex()
    return _gd_sc_mu(c, p.L / (p.n * p.sigma), p.t)


def bound_gd_proj(p: AlgoParams, tau: int | None = None) -> float:
    """Convergent GDP parameter for constrained convex losses.

    Without tau (requires t >= D n / (eta L)) the plateau form
    mu = (1/sigma) sqrt(3LD/(eta n) + (L/n)^2 ceil(Dn/(eta L))) is used; with
    an explicit tau the window form mu = L sqrt(t-tau)/(n sigma)
    + D/(eta sigma sqrt(t-tau)).
    """
    p.require_constrained()
    if p.L == 0:
        return 0.0
    if p.D == 0:
        # Degenerate diameter: one-step window with no distance term.
        return p.L / (p.n * p.sigma)
    if tau is not None:
        if not 0 <= tau < p.t:
            raise DomainError(f"need 0 <= tau < t, got tau={tau}")
        w = p.t - tau
        return (p.L * math.sqrt(w) / (p.n * p.sigma)
                + p.D / (p.eta * p.sigma * math.sqrt(w)))
    if p.eta == 0:
        raise DomainError("plateau form needs eta > 0")
    threshold = p.D * p.n / (p.eta * p.L)
    if p.t < threshold:
        raise DomainError(
            f"plateau form needs t >= D n/(eta L) = {threshold:g}; "
            "pass tau explicitly for shorter runs")
    ratio = p.L / p.n
    return math.sqrt(3.0 * ratio * p.D / p.eta
                     + ratio * ratio * ceil_snap(threshold)) / p.sigma


# -- cyclic-batch bounds ------------------------------------------------------


def bound_cgd_composition(p: AlgoParams) -> float:
    """mu = L sqrt(E) / (b sigma)."""
    return p.L * math.sqrt(p.E) / (p.b * p.sigma)


def bound_cgd_sc(p: AlgoParams) -> float:
    """Convergent GDP parameter for cyclic batches on strongly convex losses."""
    c = p.require_strongly_convex()
    l, E = p.l, p.E
    if E == 1:
        return p.L / (p.b * p.sigma)
    q = c ** (l * (E - 1))
    inner = (c ** (2 * l - 2) * (1.0 - c * c) / (1.0 - c ** l) ** 2
             * (1.0 - q) / (1.0 + q))
    return p.L / (p.b * p.sigma) * math.sqrt(1.0 + inner)


def bound_cgd_proj(p: AlgoParams) -> float:
    """Convergent GDP parameter for cyclic batches on constrained convex
    losses; needs E >= D b / (eta L)."""
    p.require_constrained()
    if p.L == 0:
        return 0.0
    if p.eta == 0:
        raise DomainError("constrained cyclic bound needs eta > 0")
    threshold = p.D * p.b / (p.eta * p.L)
    if p.E < threshold:
        raise DomainError(
            f"constrained cyclic bound needs E >= D b/(eta L) = {threshold:g}")
    ratio = p.L / p.b
    if p.D == 0:
        return ratio / p.sigma
    inner = (ratio * ratio + 3.0 * ratio * p.D / (p.eta * p.l)
             + ratio * ratio / p.l * ceil_snap(threshold))
    return math.sqrt(inner) / p.sigma


# -- stochastic-batch bounds --------------------------------------------------


def bound_sgd_composition(p: AlgoParams) -> CompositeBound:
    """C_{b/n}(G(L/(b sigma)))^{x t}."""
    return CompositeBound((SubsampledGdpFactor(p.L / (p.b * p.sigma),
                                               p.b / p.n, p.t),))


def bound_sgd_sc(p: AlgoParams, tau: int) -> CompositeBound:
    """Strongly convex SGD bound for a given window start tau in [0, t-1]:

        G(2 sqrt(2) L/(b sigma) (c^{t-tau+1} - c^t)/(1-c))
        x C_{b/n}(G(2 sqrt(2) L/(b sigma)))
        x C_{b/n}(G(2 L/(b sigma)))^{x (t-tau)}
    """
    c = p.require_strongly_convex()
    if not 0 <= tau <= p.t - 1:
        raise DomainError(f"need 0 <= tau <= t-1, got tau={tau}")
    ratio = p.L / (p.b * p.sigma)
    rate = p.b / p.n
    # The residual distance behind the head factor is 0 at tau = 0 (it equals
    # the tau = 1 value); the tau >= 1 closed form would go negative there.
    head = max(0.0, 2.0 * math.sqrt(2.0) * ratio
               * (c ** (p.t - tau + 1) - c ** p.t) / (1.0 - c))
    return CompositeBound((
        GdpFactor(head),
        SubsampledGdpFactor(2.0 * math.sqrt(2.0) * ratio, rate, 1),
        SubsampledGdpFactor(2.0 * ratio, rate, p.t - tau),
    ))


def bound_sgd_proj(p: AlgoParams, tau: int) -> CompositeBound:
    """Constrained convex SGD bound for a given window start tau in [0, t-1]:

        G(sqrt(2) D / (eta sigma sqrt(t-tau)))
        x C_{b/n}(G(2 sqrt(2) L/(b sigma)))^{x (t-tau)}
    """
    p.require_constrained()
    if not 0 <= tau <= p.t - 1:
        raise DomainError(f"need 0 <= tau <= t-1, got tau={tau}")
    if p.eta == 0:
        raise DomainError("constrained stochastic bound needs eta > 0")
    w = p.t - tau
    head = math.sqrt(2.0) * p.D / (p.eta * p.sigma * math.sqrt(w))
    factors = [] if p.D == 0 else [GdpFactor(head)]
    factors.append(SubsampledGdpFactor(
        2.0 * math.sqrt(2.0) * p.L / (p.b * p.sigma), p.b / p.n, w))
    return CompositeBound(tuple(factors))


# -- CLT approximations -------------------------------------------------------


def _clt_inner(mu: float) -> float:
    """e^{mu^2} Phi(1.5 mu) + 3 Phi(-0.5 mu) - 2, clipped at 0 (it vanishes
    at mu = 0 and is increasing)."""
    val = (math.exp(mu * mu + float(normal.log_cdf(1.5 * mu)))
           + 3.0 * float(normal.cdf(-0.5 * mu)) - 2.0)
    return max(val, 0.0)


def clt_subsampled(mu: float, p: float, t: int) -> float:
    """Gaussian limit of C_p(G(mu))^{x t} when p sqrt(t) is moderate:
    mu_out = sqrt(2) p sqrt(t) sqrt(e^{mu^2} Phi(1.5 mu) + 3 Phi(-0.5 mu) - 2)."""
    if mu < 0 or not 0.0 <= p <= 1.0 or t < 1:
        raise DomainError("need mu >= 0, p in [0, 1], t >= 1")
    return math.sqrt(2.0) * p * math.sqrt(t) * math.sqrt(_clt_inner(mu))


def clt_sgd_sc(p: AlgoParams):
    """CLT-approximate strongly convex SGD bound with the window length
    optimized in closed form. Returns (t_minus_tau, mu)."""
    c = p.require_strongly_convex()
    ratio = p.L / (p.b * p.sigma)
    K = _clt_inner(2.0 * ratio)
    if K <= 0:
        raise DomainError("degenerate sensitivity: CLT term vanishes")
    log_inv_c = math.log(1.0 / c)
    arg = (p.b ** 2 * p.sigma * (1.0 - c) * math.sqrt(K)
           / (2.0 * math.sqrt(2.0) * p.n * p.L * math.sqrt(log_inv_c)))
    w = -math.log(arg) / log_inv_c - 1.0
    return w, _clt_sgd_sc_mu(p, w)


def _clt_sgd_sc_mu(p: AlgoParams, w: float) -> float:
    c = p.contraction()
    ratio = p.L / (p.b * p.sigma)
    K = _clt_inner(2.0 * ratio)
    head = ratio * c ** (w + 1.0) / (1.0 - c)
    return math.sqrt(8.0 * head * head + 2.0 * (p.b / p.n) ** 2 * w * K)


def clt_sgd_proj(p: AlgoParams):
    """CLT-approximate constrained convex SGD bound with the window length
    optimized in closed form. Returns (t_minus_tau, mu)."""
    p.require_constrained()
    if p.D == 0 or p.eta == 0:
        raise DomainError("CLT window is degenerate for D = 0 or eta = 0")
    ratio = p.L / (p.b * p.sigma)
    K = (math.exp(8.0 * ratio * ratio
                  + float(normal.log_cdf(3.0 * math.sqrt(2.0) * ratio)))
         + 3.0 * float(normal.cdf(-math.sqrt(2.0) * ratio)) - 2.0)
    if K <= 0:
        raise DomainError("degenerate sensitivity: CLT term vanishes")
    w = p.D * p.n / (p.b * p.eta * p.sigma * math.sqrt(K))
    return w, _clt_sgd_proj_mu(p, w, K)


def _clt_sgd_proj_mu(p: AlgoParams, w: float, K: float) -> float:
    return math.sqrt(2.0 * p.D ** 2 / (p.eta ** 2 * p.sigma ** 2 * w)
                     + 2.0 * (p.b / p.n) ** 2 * w * K)


# -- sampling / exponential-mechanism corollaries ----------------------------


def expmech_sc(L: float, m: float) -> float:
    """Sampling from exp(-F) with m-strongly convex F and F - F' being
    L-Lipschitz is G(L / sqrt(m))-DP."""
    if L < 0 or m <= 0:
        raise DomainError("need L >= 0 and m > 0")
    return L / math.sqrt(m)


def lmc_sc(L: float, m: float, eta: float, t: int) -> float:
    """GDP parameter of t steps of Langevin Monte Carlo (noise variance
    2 eta per step) on m-strongly convex potentials, in the stepsize regime
    where one step contracts at rate c = 1 - eta m."""
    if L < 0 or m <= 0 or t < 1:
        raise DomainError("need L >= 0, m > 0, t >= 1")
    if not 0.0 < eta * m <= 1.0:
        raise DomainError("need 0 < eta m <= 1 (eta <= 2/(M+m))")
    c = 1.0 - eta * m
    sigma = math.sqrt(2.0 / eta)
    if c == 0.0:
        return L / sigma
    return _gd_sc_mu(c, L / sigma, t)


def lmc_stationary_sc(L: float, m: float, eta: float) -> float:
    """Stationary limit of lmc_sc: G(sqrt((2 - eta m)/2) L / sqrt(m))."""
    if L < 0 or m <= 0:
        raise DomainError("need L >= 0 and m > 0")
    if not 0.0 <= eta * m <= 1.0:
        raise DomainError("need 0 <= eta m <= 1")
    return math.sqrt((2.0 - eta * m) / 2.0) * L / math.sqrt(m)


def expmech_convex(L: float, D: float, eta: float | None = None) -> float:
    """Sampling from exp(-F) restricted to a diameter-D convex body, for
    convex L-Lipschitz F: G(2 sqrt(LD))-DP; with a stepsize, the stationary
    projected chain satisfies G(sqrt(4LD + 2 eta L^2))-DP."""
    if L < 0 or D < 0:
        raise DomainError("need L >= 0 and D >= 0")
    if eta is None or eta == 0:
        return 2.0 * math.sqrt(L * D)
    if eta < 0:
        raise DomainError("eta must be >= 0")
    return math.sqrt(4.0 * L * D + 2.0 * eta * L * L)


def expmech_pure_dp_threshold() -> float:
    """Root c* of e^{2x} = (1 - Phi(-sqrt(x))) / Phi(-sqrt(x)).

    Below c* the pure-DP guarantee (2x, 0) of the exponential mechanism
    dominates the Gaussian guarantee G(2 sqrt(x)); above it the Gaussian
    bound is an improvement. Bisected to an interval of width 1e-6.
    """
    def gap(x: float) -> float:
        r = math.sqrt(x)
        return 2.0 * x - (float(normal.log_cdf(r)) - float(normal.log_cdf(-r)))

    lo, hi = 1e-4, 4.0
    if gap(lo) >= 0 or gap(hi) <= 0:
        raise DomainError("threshold bracket failed")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossover_step(convergent_mu: float, composition_rate: float) -> int:
    """Smallest step count t at which the composition bound
    composition_rate * sqrt(t) reaches a convergent bound mu, i.e.
    ceil((mu / rate)^2)."""
    if convergent_mu < 0 or composition_rate <= 0:
        raise DomainError("need mu >= 0 and rate > 0")
    return max(1, ceil_snap((convergent_mu / composition_rate) ** 2))


# -- tau sweeps ---------------------------------------------------------------


def tau_window_grid(t: int, max_candidates: int = 64) -> list:
    """Log-spaced window lengths t - tau in [1, t], at most max_candidates."""
    if max_candidates < 1:
        raise DomainError(
            f"candidate count must be >= 1, got {max_candidates}")
    import numpy as np  # deferred: closed-form bounds run without NumPy
    ws = np.unique(np.round(np.geomspace(1, t, max_candidates)).astype(int))
    return [int(w) for w in ws if 1 <= w <= t]


def sweep_tau(p: AlgoParams, eps_list, setting: str = "sc",
              max_candidates: int = 64):
    """Evaluate an SGD composite bound over a log grid of tau candidates and
    report, per eps, the best delta (the theorems hold for every tau, so the
    pointwise minimum is a valid bound).

    Returns a dict with taus, the delta matrix (tau major), and per-eps
    (best_delta, best_tau).
    """
    import numpy as np  # deferred: closed-form bounds run without NumPy

    from . import prv  # deferred: prv has no compile-time dependence on us

    if setting not in ("sc", "proj"):
        raise DomainError("setting must be 'sc' or 'proj'")
    build = bound_sgd_sc if setting == "sc" else bound_sgd_proj
    eps_list = [float(e) for e in eps_list]
    taus = [p.t - w for w in tau_window_grid(p.t, max_candidates)]
    rows = []
    for tau in taus:
        cb = build(p, tau)
        deltas = prv.evaluate_composite(cb, eps_list)
        rows.append([d for _, d in deltas])
    matrix = np.asarray(rows)
    best_idx = np.argmin(matrix, axis=0)
    best = [{"eps": eps_list[j], "delta": float(matrix[best_idx[j], j]),
             "tau": taus[best_idx[j]]} for j in range(len(eps_list))]
    return {"taus": taus, "eps": eps_list, "deltas": matrix.tolist(), "best": best}


# -- consistency helpers ------------------------------------------------------


def gd_sc_mu_via_schedule(p: AlgoParams) -> float:
    """bound_gd_sc recomputed as schedule + meta bound (equal to 1e-12 rel)."""
    from .schedule import meta_mu, optimal_sc_schedule
    c = p.require_strongly_convex()
    sched, _ = optimal_sc_schedule(c, p.eta * p.L / p.n, p.t)
    return meta_mu(sched, p.eta * p.sigma)


def gd_proj_mu_via_schedule(p: AlgoParams) -> float:
    """Plateau constrained bound recomputed as schedule + meta bound; equals
    bound_gd_proj exactly when D n / (eta L) is an integer."""
    from .schedule import meta_mu, optimal_proj_schedule
    p.require_constrained()
    s = p.eta * p.L / p.n
    w = ceil_snap(p.D * p.n / (p.eta * p.L))
    sched, _, _ = optimal_proj_schedule(s, p.D, w, 0)
    return meta_mu(sched, p.eta * p.sigma)
