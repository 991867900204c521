"""Privacy bounds for noisy gradient descent variants.

Covers full-batch (GD), cyclic-batch (CGD) and stochastic-batch (SGD)
optimizers, each in three flavours: the step-counting composition bound, the
convergent strongly-convex bound and the convergent constrained-convex bound.
GD and CGD bounds are single Gaussian parameters; SGD bounds are symbolic
products of Gaussian and subsampled-Gaussian factors evaluated numerically by
the prv module. Also includes the CLT limit of a subsampled composition,
which starts the tau sweep's window search, and the sampling /
exponential-mechanism corollaries obtained in the many-step limit.

Conventions: sigma is the noise rate inside the update
x <- Pi_K[x - eta (grad + Z)], Z ~ N(0, sigma^2 I); the per-step sensitivity
is eta L / n (full batch) or eta L / b (cyclic or stochastic batch) and the
per-step noise scale is eta sigma. The contraction factor
c = max(|1 - eta m|, |1 - eta M|) is always derived from (eta, m, M), never
supplied directly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

from . import normal
from .errors import DomainError

GD, CGD, SGD = "gd", "cgd", "sgd"
_KINDS = (GD, CGD, SGD)

# JSON parameter fields, in report order, with the type each must have.
_NUMBER = ((int, float), "a number")
_INTEGER = (int, "an integer")
_JSON_FIELDS = {"kind": (str, "a string"), "eta": _NUMBER, "sigma": _NUMBER,
                "n": _INTEGER, "b": _INTEGER, "epochs": _INTEGER,
                "steps": _INTEGER, "L": _NUMBER, "m": _NUMBER, "M": _NUMBER,
                "D": _NUMBER, "constrained": (bool, "a boolean")}
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
    """Description of one private optimizer run. Each bound checks its domain
    (require_strongly_convex or require_constrained, and window) and
    computes on rescaled(), which require_constrained returns."""

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
        if self.M < 0:
            raise DomainError("smoothness modulus M must be >= 0")
        if self.b is None:
            if self.kind != GD:
                raise DomainError(f"{self.kind} runs need a batch size b")
            object.__setattr__(self, "b", self.n)
        if not 1 <= self.b <= self.n:
            raise DomainError("batch size b must satisfy 1 <= b <= n")
        if self.kind == CGD:
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
        if self.n % self.b != 0:
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
        # eta M < 2, not eta < 2/M: M = 0 (a linear loss) passes, M = inf fails.
        if not (0.0 < self.eta and self.eta * self.M < 2.0):
            raise DomainError("strongly convex bounds need 0 < eta and eta M < 2")
        c = self.contraction()
        if c >= 1.0:
            raise DomainError("contraction factor is >= 1; use the constrained "
                              "convex bound instead")
        return c

    def require_constrained(self) -> "AlgoParams":
        """A finite D >= 0, 0 < eta and eta M <= 2, and eta sigma and (for
        L > 0) eta L above 0 both as given and on rescaled(), which is
        returned: those products divide the constrained forms."""
        if not math.isfinite(self.D) or self.D < 0:
            raise DomainError("constrained bounds need a finite diameter D >= 0")
        if not (0.0 < self.eta and self.eta * self.M <= 2.0):
            raise DomainError("constrained bounds need 0 < eta and eta M <= 2")
        scaled = self.rescaled(constrained=True)
        for p in (self, scaled):
            if p.eta * p.sigma == 0 or (p.L > 0 and p.eta * p.L == 0):
                raise DomainError("constrained bounds need eta sigma and eta L "
                                  "(for L > 0) not to underflow to 0")
        return scaled

    def rescaled(self, constrained: bool = False) -> "AlgoParams":
        """The same run with L, D and sigma scaled by one power of two, the
        one that centres on 1 the magnitudes the bounds multiply and divide
        by: L, D and sigma, and for the constrained forms (require_constrained)
        also eta sigma and eta L; or as near to that as keeps L, D and sigma
        normal floats.

        Every bound depends on L, D and sigma only through L/sigma and
        D/sigma, and a power-of-two scaling is exact. So a bound reads the
        same bits on the result wherever its formula neither over- nor
        underflows at the given scale, and it reads the same whatever common
        scale L, D and sigma are given in. Centred, each magnitude lies
        within half their spread of 1: n sigma does not overflow at
        L = sigma = 1e308, and L = 1e-30 beside D = sigma = 1e300 does not
        round to 0. A spread of L, D and sigma too wide for the normal
        floats raises DomainError.
        """
        # Binary exponents: x is in [2^(e-1), 2^e), normal for e >= -1021.
        own = [math.frexp(x)[1] for x in (self.L, self.D, self.sigma)
               if 0 < x < math.inf]
        exps = own[:]
        if constrained:
            e = math.frexp(self.eta)[1]
            exps += [e + math.frexp(x)[1] for x in (self.sigma, self.L) if x > 0]
        lo, hi = max(own) - 1024, min(own) + 1021
        if lo > hi:
            raise DomainError("L, D and sigma span too many orders of "
                              "magnitude (more than about 615)")
        k = min(max((min(exps) + max(exps)) // 2, lo), hi)
        return replace(self, L=math.ldexp(self.L, -k), D=math.ldexp(self.D, -k),
                       sigma=math.ldexp(self.sigma, -k))

    def window(self, tau: int) -> int:
        """w = t - tau, for a window start 0 <= tau < t."""
        if not 0 <= tau < self.t:
            raise DomainError(f"need 0 <= tau < t, got tau={tau}, t={self.t}")
        return self.t - tau

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
        _check_json_doc(doc)
        given = {k: v for k, v in doc.items() if v is not None}
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in given]
        if missing:
            raise DomainError(f"missing parameter fields: {missing}")
        return cls(**given)


def _check_json_doc(doc) -> None:
    """Reject a decoded JSON parameter document that is not an object, has
    an unknown field or has a field of the wrong type (_JSON_FIELDS). None
    (JSON null) passes for every field."""
    if not isinstance(doc, dict):
        raise DomainError("parameters must be a JSON object, got "
                          f"{type(doc).__name__}")
    unknown = set(doc) - set(_JSON_FIELDS)
    if unknown:
        raise DomainError(f"unknown parameter fields: {sorted(unknown)}")
    for name, value in doc.items():
        types, want = _JSON_FIELDS[name]
        # bool is a subclass of int, but true is not a number.
        if value is not None and (not isinstance(value, types) or (
                isinstance(value, bool) and types is not bool)):
            raise DomainError(f"{name} must be {want}, got {value!r}")


# -- symbolic composite bounds ------------------------------------------------


@dataclass(frozen=True)
class GdpFactor:
    """A plain G(mu) factor."""
    mu: float

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:  # also rejects nan
            raise DomainError(f"GDP factor needs a finite mu >= 0, got {self.mu}")


@dataclass(frozen=True)
class SubsampledGdpFactor:
    """C_p(G(mu)) repeated `multiplicity` times."""
    mu: float
    p: float
    multiplicity: int = 1

    def __post_init__(self):
        if (not 0.0 <= self.mu < math.inf or not 0.0 <= self.p <= 1.0
                or self.multiplicity < 1):
            raise DomainError("subsampled factor needs a finite mu >= 0, "
                              "p in [0,1], multiplicity >= 1")


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
    p = p.rescaled()
    return p.L * math.sqrt(p.t) / (p.n * p.sigma)


def bound_gd_sc(p: AlgoParams) -> float:
    """Convergent (and optimal) GDP parameter for strongly convex losses:
    mu = sqrt((1-c^t)/(1+c^t) * (1+c)/(1-c)) * L/(n sigma)."""
    p = p.rescaled()
    c = p.require_strongly_convex()
    return _gd_sc_mu(c, p.L / (p.n * p.sigma), p.t)


def bound_gd_proj(p: AlgoParams, tau: int | None = None) -> float:
    """Constrained convex GDP bound (domain: require_constrained, window).

    Without tau (requires t >= D n / (eta L)) the plateau form
    mu = (1/sigma) sqrt(3LD/(eta n) + (L/n)^2 ceil(Dn/(eta L))) is used; with
    an explicit tau the window form mu = L sqrt(t-tau)/(n sigma)
    + D/(eta sigma sqrt(t-tau)).
    """
    p = p.require_constrained()
    w = None if tau is None else p.window(tau)
    if p.L == 0:
        return 0.0
    if p.D == 0:
        # Degenerate diameter: one-step window with no distance term.
        return p.L / (p.n * p.sigma)
    if w is not None:
        return (p.L * math.sqrt(w) / (p.n * p.sigma)
                + p.D / (p.eta * p.sigma * math.sqrt(w)))
    threshold = p.D * p.n / (p.eta * p.L)
    if p.t < threshold:
        raise DomainError(
            f"plateau form needs t >= D n/(eta L) = {threshold:g}; "
            "pass tau explicitly for shorter runs")
    # 3LD/(eta n) = 3 (L/n)^2 threshold, so (L/n)^2 factors out and is never
    # formed: it overflows where D/L is tiny. D > 0, so at least one step,
    # also where the threshold is within ceil_snap's guard of 0 or
    # underflows to it.
    steps = max(1, ceil_snap(threshold))
    return p.L / p.n * math.sqrt(3.0 * threshold + steps) / p.sigma


# -- cyclic-batch bounds ------------------------------------------------------


def bound_cgd_composition(p: AlgoParams) -> float:
    """mu = L sqrt(E) / (b sigma)."""
    p = p.rescaled()
    return p.L * math.sqrt(p.E) / (p.b * p.sigma)


def bound_cgd_sc(p: AlgoParams) -> float:
    """Convergent GDP parameter for cyclic batches on strongly convex losses."""
    p = p.rescaled()
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
    losses (domain: require_constrained); needs E >= D b / (eta L)."""
    p = p.require_constrained()
    if p.L == 0:
        return 0.0
    threshold = p.D * p.b / (p.eta * p.L)
    if p.E < threshold:
        raise DomainError(
            f"constrained cyclic bound needs E >= D b/(eta L) = {threshold:g}")
    ratio = p.L / p.b
    if p.D == 0:
        return ratio / p.sigma
    # As in bound_gd_proj: (L/b)^2 factors out of
    # (L/b)^2 + 3 (L/b) D/(eta l) + (L/b)^2 ceil(threshold)/l.
    steps = max(1, ceil_snap(threshold))
    return ratio * math.sqrt(1.0 + (3.0 * threshold + steps) / p.l) / p.sigma


# -- stochastic-batch bounds --------------------------------------------------


def _require_sgd(p: AlgoParams) -> None:
    # The subsampled factors assume amplification by random batch sampling,
    # which full and cyclic batches do not have.
    if p.kind != SGD:
        raise DomainError(f"stochastic-batch bounds need kind 'sgd', got {p.kind!r}")


def bound_sgd_composition(p: AlgoParams) -> CompositeBound:
    """C_{b/n}(G(L/(b sigma)))^{x t}."""
    p = p.rescaled()
    _require_sgd(p)
    return CompositeBound((SubsampledGdpFactor(p.L / (p.b * p.sigma),
                                               p.b / p.n, p.t),))


def bound_sgd_sc(p: AlgoParams, tau: int) -> CompositeBound:
    """Strongly convex SGD bound (domain: require_strongly_convex, window):

        G(2 sqrt(2) L/(b sigma) (c^{t-tau+1} - c^t)/(1-c))
        x C_{b/n}(G(2 sqrt(2) L/(b sigma)))
        x C_{b/n}(G(2 L/(b sigma)))^{x (t-tau)}
    """
    p = p.rescaled()
    _require_sgd(p)
    c = p.require_strongly_convex()
    w = p.window(tau)
    ratio = p.L / (p.b * p.sigma)
    rate = p.b / p.n
    # The residual distance behind the head factor is 0 at tau = 0 (it equals
    # the tau = 1 value); the tau >= 1 closed form would go negative there.
    head = max(0.0, 2.0 * math.sqrt(2.0) * ratio
               * (c ** (w + 1) - c ** p.t) / (1.0 - c))
    return CompositeBound((
        GdpFactor(head),
        SubsampledGdpFactor(2.0 * math.sqrt(2.0) * ratio, rate, 1),
        SubsampledGdpFactor(2.0 * ratio, rate, w),
    ))


def bound_sgd_proj(p: AlgoParams, tau: int) -> CompositeBound:
    """Constrained convex SGD bound (domain: require_constrained, window):

        G(sqrt(2) D / (eta sigma sqrt(t-tau)))
        x C_{b/n}(G(2 sqrt(2) L/(b sigma)))^{x (t-tau)}
    """
    _require_sgd(p)
    p = p.require_constrained()
    w = p.window(tau)
    head = math.sqrt(2.0) * p.D / (p.eta * p.sigma * math.sqrt(w))
    factors = [] if p.D == 0 else [GdpFactor(head)]
    factors.append(SubsampledGdpFactor(
        2.0 * math.sqrt(2.0) * p.L / (p.b * p.sigma), p.b / p.n, w))
    return CompositeBound(tuple(factors))


# -- CLT approximations -------------------------------------------------------


def _clt_inner(mu: float) -> float:
    """e^{mu^2} Phi(1.5 mu) + 3 Phi(-0.5 mu) - 2, clipped at 0 (it vanishes
    at mu = 0 and is increasing); +inf once e^{mu^2} overflows, for mu above
    about 26.6."""
    try:
        grow = math.exp(mu * mu + normal.log_cdf(1.5 * mu))
    except OverflowError:
        return math.inf
    return max(grow + 3.0 * float(normal.cdf(-0.5 * mu)) - 2.0, 0.0)


def clt_subsampled(mu: float, p: float, t: int) -> float:
    """Gaussian limit of C_p(G(mu))^{x t} when p sqrt(t) is moderate:
    mu_out = sqrt(2) p sqrt(t) sqrt(e^{mu^2} Phi(1.5 mu) + 3 Phi(-0.5 mu) - 2)."""
    if mu < 0 or not 0.0 <= p <= 1.0 or t < 1:
        raise DomainError("need mu >= 0, p in [0, 1], t >= 1")
    return math.sqrt(2.0) * p * math.sqrt(t) * math.sqrt(_clt_inner(mu))


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
        return 2.0 * x - (normal.log_cdf(r) - normal.log_cdf(-r))

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


def _window_start(p: AlgoParams, setting: str) -> int:
    """The window w = t - tau where sweep_tau's search starts: the minimizer
    of the CLT approximation of the setting's bound, clamped into [1, t] and
    rounded. With c the contraction and K = _clt_inner(subsampled mu), it is
    w = -log(b^2 sigma (1-c) sqrt(K) / (2 sqrt(2) n L sqrt(log(1/c))))
    / log(1/c) - 1 for sc, and w = D n / (b eta sigma sqrt(K)) for proj.
    The CLT mu is not formed: it can overflow where w does not."""
    if setting == "sc":
        try:
            c = p.require_strongly_convex()
        except DomainError:
            return 1    # invalid: raises when the first window is built
        K = _clt_inner(2.0 * (p.L / (p.b * p.sigma)))
        # With no head factor (c = 0) delta grows with the window; with L = 0
        # (K = 0) it is the same at every window.
        if c == 0 or K <= 0:
            return 1
        log_inv_c = math.log(1.0 / c)
        arg = (p.b ** 2 * p.sigma * (1.0 - c) * math.sqrt(K)
               / (2.0 * math.sqrt(2.0) * p.n * p.L * math.sqrt(log_inv_c)))
        w = -math.log(arg) / log_inv_c - 1.0
    else:
        if p.D == 0:
            return 1    # no head factor: delta grows with the window
        try:
            p.require_constrained()
        except DomainError:
            return p.t  # invalid: raises when the first window is built
        K = _clt_inner(2.0 * math.sqrt(2.0) * p.L / (p.b * p.sigma))
        if K <= 0:
            return p.t  # L = 0: delta falls with the window
        w = p.D * p.n / (p.b * p.eta * p.sigma * math.sqrt(K))
    # An overflowed CLT term gives w = -inf (sc) or 0 (proj), and inf / inf
    # gives nan: each reads as w = 1, the window's limit as the term grows.
    return round(min(w, float(p.t))) if w >= 1 else 1


def _search_windows(t: int, w0: int, columns: int, evaluate,
                    cap: int) -> dict:
    """Windows w in [1, t] mapped to evaluate(w), a row of `columns` deltas,
    for the windows an integer search of each column visits.

    Every column starts at w0. It walks downhill from w0 in steps that
    double until delta stops falling, which brackets the minimum when delta
    is unimodal in w. A ternary search whose two probes are adjacent, m and
    m + 1, then halves the bracket until one window is left. The columns
    share the evaluated rows. At most `cap` windows are evaluated: a window
    past the cap reads as +inf, so no search moves onto it.
    """
    rows = {w0: evaluate(w0)}
    for j in range(columns):
        def f(w):
            if w not in rows:
                if len(rows) == cap:
                    return math.inf
                rows[w] = evaluate(w)
            return rows[w][j]

        if w0 < t and f(w0 + 1) < f(w0):
            sign, back, cur = 1, w0, w0 + 1
        else:
            sign, back, cur = -1, min(w0 + 1, t), w0
        step = 1
        while True:
            nxt = min(max(cur + sign * step, 1), t)
            if nxt == cur or f(nxt) >= f(cur):
                break
            back, cur, step = cur, nxt, 2 * step
        lo, hi = sorted((back, nxt))
        while lo < hi:
            m = (lo + hi) // 2
            if f(m) <= f(m + 1):
                hi = m
            else:
                lo = m + 1
    return rows


def sweep_tau(p: AlgoParams, eps_list, setting: str = "sc",
              max_candidates: int = 64):
    """Evaluate an SGD composite bound over window starts tau and report,
    per eps, the best delta (the theorems hold for every tau, so the
    pointwise minimum over the evaluated windows is a valid bound).

    setting chooses the bound, bound_sgd_sc ("sc") or bound_sgd_proj
    ("proj"), and the CLT window w* = t - tau where the search starts
    (_window_start), rounded into [1, t] (w = 1 where the bound has no head
    factor, proj D = 0 or sc c = 0, or where an sc CLT term vanishes; w = t
    where a proj CLT term vanishes, L = 0). Every eps column
    brackets its minimum from there by doubling steps and closes in by an
    integer ternary search (_search_windows). The columns share one cache
    of evaluated windows, and max_candidates caps how many are evaluated.

    Returns a dict with taus (the evaluated windows, w ascending, so tau
    descending), eps, the delta matrix (one row per tau, each row from one
    evaluate_composite call that answers every eps) and best: per eps,
    the column minimum of the matrix and its tau.
    """
    from . import prv  # deferred: prv has no compile-time dependence on us

    if setting not in ("sc", "proj"):
        raise DomainError("setting must be 'sc' or 'proj'")
    if max_candidates < 1:
        raise DomainError(
            f"candidate count must be >= 1, got {max_candidates}")
    build = bound_sgd_sc if setting == "sc" else bound_sgd_proj
    eps_list = [float(e) for e in eps_list]

    def evaluate(w):
        deltas = prv.evaluate_composite(build(p, p.t - w), eps_list)
        return [d for _, d in deltas]

    rows = _search_windows(p.t, _window_start(p, setting), len(eps_list),
                           evaluate, max_candidates)
    windows = sorted(rows)
    taus = [p.t - w for w in windows]
    matrix = [rows[w] for w in windows]
    best = []
    for j, e in enumerate(eps_list):
        # min keeps the first of equal deltas: the shortest window.
        i = min(range(len(windows)), key=lambda i: matrix[i][j])
        best.append({"eps": e, "delta": matrix[i][j], "tau": taus[i]})
    return {"taus": taus, "eps": eps_list, "deltas": matrix, "best": best}
