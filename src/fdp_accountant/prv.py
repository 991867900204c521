"""Privacy-loss random variables and their numerical composition.

A PRV encodes a privacy curve: delta(eps) = E[(1 - e^{eps - Y})_+] for the
random variable Y whose law is stored here as probability masses on a uniform
lattice {j * mesh}. Composition of mechanisms is convolution of PRVs, done by
FFT. Two constructors are provided: the Gaussian mechanism
(Y ~ N(mu^2/2, mu^2)) and the symmetrized subsampled Gaussian mechanism,
whose CDF is

    F(t) = p Phi(e+/mu - mu/2) + (1-p) Phi(e+/mu + mu/2),   t > 0
    F(t) = Phi(-e-/mu - mu/2),                              t <= 0

with e+ = log((p - 1 + e^t)/p) and e- = log((p - 1 + e^{-t})/p). The CDF
jumps at 0 for p < 1 (the curve's slope -1 segment); the jump lands in the
lattice cell centered at 0, which the grids always align to.

The subsampled lattice is cut at closed-form quantiles. For a truncation
target tail_bound, let beta = tail_bound / 2, z = Phi^{-1}(1 - beta) and
T_p(e) = log(1 - p + p e^e), so that t = T_p(e+) and -t = T_p(e-). Then

    t_lo = -T_p(mu z - mu^2/2),   t_hi = T_p(mu z + mu^2/2).

The left cut is exact: on t <= 0 the CDF is the single term above, so
F(t_lo) = beta (if z < mu/2, F < beta on all of t <= 0, and t_lo > 0 only
means the lattice starts at -mesh). The right cut is conservative: on t > 0,
with a = e+/mu - mu/2, the tail S(t) = p Phibar(a) + (1-p) Phibar(a + mu) is
at most Phibar(a), so S(t_hi) <= beta, with equality at p = 1.

Truncated probability is tracked per grid and checked against a budget, but
it is not added to delta: delta values are estimates without error
certificates. Mesh halving gives an empirical accuracy diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from . import normal
from .accountant import GdpFactor, SubsampledGdpFactor
from .errors import AccuracyError, ConfigurationError, DomainError

DEFAULT_MESH = 1e-3
_STD_SPAN = 12.0  # composed range: mean +- span * std
DEFAULT_TAIL_BOUND = 1e-9
TAIL_BUDGET = 1e-6  # cap on the accumulated truncated mass of a composition
_SYMMETRY_FLOOR = 1e-300  # smallest mass symmetry_residual compares
_EXPM1_SAFE = 700.0  # expm1(t) overflows above t ~ 709.8


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters for PRV construction."""

    mesh: float = DEFAULT_MESH
    tail_bound: float = DEFAULT_TAIL_BOUND  # truncation target per factor

    def __post_init__(self):
        if self.mesh <= 0:
            raise ConfigurationError("mesh must be > 0")
        if not 0 < self.tail_bound < 1:
            raise ConfigurationError("tail_bound must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class PrvGrid:
    """Probability masses of a PRV on the lattice {(offset + i) * mesh}."""

    offset: int          # lattice index of the first mass
    mesh: float
    pmf: np.ndarray
    tail_mass: float     # truncated probability (diagnostic, one-sided slack)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if pmf.ndim != 1 or pmf.size == 0:
            raise DomainError("pmf must be a nonempty 1-d array")
        if self.mesh <= 0:
            raise DomainError("mesh must be > 0")
        if np.any(pmf < -1e-12):
            raise DomainError("pmf entries must be >= 0")
        total = float(pmf.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"pmf + tail must sum to 1, got {total}")
        pmf.flags.writeable = False

    @property
    def lo(self) -> float:
        return self.offset * self.mesh

    @property
    def hi(self) -> float:
        return (self.offset + self.pmf.size - 1) * self.mesh

    def grid(self) -> np.ndarray:
        return (self.offset + np.arange(self.pmf.size)) * self.mesh

    def mean(self) -> float:
        return float(np.dot(self.grid(), self.pmf))

    def var(self) -> float:
        g = self.grid()
        m = float(np.dot(g, self.pmf))
        return float(np.dot((g - m) ** 2, self.pmf))

    def symmetry_residual(self) -> float:
        """Max relative deviation of pmf(t) from e^t pmf(-t) over mirrored
        lattice pairs with both masses above _SYMMETRY_FLOOR. Zero-ish for
        PRVs of symmetric tradeoff functions."""
        n = self.pmf.size
        i = np.arange(n)
        j = -(self.offset + i) - self.offset  # index of the mirrored point
        ok = (j >= 0) & (j < n)
        a = self.pmf[i[ok]]
        b = self.pmf[j[ok]]
        t = (self.offset + i[ok]) * self.mesh
        mask = (a > _SYMMETRY_FLOOR) & (b > _SYMMETRY_FLOOR)
        if not np.any(mask):
            return 0.0
        ratio = a[mask] / (np.exp(t[mask]) * b[mask])
        return float(np.max(np.abs(ratio - 1.0)))


def point_mass() -> PrvGrid:
    """The PRV of a perfectly private mechanism: all mass at 0."""
    return PrvGrid(offset=0, mesh=DEFAULT_MESH, pmf=np.ones(1), tail_mass=0.0)


def _aligned_range(lo: float, hi: float, mesh: float):
    """Snap [lo, hi] outward to lattice indices, always covering 0."""
    i_lo = min(math.floor(lo / mesh), -1)
    i_hi = max(math.ceil(hi / mesh), 1)
    return i_lo, i_hi


def _masses_from_cdf(cdf, sf, i_lo: int, i_hi: int, mesh: float):
    """Cell masses from CDF differences at cell edges (i +- 1/2) * mesh.

    Uses the survival function on the right half to avoid cancellation in
    1 - F; the crossing cell mixes both, which is safe since the values there
    are moderate.
    """
    edges = (np.arange(i_lo, i_hi + 2) - 0.5) * mesh
    F = cdf(edges)
    S = sf(edges)
    use_sf = F[1:] > 0.5
    pmf = np.where(use_sf, S[:-1] - S[1:], F[1:] - F[:-1])
    np.clip(pmf, 0.0, None, out=pmf)
    tail = float(F[0] + S[-1])
    return pmf, tail


def prv_of_gdp(mu: float, grid_spec: GridSpec | None = None) -> PrvGrid:
    """PRV of the Gaussian mechanism: Y ~ N(mu^2 / 2, mu^2), discretized."""
    spec = grid_spec or GridSpec()
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if mu == 0:
        return PrvGrid(offset=0, mesh=spec.mesh, pmf=np.ones(1), tail_mass=0.0)
    if spec.mesh > mu / 10.0:
        raise ConfigurationError(
            f"mesh {spec.mesh} too coarse for mu={mu}; need mesh <= mu/10")
    mean, sd = 0.5 * mu * mu, mu
    z = float(normal.inv_upper(min(spec.tail_bound / 2.0, 0.25)))
    half = max(_STD_SPAN, z) * sd
    i_lo, i_hi = _aligned_range(mean - half, mean + half, spec.mesh)
    pmf, tail = _masses_from_cdf(lambda x: normal.cdf((x - mean) / sd),
                                 lambda x: normal.sf((x - mean) / sd),
                                 i_lo, i_hi, spec.mesh)
    return PrvGrid(offset=i_lo, mesh=spec.mesh, pmf=pmf, tail_mass=tail)


def _subsampled_cdf_factory(mu: float, p: float):
    """CDF and survival function of the symmetrized subsampled-Gaussian PRV.

    Both are the same expression in Phi; the survival function substitutes
    1 - Phi (normal.sf) to avoid cancellation in the right tail. Above
    t = _EXPM1_SAFE, e+ is evaluated as t - log p + log1p(-(1-p) e^{-t}),
    which does not overflow.
    """

    def law(phi):
        def f(t):
            t = np.asarray(t, dtype=float)
            out = np.empty_like(t)
            neg = t <= 0
            pos = ~neg
            t_pos = t[pos]
            with np.errstate(over="ignore"):
                eps_neg = np.log1p(np.expm1(-t[neg]) / p)
                eps_pos = np.log1p(np.expm1(t_pos) / p)
            out[neg] = phi(-eps_neg / mu - mu / 2.0)
            big = t_pos > _EXPM1_SAFE
            t_big = t_pos[big]
            eps_pos[big] = (t_big - math.log(p)
                            + np.log1p(-(1.0 - p) * np.exp(-t_big)))
            out[pos] = (p * phi(eps_pos / mu - mu / 2.0)
                        + (1.0 - p) * phi(eps_pos / mu + mu / 2.0))
            return out
        return f

    return law(normal.cdf), law(normal.sf)


def prv_of_subsampled_gdp(mu: float, p: float,
                          grid_spec: GridSpec | None = None) -> PrvGrid:
    """PRV of the symmetrized subsampled Gaussian mechanism C_p(G(mu))."""
    spec = grid_spec or GridSpec()
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"sampling rate must lie in [0, 1], got {p}")
    if mu == 0 or p == 0:
        return PrvGrid(offset=0, mesh=spec.mesh, pmf=np.ones(1), tail_mass=0.0)
    if spec.mesh > mu / 10.0:
        raise ConfigurationError(
            f"mesh {spec.mesh} too coarse for mu={mu}; need mesh <= mu/10")
    cdf, sf = _subsampled_cdf_factory(mu, p)
    # Closed-form quantile cuts (module docstring), with z = Phi^{-1}(1 - beta)
    # and T_p(e) = log(1 - p + p e^e):
    # - t_lo = -T_p(mu z - mu^2/2) gives F(t_lo) = beta exactly, as F is a
    #   single Phi term on t <= 0;
    # - t_hi = T_p(mu z + mu^2/2) gives S(t_hi) <= Phibar(z) = beta, as
    #   S = p Phibar(a) + (1-p) Phibar(a + mu) <= Phibar(a); equal at p = 1.
    beta = spec.tail_bound / 2.0
    z = float(normal.inv_upper(beta))
    log_q = math.log1p(-p) if p < 1.0 else -math.inf  # log(1 - p)
    e_cut = mu * z + np.array([-0.5, 0.5]) * mu * mu
    t_neg, t_hi = np.logaddexp(log_q, math.log(p) + e_cut)
    i_lo, i_hi = _aligned_range(-float(t_neg), float(t_hi), spec.mesh)
    pmf, tail = _masses_from_cdf(cdf, sf, i_lo, i_hi, spec.mesh)
    return PrvGrid(offset=i_lo, mesh=spec.mesh, pmf=pmf, tail_mass=tail)


# -- composition ---------------------------------------------------------------


def convolve(a: PrvGrid, b: PrvGrid) -> PrvGrid:
    """Distribution of the sum of two independent PRVs (linear convolution).

    Both PRVs must live on the same mesh.
    """
    if a.mesh != b.mesh:
        raise DomainError(f"cannot convolve PRVs on meshes {a.mesh} and {b.mesh}")
    n = a.pmf.size + b.pmf.size - 1
    nfft = sfft.next_fast_len(n)
    fa = sfft.rfft(a.pmf, nfft)
    fb = sfft.rfft(b.pmf, nfft)
    out = sfft.irfft(fa * fb, nfft)[:n]
    np.clip(out, 0.0, None, out=out)
    tail = a.tail_mass + b.tail_mass
    # Absorb the (tiny) mass defect from clipping FFT noise into the slack.
    tail += max(0.0, (1.0 - a.tail_mass) * (1.0 - b.tail_mass) - float(out.sum()))
    return PrvGrid(offset=a.offset + b.offset, mesh=a.mesh, pmf=out,
                   tail_mass=min(tail, 1.0))


def _check_budget(tail: float) -> None:
    if tail > TAIL_BUDGET:
        raise AccuracyError(
            f"accumulated truncated mass {tail:g} exceeds budget "
            f"{TAIL_BUDGET:g}")


def self_compose(prv: PrvGrid, k: int) -> PrvGrid:
    """k-fold self-composition by cyclic FFT exponentiation.

    The working window is the union of the single-factor support and the
    composed moment range mean*k +- _STD_SPAN*sqrt(k)*std; truncated mass is
    accounted k-fold and checked against TAIL_BUDGET. Composed mass beyond
    that window is not negligible for heavy right tails: it wraps onto the
    other end of the window and is not counted in tail_mass (mu=3, p=0.005,
    k=12 wraps about 2e-9).
    """
    if k < 1:
        raise DomainError(f"composition count must be >= 1, got {k}")
    if k == 1 or prv.pmf.size == 1:
        out_tail = min(prv.tail_mass * k, 1.0)
        _check_budget(out_tail)
        return PrvGrid(prv.offset, prv.mesh, prv.pmf, out_tail)
    mesh = prv.mesh
    m1, v1 = prv.mean(), prv.var()
    half = _STD_SPAN * math.sqrt(k * v1)
    lo = min(prv.lo, k * m1 - half)
    hi = max(prv.hi, k * m1 + half)
    i_lo, i_hi = _aligned_range(lo, hi, mesh)
    n = i_hi - i_lo + 1
    buf = np.zeros(n)
    buf[prv.offset - i_lo: prv.offset - i_lo + prv.pmf.size] = prv.pmf
    fa = sfft.rfft(buf)
    out = sfft.irfft(fa ** k, n)
    # Cyclic indices live at k*offset + j (mod n); roll back onto offset + i.
    out = np.roll(out, ((k - 1) * i_lo) % n)
    np.clip(out, 0.0, None, out=out)
    tail = min(prv.tail_mass * k, 1.0)
    tail += max(0.0, (1.0 - prv.tail_mass) ** k - float(out.sum()))
    _check_budget(tail)
    return PrvGrid(offset=i_lo, mesh=mesh, pmf=out, tail_mass=min(tail, 1.0))


def prv_delta(prv: PrvGrid, eps: float) -> float:
    """delta(eps) = sum_{t > eps} (1 - e^{eps - t}) pmf(t), in [0, 1].

    The truncated tail_mass is available as one-sided upper slack on top of
    the returned value.
    """
    t = prv.grid()
    mask = t > eps
    if not np.any(mask):
        return 0.0
    val = float(np.dot(-np.expm1(eps - t[mask]), prv.pmf[mask]))
    return min(max(val, 0.0), 1.0)


def discretization_estimate(prv: PrvGrid) -> float:
    """Heuristic discretization error scale for delta queries (midpoint-rule
    second-order bound); mesh halving should move delta by at most about 4x
    this value."""
    return 0.5 * prv.mesh ** 2


def _multiplicity(factor) -> int:
    """Repeat count of a composite factor; rejects unknown factor types."""
    if isinstance(factor, SubsampledGdpFactor):
        return factor.multiplicity
    if isinstance(factor, GdpFactor):
        return 1
    raise DomainError(f"unsupported composite factor {type(factor).__name__}")


def evaluate_composite(composite, eps_list):
    """Evaluate a symbolic product of GdpFactor / SubsampledGdpFactor factors.

    `composite` is anything with a `.factors` iterable of those two types;
    any other factor raises DomainError. Builds each factor's PRV on the
    DEFAULT_MESH lattice with the DEFAULT_TAIL_BOUND truncation target split
    across the total factor count, composes by FFT (accumulated truncation
    capped by TAIL_BUDGET) and returns [(eps, delta)] pairs.
    An empty product is perfectly private: delta(eps) = max(0, 1 - e^eps).
    """
    factors = list(composite.factors)
    eps_list = [float(e) for e in eps_list]
    total = sum(_multiplicity(f) for f in factors)
    if total == 0:
        return [(e, max(0.0, -math.expm1(e))) for e in eps_list]
    per_factor = GridSpec(tail_bound=DEFAULT_TAIL_BOUND / total)
    composed = None
    for f in factors:
        mult = _multiplicity(f)
        if isinstance(f, SubsampledGdpFactor):
            prv = prv_of_subsampled_gdp(f.mu, f.p, per_factor)
        else:
            prv = prv_of_gdp(f.mu, per_factor)
        if mult > 1:
            prv = self_compose(prv, mult)
        composed = prv if composed is None else convolve(composed, prv)
    _check_budget(composed.tail_mass)
    return [(e, prv_delta(composed, e)) for e in eps_list]


def delta_table_rows(composite, eps_list):
    """(eps, delta, uncertainty) rows for CSV export; uncertainty combines the
    truncation target with the discretization heuristic."""
    pairs = evaluate_composite(composite, eps_list)
    unc = DEFAULT_TAIL_BOUND + 0.5 * DEFAULT_MESH ** 2
    return [(e, d, unc) for e, d in pairs]
