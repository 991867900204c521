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

Both lattices are cut at z = _STD_SPAN = 12 standard deviations of the
Gaussian loss e ~ N(mu^2/2, mu^2). For the subsampled PRV, let
T_p(e) = log(1 - p + p e^e), so that t = T_p(e+) and -t = T_p(e-); then

    t_lo = -T_p(mu z - mu^2/2),   t_hi = T_p(mu z + mu^2/2).

On t <= 0 the CDF is the single term above, so F(t_lo) = Phibar(z) (if
z < mu/2, F is below that on all of t <= 0 and the lattice starts at -mesh).
On t > 0, with a = e+/mu - mu/2, the tail S(t) = p Phibar(a) +
(1-p) Phibar(a + mu) is at most Phibar(a), so S(t_hi) <= Phibar(z), with
equality at p = 1. Each factor thus drops at most 2 Phibar(12) ~ 3.6e-33.

Cell masses difference one tail at the cell edges, each edge evaluated once
(Gopi et al., arXiv:2106.02848): F up to a split point, S above it, and
1 - F - S in the cell holding it. No tail used exceeds 3/4, so no small mass
is 1 minus a value near 1. The split is the Gaussian PRV's mean mu^2/2; for
the subsampled PRV it is t = 0 if p <= 1/2 (F(0-) = Phi(-mu/2) < 1/2 and
S(0+) = (1-p) + (2p-1) Phi(mu/2) <= 1/2), else T_p(mu^2/2) (S <= 1/2 above
it, F <= 1 - p/2 < 3/4 on (0, split]).

Truncated probability is tracked per grid and checked against a budget, but
it is not added to delta: delta values are estimates without error
certificates. Mesh halving gives an empirical accuracy diagnostic.

A delta query (prv_delta) answers all eps of a request in one pass over the
lattice above the smallest eps, as privacy profiles over eps grids need
(Koskela et al., arXiv:1906.03049; Gopi et al., arXiv:2106.02848): sums over
the lattice segments between consecutive eps are combined from the largest
eps down by a recursion of nonnegative terms, so the result is
non-increasing in eps exactly.

A composite (evaluate_composite) is read off one lattice, and all its
lattices share one mesh, DEFAULT_MESH; a factor with mu < 10 mesh is too
narrow for a lattice of that mesh (_too_narrow). One pass over the factors
folds the Gaussian ones into a head, G(mu_1) x ... x G(mu_n) =
G(hypot(mu_1, ..., mu_n)), which is exact. A p = 1 factor is a Gaussian
too, C_1(G(mu))^k = G(mu sqrt(k)), and joins the head where that saves a
self-composition (k >= 2) or where it is too narrow for its own lattice; a
wider one at k = 1 keeps its lattice. The other subsampled factors are
composed first into the rest R. A nonempty head, G(0) included (a one-point
lattice at 0), is built last, from cut = min(0, eps_1, ..., eps_n) - R.hi
- 2 mesh: its mass below the cut goes into its first cell, and a loss there
plus any point of R lands below every eps asked, so no delta read changes
beyond round-off, and every request with eps >= 0 reads the same lattice.
That Gaussian is often far longer than R; convolve then uses overlap-add,
with FFT blocks of about (_OLA_RATIO + 1) times the shorter lattice. A head
too narrow for the lattice (0 < mu < 10 mesh) next to a subsampled rest gets
no lattice: it is added at query time, delta(eps) = prv_delta(R, eps) +
sum_j pmf_j [delta_G(eps - y_j) - (1 - e^{eps - y_j})_+] over the points y_j
of R within mu^2/2 + 13 mu + mesh of eps (_add_narrow_head), with the
Gaussian profile delta_G(x) = Phi(-x/mu + mu/2) - e^x Phi(-x/mu - mu/2),
which holds for every real x (Balle and Wang, ICML 2018). Without a rest,
such a head has no lattice to be read from (ConfigurationError).

self_compose and overlap-add run their FFTs at a 5-smooth length,
next_fast_len(n, real=True), where real transforms are fastest; a raw window
length can take several times longer. self_compose pads its cyclic window at
the top, so the extra points hold composed mass that would otherwise wrap
around, and raises to the k-th power only the spectrum bins with
k log|fa| > -760: the others are exactly 0 after the power (the smallest
subnormal double is e^-744.4), so at a given length the result is the same
to the bit. The power is repeated squaring (_power), which on these spectra
is both faster and 6 to 10 times more accurate than C cpow, exp(k log z).
convolve's single FFT runs at the complex fast length next_fast_len(n),
which allows factors 7 and 11.

Sums of products over a lattice are NumPy pairwise sums (_dot), not BLAS
dot products, whose multithreaded order would make the printed deltas
depend on the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from . import normal
from .accountant import GdpFactor, SubsampledGdpFactor
from .errors import AccuracyError, ConfigurationError, DomainError

DEFAULT_MESH = 1e-3
_STD_SPAN = 12.0  # lattice cuts and composed range: mean +- span * std
TAIL_BUDGET = 1e-6  # cap on the accumulated truncated mass of a composition
_EXPM1_SAFE = 700.0  # expm1(t) overflows above t ~ 709.8
_OLA_RATIO = 8  # convolve overlap-adds above this ratio of lattice lengths
# self_compose: a spectrum bin with k log|fa| below this is 0 after the k-th
# power (the smallest subnormal double is e^-744.4).
_LOG_UNDERFLOW = -760.0
# Cap on the points of any lattice, self-composition window or convolution
# (256 MiB of float64), checked before each is allocated (_check_points).
MAX_LATTICE_POINTS = 2 ** 25


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

    @functools.cached_property
    def _moments(self) -> tuple:
        """(mean, variance), from one build of the grid. Cached: the pmf is
        read-only, so a base lattice shared by many windows computes them
        once."""
        grid = self.grid()
        mean = _dot(grid, self.pmf)
        return mean, _dot((grid - mean) ** 2, self.pmf)

    def mean(self) -> float:
        return self._moments[0]

    def var(self) -> float:
        return self._moments[1]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by NumPy's pairwise sum. np.dot hands 1-d floats to BLAS,
    whose multithreaded sum gives a different last bit, and so a different
    printed delta, for each thread count; np.einsum sums in one running
    order and is several ulps off on long lattices."""
    return float(np.add.reduce(a * b))


def _too_narrow(mu: float, mesh: float) -> bool:
    """G(mu) or C_p(G(mu)) gets no lattice of this mesh: mesh > mu / 10."""
    return mesh > mu / 10.0


def _aligned_range(lo: float, hi: float, mesh: float):
    """Snap [lo, hi] outward to lattice indices, always covering 0.

    Covering 0 keeps a subsampled PRV's atom (for p < 1 its CDF jumps at 0
    by about 1 - p) in the lattice: for mu > 24 both 12-sigma cuts are
    positive, the lower one -log(1 - p + p e^{12 mu - mu^2/2}) included, and
    prv_of_subsampled_gdp(40, 0.5) fails without the stretch. Only a
    Gaussian lattice, which has no atom, could drop it.

    A span that is not finite, or that holds more than MAX_LATTICE_POINTS
    points, raises ConfigurationError.
    """
    a, b = lo / mesh, hi / mesh
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigurationError(
            f"lattice span [{lo:g}, {hi:g}] at mesh {mesh:g} is not finite")
    i_lo = min(math.floor(a), -1)
    i_hi = max(math.ceil(b), 1)
    _check_points(i_hi - i_lo + 1)
    return i_lo, i_hi


def _check_points(points: int) -> None:
    if points > MAX_LATTICE_POINTS:
        raise ConfigurationError(
            f"lattice of {points} points exceeds the limit of "
            f"{MAX_LATTICE_POINTS}")


def _masses(F, S):
    """Cell masses and truncated mass from F at edges up to a split, S above."""
    pmf = np.concatenate([np.diff(F), [1.0 - F[-1] - S[0]], -np.diff(S)])
    np.clip(pmf, 0.0, None, out=pmf)
    return pmf, float(F[0] + S[-1])


def prv_of_gdp(mu: float, mesh: float = DEFAULT_MESH, *,
               cut: float = -math.inf) -> PrvGrid:
    """PRV of the Gaussian mechanism: Y ~ N(mu^2 / 2, mu^2), discretized.

    A `cut` above the lower 12-sigma cut starts the lattice at the cell
    holding min(cut, mu^2/2) instead, and that first cell takes all the mass
    below it. A delta query that no loss below the cut can reach reads the
    same value from either lattice (evaluate_composite).
    """
    if mesh <= 0:
        raise ConfigurationError("mesh must be > 0")
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if mu == 0:
        return PrvGrid(offset=0, mesh=mesh, pmf=np.ones(1), tail_mass=0.0)
    if _too_narrow(mu, mesh):
        raise ConfigurationError(
            f"mesh {mesh} too coarse for mu={mu}; need mesh <= mu/10")
    mean, sd = 0.5 * mu * mu, mu
    half = _STD_SPAN * sd
    lo = max(mean - half, min(cut, mean))   # never above the split (mean)
    i_lo, i_hi = _aligned_range(lo, mean + half, mesh)
    edges = (np.arange(i_lo, i_hi + 2) - 0.5) * mesh
    k = np.searchsorted(edges, mean, side="right")
    F = normal.cdf((edges[:k] - mean) / sd)
    if lo > mean - half:
        F[0] = 0.0                          # the first cell takes the rest
    return PrvGrid(i_lo, mesh, *_masses(F, normal.cdf((mean - edges[k:]) / sd)))


def _gaussian_loss(t, p: float):
    """e = log((p - 1 + e^t) / p) for t >= 0: e+ at t, e- at -t. Above
    _EXPM1_SAFE, where expm1 overflows, t - log p + log1p(-(1-p) e^{-t})."""
    with np.errstate(over="ignore"):
        e = np.log1p(np.expm1(t) / p)
    big = t > _EXPM1_SAFE
    e[big] = t[big] - math.log(p) + np.log1p(-(1.0 - p) * np.exp(-t[big]))
    return e


def prv_of_subsampled_gdp(mu: float, p: float,
                          mesh: float = DEFAULT_MESH) -> PrvGrid:
    """PRV of the symmetrized subsampled Gaussian mechanism C_p(G(mu))."""
    if mesh <= 0:
        raise ConfigurationError("mesh must be > 0")
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"sampling rate must lie in [0, 1], got {p}")
    if mu == 0 or p == 0:
        return PrvGrid(offset=0, mesh=mesh, pmf=np.ones(1), tail_mass=0.0)
    if _too_narrow(mu, mesh):
        raise ConfigurationError(
            f"mesh {mesh} too coarse for mu={mu}; need mesh <= mu/10")
    # Cuts at e = mu^2/2 -+ _STD_SPAN mu pushed through T_p(e) =
    # log(1 - p + p e^e) (module docstring): F(t_lo) = Phibar(12) exactly and
    # S(t_hi) <= Phibar(12), with equality at p = 1.
    log_q = math.log1p(-p) if p < 1.0 else -math.inf  # log(1 - p)
    # In floats, so that a huge mu overflows to inf without a warning.
    half = 0.5 * mu * mu
    e_cut = np.array([mu * _STD_SPAN - half, mu * _STD_SPAN + half])
    t_neg, t_hi = np.logaddexp(log_q, math.log(p) + e_cut)
    i_lo, i_hi = _aligned_range(-float(t_neg), float(t_hi), mesh)
    # Split where neither tail exceeds 3/4 (module docstring).
    split = (float(np.logaddexp(log_q, math.log(p) + 0.5 * mu * mu))
             if p > 0.5 else 0.0)
    edges = (np.arange(i_lo, i_hi + 2) - 0.5) * mesh
    j, k = np.searchsorted(edges, [0.0, split], side="right")  # no edge at 0
    a = _gaussian_loss(np.abs(edges), p) / mu
    F = np.concatenate([normal.cdf(-a[:j] - mu / 2.0),
                        p * normal.cdf(a[j:k] - mu / 2.0)
                        + (1.0 - p) * normal.cdf(a[j:k] + mu / 2.0)])
    S = (p * normal.cdf(mu / 2.0 - a[k:])
         + (1.0 - p) * normal.cdf(-a[k:] - mu / 2.0))
    return PrvGrid(i_lo, mesh, *_masses(F, S))


@functools.lru_cache(maxsize=2)
def _subsampled_base(mu: float, p: float, mesh: float) -> PrvGrid:
    """prv_of_subsampled_gdp, kept for the last two (mu, p, mesh) asked.

    Every window of a tau sweep has the same subsampled factors (one for
    proj, two for sc), so the sweep builds each base lattice once. Sharing
    is safe: a PrvGrid is frozen and its pmf is read-only.
    """
    return prv_of_subsampled_gdp(mu, p, mesh)


# -- composition ---------------------------------------------------------------


def convolve(a: PrvGrid, b: PrvGrid) -> PrvGrid:
    """Distribution of the sum of two independent PRVs (linear convolution).

    Both PRVs must live on the same mesh. One FFT of the full length, unless
    one lattice has more than _OLA_RATIO times the points of the other: then
    overlap-add, in FFT blocks sized for the shorter one. Overlap-add is kept
    for accuracy, not speed: FFT round-off is absolute, on the scale of the
    largest mass of the transform, and each block confines it to its own
    points, so the tail blocks where small deltas are read stay clean.
    """
    if a.mesh != b.mesh:
        raise DomainError(f"cannot convolve PRVs on meshes {a.mesh} and {b.mesh}")
    n = a.pmf.size + b.pmf.size - 1
    _check_points(n)
    short, long = sorted((a.pmf, b.pmf), key=len)
    if long.size > _OLA_RATIO * short.size:
        out = _overlap_add(long, short)
    else:
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


def _overlap_add(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Linear convolution of x with a shorter k: x is cut into blocks of
    `step` points, each block is convolved with k by one batched FFT of
    about (_OLA_RATIO + 1) * len(k) points, and the len(k) - 1 points each
    block spills past its end are added onto the next block."""
    m = k.size
    nfft = sfft.next_fast_len(_OLA_RATIO * m + m - 1, real=True)
    step = nfft - m + 1
    blocks = -(-x.size // step)
    buf = np.zeros(blocks * step)
    buf[:x.size] = x
    y = sfft.irfft(sfft.rfft(buf.reshape(blocks, step), nfft, axis=1)
                   * sfft.rfft(k, nfft), nfft, axis=1)
    out = np.zeros((blocks + 1) * step)
    out[:blocks * step] = y[:, :step].reshape(-1)
    out[step:].reshape(blocks, step)[:, :m - 1] += y[:, step:]
    return out[:x.size + m - 1]


def _check_budget(tail: float) -> None:
    if tail > TAIL_BUDGET:
        raise AccuracyError(
            f"accumulated truncated mass {tail:g} exceeds budget "
            f"{TAIL_BUDGET:g}")


def self_compose(prv: PrvGrid, k: int) -> PrvGrid:
    """k-fold self-composition by cyclic FFT exponentiation.

    The working window is the union of the single-factor support and the
    composed moment range mean*k +- _STD_SPAN*sqrt(k)*std, padded at the top
    to the next 5-smooth length; truncated mass is accounted k-fold and
    checked against TAIL_BUDGET. Only spectrum bins with k log|fa| above
    _LOG_UNDERFLOW are raised to the k-th power (_power); the others would
    be 0. The moments come from the lattice's cache.
    Composed mass beyond the window is not negligible for heavy right tails:
    it wraps onto the other end of the window and is not counted in
    tail_mass (mu=3, p=0.05, k=12 wraps about 7.4e-10).
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
    n = sfft.next_fast_len(i_hi - i_lo + 1, real=True)  # pads above i_hi
    buf = np.zeros(n)
    buf[prv.offset - i_lo: prv.offset - i_lo + prv.pmf.size] = prv.pmf
    fa = sfft.rfft(buf)
    live = np.abs(fa) > math.exp(_LOG_UNDERFLOW / k)
    fk = np.zeros_like(fa)
    fk[live] = _power(fa[live], k)
    out = sfft.irfft(fk, n)
    # Cyclic indices live at k*offset + j (mod n); roll back onto offset + i.
    out = np.roll(out, ((k - 1) * i_lo) % n)
    np.clip(out, 0.0, None, out=out)
    tail = min(prv.tail_mass * k, 1.0)
    tail += max(0.0, (1.0 - prv.tail_mass) ** k - float(out.sum()))
    _check_budget(tail)
    return PrvGrid(offset=i_lo, mesh=mesh, pmf=out, tail_mass=min(tail, 1.0))


def _power(z: np.ndarray, k: int) -> np.ndarray:
    """z ** k elementwise, for k >= 2, by binary exponentiation from the top
    bit: floor(log2 k) squarings and popcount(k) - 1 products by z, in
    place. On self-composition spectra its largest relative error is 6 to
    10 times below that of NumPy's z ** k, which from k = 100 on is C cpow,
    exp(k log z) (tests/test_prv.py), and it runs several times faster."""
    out = z.copy()
    for bit in bin(k)[3:]:
        out *= out
        if bit == "1":
            out *= z
    return out


def prv_delta(prv: PrvGrid, eps):
    """delta(eps) = sum_{t > eps} (1 - e^{eps - t}) pmf(t), in [0, 1].

    `eps` is a float (a float is returned) or a sequence (a list is returned,
    in request order). All eps share one pass over the lattice above the
    smallest of them. With the distinct eps sorted, e_0 < ... < e_{K-1}, the
    points in (e_k, e_{k+1}] give L_k = sum (1 - e^{e_k - t}) pmf(t) and
    B_k = sum e^{e_k - t} pmf(t), and from the top

        D_k = L_k + D_{k+1} + (1 - e^{e_k - e_{k+1}}) A_{k+1},
        A_k = B_k + e^{e_k - e_{k+1}} A_{k+1},

    where D_k = delta(e_k) and A_k = sum_{t > e_k} e^{e_k - t} pmf(t).
    B_k is the segment mass minus L_k, clamped at 0 against rounding, so it
    needs no second pass of exponentials. Every term is nonnegative, so
    nothing cancels and delta is non-increasing in eps exactly, not only up
    to round-off. The largest eps (a lone one included) gets the single dot
    product of the direct formula, the others the recursion, so the last
    bits of a delta depend on which other eps share the request: delta(e)
    asked alone and asked beside a larger eps can differ by round-off. -inf
    gives the lattice mass; +inf and nan give 0.

    The truncated tail_mass is available as one-sided upper slack on top of
    the returned value.
    """
    scalar = np.ndim(eps) == 0
    asked = [math.inf if math.isnan(e) else e     # nan gives 0, as +inf does
             for e in np.asarray(eps, dtype=float).reshape(-1).tolist()]
    levels = sorted(set(asked))
    if not levels:
        return []
    # Lattice points below i0 lie at least a mesh below the smallest eps.
    i0 = int(min(max(np.floor(levels[0] / prv.mesh) - prv.offset - 1, 0),
                 prv.pmf.size))
    t = (prv.offset + np.arange(i0, prv.pmf.size)) * prv.mesh
    # Segment k holds the points in (levels[k], levels[k + 1]].
    bounds = np.searchsorted(t, levels + [math.inf], side="right")
    t, pmf = t[bounds[0]:], prv.pmf[i0 + bounds[0]:]
    bounds -= bounds[0]
    loss = -np.expm1(np.repeat(levels, np.diff(bounds)) - t)
    # L_k and segment masses: the top segment by the direct formula's dot
    # product, the others by pairwise sums (reduceat gives an empty segment
    # an element, not 0, so only the nonempty ones are summed).
    top = bounds[-2]
    part = np.zeros(len(levels))
    mass = np.zeros(len(levels))
    part[-1], mass[-1] = _dot(loss[top:], pmf[top:]), pmf[top:].sum()
    full = np.flatnonzero(bounds[1:-1] > bounds[:-2])
    if full.size:
        part[full] = np.add.reduceat(loss[:top] * pmf[:top], bounds[full])
        mass[full] = np.add.reduceat(pmf[:top], bounds[full])
    rest = np.maximum(mass - part, 0.0).tolist()        # B_k
    deltas = part.tolist()
    d, a = deltas[-1], rest[-1]
    for k in range(len(levels) - 2, -1, -1):
        step = levels[k] - levels[k + 1]                # < 0
        d, a = (deltas[k] + d - math.expm1(step) * a,
                rest[k] + math.exp(step) * a)
        deltas[k] = d
    rank = {e: k for k, e in enumerate(levels)}
    out = [min(deltas[rank[e]], 1.0) for e in asked]
    return out[0] if scalar else out


def evaluate_composite(composite, eps_list):
    """delta of a product of GdpFactor / SubsampledGdpFactor factors at each
    eps, as [(eps, delta)] pairs in request order.

    `composite` is anything with a `.factors` iterable; any other factor
    type, or an eps of nan, raises DomainError. The module docstring says
    how the factors become one lattice: the fold into a Gaussian head, the
    cut, the narrow head and the mesh. A head longer than MAX_LATTICE_POINTS
    is refused before any factor lattice is built, a Gaussian-only composite
    too narrow for the lattice raises ConfigurationError, and accumulated
    truncation above TAIL_BUDGET raises AccuracyError. An empty product is
    perfectly private: delta(eps) = max(0, 1 - e^eps).
    """
    eps_list = [float(e) for e in eps_list]
    if any(math.isnan(e) for e in eps_list):
        raise DomainError("eps must not be nan")
    mesh = DEFAULT_MESH
    head, subsampled = [], []
    for f in composite.factors:
        if isinstance(f, GdpFactor):
            head.append(f.mu)
        elif not isinstance(f, SubsampledGdpFactor):
            raise DomainError(
                f"unsupported composite factor {type(f).__name__}")
        elif f.p == 1.0 and (f.multiplicity > 1 or _too_narrow(f.mu, mesh)):
            # C_1(G(mu))^k = G(mu sqrt(k)) (module docstring)
            head.append(f.mu * math.sqrt(f.multiplicity))
        else:
            subsampled.append(f)
    if not (head or subsampled):
        return [(e, max(0.0, -math.expm1(e))) for e in eps_list]
    mu = math.hypot(*head)
    # Refuse a head too long for any lattice before composing the rest. Its
    # 12-sigma span, snapped to cover 0, is the head's lattice for mu > 24
    # whatever the cut, and for smaller mu it is far below the cap.
    _aligned_range(0.5 * mu * mu - _STD_SPAN * mu,
                   0.5 * mu * mu + _STD_SPAN * mu, mesh)
    rest = None
    for f in subsampled:
        prv = _subsampled_base(f.mu, f.p, mesh)
        if f.multiplicity > 1:
            prv = self_compose(prv, f.multiplicity)
        rest = prv if rest is None else convolve(rest, prv)
    composed = rest
    # A head too narrow for the lattice is added at query time.
    narrow = rest is not None and mu > 0.0 and _too_narrow(mu, mesh)
    if head and not narrow:
        cut = (min([0.0, *eps_list]) - (0.0 if rest is None else rest.hi)
               - 2.0 * mesh)
        g = prv_of_gdp(mu, mesh, cut=cut)
        composed = g if rest is None else convolve(rest, g)
    _check_budget(composed.tail_mass)
    deltas = prv_delta(composed, eps_list)
    if narrow:
        deltas = _add_narrow_head(rest, mu, eps_list, deltas)
    return list(zip(eps_list, deltas))


def _add_narrow_head(rest: PrvGrid, mu: float, eps_list, deltas) -> list:
    """delta of rest x G(mu) from deltas = prv_delta(rest, eps_list).

    Exactly, delta(eps) = sum_j pmf_j delta_G(eps - y_j) over the rest's
    points y_j (module docstring), and prv_delta is the same sum with
    delta_G(x) replaced by the hinge (1 - e^x)_+. Their difference is
    e^min(x, 0) delta_G(|x|) >= 0, formed without cancelling against the
    hinge, and it is below Phi(-13) for |x| > mu^2/2 + 13 mu: only the points
    within that distance of eps, plus a mesh, are summed. The result is
    clamped to [0, 1]; a non-finite eps keeps its prv_delta value.
    """
    reach = 0.5 * mu * mu + 13.0 * mu + rest.mesh
    out = []
    for e, d in zip(eps_list, deltas):
        if math.isfinite(e):
            lo, hi = (min(max(i - rest.offset, 0), rest.pmf.size) for i in (
                math.ceil((e - reach) / rest.mesh),
                math.floor((e + reach) / rest.mesh) + 1))
            x = e - (rest.offset + np.arange(lo, hi)) * rest.mesh
            a = np.abs(x)
            gap = np.exp(np.minimum(x, 0.0)) * (
                normal.cdf(0.5 * mu - a / mu)
                - np.exp(a) * normal.cdf(-0.5 * mu - a / mu))
            d = min(max(d + _dot(rest.pmf[lo:hi], gap), 0.0), 1.0)
        out.append(d)
    return out
