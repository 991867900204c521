"""Tradeoff-curve arithmetic for f-DP accounting.

A tradeoff curve maps a type-I error budget alpha to the smallest achievable
type-II error when distinguishing two distributions; it is decreasing, convex
and bounded by 1 - alpha. Curves are stored as piecewise-linear interpolants
on a fixed alpha grid and are immutable: every operation returns a new curve
that is validated against those invariants on construction.

The Gaussian curve G(mu)(alpha) = Phi(Phi^{-1}(1 - alpha) - mu) is the basic
building block; the subsampling operator symmetrizes and convexifies the
mixture curve p*f + (1-p)*Id.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import normal
from .errors import DomainError, InvalidCurveError

DEFAULT_GRID_SIZE = 10_001
# Geometric tail refinement: Phi^{-1} blows up at alpha in {0, 1} and the
# (eps, delta) conversions are driven by exactly those regions.
TAIL_FLOOR = 1e-12
TAIL_POINTS_PER_DECADE = 16

CONVEXITY_TOL = 1e-12
UPPER_BOUND_TOL = 1e-12
MONOTONE_TOL = 1e-12
DEFAULT_ORDER_TOL = 1e-9

CSV_HEADER = "alpha,f"
_TINY = math.ulp(0.0)  # smallest positive double, 5e-324


@functools.lru_cache(maxsize=4)
def alpha_grid(grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Uniform alpha grid plus geometric refinement near both endpoints.

    The grid is built once per size and shared, so it is returned read-only.
    """
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    base = np.linspace(0.0, 1.0, grid_size)
    mesh = 1.0 / (grid_size - 1)
    if mesh <= TAIL_FLOOR:
        grid = base
    else:
        decades = math.log10(mesh / TAIL_FLOOR)
        n_tail = max(2, int(math.ceil(decades * TAIL_POINTS_PER_DECADE)))
        tail = np.geomspace(TAIL_FLOOR, mesh, n_tail)
        grid = np.unique(np.concatenate([base, tail, 1.0 - tail]))
        grid[0], grid[-1] = 0.0, 1.0
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Discretized tradeoff function on a sorted alpha grid."""

    alphas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "values", values)
        self.validate()
        alphas.flags.writeable = False
        values.flags.writeable = False

    @property
    def mesh(self) -> float:
        """Largest alpha spacing of the grid."""
        return float(np.max(np.diff(self.alphas)))

    def validate(self) -> None:
        a, v = self.alphas, self.values
        if a.ndim != 1 or a.shape != v.shape or a.size < 2:
            raise InvalidCurveError("curve needs matching 1-d grids of size >= 2")
        # Every check below is a comparison that a NaN passes.
        if not (np.isfinite(a).all() and np.isfinite(v).all()):
            raise InvalidCurveError("alphas and values must be finite")
        if a[0] != 0.0 or a[-1] != 1.0:
            raise InvalidCurveError("alpha grid must span [0, 1] exactly")
        if np.any(np.diff(a) <= 0):
            raise InvalidCurveError("alpha grid must be strictly increasing")
        if np.any(np.diff(v) > MONOTONE_TOL):
            raise InvalidCurveError("values must be non-increasing")
        if np.any(v < -MONOTONE_TOL) or np.any(v > 1.0 + MONOTONE_TOL):
            raise InvalidCurveError("values must lie in [0, 1]")
        if np.any(v > 1.0 - a + UPPER_BOUND_TOL):
            raise InvalidCurveError("values must satisfy f(alpha) <= 1 - alpha")
        # Discrete convexity: each interior point lies on or below the chord of
        # its neighbours, with an absolute slack for round-off.
        span = a[2:] - a[:-2]
        chord = v[:-2] * (a[2:] - a[1:-1]) + v[2:] * (a[1:-1] - a[:-2])
        if np.any(v[1:-1] * span > chord + CONVEXITY_TOL * span + CONVEXITY_TOL):
            raise InvalidCurveError("piecewise-linear interpolant is not convex")

    def __call__(self, alpha):
        """Evaluate the piecewise-linear interpolant."""
        return np.interp(alpha, self.alphas, self.values)


def identity_curve(alphas=None) -> TradeoffCurve:
    """Id(alpha) = 1 - alpha, the fully private curve."""
    a = alpha_grid() if alphas is None else np.asarray(alphas, dtype=float)
    return TradeoffCurve(a, 1.0 - a)


# -- Gaussian tradeoff ------------------------------------------------------


def gdp_eval(mu: float, alpha):
    """G(mu)(alpha) = Phi(Phi^{-1}(1 - alpha) - mu).

    Endpoints are exact: alpha = 0 gives 1, alpha = 1 gives 0, and mu = 0
    gives the identity curve. A finite G(mu) is positive on alpha < 1, so
    values that underflow there are floored at the smallest positive double:
    an exact 0 plateau would put f^{-1}(0) at its left end instead of at 1.
    """
    if not mu >= 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise DomainError("alpha must lie in [0, 1]")
    if mu == 0:
        out = 1.0 - arr
    else:
        with np.errstate(invalid="ignore"):
            out = normal.cdf(normal.inv_upper(arr) - mu)
        if math.isfinite(mu):
            out = np.maximum(out, _TINY)
        out = np.where(arr == 0.0, 1.0, np.where(arr == 1.0, 0.0, out))
    return float(out) if np.isscalar(alpha) else out


def curve_of_gdp(mu: float, grid_size: int | None = None) -> TradeoffCurve:
    """Discretize G(mu) on the alpha grid of grid_size points (None: the
    default size)."""
    alphas = alpha_grid() if grid_size is None else alpha_grid(grid_size)
    return TradeoffCurve(alphas, gdp_eval(mu, alphas))


# -- inversion and convexification ------------------------------------------


def _inverse_values(alphas: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Left-continuous inverse f^{-1}(q) = inf{x : f(x) <= q} of a decreasing
    piecewise-linear curve, evaluated at `query`.

    Plateaus map to the left endpoint of the plateau; below the smallest value
    the set is empty and the inverse is 1, above the largest it is 0.
    """
    xs = values[::-1]
    ys = alphas[::-1]
    ux, starts = np.unique(xs, return_index=True)
    uy = np.minimum.reduceat(ys, starts)
    return np.interp(query, ux, uy, left=1.0, right=0.0)


def invert_curve(f: TradeoffCurve) -> TradeoffCurve:
    """f^{-1} on the same grid; equals f on the grid for symmetric curves."""
    vals = _inverse_values(f.alphas, f.values, f.alphas)
    vals = np.minimum.accumulate(vals)
    np.clip(vals, 0.0, 1.0 - f.alphas, out=vals)
    return TradeoffCurve(f.alphas, vals)


def _lower_hull(x: np.ndarray, y: np.ndarray):
    """Monotone-chain lower convex hull of points sorted by x.

    The chain pops the stack top while it is not strictly below the segment
    from the point under it to the new point. While the top two stack points
    are the input points i - 2 and i - 1, that test at point i is the sign of
    the consecutive-triple cross product c[i - 2], and NumPy forms c with the
    same IEEE operations, in the same order, as the scalar test. So a run of
    c > 0 pushes its points with no pop, in one step; the scalar loop runs
    only at a point whose c <= 0, until the top two stack points are
    consecutive again, which is as soon as a point pops nothing (every point
    is pushed, so the top before point i is always i - 1). The hull is the
    one the scalar chain builds, bit for bit, and with no c <= 0 at all it is
    the input itself.
    """
    c = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
    bad = np.flatnonzero(c <= 0.0).tolist()
    if not bad:
        return x, y
    # Python floats: the same IEEE arithmetic as float64 scalars, faster.
    xs, ys = x.tolist(), y.tolist()
    n = len(xs)
    i = bad[0] + 2
    hx, hy = xs[:i], ys[:i]
    while i < n:
        px, py = xs[i], ys[i]
        popped = False
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (py - hy[-2]) - (hy[-1] - hy[-2]) * (px - hx[-2])
            if cross <= 0.0:
                hx.pop()
                hy.pop()
                popped = True
            else:
                break
        hx.append(px)
        hy.append(py)
        i += 1
        if not popped:
            # The top two are points i - 2 and i - 1 again: push up to the
            # next triple with c <= 0.
            j = bisect.bisect_left(bad, i - 2)
            stop = bad[j] + 2 if j < len(bad) else n
            hx.extend(xs[i:stop])
            hy.extend(ys[i:stop])
            i = stop
    return np.asarray(hx), np.asarray(hy)


def convexify(points) -> TradeoffCurve:
    """Greatest convex non-increasing minorant of a point cloud covering [0, 1],
    clipped to [0, 1 - alpha]."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise DomainError("convexify needs a nonempty point cloud")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("points must be (alpha, value) pairs")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x, y = pts[order, 0], pts[order, 1]
    if x[0] != 0.0 or x[-1] != 1.0:
        raise DomainError("point cloud must cover alpha in [0, 1]")
    # Ties on alpha keep the lower value: first occurrence after the lexsort.
    ux, starts = np.unique(x, return_index=True)
    uy = y[starts]
    hx, hy = _lower_hull(ux, uy)
    vals = np.interp(ux, hx, hy)
    vals = np.minimum.accumulate(vals)
    np.clip(vals, 0.0, 1.0 - ux, out=vals)
    return TradeoffCurve(ux, vals)


# -- subsampling operator ----------------------------------------------------


def subsample(f: TradeoffCurve, p: float) -> TradeoffCurve:
    """Subsampling operator: convexified symmetrization of p*f + (1-p)*Id.

    The result is the largest tradeoff function below both the mixture curve
    f_p and its inverse; it is symmetric (equal to its own inverse) up to grid
    error. p = 0 returns Id exactly, p = 1 the symmetrization of f.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"subsampling rate must lie in [0, 1], got {p}")
    if p == 0.0:
        return identity_curve(f.alphas)
    fp = p * f.values + (1.0 - p) * (1.0 - f.alphas)
    fp_inv = _inverse_values(f.alphas, fp, f.alphas)
    m = np.minimum(fp, fp_inv)
    return convexify(np.column_stack([f.alphas, m]))


def mixture_gaussian_tradeoff(p: float, mu: float) -> TradeoffCurve:
    """Exact curve of N(0,1) versus the mixture p*N(mu,1) + (1-p)*N(0,1).

    The likelihood ratio of the mixture against N(0,1) is increasing in the
    observation, so optimal tests reject above a threshold z. Scanning z with
    type-I error alpha(z) = 1 - Phi(z) gives type-II error
    (1-p)*Phi(z) + p*Phi(z - mu); the grid parametrizes z = Phi^{-1}(1-alpha).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixture weight must lie in [0, 1], got {p}")
    if mu < 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    alphas = alpha_grid()
    if p == 0.0 or mu == 0.0:
        return identity_curve(alphas)
    z = normal.inv_upper(alphas)
    with np.errstate(invalid="ignore"):
        vals = (1.0 - p) * (1.0 - alphas) + p * normal.cdf(z - mu)
    vals = np.where(alphas == 0.0, 1.0, np.where(alphas == 1.0, 0.0, vals))
    return TradeoffCurve(alphas, vals)


# -- comparison --------------------------------------------------------------


def curve_geq(f: TradeoffCurve, g: TradeoffCurve, tol: float | None = None):
    """Pointwise f >= g - tol on the common grid; returns (holds, max violation).

    The default tolerance is 1e-9 plus one mesh width of interpolation slack.
    """
    if not np.array_equal(f.alphas, g.alphas):
        raise DomainError("curves must share the same alpha grid")
    if tol is None:
        tol = DEFAULT_ORDER_TOL + f.mesh
    violation = float(np.max(g.values - f.values))
    return violation <= tol, violation
