"""Tradeoff-curve arithmetic for f-DP accounting.

A tradeoff curve maps a type-I error budget alpha to the smallest achievable
type-II error when distinguishing two distributions; it is decreasing, convex
and bounded by 1 - alpha. Curves are stored as piecewise-linear interpolants
on a fixed alpha grid and are immutable: every operation returns a new curve
that is validated against those invariants on construction.

The Gaussian curve G(mu)(alpha) = Phi(Phi^{-1}(1 - alpha) - mu) is the basic
building block; the subsampling operator takes the smaller of the mixture
curve p*f + (1-p)*Id and its inverse, and bridges them with the line of
slope -1 that touches both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import normal
from .errors import DomainError, InvalidCurveError

DEFAULT_GRID_SIZE = 10_001
MAX_GRID_SIZE = 10 ** 6  # about 8 MB per array of the curve
# Geometric tail refinement: Phi^{-1} blows up at alpha in {0, 1} and the
# (eps, delta) conversions are driven by exactly those regions.
TAIL_FLOOR = 1e-12
TAIL_POINTS_PER_DECADE = 16

CONVEXITY_TOL = 1e-12
UPPER_BOUND_TOL = 1e-12
MONOTONE_TOL = 1e-12

CSV_HEADER = "alpha,f"
_TINY = math.ulp(0.0)  # smallest positive double, 5e-324


@functools.lru_cache(maxsize=4)
def alpha_grid(grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Uniform alpha grid plus geometric refinement near both endpoints.

    The grid is built once per size and shared, so it is returned read-only.
    """
    if not 3 <= grid_size <= MAX_GRID_SIZE:
        raise DomainError(
            f"grid_size must lie in [3, {MAX_GRID_SIZE}], got {grid_size}")
    base = np.linspace(0.0, 1.0, grid_size)
    # The uniform mesh is at least 1e-6, six decades above TAIL_FLOOR.
    mesh = 1.0 / (grid_size - 1)
    n_tail = math.ceil(math.log10(mesh / TAIL_FLOOR) * TAIL_POINTS_PER_DECADE)
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


@functools.lru_cache(maxsize=4)
def _grid_quantiles(grid_size: int | None = None) -> np.ndarray:
    """Phi^{-1}(1 - alpha) on the alpha grid of grid_size points (None: the
    default size), built once per size and shared read-only like the grid."""
    z = normal.inv_upper(alpha_grid() if grid_size is None else alpha_grid(grid_size))
    z.flags.writeable = False
    return z


def _check_mu(mu: float) -> None:
    if not mu >= 0:
        raise DomainError(f"mu must be >= 0, got {mu}")


def _gdp_values(mu: float, arr, z: np.ndarray | None = None):
    """G(mu) at the alphas arr (an array or a float), given
    z = Phi^{-1}(1 - arr) if the caller has it."""
    _check_mu(mu)
    if np.logical_or(arr < 0, arr > 1).any():
        raise DomainError("alpha must lie in [0, 1]")
    if mu == 0:
        return 1.0 - arr
    if z is None:
        z = normal.inv_upper(arr)
    with np.errstate(invalid="ignore"):
        out = normal.cdf(z - mu)
    if math.isfinite(mu):
        out = np.maximum(out, _TINY)
    return np.where(arr == 0.0, 1.0, np.where(arr == 1.0, 0.0, out))


def gdp_eval(mu: float, alpha):
    """G(mu)(alpha) = Phi(Phi^{-1}(1 - alpha) - mu).

    Endpoints are exact: alpha = 0 gives 1, alpha = 1 gives 0, and mu = 0
    gives the identity curve. A finite G(mu) is positive on alpha < 1, so
    values that underflow there are floored at the smallest positive double:
    an exact 0 plateau would put f^{-1}(0) at its left end instead of at 1.

    One implementation, `_gdp_values`, serves every alpha. A float alpha
    (Python or NumPy) reaches it as a float, so it keeps to normal's scalar
    functions and the standard library; any other alpha becomes an array
    and goes through scipy.special. The two agree to within a few ulps.
    """
    arr = alpha if isinstance(alpha, float) else np.asarray(alpha, dtype=float)
    out = _gdp_values(mu, arr)
    return float(out) if np.isscalar(alpha) else out


def curve_of_gdp(mu: float, grid_size: int | None = None) -> TradeoffCurve:
    """Discretize G(mu) on the alpha grid of grid_size points (None: the
    default size)."""
    alphas = alpha_grid() if grid_size is None else alpha_grid(grid_size)
    return TradeoffCurve(alphas, _gdp_values(mu, alphas, _grid_quantiles(grid_size)))


# -- inversion --------------------------------------------------------------


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


# -- subsampling operator ----------------------------------------------------


def subsample(f: TradeoffCurve, p: float) -> TradeoffCurve:
    """Subsampling operator C_p: the greatest tradeoff function below both the
    mixture curve f_p = p*f + (1-p)*Id and its inverse.

    f must be symmetric (equal to its own inverse), as every curve the
    library builds is. Then C_p(f) is f_p up to its slope -1 point, one line
    of slope -1, and f_p^{-1} after it (Dong-Roth-Su, Gaussian Differential
    Privacy, section 4). So the result is m = min(f_p, f_p^{-1}) with the
    line alpha + value = c drawn between the node where alpha + m reaches its
    minimum c and its mirror image: no node of m lies below that line. Where
    m needs more than one such bridge to be convex, which a symmetric f does
    not, validation raises InvalidCurveError. p = 0 returns Id exactly, p = 1
    the symmetrization of f.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"subsampling rate must lie in [0, 1], got {p}")
    if p == 0.0:
        return identity_curve(f.alphas)
    a = f.alphas
    fp = p * f.values + (1.0 - p) * (1.0 - a)
    m = np.minimum(fp, _inverse_values(a, fp, a))
    s = a + m
    i = int(np.argmin(s))
    lo, hi = sorted((a[i], s[i] - a[i]))
    vals = np.where((a > lo) & (a < hi), s[i] - a, m)
    vals = np.minimum.accumulate(vals)
    np.clip(vals, 0.0, 1.0 - a, out=vals)
    return TradeoffCurve(a, vals)
