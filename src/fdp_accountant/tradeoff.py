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


def _gdp_values(mu: float, arr: np.ndarray, z: np.ndarray | None = None):
    """G(mu) at the alphas arr, given z = Phi^{-1}(1 - arr) if the caller
    has it."""
    if not mu >= 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if np.any(arr < 0) or np.any(arr > 1):
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
    """
    out = _gdp_values(mu, np.asarray(alpha, dtype=float))
    return float(out) if np.isscalar(alpha) else out


def curve_of_gdp(mu: float, grid_size: int | None = None) -> TradeoffCurve:
    """Discretize G(mu) on the alpha grid of grid_size points (None: the
    default size)."""
    alphas = alpha_grid() if grid_size is None else alpha_grid(grid_size)
    return TradeoffCurve(alphas, _gdp_values(mu, alphas, _grid_quantiles(grid_size)))


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


# The hull's block step (see _lower_hull). A popping run goes to blocks of at
# most _BLOCK points once it has removed more than _BLOCK_AFTER points, and
# the predictor takes at most _TANGENT_ITERATIONS. On subsampled Gaussian
# curves, smaller blocks or fewer iterations were slower and larger ones no
# faster.
_BLOCK_AFTER = 16
_BLOCK = 1024
_TANGENT_ITERATIONS = 8


def _tangent_depths(sx, sy, px, py):
    """For each point (px, py) right of the lower convex chain (sx, sy), the
    index t of the chain point that maximizes the slope from it to the point:
    the tangent point.

    Dinkelbach iterations from the top of the chain: each guess t is replaced
    by the chain point where the edge slopes cross the slope from chain point
    t to the point, until no guess moves by more than one.
    """
    slopes = (sy[1:] - sy[:-1]) / (sx[1:] - sx[:-1])
    t = np.searchsorted(slopes, (py - sy[-1]) / (px - sx[-1]))
    for _ in range(_TANGENT_ITERATIONS - 1):
        u = np.searchsorted(slopes, (py - sy[t]) / (px - sx[t]))
        settled = (u - t).max() <= 1
        t = u
        if settled:
            break
    return t


def _cross_block(x, y, hx, hy, top, i, m):
    """Replay the chain's tests for points i .. i + m - 1 in one pass.

    The stack is hx, hy[:top + 2]: point i - 1 on top of stack points 0 ..
    top. _tangent_depths predicts the depth g[q + 1] that point i + q pops
    down to; clipped to [0, top] and made non-increasing, the prediction
    fixes every test the chain would make: point i + q pops point i + q - 1,
    then each stack point above g[q + 1], and stops at g[q + 1]. Each test is
    the chain's own expression on the same operands, and pops where the
    chain's does, at cross <= 0. Returns the number k of leading points whose
    tests all agree, and the depth g[k] the last of them stops at.
    """
    sx, sy = hx[:top + 1], hy[:top + 1]
    px, py = x[i:i + m], y[i:i + m]
    g = np.empty(m + 1, dtype=np.intp)
    g[0] = top
    depths = np.clip(_tangent_depths(sx, sy, px, py), 0, top)
    np.minimum.accumulate(depths, out=g[1:])
    x1, y1 = sx[g], sy[g]
    x0, y0 = sx[g - 1], sy[g - 1]   # index -1 only where g = 0: no stop test
    qx, qy = x[i - 1:i + m - 1], y[i - 1:i + m - 1]
    # Point i + q pops point i + q - 1 ...
    fail = ~((qx - x1[:-1]) * (py - y1[:-1]) - (qy - y1[:-1]) * (px - x1[:-1]) <= 0.0)
    # ... and stops at stack point g[q + 1], or at the bottom of the stack.
    x0, y0, x1, y1 = x0[1:], y0[1:], x1[1:], y1[1:]
    fail |= ((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) <= 0.0) & (g[1:] > 0)
    first = np.flatnonzero(fail)
    k = int(first[0]) if first.size else m
    low = int(g[k])
    if low < top:
        # The stack points low + 1 .. top, each popped by the first point whose
        # depth lies below it; bottom up, their poppers run from k - 1 down.
        owner = np.repeat(np.arange(k - 1, -1, -1), g[k - 1::-1] - g[k:0:-1])
        ox, oy = px[owner], py[owner]
        ax, ay, bx, by = sx[low:top], sy[low:top], sx[low + 1:], sy[low + 1:]
        kept = np.flatnonzero(~((bx - ax) * (oy - ay) - (by - ay) * (ox - ax) <= 0.0))
        if kept.size:
            k = int(owner[kept[-1]])
    return k, int(g[k])


def _lower_hull(x: np.ndarray, y: np.ndarray):
    """Monotone-chain lower convex hull of points with strictly increasing x.

    The chain pops the stack top while it is not strictly below the segment
    from the point under it to the new point; every point is pushed, so the
    top before point i is always point i - 1. The hull is the one that scalar
    chain builds, bit for bit: two kinds of step replay its tests in bulk,
    each with the chain's own expression on the same operands, and NumPy
    forms them with the same IEEE operations as the scalar test.

    - While the top two stack points are the input points i - 2 and i - 1,
      the test at point i is the sign of the consecutive-triple cross product
      c[i - 2]. So a run of c > 0 is pushed at once, and with no c <= 0 at all
      the hull is the input itself.
    - Across the slope -1 bridge of a subsampled curve every point pops its
      predecessor, then some points of a stack below that only shrinks.
      Once a run has popped more than _BLOCK_AFTER points, _cross_block
      predicts how deep each point of a block pops, replays
      every test that prediction implies and accepts the longest prefix whose
      tests all come out as the chain's did. An accepted point has made the
      chain's decisions, so a bad prediction costs time, never bits.

    The scalar step runs everywhere else, and at the first point a block
    rejects. The stack lives in two arrays: the steps read and write them
    through memoryviews, as Python floats with the same values.
    """
    c = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
    bad = np.flatnonzero(c <= 0.0).tolist()
    if not bad:
        return x, y
    n = x.size
    hx, hy = np.empty(n), np.empty(n)
    xs, ys, sx, sy = memoryview(x), memoryview(y), memoryview(hx), memoryview(hy)
    i = bad[0] + 2
    sx[:i], sy[:i] = xs[:i], ys[:i]
    d = i           # stack size; sx[d - 1] is point i - 1
    run = 0         # points popped since the last step that popped none
    while i < n:
        if run > _BLOCK_AFTER:
            m = min(_BLOCK, n - i)
            # Overflow and nan pass silently here, as in the chain's floats.
            with np.errstate(all="ignore"):
                k, low = _cross_block(x, y, hx, hy, d - 2, i, m)
            if k:
                i += k
                d = low + 2
                sx[d - 1], sy[d - 1] = xs[i - 1], ys[i - 1]
            if k == m:
                continue
            # The point the block rejected takes a scalar step, and the next
            # block waits for the run to pop more than _BLOCK_AFTER points.
            run = 0
        px, py = xs[i], ys[i]
        top = d
        bx, by = sx[d - 1], sy[d - 1]
        while d > 1:
            ax, ay = sx[d - 2], sy[d - 2]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0.0:
                d -= 1
                bx, by = ax, ay
            else:
                break
        sx[d], sy[d] = px, py
        d += 1
        i += 1
        if d <= top:
            run += top + 1 - d
        else:
            # The top two are points i - 2 and i - 1 again: push up to the
            # next triple with c <= 0.
            run = 0
            j = bisect.bisect_left(bad, i - 2)
            stop = bad[j] + 2 if j < len(bad) else n
            if stop > i:
                sx[d:d + stop - i], sy[d:d + stop - i] = xs[i:stop], ys[i:stop]
                d += stop - i
                i = stop
    return hx[:d], hy[:d]


def _minorant(x: np.ndarray, y: np.ndarray) -> TradeoffCurve:
    """Greatest convex non-increasing minorant of the points (x, y), x strictly
    increasing from 0 to 1, clipped to [0, 1 - x], on the grid x."""
    hx, hy = _lower_hull(x, y)
    vals = np.interp(x, hx, hy)
    vals = np.minimum.accumulate(vals)
    np.clip(vals, 0.0, 1.0 - x, out=vals)
    return TradeoffCurve(x, vals)


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
    return _minorant(ux, y[starts])


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
    # A curve's grid is strictly increasing from 0 to 1, so convexify's sort
    # and de-duplication would leave these points as they are.
    return _minorant(f.alphas, np.minimum(fp, fp_inv))
