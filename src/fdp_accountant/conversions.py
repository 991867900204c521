"""Conversions among GDP / f-DP, (eps, delta)-DP and Renyi DP.

The GDP <-> (eps, delta) direction is lossless:

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2),

and general curves convert through the duality
delta(eps) = sup_alpha {1 - e^eps alpha - f(alpha)}. RDP conversions are
inherently lossy; the tighter of the two standard formulas is used,
optimized over the order.
"""

from __future__ import annotations

import math

import numpy as np

from . import normal
from .errors import DomainError
from .tradeoff import TradeoffCurve

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EPS_TOL = 1e-12      # gdp_to_eps: residual |delta(eps) - delta| accepted
_MU_BRACKET = 100.0   # gdp_mu_from_delta: largest mu searched


def gdp_to_delta(mu: float, eps: float) -> float:
    """delta(eps) of a mu-GDP mechanism; mu = 0 is perfectly private."""
    if not (mu >= 0 and eps >= 0):  # also rejects nan
        raise DomainError("mu and eps must be >= 0")
    if mu == 0:
        return 0.0
    # Evaluate in log space: both Phi terms underflow for eps >> mu.
    l1 = normal.log_cdf(-eps / mu + mu / 2.0)
    l2 = eps + normal.log_cdf(-eps / mu - mu / 2.0)
    delta = float(np.exp(l1) * -np.expm1(l2 - l1))
    return min(max(delta, 0.0), 1.0)


def gdp_to_eps(mu: float, delta: float) -> float:
    """Unique eps >= 0 with gdp_to_delta(mu, eps) = delta, by bisection.

    Returns 0 when delta already exceeds the total variation bound
    gdp_to_delta(mu, 0).
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not mu >= 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if mu == 0 or delta >= gdp_to_delta(mu, 0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while gdp_to_delta(mu, hi) > delta:
        hi *= 2.0
        if hi > 1e8:
            raise DomainError("failed to bracket eps; delta too small")
    # Bisect on the monotone curve until the eps interval is exhausted; the
    # residual target is unreachable in doubles when delta' is steep or delta
    # is tiny, so interval convergence is the primary stop.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        res = gdp_to_delta(mu, mid)
        if abs(res - delta) <= _EPS_TOL and hi - lo <= 1e-9 * max(1.0, hi):
            return mid
        if res > delta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def gdp_mu_from_delta(eps: float, delta: float) -> float:
    """mu with gdp_to_delta(mu, eps) = delta (the GDP level matching a given
    privacy-curve point); delta is increasing in mu."""
    if eps < 0 or not 0.0 < delta < 1.0:
        raise DomainError("need eps >= 0 and delta in (0, 1)")
    if gdp_to_delta(_MU_BRACKET, eps) < delta:
        raise DomainError("delta not reachable below the mu bracket")
    lo, hi = 0.0, _MU_BRACKET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gdp_to_delta(mid, eps) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gdp_to_rdp(mu: float, alpha: float) -> float:
    """A mu-GDP mechanism satisfies (alpha, mu^2 alpha / 2) Renyi DP."""
    if not mu >= 0:
        raise DomainError(f"mu must be >= 0, got {mu}")
    if not alpha > 1:
        raise DomainError(f"Renyi order must be > 1, got {alpha}")
    return 0.5 * mu * mu * alpha


def _golden_min(fn, lo: float, hi: float, iters: int = 200) -> float:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return min(f1, f2)


def rdp_to_epsdelta(rho: float, delta: float) -> float:
    """eps(delta) for a mechanism that is (alpha, rho * alpha)-RDP for all
    alpha > 1.

    Uses the conversion of Canonne, Kamath and Steinke (NeurIPS 2020),

      eps = rho * alpha + log(1/(delta * alpha)) / (alpha - 1)
            + log(1 - 1/alpha),

    optimized over the order by golden-section search on log(alpha - 1) in
    [-12, 12] (the optimum spans orders of magnitude in alpha), clipped at 0.
    It is below Mironov's classic eps = rho * alpha + log(1/delta)/(alpha - 1)
    (CSF 2017) at every order: their difference,
    log(1 - 1/alpha) - log(alpha)/(alpha - 1), is negative for all alpha > 1.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not rho >= 0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    log_inv_delta = math.log(1.0 / delta)

    def tight(u):
        alpha = 1.0 + math.exp(u)
        return (rho * alpha + (log_inv_delta - math.log(alpha)) / (alpha - 1.0)
                + math.log1p(-1.0 / alpha))

    return max(_golden_min(tight, -12.0, 12.0), 0.0)


def curve_to_delta(f: TradeoffCurve, eps: float) -> float:
    """delta(eps) = sup_alpha {1 - e^eps alpha - f(alpha)} for a tradeoff curve.

    For a piecewise-linear curve the objective is linear on each segment, so
    the supremum is attained at a grid node and the node maximum is exact for
    the stored representation.
    """
    delta = float(np.max(1.0 - math.exp(eps) * f.alphas - f.values))
    return min(max(delta, 0.0), 1.0)
