"""Conversions among GDP / f-DP, (eps, delta)-DP and Renyi DP.

The GDP <-> (eps, delta) direction is lossless:

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2),

and general curves convert through the duality
delta(eps) = sup_alpha {1 - e^eps alpha - f(alpha)}. RDP conversions are
inherently lossy; the tighter of the two standard formulas is used,
optimized over the order.

Everything except `curve_to_delta` is scalar arithmetic on the standard
library's math module, so the closed-form conversions load neither NumPy nor
SciPy. mu and rho must be finite; eps = +inf is valid and gives delta = 0.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import normal
from .errors import DomainError

if TYPE_CHECKING:
    from .tradeoff import TradeoffCurve

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EPS_TOL = 1e-12      # gdp_to_eps: residual |delta(eps) - delta| accepted
_MU_BRACKET = 100.0   # gdp_mu_from_delta: largest mu searched

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)
# gdp_to_delta: up to this mu, log r(b) - log r(a) would cancel, so it is
# integrated over [b, a] instead, by a 6-point Gauss-Legendre rule (nodes and
# weights on [-1, 1]). The integrand's poles, at the zeros of Phi, lie at
# least 2.8 away from the real axis, so on an interval of length <= 0.5 the
# rule is exact to rounding.
_MU_QUADRATURE = 0.5
_GAUSS_LEGENDRE = ((0.9324695142031519, 0.17132449237917027),
                   (0.6612093864662645, 0.3607615730481387),
                   (0.2386191860831969, 0.46791393457269104))


def _mills_cf(t: float) -> float:
    """1/(t + 2/(t + 3/(t + ...))) for t >= 2, to double precision: the tail
    of Laplace's continued fraction r(-t) = 1/(t + 1/(t + 2/(t + ...))) for
    the Mills ratio r(x) = Phi(x)/phi(x)."""
    depth = int(350.0 / (t * t)) + 10
    # Start from the fixed point of k = n/(t + k) at n = depth + 1.
    k = 0.5 * (math.sqrt(t * t + 4.0 * (depth + 1)) - t)
    for n in range(depth, 0, -1):
        k = n / (t + k)
    return k


def _log_mills(x: float) -> float:
    """log r(x) = log Phi(x) - log phi(x)."""
    if x <= -2.0:
        return -math.log(-x + _mills_cf(-x))
    return normal.log_cdf(x) + 0.5 * x * x + _LOG_SQRT_2PI


def _log_mills_slope(x: float) -> float:
    """(log r)'(x) = phi(x)/Phi(x) + x > 0, without the cancellation of the
    two terms in the left tail."""
    if x <= -2.0:
        return _mills_cf(-x)
    return math.exp(-0.5 * x * x) / (_SQRT_2PI * normal.cdf(x)) + x


def gdp_to_delta(mu: float, eps: float) -> float:
    """delta(eps) of a mu-GDP mechanism; mu = 0 is perfectly private.

    With a = -eps/mu + mu/2 and b = a - mu, e^eps phi(b) = phi(a), so
    delta = Phi(a) - e^eps Phi(b) = Phi(a) (1 - r(b)/r(a)) for the Mills
    ratio r = Phi/phi: the e^eps factor and both Gaussian exponents drop out
    exactly, and 1 - r(b)/r(a) is found from log r(b) - log r(a).
    """
    if not 0.0 <= mu < math.inf:  # also rejects nan
        raise DomainError(f"mu must be a finite number >= 0, got {mu}")
    if not eps >= 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    if mu == 0:
        return 0.0
    mid, half = -eps / mu, mu / 2.0
    a = mid + half
    bound = math.exp(normal.log_cdf(a))  # Phi(a) >= delta
    if bound == 0.0:
        return 0.0
    if mu <= _MU_QUADRATURE:
        d = -half * sum(w * (_log_mills_slope(mid - half * x)
                             + _log_mills_slope(mid + half * x))
                        for x, w in _GAUSS_LEGENDRE)
    else:
        d = _log_mills(mid - half) - _log_mills(a)
    # d <= 0 in exact arithmetic; a positive value is rounding only.
    delta = bound * -math.expm1(min(d, 0.0))
    return min(delta, 1.0) if delta > 0.0 else 0.0


def gdp_to_eps(mu: float, delta: float) -> float:
    """Unique eps >= 0 with gdp_to_delta(mu, eps) = delta, by bisection.

    Returns 0 when delta already exceeds the total variation bound
    gdp_to_delta(mu, 0).
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"mu must be a finite number >= 0, got {mu}")
    if mu == 0 or delta >= gdp_to_delta(mu, 0.0):
        return 0.0
    # delta(eps) <= Phi(-eps/mu + mu/2) is 0 in doubles (Phi(-39) ~ 1e-333)
    # once eps >= cap, so doubling from 1 stops below 2 cap.
    cap = mu * (0.5 * mu + 39.0)
    lo, hi = 0.0, 1.0
    while gdp_to_delta(mu, hi) > delta:
        hi *= 2.0
        if not hi < 2.0 * cap:
            raise DomainError(f"cannot bracket eps at delta={delta}: "
                              f"mu={mu} is too large for double precision")
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
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"mu must be a finite number >= 0, got {mu}")
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
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"rho must be a finite number >= 0, got {rho}")
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
    delta = float((1.0 - math.exp(eps) * f.alphas - f.values).max())
    return min(max(delta, 0.0), 1.0)
