"""Conversions among GDP / f-DP, (eps, delta)-DP and Renyi DP.

The GDP <-> (eps, delta) direction is lossless:

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2),

and general curves convert through the duality
delta(eps) = sup_alpha {1 - e^eps alpha - f(alpha)}. RDP conversions are
inherently lossy; the tighter of the two standard formulas is used,
optimized over the order.

Everything except `curve_to_delta` is scalar arithmetic on the standard
library's math module and `normal`'s float functions, the Mills ratio
included, so the closed-form conversions load neither NumPy nor SciPy. mu
and rho must be finite; eps = +inf is valid and gives delta = 0 for GDP and
1 - f(0) for a curve f.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import normal
from .errors import DomainError

if TYPE_CHECKING:
    from .tradeoff import TradeoffCurve

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EPS_STEP = 1e-12     # gdp_to_eps: last step accepted, relative to eps
_NEWTON_ITERS = 200   # gdp_to_eps: cap on delta evaluations
_EXP_SAFE = 700.0     # gdp_to_eps: largest |log slope| a Newton step uses
_EPS_EXP_MAX = 709.0  # curve_to_delta: largest eps whose e^eps is formed
# curve_to_delta: nodes with e^eps alpha >= this have a negative objective;
# the margin over 1 must exceed tradeoff.MONOTONE_TOL plus rounding.
_PREFIX_SLACK = 1.0 + 1e-11

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


def _log_mills(x: float) -> float:
    """log r(x) = log Phi(x) - log phi(x); for x <= -2 it is
    -log(-x + normal.mills_tail(-x)), which neither Phi nor phi enters."""
    if x <= -2.0:
        return -math.log(-x + normal.mills_tail(-x))
    return normal.log_cdf(x) + 0.5 * x * x + _LOG_SQRT_2PI


def _log_mills_slope(x: float) -> float:
    """(log r)'(x) = phi(x)/Phi(x) + x > 0, without the cancellation of the
    two terms in the left tail."""
    if x <= -2.0:
        return normal.mills_tail(-x)
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
    """Unique eps >= 0 with gdp_to_delta(mu, eps) = delta.

    Returns 0 when delta already exceeds the total variation bound
    gdp_to_delta(mu, 0). Otherwise a safeguarded Newton iteration on
    log delta(eps), whose slope is closed-form: d delta/d eps = -e^eps Phi(b)
    with b = -eps/mu - mu/2. It starts from the Chernoff point
    hi = mu (mu/2 + sqrt(2 log(1/(2 delta)))), where delta(hi) <= Phi(a) <=
    e^{-a^2/2}/2 <= delta (a = b + mu), and keeps the root in [lo, hi]: a
    Newton step that leaves the bracket, or is not at most half the step
    before last, is replaced by bisection. It stops once a step is below
    1e-12 eps.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"mu must be a finite number >= 0, got {mu}")
    if mu == 0 or delta >= gdp_to_delta(mu, 0.0):
        return 0.0
    lo = 0.0
    hi = x = mu * (0.5 * mu
                   + math.sqrt(2.0 * max(0.0, -math.log(2.0 * delta))))
    res = gdp_to_delta(mu, x)
    if res > delta:  # only if delta(eps) is wrong in doubles
        raise DomainError(f"cannot bracket eps at delta={delta}: "
                          f"mu={mu} is too large for double precision")
    log_delta = math.log(delta)
    step = before = hi
    for _ in range(_NEWTON_ITERS):
        tol = _EPS_STEP * x
        new = 0.5 * (lo + hi)
        # The slope -(log delta)'(x) = e^x Phi(b) / delta(x); where it or
        # delta(x) leaves the double range, the step is a bisection.
        log_res = math.log(res) if res > 0.0 else -math.inf
        log_slope = x + normal.log_cdf(-x / mu - 0.5 * mu) - log_res
        if abs(log_slope) < _EXP_SAFE:
            newton = x + (log_res - log_delta) * math.exp(-log_slope)
            if abs(newton - x) <= tol:
                return min(max(newton, lo), hi)
            if lo < newton < hi and abs(newton - x) <= 0.5 * abs(before):
                new = newton
        if hi - lo <= tol:
            return new
        before, step = step, new - x
        x = new
        res = gdp_to_delta(mu, x)
        if res > delta:
            lo = x
        else:
            hi = x
    return x


def gdp_to_rdp(mu: float, alpha: float) -> float:
    """A mu-GDP mechanism satisfies (alpha, mu^2 alpha / 2) Renyi DP."""
    if not 0.0 <= mu < math.inf:
        raise DomainError(f"mu must be a finite number >= 0, got {mu}")
    if not alpha > 1:
        raise DomainError(f"Renyi order must be > 1, got {alpha}")
    return 0.5 * mu * mu * alpha


def _golden_min(fn, lo: float, hi: float) -> float:
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(200):
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
    the stored representation. Above eps = 709, where e^eps nears overflow,
    e^eps alpha > 1 at every positive normal double alpha, so only the
    alpha = 0 node can be positive: delta = 1 - f(0).

    Otherwise only the nodes with alpha < (1 + 1e-11)/e^eps are scanned; the
    rest cannot change the clamped result. Let s be the computed e^eps and
    u = 2^-53. A node past the prefix has alpha >= fl(fl(1 + 1e-11)/s), and
    each of the three roundings up to fl(s alpha) loses at most a relative u,
    so fl(s alpha) > 1 + 1e-11 - 4u > 1 + 9.9e-12. Then 1 - fl(s alpha) is
    exact (Sterbenz) or at most -1, and a valid curve has f >= -1e-12
    (`tradeoff.MONOTONE_TOL`), so the computed objective there is below
    -8.9e-12: strictly negative. If the maximum over all nodes falls there,
    it and the prefix maximum, which is no larger, both clamp to 0; if not,
    it is the prefix maximum. The objective is never -0.0 (x - x is +0.0),
    so the two maxima agree bit for bit. The alpha = 0 node is always in the
    prefix; eps = -inf (s = 0) scans every node.
    """
    if math.isnan(eps):
        raise DomainError("eps must be a number, got nan")
    if eps > _EPS_EXP_MAX:
        delta = 1.0 - float(f.values[0])
    else:
        scale = math.exp(eps)
        alphas, values = f.alphas, f.values
        if scale > 0.0:
            end = int(alphas.searchsorted(_PREFIX_SLACK / scale))
            alphas, values = alphas[:end], values[:end]
        delta = float((1.0 - scale * alphas - values).max())
    return min(max(delta, 0.0), 1.0)
