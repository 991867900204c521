"""Standard normal helpers.

A float (Python or NumPy) is evaluated on the standard library: `cdf` and
`log_cdf` with math.erf/erfc, and the quantile `inv_upper` with
statistics.NormalDist (AS241). `log_cdf` takes floats only, as every caller
passes one; arrays given to `cdf` and `inv_upper` go through scipy.special's
ndtr and ndtri. SciPy, and with it NumPy, is imported on first use, so a
request that passes only floats loads neither. The upper tail 1 - Phi(x) is
`cdf(-x)`. Arguments as large as |x| ~ 40 show up in intermediate
compositions, so anything that can underflow goes through the log-space
variants. The Mills ratio r(x) = Phi(x)/phi(x) of the left tail is
1/(-x + `mills_tail(-x)`), Laplace's continued fraction; `log_cdf` takes it
where erfc underflows, and `conversions` for log r and its slope at x <= -2.
"""

import math

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# erfc(-x / sqrt 2) turns subnormal just below x = -37.5, so from here down
# log_cdf takes the Mills ratio instead.
_ERFC_LOG_MIN = -37.0


def _special():
    from scipy import special
    return special


def _ndtri(p: float) -> float:
    """Phi^{-1}(p) for a scalar, mapped as scipy's ndtri maps it: p = 0 gives
    -inf, p = 1 gives +inf, and nan or p outside [0, 1] gives nan."""
    if 0.0 < p < 1.0:
        from statistics import NormalDist  # deferred: only quantiles need it
        return NormalDist().inv_cdf(p)
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.nan


def _ndtr(x: float) -> float:
    """Phi(x) for a scalar, in the same erf/erfc split as scipy's ndtr."""
    z = x * _SQRT1_2
    if abs(z) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0 else y


def mills_tail(t: float) -> float:
    """1/(t + 2/(t + 3/(t + ...))) for t >= 2, to double precision: the tail
    of Laplace's continued fraction r(-t) = 1/(t + 1/(t + 2/(t + ...))) for
    the Mills ratio r(x) = Phi(x)/phi(x)."""
    depth = int(350.0 / (t * t)) + 10
    # Start from the fixed point of k = n/(t + k) at n = depth + 1.
    k = 0.5 * (math.sqrt(t * t + 4.0 * (depth + 1)) - t)
    for n in range(depth, 0, -1):
        k = n / (t + k)
    return k


def cdf(x):
    """Phi(x)."""
    if isinstance(x, float):
        return _ndtr(x)
    return _special().ndtr(x)


def log_cdf(x: float) -> float:
    """log Phi(x) for a float; nan stays nan and -inf maps to -inf. Below
    x = -37 it is log phi(x) + log r(x), with the Mills ratio r of
    `mills_tail`."""
    if x <= _ERFC_LOG_MIN:
        if x == -math.inf:  # the fraction would divide inf by inf
            return x
        return -0.5 * x * x - _LOG_SQRT_2PI - math.log(-x + mills_tail(-x))
    if x <= -1.0:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))


def inv_upper(alpha):
    """Phi^{-1}(1 - alpha), evaluated as -Phi^{-1}(alpha).

    Keeps full precision for alpha near 0, where forming 1 - alpha would
    round; alpha = 0 maps to +inf, alpha = 1 to -inf, and nan or alpha
    outside [0, 1] to nan. A float takes the standard library's AS241, an
    array scipy.special.ndtri; the two agree to within a few ulps.
    """
    if isinstance(alpha, float):
        return -_ndtri(alpha)
    return -_special().ndtri(alpha)
