"""Standard normal helpers.

A float (Python or NumPy) passed to `cdf` or `log_cdf` is evaluated with the
standard library's erf/erfc; arrays, `sf` and `inv_upper` go through
scipy.special's erfc-based routines. SciPy, and with it NumPy, is imported on
first use, so a request that passes only floats loads neither. Arguments as
large as |x| ~ 40 show up in intermediate compositions, so anything that can
underflow goes through the log-space variants.
"""

import math

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# erfc(-x / sqrt 2) turns subnormal just below x = -37.5, so from here down
# log_cdf takes the asymptotic series instead.
_ERFC_LOG_MIN = -37.0


def _special():
    from scipy import special
    return special


def _ndtr(x: float) -> float:
    """Phi(x) for a scalar, in the same erf/erfc split as scipy's ndtr."""
    z = x * _SQRT1_2
    if abs(z) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0 else y


def _log_ndtr(x: float) -> float:
    """log Phi(x) for a scalar; nan stays nan and -inf maps to -inf."""
    if x <= _ERFC_LOG_MIN:
        # Mills ratio: Phi(x) = phi(x)/(-x) (1 - 1/x^2 + 3/x^4 - ...); with
        # x^2 >= 1369 the first term left out is below 1e-20.
        q = 1.0 / (x * x)
        term, series = 1.0, 0.0
        for k in range(1, 9):
            term *= -(2 * k - 1) * q
            series += term
        return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log1p(series)
    if x <= -1.0:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))


def cdf(x):
    """Phi(x)."""
    if isinstance(x, float):
        return _ndtr(x)
    return _special().ndtr(x)


def sf(x):
    """Upper tail 1 - Phi(x), without cancellation."""
    special = _special()
    import numpy as np  # deferred: SciPy has loaded it already
    return special.ndtr(-np.asarray(x, dtype=float))


def log_cdf(x):
    """log Phi(x), accurate down to Phi(x) ~ exp(-800)."""
    if isinstance(x, float):
        return _log_ndtr(x)
    return _special().log_ndtr(x)


def inv_upper(alpha):
    """Phi^{-1}(1 - alpha), evaluated as -Phi^{-1}(alpha).

    Keeps full precision for alpha near 0, where forming 1 - alpha would
    round; alpha = 0 maps to +inf and alpha = 1 to -inf.
    """
    return -_special().ndtri(alpha)
