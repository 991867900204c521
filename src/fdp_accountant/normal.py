"""Standard normal helpers.

Thin wrappers around scipy.special's erfc-based routines. Arguments as large
as |x| ~ 40 show up in intermediate compositions, so anything that can
underflow goes through the log-space variants.
"""

import numpy as np
from scipy import special


def cdf(x):
    """Phi(x)."""
    return special.ndtr(x)


def sf(x):
    """Upper tail 1 - Phi(x), without cancellation."""
    return special.ndtr(-np.asarray(x, dtype=float))


def log_cdf(x):
    """log Phi(x), accurate down to Phi(x) ~ exp(-800)."""
    return special.log_ndtr(x)


def inv_upper(alpha):
    """Phi^{-1}(1 - alpha), evaluated as -Phi^{-1}(alpha).

    Keeps full precision for alpha near 0, where forming 1 - alpha would
    round; alpha = 0 maps to +inf and alpha = 1 to -inf.
    """
    return -special.ndtri(alpha)
