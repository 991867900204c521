"""f-DP / GDP privacy accounting for noisy gradient descent variants.

Submodules:
    tradeoff     tradeoff-curve arithmetic (Gaussian curves, subsampling)
    accountant   privacy bounds for GD / CGD / SGD, CLT approximations
    conversions  f-DP <-> (eps, delta) <-> RDP conversions
    prv          privacy-loss random variables and FFT composition
    oracle       worst-case and Monte-Carlo verification
    cli          command-line front end
"""

from .errors import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    InvalidCurveError,
)

__all__ = [
    "AccuracyError",
    "ConfigurationError",
    "DomainError",
    "InvalidCurveError",
]

__version__ = "0.1.0"
