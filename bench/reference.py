"""Closed forms the benchmark checks outputs against.

Everything here uses the standard library only, so no check depends on the
code it checks.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_STD = NormalDist()
_SQRT2 = math.sqrt(2.0)


def phi(x: float) -> float:
    """Standard normal CDF, accurate in the lower tail down to ~1e-308."""
    return 0.5 * math.erfc(-x / _SQRT2)


def gauss_delta(mu: float, eps: float) -> float:
    """Exact delta(eps) of a mu-GDP mechanism:
    Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)."""
    if mu == 0.0:
        return 0.0
    a = phi(-eps / mu + mu / 2.0)
    b = phi(-eps / mu - mu / 2.0)
    return max(0.0, a - math.exp(eps) * b) if b > 0.0 else a


def gauss_tradeoff(mu: float, alpha: float) -> float:
    """G(mu)(alpha) = Phi(Phi^{-1}(1 - alpha) - mu) for alpha in (0, 1)."""
    return phi(_STD.inv_cdf(1.0 - alpha) - mu)


def worst_case_gd_sc_mu(eta: float, m: float, sigma: float, L: float,
                        n: int, steps: int) -> float:
    """GDP parameter of the simulated strongly convex GD pair.

    Both terminal laws are Gaussian with variance v = (eta sigma)^2
    (1 - c^{2t}) / (1 - c^2) and means g = (eta L / n) (1 - c^t) / (1 - c)
    apart, where c = 1 - eta m; the parameter is g / sqrt(v).
    """
    c = 1.0 - eta * m
    gap = eta * L / n * (1.0 - c ** steps) / (1.0 - c)
    var = (eta * sigma) ** 2 * (1.0 - c ** (2 * steps)) / (1.0 - c * c)
    return gap / math.sqrt(var)

