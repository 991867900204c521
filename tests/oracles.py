"""Reference computations and parameter builders shared by the test modules.

Nothing here is collected as a test. The test modules import it as
`oracles`: pytest puts this directory on sys.path, as it does to load
conftest.py.
"""

import math

import numpy as np

from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import normal
from fdp_accountant import schedule as sch
from fdp_accountant import tradeoff as tc

ORDER_TOL = 1e-9     # curve_geq: slack on top of one mesh width
MU_BRACKET = 100.0   # gdp_mu_from_delta: largest mu searched


def phi(x):
    """Standard normal CDF via math.erfc, independent of fdp_accountant.normal."""
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


def gd(c, t, leff=0.1):
    """Full-batch run with contraction c and effective sensitivity leff."""
    return acc.AlgoParams(kind="gd", eta=1.0 - c, sigma=1.0, n=1, L=leff,
                          steps=t, m=1.0, M=1.0)


def cgd(c, l, E, lbs=0.2):
    """Cyclic run of l batches of size 1 over E epochs, L/(b sigma) = lbs."""
    return acc.AlgoParams(kind="cgd", eta=1.0 - c, sigma=1.0, n=l, b=1,
                          L=lbs, epochs=E, m=1.0, M=1.0)


# -- theorems recomputed as schedule + meta bound -----------------------------


def gd_sc_mu_via_schedule(p):
    """bound_gd_sc recomputed as schedule + meta bound (equal to 1e-12 rel)."""
    c = p.require_strongly_convex()
    sched, _ = sch.optimal_sc_schedule(c, p.eta * p.L / p.n, p.t)
    return sch.meta_mu(sched, p.eta * p.sigma)


def gd_proj_mu_via_schedule(p):
    """Plateau constrained bound recomputed as schedule + meta bound; equals
    bound_gd_proj exactly when D n / (eta L) is an integer."""
    p.require_constrained()
    s = p.eta * p.L / p.n
    w = acc.ceil_snap(p.D * p.n / (p.eta * p.L))
    sched, _, _ = sch.optimal_proj_schedule(s, p.D, w, 0)
    return sch.meta_mu(sched, p.eta * p.sigma)


# -- tradeoff curves ----------------------------------------------------------


def mesh(f):
    """Largest alpha spacing of a curve's grid."""
    return float(np.max(np.diff(f.alphas)))


def curve_geq(f, g, tol=None):
    """Pointwise f >= g - tol on the common grid; returns (holds, max violation).

    The default tolerance is ORDER_TOL plus one mesh width of interpolation
    slack.
    """
    assert np.array_equal(f.alphas, g.alphas), "curves must share the alpha grid"
    if tol is None:
        tol = ORDER_TOL + mesh(f)
    violation = float(np.max(g.values - f.values))
    return violation <= tol, violation


def mixture_gaussian_tradeoff(p, mu):
    """Exact curve of N(0,1) versus the mixture p*N(mu,1) + (1-p)*N(0,1).

    The likelihood ratio of the mixture against N(0,1) is increasing in the
    observation, so optimal tests reject above a threshold z. Scanning z with
    type-I error alpha(z) = 1 - Phi(z) gives type-II error
    (1-p)*Phi(z) + p*Phi(z - mu); the grid parametrizes z = Phi^{-1}(1-alpha).
    """
    alphas = tc.alpha_grid()
    if p == 0.0 or mu == 0.0:
        return tc.identity_curve(alphas)
    z = normal.inv_upper(alphas)
    with np.errstate(invalid="ignore"):
        vals = (1.0 - p) * (1.0 - alphas) + p * normal.cdf(z - mu)
    vals = np.where(alphas == 0.0, 1.0, np.where(alphas == 1.0, 0.0, vals))
    return tc.TradeoffCurve(alphas, vals)


# -- conversions --------------------------------------------------------------


def gdp_mu_from_delta(eps, delta):
    """mu with gdp_to_delta(mu, eps) = delta (the GDP level matching a given
    privacy-curve point), by bisection; delta is increasing in mu."""
    assert eps >= 0 and 0.0 < delta < 1.0
    assert cv.gdp_to_delta(MU_BRACKET, eps) >= delta, "delta beyond the mu bracket"
    lo, hi = 0.0, MU_BRACKET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cv.gdp_to_delta(mid, eps) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
