"""Scalar paths of fdp_accountant.normal against scipy.special.

Floats go through math.erf/erfc (the quantile through statistics.NormalDist)
and arrays given to cdf and the quantile through scipy.special; log_cdf takes
floats only. Both
evaluate Phi at the rounded argument x / sqrt(2), so far in the tails each is
exact only for an argument a few ulps away from x, and the two can differ by
about eps * kappa(x) relative, where kappa is the relative condition number
|x F'(x) / F(x)| (about x^2 in the tails). The tolerance is 1e-14 relative
plus that term, checked wherever the value is at least 1e-300.
"""

import math

import numpy as np
import pytest
from scipy import special

from fdp_accountant import normal

ULP = np.finfo(float).eps


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


XS = np.concatenate([
    np.linspace(-1000.0, 40.0, 10401),
    np.linspace(-38.0, -36.0, 2001),   # erfc underflow / Mills ratio switch
    np.linspace(-1.5, -0.5, 1001),     # log vs log1p switch
    _neighbours(-37.0), _neighbours(-1.0), [0.0, -0.0],
])


def _log_pdf(x):
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)


def _cdf_kappa(x):
    return np.abs(x) * np.exp(_log_pdf(x) - special.log_ndtr(x))


CASES = {
    # name: (reference, relative condition number)
    "cdf": (special.ndtr, _cdf_kappa),
    "log_cdf": (special.log_ndtr,
                lambda x: _cdf_kappa(x) / np.abs(special.log_ndtr(x))),
}


def _scalar(name, xs):
    fn = getattr(normal, name)
    return np.array([fn(float(x)) for x in xs])


def _assert_close(got, want, kappa):
    ok = np.abs(want) >= 1e-300
    rel = np.abs(got[ok] - want[ok]) / np.abs(want[ok])
    bound = 1e-14 + ULP * kappa[ok]
    worst = np.argmax(rel - bound)
    assert np.all(rel <= bound), (XS[ok][worst], rel[worst], bound[worst])
    # Below 1e-300 only the absolute difference is bounded.
    assert np.all(np.abs(got[~ok] - want[~ok]) <= 1e-300)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_path_matches_scipy_and_the_array_path(name):
    reference, condition = CASES[name]
    fn = getattr(normal, name)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = condition(XS)
    want = reference(XS)
    if name == "cdf":  # log_cdf has no array path
        assert np.array_equal(fn(XS), want)  # the array path is scipy's
    _assert_close(_scalar(name, XS), want, kappa)
    # Infinities and nan map as scipy maps them.
    specials = np.array([-np.inf, np.inf, np.nan])
    assert np.array_equal(_scalar(name, specials), reference(specials),
                          equal_nan=True)


def test_scalar_path_is_taken_for_python_and_numpy_floats():
    for x in (-40.0, -2.0, 0.5, np.float64(-3.0)):
        assert type(normal.cdf(x)) is float
        assert type(normal.log_cdf(x)) is float
    assert normal.log_cdf(-math.inf) == -math.inf
    assert normal.log_cdf(math.inf) == 0.0
    assert normal.cdf(-math.inf) == 0.0 and normal.cdf(math.inf) == 1.0


def test_scalar_path_within_its_condition_of_exact_values():
    """The relative tolerance term eps * kappa is the conditioning of the
    argument, not an inaccuracy of the scalar path: against 300-bit values
    the scalar path stays inside the same bound (scipy itself is off from
    the exact values by up to 2.4e-13 near x = -37)."""
    mpmath = pytest.importorskip("mpmath")
    # Past x = -1e4 the Mills ratio's share of log Phi is below an ulp.
    xs = np.concatenate([np.linspace(-60.0, 38.0, 197), [-37.0, -1.0],
                         -np.geomspace(61.0, 1e4, 12),
                         -np.geomspace(1e6, 1e150, 4)])

    def exact_log_cdf(x):
        x = mpmath.mpf(x)
        if x > 0:
            return float(mpmath.log1p(-mpmath.ncdf(-x)))
        return float(mpmath.log(mpmath.ncdf(x)))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa_cdf = _cdf_kappa(xs)
        kappa_log = kappa_cdf / np.abs(special.log_ndtr(xs))
    for name, exact, kappa in [
            ("cdf", lambda x: float(mpmath.ncdf(mpmath.mpf(x))), kappa_cdf),
            ("log_cdf", exact_log_cdf, kappa_log)]:
        with mpmath.workprec(300):
            want = np.array([exact(float(x)) for x in xs])
        got = _scalar(name, xs)
        ok = np.abs(want) >= 1e-300
        rel = np.abs(got[ok] - want[ok]) / np.abs(want[ok])
        assert np.all(rel <= 1e-14 + ULP * kappa[ok]), name


# -- the quantile --------------------------------------------------------------

# alpha over [1e-300, 1): log-spaced through the lower tail, uniform through
# the middle, and the points where the quantile's regimes meet (AS241 splits
# at |alpha - 1/2| = 0.425 and at sqrt(-log alpha) = 5).
ALPHAS = np.concatenate([
    np.logspace(-300.0, -1.0, 600), np.linspace(0.01, 0.99, 981),
    _neighbours(0.075), _neighbours(0.5), _neighbours(0.925),
    [math.exp(-25.0), 1.0 - 1e-6, 1.0 - 2.0 ** -53],
])


def _inv_upper_scale(z, alpha):
    """|z| + alpha / phi(z): an argument off by one ulp moves z = Phi^{-1}(1 -
    alpha) by ulp times alpha / phi(z), and z itself rounds by ulp times |z|.
    It stays finite where z crosses 0, where a relative bound would not."""
    return np.abs(z) + alpha * np.exp(-_log_pdf(z))


def _scalar_inv_upper(alphas):
    return np.array([normal.inv_upper(float(a)) for a in alphas])


def test_inv_upper_scalar_path_matches_ndtri():
    """Floats take AS241 from the standard library, arrays scipy's ndtri:
    the two agree to within 4 ulps of the scale above."""
    want = -special.ndtri(ALPHAS)
    assert np.array_equal(normal.inv_upper(ALPHAS), want)  # the array path
    got = _scalar_inv_upper(ALPHAS)
    err = np.abs(got - want) / (ULP * _inv_upper_scale(want, ALPHAS))
    assert err.max() <= 4.0, ALPHAS[np.argmax(err)]


def test_inv_upper_scalar_path_within_its_condition_of_exact_values():
    mpmath = pytest.importorskip("mpmath")
    alphas = ALPHAS[::7]
    got = _scalar_inv_upper(alphas)
    want = []
    with mpmath.workprec(300):
        for a, z0 in zip(alphas.tolist(), got.tolist()):
            a, z = mpmath.mpf(a), mpmath.mpf(z0)
            for _ in range(5):  # Newton on Phi(-z) = alpha from the float
                z += (mpmath.ncdf(-z) - a) / mpmath.npdf(z)
            want.append(float(z))
    want = np.array(want)
    err = np.abs(got - want) / (ULP * _inv_upper_scale(want, alphas))
    assert err.max() <= 4.0, alphas[np.argmax(err)]


def test_inv_upper_scalar_edge_values():
    assert normal.inv_upper(0.0) == math.inf
    assert normal.inv_upper(1.0) == -math.inf
    for bad in (math.nan, -1e-300, -0.5, 1.5, math.inf, -math.inf):
        assert math.isnan(normal.inv_upper(bad)), bad
    specials = np.array([0.0, 1.0, math.nan, -0.5, 1.5])
    assert np.array_equal(_scalar_inv_upper(specials),
                          normal.inv_upper(specials), equal_nan=True)
    # The smallest subnormal still has a finite quantile.
    assert normal.inv_upper(5e-324) == pytest.approx(38.467405617144344, rel=1e-15)
    for a in (0.3, np.float64(0.3), 1e-300):
        assert type(normal.inv_upper(a)) is float
