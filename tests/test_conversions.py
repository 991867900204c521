import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdp_accountant import conversions as cv
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError


def phi_erf(x):
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


def test_gdp_to_delta_reference_points():
    # checked against a direct erfc evaluation
    assert cv.gdp_to_delta(1.0, 0.0) == pytest.approx(2 * phi_erf(0.5) - 1, abs=1e-14)
    assert cv.gdp_to_delta(1.0, 0.0) == pytest.approx(0.38292, abs=1e-5)
    want = phi_erf(-0.5) - math.e * phi_erf(-1.5)
    assert cv.gdp_to_delta(1.0, 1.0) == pytest.approx(want, abs=1e-14)
    assert cv.gdp_to_delta(1.0, 1.0) == pytest.approx(0.12693, abs=1e-5)
    assert cv.gdp_to_delta(0.0, 3.0) == 0.0


def test_gdp_to_delta_monotonicity():
    eps = np.linspace(0.0, 6.0, 25)
    for mu in (0.3, 1.0, 4.0):
        deltas = [cv.gdp_to_delta(mu, e) for e in eps]
        assert np.all(np.diff(deltas) <= 1e-15)
    for e in (0.0, 1.0):
        vals = [cv.gdp_to_delta(mu, e) for mu in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert np.all(np.diff(vals) >= 0)
    # total variation at eps = 0
    for mu in (0.5, 1.7):
        assert cv.gdp_to_delta(mu, 0.0) == pytest.approx(2 * phi_erf(mu / 2) - 1,
                                                         abs=1e-14)
    with pytest.raises(DomainError):
        cv.gdp_to_delta(-1.0, 0.0)
    with pytest.raises(DomainError):
        cv.gdp_to_delta(1.0, -0.5)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 3.0, 10.0])
def test_gdp_eps_round_trip(mu):
    for eps in (0.25, 1.0, 2.0):
        delta = cv.gdp_to_delta(mu, eps)
        if 0.0 < delta < 1.0:
            assert cv.gdp_to_eps(mu, delta) == pytest.approx(eps, abs=1e-9)


def test_gdp_to_eps_edges():
    # delta above the total variation bound needs no positive eps
    assert cv.gdp_to_eps(0.5, 0.9) == 0.0
    assert cv.gdp_to_eps(1e-9, 1e-5) == 0.0  # mu -> 0 limit
    with pytest.raises(DomainError):
        cv.gdp_to_eps(1.0, 0.0)
    with pytest.raises(DomainError):
        cv.gdp_to_eps(1.0, 1.0)


def test_gdp_mu_from_delta():
    d = cv.gdp_to_delta(1.7, 1.0)
    assert cv.gdp_mu_from_delta(1.0, d) == pytest.approx(1.7, abs=1e-9)


def test_gdp_to_rdp():
    assert cv.gdp_to_rdp(2.0, 3.0) == 6.0
    assert cv.gdp_to_rdp(0.0, 7.0) == 0.0
    assert cv.gdp_to_rdp(1.0, 2.0) == 1.0
    with pytest.raises(DomainError):
        cv.gdp_to_rdp(1.0, 1.0)


def test_rdp_to_epsdelta():
    rho, delta = 1.0, 1e-5
    closed = rho + 2 * math.sqrt(rho * math.log(1.0 / delta))
    got = cv.rdp_to_epsdelta(rho, delta)
    assert got <= closed + 1e-9
    assert got >= 0.5 * closed  # sanity: same order of magnitude
    assert cv.rdp_to_epsdelta(0.0, delta) == 0.0
    rhos = [0.1, 0.3, 1.0, 3.0]
    vals = [cv.rdp_to_epsdelta(r, delta) for r in rhos]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(DomainError):
        cv.rdp_to_epsdelta(1.0, 0.0)


@given(st.floats(-6.0, 2.0), st.floats(-15.0, math.log10(0.5)))
def test_rdp_to_epsdelta_below_the_classic_optimum(log_rho, log_delta):
    # rho + 2 sqrt(rho log(1/delta)) is the classic conversion at its optimal
    # order; the tighter formula lies below it at every order.
    rho, delta = 10.0 ** log_rho, 10.0 ** log_delta
    got = cv.rdp_to_epsdelta(rho, delta)
    assert 0.0 <= got < rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def test_curve_to_delta_identity():
    ident = tc.identity_curve()
    for eps in (0.0, 0.5, 3.0):
        assert cv.curve_to_delta(ident, eps) == 0.0


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [0.0, 1.0, 2.0])
def test_curve_to_delta_matches_gdp(mu, eps):
    curve = tc.curve_of_gdp(mu)
    diff = cv.curve_to_delta(curve, eps) - cv.gdp_to_delta(mu, eps)
    # the grid restriction can only lose a little
    assert -1e-6 <= diff <= 1e-12


def test_curve_to_delta_subsampled_linear_segment():
    # at eps = 0, delta is one minus the constant alpha + f level of the
    # slope -1 segment
    p, mu = 0.25, 2.5
    curve = tc.subsample(tc.curve_of_gdp(mu), p)
    level = (1 + p) * phi_erf(-mu / 2) + (1 - p) * phi_erf(mu / 2)
    assert cv.curve_to_delta(curve, 0.0) == pytest.approx(1.0 - level, abs=1e-6)
    assert cv.curve_to_delta(curve, 0.0) == pytest.approx(0.19718, abs=1e-5)
