import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdp_accountant import conversions as cv
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError
from oracles import phi


def test_gdp_to_delta_reference_points():
    # checked against a direct erfc evaluation
    assert cv.gdp_to_delta(1.0, 0.0) == pytest.approx(2 * phi(0.5) - 1, abs=1e-14)
    assert cv.gdp_to_delta(1.0, 0.0) == pytest.approx(0.38292, abs=1e-5)
    want = phi(-0.5) - math.e * phi(-1.5)
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
        assert cv.gdp_to_delta(mu, 0.0) == pytest.approx(2 * phi(mu / 2) - 1,
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


ULP = np.finfo(float).eps
LOG_MU = st.floats(-170.0, 12.0)
EPS = st.one_of(st.sampled_from([0.0, math.inf]),
                st.floats(-10.0, 9.0).map(lambda e: 10.0 ** e))


def _exact_delta(mu, eps):
    """delta(eps) from mpmath, and its relative condition number
    kappa = (mu |d delta/d mu| + eps |d delta/d eps|) / delta, where
    d delta/d mu = phi(a) and d delta/d eps = -e^eps Phi(a - mu).

    The two terms of delta are at most 1 and delta >= 1e-300 where it is
    compared, so 340 digits leave 40 after their cancellation.
    """
    import mpmath
    with mpmath.workdps(340):
        m, e = mpmath.mpf(mu), mpmath.mpf(eps)
        a = -e / m + m / 2
        second = mpmath.exp(e) * mpmath.ncdf(a - m)
        delta = mpmath.ncdf(a) - second
        if delta <= 0:
            return 0.0, math.inf
        return float(delta), float((m * mpmath.npdf(a) + e * second) / delta)


@given(LOG_MU, EPS)
def test_gdp_to_delta_is_a_probability_with_a_clear_sign(log_mu, eps):
    mu = 10.0 ** log_mu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta = cv.gdp_to_delta(mu, eps)
    assert type(delta) is float
    assert 0.0 <= delta <= 1.0
    assert math.copysign(1.0, delta) == 1.0
    if eps == math.inf:
        assert delta == 0.0


@settings(max_examples=400)
@given(LOG_MU.filter(lambda x: x <= 4.0), EPS)
def test_gdp_to_delta_matches_mpmath(log_mu, eps):
    pytest.importorskip("mpmath")
    mu = 10.0 ** log_mu
    delta = cv.gdp_to_delta(mu, eps)
    if not -eps / mu + mu / 2 >= -38.0:
        return  # delta <= Phi(-38) < 1e-300
    want, kappa = _exact_delta(mu, eps)
    if want >= 1e-300:
        assert abs(delta - want) <= (1e-14 + ULP * kappa) * want, (want, kappa)


@given(LOG_MU.filter(lambda x: x <= 4.0), EPS)
def test_gdp_to_eps_inverts_gdp_to_delta(log_mu, eps):
    mu = 10.0 ** log_mu
    delta = cv.gdp_to_delta(mu, eps)
    if not 0.0 < delta < 1.0:
        return
    back = cv.gdp_to_eps(mu, delta)
    # gdp_to_eps finds the preimage of delta to within 1e-9 relative.
    slack = 2e-9 * max(1.0, back)
    assert (cv.gdp_to_delta(mu, back + slack) <= delta
            <= cv.gdp_to_delta(mu, max(0.0, back - slack)))


def test_gdp_to_eps_takes_a_few_delta_evaluations(monkeypatch):
    # Newton on log delta, whose slope is closed-form, needs a handful of
    # delta evaluations a solve.
    calls = []
    real = cv.gdp_to_delta

    def counting(mu, eps):
        calls.append(eps)
        return real(mu, eps)

    monkeypatch.setattr(cv, "gdp_to_delta", counting)
    for mu in (0.01, 0.5, 1.0, 5.0, 40.0, 1000.0, 12000.0):
        for delta in (0.5, 0.1, 1e-5, 1e-12, 1e-300):
            calls.clear()
            eps = cv.gdp_to_eps(mu, delta)
            assert len(calls) <= 8, (mu, delta, len(calls))
            if eps > 0.0:
                assert real(mu, eps) == pytest.approx(delta, rel=1e-9, abs=0.0)


def test_gdp_to_eps_edges():
    # delta above the total variation bound needs no positive eps
    assert cv.gdp_to_eps(0.5, 0.9) == 0.0
    assert cv.gdp_to_eps(1e-9, 1e-5) == 0.0  # mu -> 0 limit
    # An eps far below 1 is found to relative, not absolute, accuracy.
    eps = cv.gdp_to_eps(1e-13, 1e-14)
    assert cv.gdp_to_delta(1e-13, eps) == pytest.approx(1e-14, rel=1e-9,
                                                        abs=0.0)
    with pytest.raises(DomainError):
        cv.gdp_to_eps(1.0, 0.0)
    with pytest.raises(DomainError):
        cv.gdp_to_eps(1.0, 1.0)


def test_gdp_to_rdp():
    assert cv.gdp_to_rdp(2.0, 3.0) == 6.0
    assert cv.gdp_to_rdp(0.0, 7.0) == 0.0
    assert cv.gdp_to_rdp(1.0, 2.0) == 1.0
    with pytest.raises(DomainError):
        cv.gdp_to_rdp(1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: cv.gdp_to_delta(math.nan, 1.0),
    lambda: cv.gdp_to_delta(1.0, math.nan),
    lambda: cv.gdp_to_eps(math.nan, 1e-5),
    lambda: cv.gdp_to_eps(1.0, math.nan),
    lambda: cv.gdp_to_rdp(math.nan, 2.0),
    lambda: cv.gdp_to_rdp(1.0, math.nan),
    lambda: cv.rdp_to_epsdelta(math.nan, 1e-5),
    lambda: cv.rdp_to_epsdelta(1.0, math.nan),
])
def test_nan_inputs_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


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
    level = (1 + p) * phi(-mu / 2) + (1 - p) * phi(mu / 2)
    assert cv.curve_to_delta(curve, 0.0) == pytest.approx(1.0 - level, abs=1e-6)
    assert cv.curve_to_delta(curve, 0.0) == pytest.approx(0.19718, abs=1e-5)


@pytest.mark.parametrize("eps", [math.inf, 710.0, 1e6])
def test_curve_to_delta_beyond_exp_overflow(eps):
    # e^eps alpha > 1 at every positive grid alpha: only 1 - f(0) is left
    kinked = tc.TradeoffCurve([0.0, 0.5, 1.0], [0.8, 0.3, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cv.curve_to_delta(tc.curve_of_gdp(1.0), eps) == 0.0
        assert cv.curve_to_delta(kinked, eps) == pytest.approx(0.2, abs=1e-16)
    assert cv.curve_to_delta(kinked, 709.0) == cv.curve_to_delta(kinked, eps)


def test_curve_to_delta_rejects_nan():
    with pytest.raises(DomainError, match="nan"):
        cv.curve_to_delta(tc.curve_of_gdp(1.0), math.nan)


# -- curve_to_delta's prefix scan against the full scan -----------------------


def full_scan_delta(f, eps):
    """delta(eps) as the maximum over every grid node: the oracle."""
    if eps > 709.0:
        delta = 1.0 - float(f.values[0])
    else:
        delta = float((1.0 - math.exp(eps) * f.alphas - f.values).max())
    return min(max(delta, 0.0), 1.0)


def curve_with_a_negative_tail():
    # Id with f(1) = -1e-12, the lowest value validation accepts: at eps = 0
    # the only positive objective, 1e-12, sits at alpha = 1 = 1/e^eps.
    a = tc.alpha_grid()
    return tc.TradeoffCurve(a, np.append(1.0 - a[:-1], -tc.MONOTONE_TOL))


PREFIX_CURVES = {
    "gaussian": lambda: tc.curve_of_gdp(1.3),
    "subsampled": lambda: tc.invert_curve(tc.subsample(tc.curve_of_gdp(2.5), 0.25)),
    "identity": tc.identity_curve,
    "negative-tail": curve_with_a_negative_tail,
}


@functools.cache
def prefix_curve(name):
    return PREFIX_CURVES[name]()


# the privacy-profile benchmark's eps grid, and the edges of the exp range
PREFIX_EPS = ([6.0 * i / 255 for i in range(256)]
              + [-math.inf, -1.0, 0.0, 1e-300, 50.0, 708.9, 709.0, 710.0, math.inf])


@pytest.mark.parametrize("name", sorted(PREFIX_CURVES))
def test_curve_to_delta_prefix_scan_is_the_full_scan_bit_for_bit(name):
    curve = prefix_curve(name)
    for eps in PREFIX_EPS:
        assert cv.curve_to_delta(curve, eps).hex() == full_scan_delta(curve, eps).hex(), eps


@settings(max_examples=200, deadline=None)
@given(st.floats(-40.0, 40.0))
def test_curve_to_delta_prefix_scan_at_any_eps(eps):
    curve = prefix_curve("subsampled")
    assert cv.curve_to_delta(curve, eps).hex() == full_scan_delta(curve, eps).hex()


def test_curve_to_delta_prefix_keeps_the_node_at_one_over_e_eps():
    assert cv.curve_to_delta(curve_with_a_negative_tail(), 0.0) == tc.MONOTONE_TOL
    # the prefix margin covers the most negative valid value plus rounding
    assert cv._PREFIX_SLACK - 1.0 - 4 * 2.0 ** -53 > tc.MONOTONE_TOL
