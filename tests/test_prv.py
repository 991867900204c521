import math
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import prv
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import AccuracyError, ConfigurationError, DomainError


def test_point_mass():
    pm = prv.point_mass()
    assert pm.pmf.sum() == 1.0
    assert prv.prv_delta(pm, 0.0) == 0.0
    assert prv.prv_delta(pm, -1.0) == pytest.approx(-math.expm1(-1.0))


def test_prv_of_gdp_moments_and_mass():
    g = prv.prv_of_gdp(1.0)
    assert abs(g.mean() - 0.5) <= g.mesh
    assert g.var() == pytest.approx(1.0, abs=1e-5)
    assert g.pmf.sum() + g.tail_mass == pytest.approx(1.0, abs=1e-9)
    assert prv.prv_of_gdp(0.0).pmf.sum() == 1.0


def test_prv_of_gdp_too_coarse():
    with pytest.raises(ConfigurationError):
        prv.prv_of_gdp(0.005)


def test_prv_delta_matches_gdp_conversion():
    g = prv.prv_of_gdp(1.0)
    for eps in (0.0, 1.0, 2.0):
        assert prv.prv_delta(g, eps) == pytest.approx(
            cv.gdp_to_delta(1.0, eps), abs=1e-5)
    # eps beyond the grid leaves only truncated mass
    assert prv.prv_delta(g, g.hi + 1.0) == 0.0
    # delta is non-increasing on an eps grid
    deltas = [prv.prv_delta(g, e) for e in np.linspace(-2, 4, 31)]
    assert np.all(np.diff(deltas) <= 1e-15)


def test_gdp_prv_symmetry_residual():
    assert prv.prv_of_gdp(1.0).symmetry_residual() <= 1e-6


def test_subsampled_prv_mass_and_symmetry():
    sp = prv.prv_of_subsampled_gdp(1.0, 0.1)
    assert sp.pmf.sum() + sp.tail_mass == pytest.approx(1.0, abs=1e-9)
    # the pmf(t) = e^t pmf(-t) identity holds to 1e-6 once the mesh resolves
    # the log-density slope at the truncation depth (O(mesh^2 slope^2 / 24))
    fine = prv.prv_of_subsampled_gdp(1.0, 0.1, prv.GridSpec(mesh=5e-4))
    assert fine.symmetry_residual() <= 1e-6
    assert sp.symmetry_residual() <= 4.0 * fine.symmetry_residual() + 1e-7


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _subsampled_cdf_neg(mu: float, p: float, t: float) -> float:
    """F(t) for t <= 0: Phi(-e/mu - mu/2), e = log((p - 1 + e^-t) / p)."""
    e = math.log1p(math.expm1(-t) / p)
    return _phi(-e / mu - mu / 2.0)


def _subsampled_sf_pos(mu: float, p: float, t: float) -> float:
    """S(t) for t > 0: p Phibar(a) + (1 - p) Phibar(a + mu), a = e/mu - mu/2."""
    a = math.log1p(math.expm1(t) / p) / mu - mu / 2.0
    return p * _phi(-a) + (1.0 - p) * _phi(-a - mu)


@given(mu=st.floats(0.01, 5.0),
       p=st.just(1.0) | st.floats(1e-4, 1.0),
       tail_bound=st.floats(-14.0, -6.0).map(lambda x: 10.0 ** x))
def test_subsampled_cuts_respect_tail_bound(mu, p, tail_bound):
    g = prv.prv_of_subsampled_gdp(mu, p, prv.GridSpec(tail_bound=tail_bound))
    beta = tail_bound / 2.0
    assert _subsampled_cdf_neg(mu, p, g.lo - g.mesh / 2) <= beta * (1 + 1e-9)
    assert _subsampled_sf_pos(mu, p, g.hi + g.mesh / 2) <= beta * (1 + 1e-9)
    assert g.tail_mass <= tail_bound * (1 + 1e-9)


def test_subsampled_full_batch_lattice_is_pinned():
    g = prv.prv_of_subsampled_gdp(0.812, 1.0)
    assert (g.offset, g.pmf.size) == (-4632, 9924)


def test_subsampled_degenerate_rates():
    assert prv.prv_of_subsampled_gdp(1.0, 0.0).pmf.sum() == 1.0
    assert prv.prv_of_subsampled_gdp(0.0, 0.5).pmf.sum() == 1.0
    with pytest.raises(DomainError):
        prv.prv_of_subsampled_gdp(1.0, 1.5)


def test_subsampled_p1_matches_gaussian():
    g = prv.prv_of_gdp(1.0)
    s1 = prv.prv_of_subsampled_gdp(1.0, 1.0)
    for eps in (0.0, 0.5, 1.0):
        assert prv.prv_delta(s1, eps) == pytest.approx(
            prv.prv_delta(g, eps), abs=1e-6)


@pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
def test_subsampled_single_step_matches_curve_space(eps):
    sp = prv.prv_of_subsampled_gdp(1.0, 0.1)
    curve = tc.subsample(tc.curve_of_gdp(1.0), 0.1)
    assert prv.prv_delta(sp, eps) == pytest.approx(
        cv.curve_to_delta(curve, eps), abs=1e-4)


def test_convolve_gaussian_closure():
    g3, g4 = prv.prv_of_gdp(3.0), prv.prv_of_gdp(4.0)
    g34 = prv.convolve(g3, g4)
    for eps in (0.0, 1.0, 2.0, 5.0):
        assert prv.prv_delta(g34, eps) == pytest.approx(
            cv.gdp_to_delta(5.0, eps), abs=1e-4)
    # commutativity
    g43 = prv.convolve(g4, g3)
    assert g43.offset == g34.offset
    assert np.max(np.abs(g43.pmf - g34.pmf)) <= 1e-12
    # identity element
    same = prv.convolve(g3, prv.point_mass())
    for eps in (0.0, 1.0):
        assert prv.prv_delta(same, eps) == pytest.approx(
            prv.prv_delta(g3, eps), abs=1e-12)


def test_subsampled_right_tail_beyond_expm1_overflow():
    # The lattice runs to t ~ 1040; e+ = log1p(expm1(t)/p) would overflow
    # above t ~ 709.8 and drop all mass beyond it. For eps > 0 the exact
    # delta is p * delta_G(eps') with eps' = log(1 + (e^eps - 1)/p).
    mu, p, eps = 40.0, 0.01, 750.0
    sp = prv.prv_of_subsampled_gdp(mu, p, prv.GridSpec(mesh=1e-2))
    assert sp.hi > 1000.0
    eps_p = eps - math.log(p) + math.log1p(-(1.0 - p) * math.exp(-eps))
    want = p * cv.gdp_to_delta(mu, eps_p)
    assert prv.prv_delta(sp, eps) == pytest.approx(want, rel=1e-6)


def test_self_compose_gaussian():
    g1 = prv.prv_of_gdp(1.0)
    g4 = prv.self_compose(g1, 4)
    assert g4.mean() == pytest.approx(4 * g1.mean(), abs=4 * g1.mesh)
    assert prv.prv_delta(g4, 1.0) == pytest.approx(
        cv.gdp_to_delta(2.0, 1.0), abs=1e-4)
    assert prv.prv_delta(g4, 1.0) == pytest.approx(0.50986, abs=1e-4)
    # k = 1 is the identity
    same = prv.self_compose(g1, 1)
    assert np.array_equal(same.pmf, g1.pmf)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_self_compose_counts_mass_beyond_the_cyclic_window():
    # A heavy right tail puts k-fold mass beyond the cyclic window; that mass
    # wraps onto negative losses instead of being counted, so delta falls
    # below that of a linear composition of the same lattice.
    spec = prv.GridSpec(tail_bound=1e-9 / 12)
    sp = prv.prv_of_subsampled_gdp(3.0, 0.005, spec)
    linear = sp
    for _ in range(11):
        linear = prv.convolve(linear, sp)
    cyclic = prv.self_compose(sp, 12)
    assert prv.prv_delta(cyclic, 1.0) >= prv.prv_delta(linear, 1.0) - 1e-12


def test_self_compose_budget():
    # a deliberately loose truncation must trip the accuracy budget
    sp = prv.prv_of_subsampled_gdp(1.0, 0.01, prv.GridSpec(tail_bound=1e-6))
    with pytest.raises(AccuracyError):
        prv.self_compose(sp, 10 ** 4)


def test_evaluate_composite_closure_and_empty():
    cb = acc.CompositeBound((acc.GdpFactor(3.0), acc.GdpFactor(4.0)))
    for eps, delta in prv.evaluate_composite(cb, [0.0, 1.0, 2.0, 5.0]):
        assert delta == pytest.approx(cv.gdp_to_delta(5.0, eps), abs=1e-4)
    out = prv.evaluate_composite(acc.CompositeBound(()), [0.0, 1.0])
    assert out == [(0.0, 0.0), (1.0, 0.0)]


def test_evaluate_composite_delta_shape():
    cb = acc.CompositeBound((acc.GdpFactor(0.5),
                             acc.SubsampledGdpFactor(0.8, 0.2, 12)))
    eps = np.linspace(0.0, 3.0, 13)
    deltas = np.array([d for _, d in prv.evaluate_composite(cb, eps)])
    assert np.all(np.diff(deltas) <= 1e-12)          # non-increasing
    assert np.all(np.diff(np.diff(deltas)) >= -1e-9)  # convex on the grid


def test_mesh_halving_stability():
    for spec_pair in ((prv.GridSpec(mesh=1e-3), prv.GridSpec(mesh=5e-4)),):
        coarse, fine = spec_pair
        a = prv.self_compose(prv.prv_of_gdp(1.0, coarse), 4)
        b = prv.self_compose(prv.prv_of_gdp(1.0, fine), 4)
        gap = abs(prv.prv_delta(a, 1.0) - prv.prv_delta(b, 1.0))
        assert gap <= 4.0 * prv.discretization_estimate(a)


def test_composed_subsampled_approaches_clt_limit():
    # p sqrt(t) = 1 held fixed: the composed curve approaches the CLT limit
    # from below; at t = 1e4 the mu-equivalent gap is ~0.037, shrinking to
    # under 0.02 by t = 9e4.
    mu_clt = acc.clt_subsampled(1.0, 0.01, 10 ** 4)
    gaps = []
    for t, p in ((10 ** 4, 0.01), (9 * 10 ** 4, 1.0 / 300.0)):
        cb = acc.CompositeBound((acc.SubsampledGdpFactor(1.0, p, t),))
        (_, delta), = prv.evaluate_composite(cb, [1.0])
        gaps.append(abs(cv.gdp_mu_from_delta(1.0, delta) - mu_clt))
    assert gaps[0] < 0.04
    assert gaps[1] < 0.02
    assert gaps[1] < gaps[0]


def test_delta_table_rows():
    cb = acc.CompositeBound((acc.GdpFactor(1.0),))
    rows = prv.delta_table_rows(cb, [0.0, 1.0])
    assert len(rows) == 2
    eps, delta, unc = rows[0]
    assert delta == pytest.approx(cv.gdp_to_delta(1.0, 0.0), abs=1e-5)
    assert unc > 0


def test_convolve_rejects_unequal_meshes():
    a = prv.prv_of_gdp(1.0, prv.GridSpec(mesh=1e-3))
    for mesh in (5e-4, 3e-4):
        with pytest.raises(DomainError):
            prv.convolve(a, prv.prv_of_gdp(1.0, prv.GridSpec(mesh=mesh)))


def test_evaluate_composite_rejects_unknown_factor_type():
    cb = acc.CompositeBound((types.SimpleNamespace(mu=1.0),))
    with pytest.raises(DomainError):
        prv.evaluate_composite(cb, [1.0])
