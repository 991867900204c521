import json
import math

import numpy as np
import pytest

from fdp_accountant import normal
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError, InvalidCurveError


def phi_erf(x):
    # independent standard normal CDF via math.erfc
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


def test_alpha_grid_shape():
    g = tc.alpha_grid()
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
    assert g.size >= tc.DEFAULT_GRID_SIZE
    # refinement reaches the tail floor on both sides
    assert g[1] <= 2e-12
    assert 1.0 - g[-2] <= 2e-12


def test_gdp_eval_values():
    assert tc.gdp_eval(0.0, 0.3) == 0.7
    assert tc.gdp_eval(2.0, 0.0) == 1.0
    assert tc.gdp_eval(2.0, 1.0) == 0.0
    assert tc.gdp_eval(1.0, 0.5) == pytest.approx(phi_erf(-1.0), abs=1e-15)
    arr = tc.gdp_eval(1.0, np.array([0.0, 0.5, 1.0]))
    assert arr[0] == 1.0 and arr[-1] == 0.0


def test_gdp_eval_domain():
    with pytest.raises(DomainError):
        tc.gdp_eval(-0.1, 0.5)
    with pytest.raises(DomainError):
        tc.gdp_eval(1.0, 1.5)
    with pytest.raises(DomainError):
        tc.gdp_eval(1.0, -0.01)


def test_compose_gdp():
    assert tc.compose_gdp(3.0, 4.0) == pytest.approx(5.0, abs=0)
    assert tc.compose_gdp(1.3, 0.0) == 1.3
    # n-fold composition of the per-step rate equals the composition bound
    L, n, sigma, t = 2.0, 40, 4.0, 25
    assert tc.compose_gdp_n(L / (n * sigma), t) == pytest.approx(
        L * math.sqrt(t) / (n * sigma), rel=1e-15)
    with pytest.raises(DomainError):
        tc.compose_gdp(-1.0, 1.0)


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 5.0, 20.0])
def test_curve_of_gdp_invariants(mu):
    c = tc.curve_of_gdp(mu)
    c.validate()


def test_curve_of_gdp_values():
    c = tc.curve_of_gdp(1.0)
    assert c(0.5) == pytest.approx(phi_erf(-1.0), abs=2e-6)
    assert np.array_equal(tc.curve_of_gdp(0.0).values, 1.0 - tc.alpha_grid())
    # no-privacy limit: essentially zero away from alpha = 0
    big = tc.curve_of_gdp(20.0)
    assert big(2e-6) < 1e-40


def test_curve_validation_rejects_bad_curves():
    a = np.array([0.0, 0.5, 1.0])
    with pytest.raises(InvalidCurveError):
        tc.TradeoffCurve(a, np.array([1.0, 0.2, 0.3]))  # increasing tail
    with pytest.raises(InvalidCurveError):
        tc.TradeoffCurve(a, np.array([1.0, 0.9, 0.0]))  # above 1 - alpha
    with pytest.raises(InvalidCurveError):
        tc.TradeoffCurve(a, np.array([1.0, 0.8, 0.0]))  # concave kink
    with pytest.raises(InvalidCurveError):
        tc.TradeoffCurve(np.array([0.1, 0.5, 1.0]), np.array([0.9, 0.5, 0.0]))


def test_curves_are_immutable():
    c = tc.curve_of_gdp(1.0)
    with pytest.raises(ValueError):
        c.values[0] = 0.5


def test_invert_identity_and_gaussian():
    ident = tc.identity_curve()
    assert np.max(np.abs(tc.invert_curve(ident).values - ident.values)) < 1e-15
    g = tc.curve_of_gdp(1.0)
    assert np.max(np.abs(tc.invert_curve(g).values - g.values)) < 1e-4


def test_invert_coordinate_swap_oracle():
    # g = f^{-1} must invert f pointwise: g(f(alpha)) ~ alpha
    f = tc.curve_of_gdp(1.5)
    p = 0.3
    fp = tc.TradeoffCurve(f.alphas, p * f.values + (1 - p) * (1 - f.alphas))
    g = tc.invert_curve(fp)
    probe = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(g(fp(probe)) - probe)) < 1e-4
    # double inversion returns the original on the grid
    gg = tc.invert_curve(g)
    assert np.max(np.abs(gg.values - fp.values)) < 1e-4


def test_convexify_cases():
    a = tc.alpha_grid(101)
    ident_pts = np.column_stack([a, 1.0 - a])
    out = tc.convexify(ident_pts)
    assert np.max(np.abs(out.values - (1.0 - out.alphas))) < 1e-15

    two = tc.convexify([(0.0, 1.0), (1.0, 0.0)])
    assert np.array_equal(two.values, 1.0 - two.alphas)

    # a point above the hull is removed, one below pulls the hull down
    pts = [(0.0, 1.0), (0.5, 0.9), (1.0, 0.0)]
    out = tc.convexify(pts)
    assert out(0.5) == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(DomainError):
        tc.convexify([])
    with pytest.raises(DomainError):
        tc.convexify([(0.2, 0.5), (1.0, 0.0)])  # does not cover [0, 1]


def test_convexify_tie_keeps_lower():
    pts = [(0.0, 1.0), (0.5, 0.6), (0.5, 0.4), (1.0, 0.0)]
    out = tc.convexify(pts)
    assert out(0.5) <= 0.4 + 1e-12


def test_subsample_endpoints():
    g = tc.curve_of_gdp(1.0)
    c0 = tc.subsample(g, 0.0)
    assert np.array_equal(c0.values, 1.0 - c0.alphas)
    c1 = tc.subsample(g, 1.0)
    ok_lo, _ = tc.curve_geq(c1, g)
    ok_hi, _ = tc.curve_geq(g, c1)
    assert ok_lo and ok_hi
    with pytest.raises(DomainError):
        tc.subsample(g, 1.2)


def test_subsample_symmetry_and_domination():
    f = tc.curve_of_gdp(2.5)
    p = 0.25
    c = tc.subsample(f, p)
    c.validate()
    # symmetric up to twice the mesh
    sym_gap = np.max(np.abs(tc.invert_curve(c).values - c.values))
    assert sym_gap <= 2.0 * c.mesh
    # below both the mixture curve and its inverse
    fp = p * f.values + (1 - p) * (1 - f.alphas)
    fp_inv = tc.invert_curve(tc.TradeoffCurve(f.alphas, fp)).values
    tol = 1e-9 + c.mesh
    assert np.max(c.values - fp) <= tol
    assert np.max(c.values - fp_inv) <= tol


def test_subsample_monotone_in_rate():
    f = tc.curve_of_gdp(1.5)
    prev = tc.subsample(f, 0.1)
    for p in (0.3, 0.6, 1.0):
        cur = tc.subsample(f, p)
        ok, _ = tc.curve_geq(prev, cur)  # larger p = less private = lower curve
        assert ok
        prev = cur


def test_subsample_tangency_identity():
    # on the slope -1 segment, alpha + C_p(f)(alpha) is constant:
    # (1+p) Phi(-mu/2) + (1-p) Phi(mu/2)
    p, mu = 0.25, 2.5
    c = tc.subsample(tc.curve_of_gdp(mu), p)
    target = (1 + p) * phi_erf(-mu / 2) + (1 - p) * phi_erf(mu / 2)
    lo = phi_erf(-mu / 2)
    hi = p * phi_erf(-mu / 2) + (1 - p) * phi_erf(mu / 2)
    for alpha in np.linspace(lo + 0.05, hi - 0.05, 7):
        assert alpha + c(alpha) == pytest.approx(target, abs=1e-6)


def test_mixture_gaussian_tradeoff():
    mu, p = 2.5, 0.25
    mix = tc.mixture_gaussian_tradeoff(p, mu)
    assert np.array_equal(tc.mixture_gaussian_tradeoff(1.0, mu).values,
                          tc.curve_of_gdp(mu).values)
    ident = tc.mixture_gaussian_tradeoff(0.0, mu)
    assert np.array_equal(ident.values, 1.0 - ident.alphas)
    # the subsampled curve never exceeds the one-sided mixture curve, and they
    # agree left of the tangency point alpha <= Phi(-mu/2)
    sub = tc.subsample(tc.curve_of_gdp(mu), p)
    ok, _ = tc.curve_geq(mix, sub, tol=1e-12)
    assert ok
    left = sub.alphas < phi_erf(-mu / 2) - 1e-3
    assert np.max(np.abs(mix.values[left] - sub.values[left])) < 1e-6


def test_curve_geq():
    ident = tc.identity_curve()
    g1 = tc.curve_of_gdp(1.0)
    g2 = tc.curve_of_gdp(2.0)
    assert tc.curve_geq(ident, g1)[0]
    assert tc.curve_geq(g1, g2)[0]
    ok, violation = tc.curve_geq(g2, g1)
    assert not ok
    expected = tc.gdp_eval(1.0, 0.5) - tc.gdp_eval(2.0, 0.5)
    assert violation >= expected - 1e-9
    with pytest.raises(DomainError):
        tc.curve_geq(g1, tc.curve_of_gdp(1.0, grid_size=11))


def test_csv_round_trip_bit_exact(tmp_path):
    c = tc.curve_of_gdp(0.961)
    path = tmp_path / "curve.csv"
    c.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "alpha,f"
    back = tc.TradeoffCurve.from_csv(path)
    assert np.array_equal(back.alphas, c.alphas)
    assert np.array_equal(back.values, c.values)


def test_json_round_trip_bit_exact():
    c = tc.subsample(tc.curve_of_gdp(1.3, grid_size=501), 0.4)
    doc = c.to_json()
    assert set(json.loads(doc)) == {"alphas", "values"}
    back = tc.TradeoffCurve.from_json(doc)
    assert np.array_equal(back.alphas, c.alphas)
    assert np.array_equal(back.values, c.values)


def test_iterated_composition_matches_scaled_curve():
    mu, n = 0.7, 9
    total = 0.0
    for _ in range(n):
        total = tc.compose_gdp(total, mu)
    assert total == pytest.approx(mu * math.sqrt(n), rel=1e-12)
    probe = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(tc.gdp_eval(total, probe)
                         - tc.gdp_eval(mu * math.sqrt(n), probe))) <= 1e-12
