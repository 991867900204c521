import math

import numpy as np
import pytest

from fdp_accountant import normal
from fdp_accountant import tradeoff as tc
from fdp_accountant.conversions import curve_to_delta
from fdp_accountant.errors import DomainError, InvalidCurveError
from oracles import (convexify, curve_geq, mesh, mixture_gaussian_tradeoff, phi,
                     subsample_points, subsampled_gdp_tradeoff)


def test_alpha_grid_shape():
    g = tc.alpha_grid()
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.all(np.diff(g) > 0)
    assert g.size >= tc.DEFAULT_GRID_SIZE
    # refinement reaches the tail floor on both sides
    assert g[1] <= 2e-12
    assert 1.0 - g[-2] <= 2e-12


def test_alpha_grid_size_is_bounded():
    for size in (2, tc.MAX_GRID_SIZE + 1):
        with pytest.raises(DomainError, match="grid_size must lie in"):
            tc.alpha_grid(size)
    # At the largest size the uniform mesh, 1e-6, still lies above the
    # geometric tail.
    g = tc.alpha_grid(tc.MAX_GRID_SIZE)
    assert g[1] == tc.TAIL_FLOOR and g.size > tc.MAX_GRID_SIZE


def test_gdp_eval_values():
    assert tc.gdp_eval(0.0, 0.3) == 0.7
    assert tc.gdp_eval(2.0, 0.0) == 1.0
    assert tc.gdp_eval(2.0, 1.0) == 0.0
    assert tc.gdp_eval(1.0, 0.5) == pytest.approx(phi(-1.0), abs=1e-15)
    arr = tc.gdp_eval(1.0, np.array([0.0, 0.5, 1.0]))
    assert arr[0] == 1.0 and arr[-1] == 0.0


def test_gdp_eval_domain():
    with pytest.raises(DomainError):
        tc.gdp_eval(-0.1, 0.5)
    with pytest.raises(DomainError):
        tc.gdp_eval(1.0, 1.5)
    with pytest.raises(DomainError):
        tc.gdp_eval(1.0, -0.01)


def test_gdp_eval_floors_underflow_below_alpha_1():
    # G(40) underflows from alpha ~ 0.0101; it stays positive below alpha = 1
    a = tc.alpha_grid()
    g = tc.gdp_eval(40.0, a)
    assert np.all(g[:-1] > 0.0) and g[-1] == 0.0
    assert tc.gdp_eval(40.0, 0.5) == 5e-324
    # G(inf) is 0 on alpha > 0 and is not floored
    assert tc.gdp_eval(math.inf, 0.5) == 0.0
    # no G(mu <= 30) underflows on the grid, so the floor changes no value there
    for mu in (5.0, 30.0):
        raw = normal.cdf(normal.inv_upper(a[1:-1]) - mu)
        assert np.array_equal(tc.gdp_eval(mu, a)[1:-1], raw)


@pytest.mark.parametrize("mu", [0.05, 0.5, 1.0, 3.0, 10.0, 38.0])
def test_gdp_eval_float_path_matches_the_array_path(mu):
    """A float alpha runs on the standard library, an array on scipy.special.
    The two agree to within 4 ulps of the condition of G(mu)(alpha) =
    Phi(x), x = z - mu, in its rounded inputs: 1 + h(x) (|x| + mu + s(z)),
    with h = phi/Phi and s(z) = |z| + alpha/phi(z) the scale of z's error."""
    from scipy import special

    a = np.concatenate([np.linspace(0.001, 0.999, 999),
                        np.logspace(-300.0, -3.0, 100),
                        1.0 - np.logspace(-15.0, -3.0, 50), [0.0, 1.0]])
    want = tc.gdp_eval(mu, a)
    got = np.array([tc.gdp_eval(mu, x) for x in a.tolist()])
    z = -special.ndtri(a[:-2])
    x = z - mu
    log_pdf = lambda t: -0.5 * t * t - 0.5 * math.log(2.0 * math.pi)
    h = np.exp(log_pdf(x) - special.log_ndtr(x))
    cond = 1.0 + h * (np.abs(x) + mu + np.abs(z) + a[:-2] * np.exp(-log_pdf(z)))
    ok = want[:-2] >= 1e-300
    rel = np.abs(got[:-2] - want[:-2])[ok] / want[:-2][ok]
    assert np.all(rel <= 4.0 * np.finfo(float).eps * cond[ok])
    # Below 1e-300, and at the exact endpoints, the paths agree absolutely.
    assert np.all(np.abs(got[:-2] - want[:-2])[~ok] <= 1e-300)
    assert got[-2] == 1.0 and got[-1] == 0.0


def test_gdp_eval_float_path_keeps_the_array_rules():
    assert type(tc.gdp_eval(1.0, 0.3)) is float
    assert type(tc.gdp_eval(1.0, np.float64(0.3))) is float
    assert tc.gdp_eval(0.0, 1.0) == 0.0
    assert tc.gdp_eval(math.inf, 0.0) == 1.0 and tc.gdp_eval(math.inf, 1.0) == 0.0
    assert math.isnan(tc.gdp_eval(1.0, math.nan))
    assert math.isnan(tc.gdp_eval(1.0, np.array(math.nan)))
    for mu, alpha in ((math.nan, 0.5), (-1.0, 0.5), (1.0, 1.0 + 2.0 ** -52),
                      (1.0, -1e-300), (1.0, math.inf)):
        with pytest.raises(DomainError):
            tc.gdp_eval(mu, alpha)
        with pytest.raises(DomainError):
            tc.gdp_eval(mu, np.array([alpha]))


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 5.0, 20.0])
def test_curve_of_gdp_invariants(mu):
    c = tc.curve_of_gdp(mu)
    c.validate()


def test_curve_of_gdp_values():
    c = tc.curve_of_gdp(1.0)
    assert c(0.5) == pytest.approx(phi(-1.0), abs=2e-6)
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


@pytest.mark.parametrize("alphas, values", [
    ([0.0, 0.5, 1.0], [1.0, math.nan, 0.0]),
    ([0.0, 0.5, 1.0], [1.0, 0.5, -math.inf]),
    ([0.0, math.nan, 1.0], [1.0, 0.5, 0.0]),
])
def test_curve_validation_rejects_non_finite_points(alphas, values):
    # every other check is a comparison, which a NaN passes
    with pytest.raises(InvalidCurveError, match="finite"):
        tc.TradeoffCurve(alphas, values)


@pytest.mark.parametrize("alphas, values, message", [
    ([0.0, 1.0], [1.0, 0.5, 0.0], "matching 1-d grids"),
    ([[0.0, 1.0]], [[1.0, 0.0]], "matching 1-d grids"),
    ([0.0], [1.0], "matching 1-d grids"),
    ([0.0, 0.5, 0.5, 1.0], [1.0, 0.5, 0.5, 0.0], "strictly increasing"),
    ([0.0, 0.5, 1.0], [1.0, 0.5, -0.1], r"lie in \[0, 1\]"),
    ([0.0, 0.5, 1.0], [1.5, 0.5, 0.0], r"lie in \[0, 1\]"),
], ids=["shape", "2d", "size-1", "repeated-alpha", "below-0", "above-1"])
def test_curve_validation_names_each_defect(alphas, values, message):
    with pytest.raises(InvalidCurveError, match=message):
        tc.TradeoffCurve(np.array(alphas), np.array(values))


def test_alpha_grid_is_built_once_and_read_only():
    first = tc.alpha_grid()
    again = tc.alpha_grid()
    assert again is first
    assert np.array_equal(tc.alpha_grid(101), tc.alpha_grid(101))
    assert tc.curve_of_gdp(1.0).alphas is first
    for grid in (first, tc.alpha_grid(101)):
        with pytest.raises(ValueError):
            grid[1] = 0.5
    assert first[1] == 1e-12


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
    out = convexify(ident_pts)
    assert np.max(np.abs(out.values - (1.0 - out.alphas))) < 1e-15

    two = convexify([(0.0, 1.0), (1.0, 0.0)])
    assert np.array_equal(two.values, 1.0 - two.alphas)

    # a point above the hull is removed, one below pulls the hull down
    pts = [(0.0, 1.0), (0.5, 0.9), (1.0, 0.0)]
    out = convexify(pts)
    assert out(0.5) == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(DomainError):
        convexify([])
    with pytest.raises(DomainError):
        convexify([(0.2, 0.5), (1.0, 0.0)])  # does not cover [0, 1]


def test_convexify_tie_keeps_lower():
    pts = [(0.0, 1.0), (0.5, 0.6), (0.5, 0.4), (1.0, 0.0)]
    out = convexify(pts)
    assert out(0.5) <= 0.4 + 1e-12


def test_subsample_endpoints():
    g = tc.curve_of_gdp(1.0)
    c0 = tc.subsample(g, 0.0)
    assert np.array_equal(c0.values, 1.0 - c0.alphas)
    c1 = tc.subsample(g, 1.0)
    ok_lo, _ = curve_geq(c1, g)
    ok_hi, _ = curve_geq(g, c1)
    assert ok_lo and ok_hi
    with pytest.raises(DomainError):
        tc.subsample(g, 1.2)


def test_subsample_keeps_the_alpha_0_end_of_an_underflowing_curve():
    f = tc.subsample(tc.curve_of_gdp(40.0), 1.0)
    assert f.values[0] == 1.0
    assert curve_to_delta(f, math.inf) == 0.0


def test_subsample_symmetry_and_domination():
    f = tc.curve_of_gdp(2.5)
    p = 0.25
    c = tc.subsample(f, p)
    c.validate()
    # symmetric up to twice the mesh
    sym_gap = np.max(np.abs(tc.invert_curve(c).values - c.values))
    assert sym_gap <= 2.0 * mesh(c)
    # below both the mixture curve and its inverse
    fp = p * f.values + (1 - p) * (1 - f.alphas)
    fp_inv = tc.invert_curve(tc.TradeoffCurve(f.alphas, fp)).values
    tol = 1e-9 + mesh(c)
    assert np.max(c.values - fp) <= tol
    assert np.max(c.values - fp_inv) <= tol


def test_subsample_monotone_in_rate():
    f = tc.curve_of_gdp(1.5)
    prev = tc.subsample(f, 0.1)
    for p in (0.3, 0.6, 1.0):
        cur = tc.subsample(f, p)
        ok, _ = curve_geq(prev, cur)  # larger p = less private = lower curve
        assert ok
        prev = cur


def test_subsample_tangency_identity():
    # on the slope -1 segment, alpha + C_p(f)(alpha) is constant:
    # (1+p) Phi(-mu/2) + (1-p) Phi(mu/2)
    p, mu = 0.25, 2.5
    c = tc.subsample(tc.curve_of_gdp(mu), p)
    target = (1 + p) * phi(-mu / 2) + (1 - p) * phi(mu / 2)
    lo = phi(-mu / 2)
    hi = p * phi(-mu / 2) + (1 - p) * phi(mu / 2)
    for alpha in np.linspace(lo + 0.05, hi - 0.05, 7):
        assert alpha + c(alpha) == pytest.approx(target, abs=1e-6)


def test_mixture_gaussian_tradeoff():
    mu, p = 2.5, 0.25
    mix = mixture_gaussian_tradeoff(p, mu)
    assert np.array_equal(mixture_gaussian_tradeoff(1.0, mu).values,
                          tc.curve_of_gdp(mu).values)
    ident = mixture_gaussian_tradeoff(0.0, mu)
    assert np.array_equal(ident.values, 1.0 - ident.alphas)
    # the subsampled curve never exceeds the one-sided mixture curve, and they
    # agree left of the tangency point alpha <= Phi(-mu/2)
    sub = tc.subsample(tc.curve_of_gdp(mu), p)
    ok, _ = curve_geq(mix, sub, tol=1e-12)
    assert ok
    left = sub.alphas < phi(-mu / 2) - 1e-3
    assert np.max(np.abs(mix.values[left] - sub.values[left])) < 1e-6


def test_iterated_composition_matches_scaled_curve():
    mu, n = 0.7, 9
    total = 0.0
    for _ in range(n):
        total = math.hypot(total, mu)
    assert total == pytest.approx(mu * math.sqrt(n), rel=1e-12)
    probe = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(tc.gdp_eval(total, probe)
                         - tc.gdp_eval(mu * math.sqrt(n), probe))) <= 1e-12


# -- the reference hull --------------------------------------------------------


def chord_minorant(x, y):
    """Greatest convex minorant of the points (x, y) at each x_k, by brute
    force: the least chord value over the point pairs i <= k <= j."""
    out = np.empty_like(y)
    for k in range(x.size):
        xi, yi = x[:k + 1, None], y[:k + 1, None]
        xj, yj = x[None, k:], y[None, k:]
        with np.errstate(invalid="ignore", divide="ignore"):
            chord = yi + (yj - yi) * (x[k] - xi) / (xj - xi)
        out[k] = np.nanmin(np.where(xj > xi, chord, np.nan), initial=y[k])
    return out


def random_cloud(rng, n, convex):
    """n random points inside (0, 1), plus (0, 1) and (1, 0)."""
    x = np.unique(np.concatenate([[0.0, 1.0], rng.random(n)]))
    y = rng.random(x.size)
    if convex:
        # mostly convex runs, broken by bumps that the chain must pop
        y = (1.0 - x) ** 2 + 1e-3 * (rng.random(x.size) < 0.05) * y
    y[0], y[-1] = 1.0, 0.0
    return x, y


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("convex", [False, True])
def test_lower_hull_matches_scalar_chain_on_random_clouds(seed, convex):
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 4, 10, 150):
        x, y = random_cloud(rng, n, convex)
        ref = np.minimum.accumulate(chord_minorant(x, y))
        out = convexify(np.column_stack([x, y]))
        assert np.array_equal(out.alphas, x)
        assert np.max(np.abs(out.values - np.clip(ref, 0.0, 1.0 - x))) <= 1e-15


def test_lower_hull_matches_scalar_chain_on_collinear_runs():
    ident = tc.identity_curve()
    out = convexify(np.column_stack([ident.alphas, ident.values]))
    assert np.max(np.abs(out.values - ident.values)) <= 1e-15
    x = np.linspace(0.0, 1.0, 1001)
    out = convexify(np.column_stack([x, np.abs(x - 0.5).round(12)]))
    assert np.max(np.abs(out.values - np.maximum(0.5 - x, 0.0))) <= 1e-15
    assert not convexify(np.column_stack([x, np.zeros_like(x)])).values.any()


@pytest.mark.parametrize("mu", [0.5, 3.0])
def test_lower_hull_matches_scalar_chain_on_round_off_dents(mu):
    # at p = 1e-4 the mixture is within 1e-4 of a line, and rounding leaves
    # dents all along it: the hull removes only those
    mix = mixture_gaussian_tradeoff(1e-4, mu)
    out = convexify(np.column_stack([mix.alphas, mix.values]))
    assert np.max(np.abs(out.values - mix.values)) <= 1e-15
    # 1 - alpha - 1e-4 * mix is concave: its hull is the chord of its ends
    out = convexify(np.column_stack([mix.alphas, 1.0 - mix.alphas - 1e-4 * mix.values]))
    assert np.max(np.abs(out.values - (1.0 - 1e-4) * (1.0 - mix.alphas))) <= 1e-15


# -- the subsampling operator against the hull and the closed form -------------


@pytest.mark.parametrize("mu, p", [(0.5, 0.001), (2.0, 0.02), (2.5, 0.25), (1.0, 1.0),
                                   (40.0, 1.0)])
def test_subsample_is_never_above_convexify_of_its_points(mu, p):
    f = tc.curve_of_gdp(mu)
    out = tc.subsample(f, p)
    ref = convexify(subsample_points(f, p))
    assert np.array_equal(out.alphas, ref.alphas)
    assert np.max(out.values - ref.values) <= 1e-15


@pytest.mark.parametrize("mu, p", [(1.0, 1.0), (20.0, 1.0)])
def test_subsample_equals_convexify_of_its_points(mu, p):
    # The points of a p = 1 curve are convex, and no node lies inside its
    # bridge. (Not at mu = 40: there G(mu) runs through subnormal values, which
    # round to dents of order 1e-310 that the hull removes.)
    f = tc.curve_of_gdp(mu)
    ref = convexify(subsample_points(f, p))
    assert tc.subsample(f, p).values.tobytes() == ref.values.tobytes()


@pytest.mark.parametrize("mu, p", [(2.5, 0.25), (3.0, 0.5), (8.0, 0.01), (1.0, 0.02),
                                   (0.5, 0.001), (2.0, 0.05)])
def test_subsample_matches_the_closed_form(mu, p):
    # the stored chords of a convex curve lie above it, never below
    out = tc.subsample(tc.curve_of_gdp(mu), p)
    gap = out.values - subsampled_gdp_tradeoff(mu, p, out.alphas)
    assert -1e-12 <= gap.min() and gap.max() <= 1e-5


def test_subsample_of_a_curve_needing_one_bridge_matches_the_hull():
    a = tc.alpha_grid(2001)
    f = tc.TradeoffCurve(a, np.maximum(1.0 - 2.0 * a, 0.0))
    out = tc.subsample(f, 0.7)
    assert np.max(np.abs(out.values - convexify(subsample_points(f, 0.7)).values)) <= 1e-15


def test_subsample_rejects_a_curve_needing_two_bridges():
    a = tc.alpha_grid(2001)
    with pytest.raises(InvalidCurveError, match="convex"):
        tc.subsample(tc.TradeoffCurve(a, (1.0 - a) ** 20), 0.9)


@pytest.mark.parametrize("grid_size", [101, 2001, None])
def test_subsample_of_gdp_never_raises(grid_size):
    for mu in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0, 40.0):
        f = tc.curve_of_gdp(mu, grid_size)
        for p in (1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.9, 1.0, 0.0):
            out = tc.subsample(f, p)
            assert out.values[0] == 1.0
            if p > 0.0:
                assert np.max(out.values - subsample_points(f, p)[:, 1]) <= 1e-15


@pytest.mark.parametrize("grid_size", [None, 3001])
def test_curve_of_gdp_reuses_the_grid_quantiles(grid_size):
    z = tc._grid_quantiles(grid_size)
    assert tc._grid_quantiles(grid_size) is z
    with pytest.raises(ValueError):
        z[1] = 0.0
    alphas = tc.alpha_grid() if grid_size is None else tc.alpha_grid(grid_size)
    for mu in (0.0, 0.5, 2.0, 40.0, math.inf):
        assert (tc.curve_of_gdp(mu, grid_size).values.tobytes()
                == tc.gdp_eval(mu, alphas).tobytes())
