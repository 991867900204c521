import math

import numpy as np
import pytest

from fdp_accountant import normal
from fdp_accountant import tradeoff as tc
from fdp_accountant.conversions import curve_to_delta
from fdp_accountant.errors import DomainError, InvalidCurveError
from oracles import curve_geq, mesh, mixture_gaussian_tradeoff, phi


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


# -- the hull against the scalar monotone chain -------------------------------


def scalar_lower_hull(x, y):
    """Monotone-chain lower hull, one point at a time: the oracle."""
    hx, hy = [], []
    for px, py in zip(x.tolist(), y.tolist()):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (py - hy[-2]) - (hy[-1] - hy[-2]) * (px - hx[-2])
            if cross <= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(px)
        hy.append(py)
    return np.asarray(hx), np.asarray(hy)


def assert_hull_matches_scalar_chain(x, y):
    hx, hy = tc._lower_hull(x, y)
    ox, oy = scalar_lower_hull(x, y)
    assert np.array_equal(hx, ox) and np.array_equal(hy, oy)


def random_cloud(rng, n, convex):
    x = np.unique(rng.random(n))
    y = rng.random(x.size)
    if convex:
        # mostly convex runs, broken by bumps that the chain must pop
        y = (1.0 - x) ** 2 + 1e-3 * (rng.random(x.size) < 0.05) * y
    return x, y


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("convex", [False, True])
def test_lower_hull_matches_scalar_chain_on_random_clouds(seed, convex):
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 4, 10, 1000):
        assert_hull_matches_scalar_chain(*random_cloud(rng, n, convex))


def test_lower_hull_matches_scalar_chain_on_collinear_runs():
    ident = tc.identity_curve()
    assert_hull_matches_scalar_chain(ident.alphas, ident.values)
    x = np.linspace(0.0, 1.0, 1001)
    assert_hull_matches_scalar_chain(x, np.abs(x - 0.5).round(12))
    assert_hull_matches_scalar_chain(x, np.zeros_like(x))


@pytest.mark.parametrize("mu", [0.5, 3.0])
def test_lower_hull_matches_scalar_chain_on_round_off_dents(mu):
    # at p = 1e-4 the mixture is within 1e-4 of a line, and rounding leaves
    # dents all along it
    mix = mixture_gaussian_tradeoff(1e-4, mu)
    assert_hull_matches_scalar_chain(mix.alphas, mix.values)
    assert_hull_matches_scalar_chain(mix.alphas, 1.0 - mix.alphas - 1e-4 * mix.values)


@pytest.mark.parametrize("mu, p", [(0.2, 1.0), (1.6, 0.009), (2.5, 0.25), (40.0, 1.0),
                                   (1.0, 1e-4)])
def test_lower_hull_matches_scalar_chain_on_subsample_inputs(monkeypatch, mu, p):
    seen = []
    hull = tc._lower_hull

    def recording(x, y):
        seen.append((x, y))
        return hull(x, y)

    monkeypatch.setattr(tc, "_lower_hull", recording)
    tc.subsample(tc.curve_of_gdp(mu), p)
    assert len(seen) == 1
    assert_hull_matches_scalar_chain(*seen[0])


# -- the block step across the slope -1 bridge --------------------------------


def subsample_hull_input(mu, p):
    """The points subsample(curve_of_gdp(mu), p) hands to the hull."""
    f = tc.curve_of_gdp(mu)
    fp = p * f.values + (1 - p) * (1 - f.alphas)
    return f.alphas, np.minimum(fp, tc._inverse_values(f.alphas, fp, f.alphas))


@pytest.fixture
def blocks(monkeypatch):
    """(first point, points offered, points accepted) of every block step."""
    seen = []
    step = tc._cross_block

    def recording(x, y, hx, hy, top, i, m):
        k, low = step(x, y, hx, hy, top, i, m)
        seen.append((i, m, k))
        return k, low

    monkeypatch.setattr(tc, "_cross_block", recording)
    return seen


def test_subsample_hands_the_hull_its_grid_and_the_minimum(monkeypatch):
    seen = []
    hull = tc._lower_hull
    monkeypatch.setattr(tc, "_lower_hull", lambda x, y: seen.append((x, y)) or hull(x, y))
    tc.subsample(tc.curve_of_gdp(2.0), 0.02)
    x, y = subsample_hull_input(2.0, 0.02)
    assert np.array_equal(seen[0][0], x) and np.array_equal(seen[0][1], y)


# Log-uniform (mu, p) over the benchmark's ranges, rounded to 3 digits.
_rng = np.random.default_rng(19)
SWEEP = [(float(f"{mu:.3g}"), float(f"{p:.3g}")) for mu, p in zip(
    np.exp(_rng.uniform(math.log(0.5), math.log(5.0), 6)),
    np.exp(_rng.uniform(math.log(0.001), math.log(0.05), 6)))]


@pytest.mark.parametrize("mu, p", SWEEP + [(2.5, 0.25), (5.0, 0.3)])
def test_block_step_matches_scalar_chain_on_subsample_inputs(blocks, mu, p):
    # (2.5, 0.25) and (5, 0.3) end in long runs of collinear round-off
    assert_hull_matches_scalar_chain(*subsample_hull_input(mu, p))
    assert sum(k for _, _, k in blocks) > 500  # the bridge went through blocks


def tie_cloud(n=200, bridge=90):
    """A convex chain y = (n - x)^2 at x = 0 .. n; then a bridge of points,
    point j exactly on the line of the chain edge into point n - 1 - 2j; then
    one point that pops nothing. The coordinates are integers, so every cross
    product is exact and the chain's ties at 0 really occur."""
    x, y = list(np.arange(n + 1.0)), list((n - np.arange(n + 1.0)) ** 2)
    for j in range(bridge):
        k, px = n - 1 - 2 * j, n + 1.0 + j
        x.append(px)
        y.append((n - k) ** 2 - (2 * (n - k) + 1) * (px - k))
    return np.array(x + [x[-1] + 1.0]), np.array(y + [y[-1] + 1e6])


@pytest.mark.parametrize("cloud", ["subsample", "ties"])
@pytest.mark.parametrize("sabotage", ["up", "down", "random", "bottom", "top"])
def test_block_step_survives_a_wrong_predictor(monkeypatch, blocks, cloud, sabotage):
    rng = np.random.default_rng(3)
    predict = tc._tangent_depths

    def wrong(sx, sy, px, py):
        t = predict(sx, sy, px, py)
        return {"up": t + 1, "down": t - 1,
                "random": rng.integers(-3, sx.size + 3, t.size),
                "bottom": np.zeros_like(t), "top": t * 0 + sx.size}[sabotage]

    monkeypatch.setattr(tc, "_tangent_depths", wrong)
    x, y = subsample_hull_input(2.0, 0.02) if cloud == "subsample" else tie_cloud()
    assert_hull_matches_scalar_chain(x, y)
    assert blocks  # the wrong depths reached the replay


def test_block_step_stops_at_a_planted_bump(blocks):
    x, y = subsample_hull_input(2.0, 0.02)
    tc._lower_hull(x, y)
    i, m, _ = next(b for b in blocks if b[1] == b[2] > 100)
    blocks.clear()
    # a dent in the middle of a block that verified in full: the next point
    # no longer pops it, so the replay must stop there
    y = y.copy()
    y[i + m // 2] -= 1e-5
    assert_hull_matches_scalar_chain(x, y)
    assert any(0 < k < m for _, m, k in blocks)


def test_block_step_is_quiet_where_slopes_overflow(blocks):
    # edge slopes of order 1e320 overflow to -inf; the chain's Python floats
    # would not warn, and neither may the block step
    t = np.linspace(1e-3, 0.5, 200)
    x = np.concatenate([[0.0, 5e-324, 1e-323], t, [0.6, 1.0]])
    y = np.concatenate([[1.0, 0.999, 0.998], 0.9 * (1.0 - t) ** 2, [0.0, 0.0]])
    assert_hull_matches_scalar_chain(x, y)
    assert blocks


@pytest.mark.parametrize("mu, p", [(0.5, 0.001), (2.0, 0.02), (2.5, 0.25), (1.0, 1.0),
                                   (40.0, 1.0)])
def test_subsample_equals_convexify_of_its_points(mu, p):
    x, y = subsample_hull_input(mu, p)
    ref = tc.convexify(np.column_stack([x, y]))
    out = tc.subsample(tc.curve_of_gdp(mu), p)
    assert out.alphas.tobytes() == ref.alphas.tobytes()
    assert out.values.tobytes() == ref.values.tobytes()


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
