import inspect
import math
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fdp_accountant
from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import normal
from fdp_accountant import prv
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import AccuracyError, ConfigurationError, DomainError
from oracles import gdp_mu_from_delta, phi, subsampled_composite_delta


def test_prv_of_gdp_moments_and_mass():
    g = prv.prv_of_gdp(1.0)
    assert abs(g.mean() - 0.5) <= g.mesh
    assert g.var() == pytest.approx(1.0, abs=1e-5)
    assert g.pmf.sum() + g.tail_mass == pytest.approx(1.0, abs=1e-9)
    assert prv.prv_of_gdp(0.0).pmf.sum() == 1.0


def test_prv_of_gdp_too_coarse():
    with pytest.raises(ConfigurationError):
        prv.prv_of_gdp(0.005)
    with pytest.raises(ConfigurationError, match="too coarse"):
        prv.prv_of_subsampled_gdp(0.005, 0.5)
    for mesh in (0.0, -1e-3):
        with pytest.raises(ConfigurationError):
            prv.prv_of_gdp(1.0, mesh=mesh)
        with pytest.raises(ConfigurationError):
            prv.prv_of_subsampled_gdp(1.0, 0.1, mesh=mesh)


def test_lattices_are_finite_and_capped():
    limit = prv.MAX_LATTICE_POINTS
    # Indices -1 .. limit - 2 are limit points.
    assert prv._aligned_range(0.0, limit - 2.0, 1.0) == (-1, limit - 2)
    with pytest.raises(ConfigurationError, match=f"{limit + 1} points"):
        prv._aligned_range(0.0, limit - 1.0, 1.0)
    for lo, hi in [(0.0, math.inf), (-math.inf, 1.0), (0.0, 1e306)]:
        with pytest.raises(ConfigurationError, match="not finite"):
            prv._aligned_range(lo, hi, 1e-3)
    with pytest.raises(ConfigurationError, match="not finite"):
        prv.prv_of_gdp(1e200)


def test_convolutions_are_capped(monkeypatch):
    # Two lattices within the cap can convolve past it: 481 + 1921 - 1.
    a, b = prv.prv_of_gdp(1.0, mesh=0.05), prv.prv_of_gdp(4.0, mesh=0.05)
    assert (a.pmf.size, b.pmf.size) == (481, 1921)
    monkeypatch.setattr(prv, "MAX_LATTICE_POINTS", 2000)
    with pytest.raises(ConfigurationError, match="2401 points exceeds"):
        prv.convolve(a, b)


def test_prv_delta_matches_gdp_conversion():
    g = prv.prv_of_gdp(1.0)
    for eps in (0.0, 1.0, 2.0):
        assert prv.prv_delta(g, eps) == pytest.approx(
            cv.gdp_to_delta(1.0, eps), abs=1e-5)
    # eps beyond the grid leaves only truncated mass
    assert prv.prv_delta(g, g.hi + 1.0) == 0.0
    # delta is non-increasing on an eps grid, exactly
    deltas = prv.prv_delta(g, np.linspace(-2, 4, 31))
    assert np.all(np.diff(deltas) <= 0)


def _delta_oracle(grid, eps):
    """delta(eps) term by term, summed exactly by math.fsum."""
    terms = [-math.expm1(eps - t) * m
             for t, m in zip(grid.grid().tolist(), grid.pmf.tolist()) if t > eps]
    return min(math.fsum(terms), 1.0)


@st.composite
def _lattice_and_eps(draw):
    offset = draw(st.integers(-400, 400))
    mesh = draw(st.floats(1e-3, 0.5))
    weights = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-30, 1.0),
                                     min_size=1, max_size=60)
                            .filter(lambda w: sum(w) > 0)))
    grid = prv.PrvGrid(offset, mesh, weights / weights.sum(), 0.0)
    on_lattice = st.integers(-2, grid.pmf.size + 1).map(
        lambda j: (offset + j) * mesh)
    anywhere = st.floats(grid.lo - 3 * mesh, grid.hi + 3 * mesh)
    infinite = st.sampled_from([-math.inf, math.inf])
    eps = draw(st.lists(on_lattice | anywhere | infinite,
                        min_size=1, max_size=24))
    eps += draw(st.lists(st.sampled_from(eps), max_size=4))  # duplicates
    return grid, draw(st.permutations(eps))


@given(_lattice_and_eps())
def test_prv_delta_batch_matches_direct_sums(case):
    grid, eps = case
    deltas = prv.prv_delta(grid, eps)
    assert isinstance(deltas, list) and len(deltas) == len(eps)
    for e, d in zip(eps, deltas):
        want = _delta_oracle(grid, e)
        assert abs(d - want) <= 1e-13 * want + 1e-300, (e, d, want)
    # In eps order, delta never rises: not even by round-off.
    ordered = [d for _, d in sorted(zip(eps, deltas), key=lambda pair: pair[0])]
    assert all(later <= earlier for earlier, later in zip(ordered, ordered[1:]))
    one = prv.prv_delta(grid, eps[0])
    assert type(one) is float
    assert abs(one - _delta_oracle(grid, eps[0])) <= 1e-13 * one + 1e-300


# Prints the deltas of C_1(G(0.8))^400 (the Gaussian lattice of G(16)) and
# of C_0.5(G(0.8))^400 (a self-composed window) at a few eps. Their lattices
# are long enough that OpenBLAS splits a dot product between threads.
_THREADS_PROBE = """
from fdp_accountant import accountant as acc, prv
for p in (1.0, 0.5):
    cb = acc.CompositeBound((acc.SubsampledGdpFactor(0.8, p, 400),))
    print(prv.evaluate_composite(cb, [0.0, 1.0, 4.0, 8.0, 16.0]))
"""


def test_deltas_do_not_depend_on_the_blas_thread_count():
    src = str(Path(fdp_accountant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE], capture_output=True,
        timeout=300, check=True, env={**os.environ, "PYTHONPATH": path,
                                      "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")]
    assert outs[0] == outs[1]


def test_prv_delta_edge_arguments():
    g = prv.prv_of_gdp(1.0)
    assert prv.prv_delta(g, []) == []
    assert prv.prv_delta(g, math.nan) == 0.0
    assert prv.prv_delta(g, [math.inf, math.nan]) == [0.0, 0.0]
    assert prv.prv_delta(g, -math.inf) == min(math.fsum(g.pmf), 1.0)


def test_prv_delta_never_rises_below_the_lattice():
    # Far below the lattice every loss term rounds to its mass, so the top
    # segment's dot product and its mass (a pairwise sum) can differ by an
    # ulp either way; that difference must not let delta rise in eps.
    rng = np.random.default_rng(0)
    for _ in range(50):
        pmf = rng.random(40)
        pmf *= 0.5 / pmf.sum()
        g = prv.PrvGrid(0, 0.1, pmf, 1.0 - pmf.sum())
        lower, upper = prv.prv_delta(g, [-200.0, -100.0])
        assert lower >= upper


@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(-1.0, 6.0),
                min_size=1, max_size=12))
def test_evaluate_composite_keeps_request_order(eps):
    pairs = prv.evaluate_composite(acc.CompositeBound((acc.GdpFactor(1.0),)), eps)
    assert [e for e, _ in pairs] == eps
    g = prv.prv_of_gdp(1.0)
    for e, d in pairs:
        want = prv.prv_delta(g, e)
        assert abs(d - want) <= 1e-13 * want + 1e-300


def test_one_delta_pass_per_composite(monkeypatch):
    # Every eps of a request shares one prv_delta call; a per-eps loop would
    # multiply the lattice scans by the number of eps.
    sizes = []
    real = prv.prv_delta

    def counting(grid, eps):
        sizes.append(len(eps))
        return real(grid, eps)

    monkeypatch.setattr(prv, "prv_delta", counting)
    cb = acc.CompositeBound((acc.GdpFactor(0.5),
                             acc.SubsampledGdpFactor(0.8, 0.2, 12)))
    prv.evaluate_composite(cb, [6.0 * i / 255 for i in range(256)])
    assert sizes == [256]
    sizes.clear()
    params = acc.AlgoParams(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25,
                            L=4.0, steps=50, M=20.0, D=1.0, constrained=True)
    out = acc.sweep_tau(params, [0.5, 1.0, 2.0], setting="proj",
                        max_candidates=8)
    assert sizes == [3] * len(out["taus"])


def test_a_sweep_builds_each_base_lattice_once(monkeypatch):
    # Every window shares the subsampled factors' (mu, p): one base lattice
    # for proj, two for sc. The sc search may stop after two windows.
    builds = []
    real = prv.prv_of_subsampled_gdp

    def counting(mu, p, mesh=prv.DEFAULT_MESH):
        builds.append((mu, p))
        return real(mu, p, mesh)

    monkeypatch.setattr(prv, "prv_of_subsampled_gdp", counting)
    sgd = dict(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25, L=4.0, steps=50)
    for params, setting, bases, windows in [
            (acc.AlgoParams(**sgd, M=20.0, D=1.0, constrained=True), "proj", 1,
             2),
            (acc.AlgoParams(**sgd, m=1.0, M=10.0), "sc", 2, 1)]:
        builds.clear()
        prv._subsampled_base.cache_clear()
        out = acc.sweep_tau(params, [0.5, 1.0], setting=setting,
                            max_candidates=8)
        assert len(out["taus"]) >= windows
        assert len(builds) == len(set(builds)) == bases


_SYMMETRY_FLOOR = 1e-300  # smallest mass _symmetry_residual compares


def _symmetry_residual(grid: prv.PrvGrid) -> float:
    """Max relative deviation of pmf(t) from e^t pmf(-t) over mirrored
    lattice pairs with both masses above _SYMMETRY_FLOOR. Zero-ish for PRVs
    of symmetric tradeoff functions."""
    n = grid.pmf.size
    i = np.arange(n)
    j = -(grid.offset + i) - grid.offset  # index of the mirrored point
    ok = (j >= 0) & (j < n)
    a = grid.pmf[i[ok]]
    b = grid.pmf[j[ok]]
    t = (grid.offset + i[ok]) * grid.mesh
    mask = (a > _SYMMETRY_FLOOR) & (b > _SYMMETRY_FLOOR)
    if not np.any(mask):
        return 0.0
    ratio = a[mask] / (np.exp(t[mask]) * b[mask])
    return float(np.max(np.abs(ratio - 1.0)))


def test_gdp_prv_symmetry_residual():
    assert _symmetry_residual(prv.prv_of_gdp(1.0)) <= 1e-6


def test_subsampled_prv_mass_and_symmetry():
    sp = prv.prv_of_subsampled_gdp(1.0, 0.1)
    assert sp.pmf.sum() + sp.tail_mass == pytest.approx(1.0, abs=1e-9)
    # the pmf(t) = e^t pmf(-t) identity holds to 1e-6 once the mesh resolves
    # the log-density slope at the truncation depth (O(mesh^2 slope^2 / 24))
    fine = prv.prv_of_subsampled_gdp(1.0, 0.1, mesh=5e-4)
    assert _symmetry_residual(fine) <= 1e-6
    assert _symmetry_residual(sp) <= 4.0 * _symmetry_residual(fine) + 1e-7


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _subsampled_cdf_neg(mu: float, p: float, t: float) -> float:
    """F(t) for t <= 0: Phi(-e/mu - mu/2), e = log((p - 1 + e^-t) / p)."""
    e = math.log1p(math.expm1(-t) / p)
    return _phi(-e / mu - mu / 2.0)


def _loss_pos(p: float, t: float) -> float:
    """e = log((p - 1 + e^t) / p) for t > 0, also where e^t overflows."""
    if t < 700.0:
        return math.log1p(math.expm1(t) / p)
    return t - math.log(p) + math.log1p((p - 1.0) * math.exp(-t))


def _subsampled_sf_pos(mu: float, p: float, t: float) -> float:
    """S(t) for t > 0: p Phibar(a) + (1 - p) Phibar(a + mu), a = e/mu - mu/2."""
    a = _loss_pos(p, t) / mu - mu / 2.0
    return p * _phi(-a) + (1.0 - p) * _phi(-a - mu)


def _subsampled_cdf_pos(mu: float, p: float, t: float) -> float:
    """F(t) for t > 0: p Phi(a) + (1 - p) Phi(a + mu), a = e/mu - mu/2."""
    a = _loss_pos(p, t) / mu - mu / 2.0
    return p * _phi(a) + (1.0 - p) * _phi(a + mu)


def _subsampled_cdf(mu: float, p: float, t: float) -> float:
    if t <= 0:
        return _subsampled_cdf_neg(mu, p, t)
    return _subsampled_cdf_pos(mu, p, t)


def _cell_mass_oracle(mu: float, p: float, lo: float, hi: float) -> float:
    """Mass of the cell (lo, hi] from the smaller tail at its edges."""
    f_hi = _subsampled_cdf(mu, p, hi)
    if f_hi <= 0.5:
        return f_hi - _subsampled_cdf(mu, p, lo)
    f_lo = _subsampled_cdf(mu, p, lo)
    if f_lo >= 0.5:        # lo > 0: F(0-) = Phi(-mu/2) < 1/2
        return _subsampled_sf_pos(mu, p, lo) - _subsampled_sf_pos(mu, p, hi)
    return 1.0 - f_lo - _subsampled_sf_pos(mu, p, hi)


@pytest.mark.parametrize("mu", [0.05, 0.8, 3.0, 12.0, 40.0])
@pytest.mark.parametrize("p", [0.05, 0.3, 0.51, 0.9, 1.0])
def test_subsampled_masses_match_a_one_tail_oracle(mu, p):
    # A mass formed as a difference of a tail near 1 loses its low digits:
    # a split at t = 0 for every p differences S ~ p near t = 0+ and fails
    # here from mu = 12, p = 0.51 on. The lattice must agree with
    # differences of the smaller tail wherever the mass is representable.
    mesh = 1e-2 if mu > 10 else prv.DEFAULT_MESH
    g = prv.prv_of_subsampled_gdp(mu, p, mesh)
    n = g.pmf.size
    # The lattice splits its tails at T_p(mu^2/2) = log(1 - p + p e^{mu^2/2})
    # for p > 1/2 (the loss map at rate 1/p), at 0 otherwise.
    split = _loss_pos(1.0 / p, mu * mu / 2) if p > 0.5 else 0.0
    # Both end cells, and the cells at and beside t = 0 and the split.
    cells = {0, n - 1}
    for c in (-g.offset, round(split / mesh) - g.offset):
        cells.update((c - 1, c, c + 1))
    cells.update(np.random.default_rng(0).integers(0, n, 200).tolist())
    for i in sorted(cells):
        lo, hi = (g.offset + i - 0.5) * mesh, (g.offset + i + 0.5) * mesh
        want = _cell_mass_oracle(mu, p, lo, hi)
        if want >= 1e-290:
            assert abs(g.pmf[i] - want) <= 1e-8 * want, (i, lo, want)


def _count_normal_elements(monkeypatch):
    """Count the elements passed to the normal module's functions."""
    counted = []
    for name, fn in list(vars(normal).items()):
        if inspect.isfunction(fn) and not name.startswith("_"):
            def counting(x, *args, _fn=fn):
                counted.append(np.size(x))
                return _fn(x, *args)
            monkeypatch.setattr(normal, name, counting)
    return counted


def test_gaussian_lattice_evaluates_each_edge_once(monkeypatch):
    counted = _count_normal_elements(monkeypatch)
    g = prv.prv_of_gdp(1.3)
    assert sum(counted) == g.pmf.size + 1


@pytest.mark.parametrize("p", [1e-3, 0.3, 0.5, 0.7, 1.0])
def test_subsampled_lattice_evaluates_each_edge_once_per_term(monkeypatch, p):
    # Edges at t < 0 have one Phi term, edges at t > 0 two.
    counted = _count_normal_elements(monkeypatch)
    g = prv.prv_of_subsampled_gdp(1.3, p)
    edges = (g.offset + np.arange(g.pmf.size + 1) - 0.5) * g.mesh
    assert sum(counted) <= np.sum(edges < 0) + 2 * np.sum(edges > 0)


def test_zero_rate_is_a_point_mass_before_the_mesh_check():
    # mesh 1e-3 is too coarse for mu = 0.001, but p = 0 never builds a lattice.
    g = prv.prv_of_subsampled_gdp(0.001, 0.0)
    assert (g.offset, g.pmf.tolist(), g.tail_mass) == (0, [1.0], 0.0)


@given(mu=st.floats(0.01, 5.0),
       p=st.just(1.0) | st.floats(1e-4, 1.0))
def test_subsampled_cuts_at_twelve_sigma(mu, p):
    g = prv.prv_of_subsampled_gdp(mu, p)
    beta = _phi(-12.0)
    assert _subsampled_cdf_neg(mu, p, g.lo - g.mesh / 2) <= beta * (1 + 1e-9)
    assert _subsampled_sf_pos(mu, p, g.hi + g.mesh / 2) <= beta * (1 + 1e-9)
    assert g.tail_mass <= 2.0 * beta * (1 + 1e-9)


def test_subsampled_full_batch_lattice_is_pinned():
    # At p = 1 the cuts are the Gaussian PRV's mean -+ 12 standard deviations.
    g = prv.prv_of_subsampled_gdp(0.812, 1.0)
    gauss = prv.prv_of_gdp(0.812)
    assert (g.offset, g.pmf.size) == (gauss.offset, gauss.pmf.size)
    assert (g.offset, g.pmf.size) == (-9415, 19490)


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
    # identity element: the PRV of a perfectly private mechanism, all mass at 0
    point_mass = prv.PrvGrid(offset=0, mesh=g3.mesh, pmf=np.ones(1), tail_mass=0.0)
    same = prv.convolve(g3, point_mass)
    for eps in (0.0, 1.0):
        assert prv.prv_delta(same, eps) == pytest.approx(
            prv.prv_delta(g3, eps), abs=1e-12)


def _random_grid(rng, size, offset=0):
    pmf = rng.random(size) ** 4          # masses over several decades
    return prv.PrvGrid(offset, prv.DEFAULT_MESH, pmf / pmf.sum(), 0.0)


def _ola_step(m: int) -> int:
    """Points of the long lattice per overlap-add block, for a short one of m."""
    from scipy import fft
    return fft.next_fast_len(prv._OLA_RATIO * m + m - 1, real=True) - m + 1


@pytest.mark.parametrize("m, n", [
    (1, 50), (1, 1), (7, 3 * _ola_step(7)), (12, 3 * _ola_step(12) + 1),
    (20, 8 * 20), (20, 8 * 20 + 1), (33, 5000), (400, 30_000)],
    ids=["m1", "m1-n1", "block-multiple", "block-multiple-plus-1", "ratio-8",
         "ratio-8-plus-1", "m33", "m400"])
def test_convolve_matches_direct_convolution(m, n):
    rng = np.random.default_rng(m * 100_003 + n)
    a, b = _random_grid(rng, n, offset=-3), _random_grid(rng, m, offset=5)
    want = np.convolve(a.pmf, b.pmf)
    for out in (prv.convolve(a, b), prv.convolve(b, a)):
        assert (out.offset, out.pmf.size) == (2, n + m - 1)
        assert np.max(np.abs(out.pmf - want)) <= 1e-15 * want.max()


def _single_fft_convolve(a, b):
    """convolve as one FFT of the full length (its form for lattices of
    similar sizes)."""
    from scipy import fft
    n = a.pmf.size + b.pmf.size - 1
    nfft = fft.next_fast_len(n)
    out = fft.irfft(fft.rfft(a.pmf, nfft) * fft.rfft(b.pmf, nfft), nfft)[:n]
    np.clip(out, 0.0, None, out=out)
    return out


# 1200 + 1202 - 1 = 7^4: the complex fast length is 2401, the real one 2430,
# so the bytes pin which of the two convolve uses.
@pytest.mark.parametrize("m, n", [(300, 300), (300, 2400), (2400, 301),
                                  (1200, 1202)])
def test_convolve_of_similar_sizes_is_one_fft(m, n):
    rng = np.random.default_rng(n)
    a, b = _random_grid(rng, n), _random_grid(rng, m)
    assert prv.convolve(a, b).pmf.tobytes() == _single_fft_convolve(a, b).tobytes()


def test_gaussian_cut_moves_only_the_lower_tail():
    full = prv.prv_of_gdp(1.3)
    assert prv.prv_of_gdp(1.3, cut=-math.inf).pmf.tobytes() == full.pmf.tobytes()
    assert prv.prv_of_gdp(1.3, cut=full.lo - 1.0).pmf.tobytes() == full.pmf.tobytes()
    cut = prv.prv_of_gdp(1.3, cut=-0.25)
    assert cut.lo <= -0.25 < cut.lo + cut.mesh
    skip = cut.offset - full.offset
    assert cut.pmf[1:].tobytes() == full.pmf[skip + 1:].tobytes()
    assert cut.pmf[0] == pytest.approx(full.pmf[:skip + 1].sum(), rel=1e-12)
    assert cut.tail_mass < full.tail_mass
    # A cut above the mean is clamped to it (the lattice still covers 0): no
    # mass moves past the split.
    high = prv.prv_of_gdp(1.3, cut=5.0)
    mesh, mean = high.mesh, 0.5 * 1.3 ** 2
    assert high.offset == -1
    assert high.pmf[0] == pytest.approx(_phi((-0.5 * mesh - mean) / 1.3),
                                        rel=1e-12)
    assert high.pmf[1:].tobytes() == full.pmf[-full.offset:].tobytes()


def _in_head(f):
    """A GdpFactor, or a p = 1 factor that is self-composed or too narrow
    for the lattice: C_1(G(mu))^k = G(mu sqrt(k))."""
    return isinstance(f, acc.GdpFactor) or (
        f.p == 1.0 and (f.multiplicity > 1 or prv.DEFAULT_MESH > f.mu / 10.0))


def _uncut(composite):
    """evaluate_composite's lattice with the Gaussian built uncut."""
    rest = None
    for f in composite.factors:
        if not _in_head(f):
            sp = prv.self_compose(prv.prv_of_subsampled_gdp(f.mu, f.p),
                                  f.multiplicity)
            rest = sp if rest is None else prv.convolve(rest, sp)
    mu = math.hypot(*[f.mu if isinstance(f, acc.GdpFactor)
                      else f.mu * math.sqrt(f.multiplicity)
                      for f in composite.factors if _in_head(f)])
    g = prv.prv_of_gdp(mu)
    return g if rest is None else prv.convolve(rest, g)


@pytest.mark.parametrize("factors", [
    (acc.GdpFactor(3.0),),
    (acc.GdpFactor(0.5), acc.SubsampledGdpFactor(0.8, 0.2, 12)),
    (acc.GdpFactor(4.0), acc.SubsampledGdpFactor(0.3, 0.05, 200),
     acc.SubsampledGdpFactor(0.6, 0.05, 1)),
    (acc.GdpFactor(0.2), acc.SubsampledGdpFactor(2.0, 1.0, 3)),
], ids=["gauss", "head-and-window", "sc-like", "p1"])
def test_cut_gaussian_gives_the_uncut_deltas(factors):
    cb = acc.CompositeBound(factors)
    eps = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, math.inf]
    got = [d for _, d in prv.evaluate_composite(cb, eps)]
    want = prv.prv_delta(_uncut(cb), eps)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


def test_lattice_does_not_depend_on_the_other_eps_asked(monkeypatch):
    # Every request with eps >= 0 reads delta off the same composed lattice.
    # (prv_delta itself sums a lone eps in one dot product and an eps among
    # others by segments, which may differ in the last bit.)
    read = []
    real = prv.prv_delta

    def recording(grid, eps):
        read.append((grid.offset, grid.pmf.tobytes(), grid.tail_mass))
        return real(grid, eps)

    monkeypatch.setattr(prv, "prv_delta", recording)
    cb = acc.CompositeBound((acc.GdpFactor(1.5),
                             acc.SubsampledGdpFactor(0.8, 0.2, 12)))
    (_, alone), = prv.evaluate_composite(cb, [1.0])
    together = dict(prv.evaluate_composite(cb, [3.0, 1.0, 0.5]))
    prv.evaluate_composite(cb, [1.0, math.inf])
    assert read[0] == read[1] == read[2]
    assert together[1.0] == pytest.approx(alone, rel=1e-13)
    # A negative eps widens the lattice; delta(1) moves only by round-off.
    (_, lower), _ = prv.evaluate_composite(cb, [1.0, -0.5])
    assert read[3][1] != read[0][1]
    assert abs(lower - alone) <= 1e-15


def test_gaussian_factors_fold_into_one(monkeypatch):
    built = []
    real = prv.prv_of_gdp

    def recording(mu, *args, **kwargs):
        built.append(mu)
        return real(mu, *args, **kwargs)

    monkeypatch.setattr(prv, "prv_of_gdp", recording)
    cb = acc.CompositeBound((acc.GdpFactor(3.0), acc.SubsampledGdpFactor(
        0.8, 0.2, 4), acc.GdpFactor(4.0)))
    prv.evaluate_composite(cb, [1.0])
    assert built == [5.0]


def test_tiny_gaussian_factor_still_too_coarse():
    cb = acc.CompositeBound((acc.GdpFactor(1e-4),))
    with pytest.raises(ConfigurationError):
        prv.evaluate_composite(cb, [1.0])
    cb = acc.CompositeBound((acc.SubsampledGdpFactor(1e-4, 1.0, 3),))
    with pytest.raises(ConfigurationError):
        prv.evaluate_composite(cb, [1.0])


# -- heads too narrow for the lattice -------------------------------------------

NARROW_REST = (acc.SubsampledGdpFactor(0.4, 0.1, 10),
               acc.SubsampledGdpFactor(0.6, 0.1, 1))
NARROW_EPS = [0.0, 0.3, 1.0, 1.5]


def _narrow_rest():
    """The rest lattice evaluate_composite composes for NARROW_REST."""
    a = prv.self_compose(prv.prv_of_subsampled_gdp(0.4, 0.1, prv.DEFAULT_MESH),
                         10)
    return prv.convolve(a, prv.prv_of_subsampled_gdp(0.6, 0.1, prv.DEFAULT_MESH))


def _narrow(mu, eps=NARROW_EPS):
    cb = acc.CompositeBound((acc.GdpFactor(mu),) + NARROW_REST)
    return [d for _, d in prv.evaluate_composite(cb, eps)]


@pytest.mark.parametrize("mu", [5e-4, 5e-3, 9.9e-3])
def test_narrow_head_matches_a_lattice_fine_enough_for_it(mu):
    # The rest lattice put unchanged on a lattice k times finer, with
    # mesh <= mu/10, and composed there with the head's own lattice: only the
    # head's discretization is left, and it shrinks with the mesh. At k and
    # 2k, the query-time value is within the finer lattice's halving error.
    rest = _narrow_rest()

    def lattice(k):
        pmf = np.zeros((rest.pmf.size - 1) * k + 1)
        pmf[::k] = rest.pmf
        fine = prv.PrvGrid(rest.offset * k, rest.mesh / k, pmf, rest.tail_mass)
        return prv.prv_delta(prv.convolve(fine, prv.prv_of_gdp(mu, fine.mesh)),
                             NARROW_EPS)

    k = math.ceil(10.0 * prv.DEFAULT_MESH / mu)
    coarse, fine = lattice(k), lattice(2 * k)
    for got, c, f in zip(_narrow(mu), coarse, fine):
        assert abs(got - f) <= abs(c - f) + 1e-16


@pytest.mark.parametrize("mu", [5e-4, 5e-3, 9.9e-3])
def test_narrow_head_matches_the_unwindowed_sum(mu):
    # delta(eps) = sum_j pmf_j delta_G(eps - y_j) over every point of the
    # rest, delta_G(x) = Phi(-x/mu + mu/2) - e^x Phi(-x/mu - mu/2) for every
    # real x, summed here without the query's window or its split at the
    # hinge.
    rest = _narrow_rest()
    ys = rest.grid().tolist()
    for eps, got in zip(NARROW_EPS, _narrow(mu)):
        want = math.fsum(
            pj * (phi(-(eps - y) / mu + mu / 2)
                  - math.exp(eps - y) * phi(-(eps - y) / mu - mu / 2))
            for y, pj in zip(ys, rest.pmf.tolist()))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_narrow_head_skips_the_gaussian_lattice(monkeypatch):
    built = []
    real = prv.prv_of_gdp
    monkeypatch.setattr(prv, "prv_of_gdp",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    rest = _narrow_rest()
    eps = [-math.inf, rest.lo - 1.0, 0.5, rest.hi + 1.0, math.inf]
    got = _narrow(5e-3, eps)
    assert built == []
    # An eps out of the head's reach of every point of the rest keeps the
    # rest's value, as does a non-finite one: its mass at -inf, 0 at +inf.
    want = prv.prv_delta(rest, eps)
    kept = [got[i] for i in (0, 1, 3, 4)]
    assert kept == [want[i] for i in (0, 1, 3, 4)]
    assert kept[-2:] == [0.0, 0.0]
    assert 0.0 < got[2] < 1.0


@pytest.mark.parametrize("mu", [0.0, 0.01, 0.3])
def test_heads_the_lattice_takes_stay_on_the_lattice(mu):
    # A head of mu = 0 or mu >= 10 mesh is composed on the lattice, exactly
    # as without query-time heads.
    rest = _narrow_rest()
    cut = min(0.0, min(NARROW_EPS)) - rest.hi - 2.0 * prv.DEFAULT_MESH
    composed = prv.convolve(rest, prv.prv_of_gdp(mu, cut=cut))
    assert _narrow(mu) == prv.prv_delta(composed, NARROW_EPS)


# -- p = 1 factors in the head: C_1(G(mu))^k = G(mu sqrt(k)) -------------------

FOLD_EPS = [0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, math.inf]


@pytest.mark.parametrize("a, b, k, rest", [
    (0.5, 0.8, 400, ()), (0.2, 2.0, 3, ()), (1.3, 0.005, 2, ()),
    (0.0, 0.05, 400, ()), (0.0, 0.005, 1, NARROW_REST)])
def test_folded_p1_factor_is_the_gaussian_it_equals(a, b, k, rest):
    # G(a) x C_1(G(b))^k x rest reads as G(hypot(a, b sqrt(k))) x rest. At
    # k = 1 only a factor too narrow for its own lattice folds; it joins the
    # narrow head of the rest.
    folded = acc.CompositeBound((acc.GdpFactor(a),
                                 acc.SubsampledGdpFactor(b, 1.0, k)) + rest)
    gauss = acc.CompositeBound(
        (acc.GdpFactor(math.hypot(a, b * math.sqrt(k))),) + rest)
    assert (prv.evaluate_composite(folded, FOLD_EPS)
            == prv.evaluate_composite(gauss, FOLD_EPS))


def test_self_compose_never_sees_a_p1_factor(monkeypatch):
    calls = []
    real = prv.self_compose

    def recording(grid, k):
        calls.append((grid.pmf.tobytes(), k))
        return real(grid, k)

    monkeypatch.setattr(prv, "self_compose", recording)
    cb = acc.CompositeBound((acc.GdpFactor(0.5),
                             acc.SubsampledGdpFactor(0.8, 1.0, 400),
                             acc.SubsampledGdpFactor(0.8, 0.2, 12),
                             acc.SubsampledGdpFactor(0.05, 1.0, 7)))
    prv.evaluate_composite(cb, FOLD_EPS)
    assert calls == [(prv.prv_of_subsampled_gdp(0.8, 0.2).pmf.tobytes(), 12)]
    calls.clear()
    sgd = dict(kind="sgd", eta=0.05, sigma=4.0, n=500, b=500, L=4.0, steps=300)
    acc.sweep_tau(acc.AlgoParams(**sgd, M=20.0, D=1.0, constrained=True),
                  [1.0], setting="proj", max_candidates=4)
    acc.sweep_tau(acc.AlgoParams(**sgd, m=1.0, M=10.0), [1.0],
                  max_candidates=4)
    assert calls == []


def test_wide_p1_factor_at_k1_keeps_its_lattice(monkeypatch):
    # The delta_underreport_tail panel of the benchmark: a wide p = 1 factor
    # at k = 1 keeps its own lattice, convolved with the head's.
    convolved = []
    real = prv.convolve

    def recording(a, b):
        convolved.append(a.pmf.tobytes())
        return real(a, b)

    monkeypatch.setattr(prv, "convolve", recording)
    cb = acc.CompositeBound((acc.GdpFactor(0.344),
                             acc.SubsampledGdpFactor(0.812, 1.0, 1)))
    prv.evaluate_composite(cb, FOLD_EPS)
    assert convolved == [prv.prv_of_subsampled_gdp(0.812, 1.0).pmf.tobytes()]


def test_p1_composites_read_the_exact_gaussian():
    # Folded, a p = 1 composite is one Gaussian lattice, within 4.2e-6 of
    # the exact G(mu) wherever delta >= 1e-6 (G(0.5) is the worst). A
    # self-composed lattice reads up to 4.4e-4 high on these draws.
    rng = np.random.default_rng(7)
    eps = np.linspace(0.0, 6.0, 61).tolist()
    for i in range(12):
        total, k = rng.uniform(0.5, 5.0), int(rng.integers(2, 2001))
        head = total * rng.uniform(0.2, 0.9) if i % 2 else 0.0
        sub = math.sqrt(total ** 2 - head ** 2) / math.sqrt(k)
        factors = ((acc.GdpFactor(head),) if head else ()) + (
            acc.SubsampledGdpFactor(sub, 1.0, k),)
        mu = math.hypot(head, sub * math.sqrt(k))
        for e, d in prv.evaluate_composite(acc.CompositeBound(factors), eps):
            exact = cv.gdp_to_delta(mu, e)
            if exact >= 1e-6:
                assert abs(d - exact) <= 1e-5 * exact, (mu, k, e, d, exact)


def test_subsampled_right_tail_beyond_expm1_overflow():
    # The lattice runs to t ~ 1040; e+ = log1p(expm1(t)/p) would overflow
    # above t ~ 709.8 and drop all mass beyond it. For eps > 0 the exact
    # delta is p * delta_G(eps') with eps' = log(1 + (e^eps - 1)/p).
    mu, p, eps = 40.0, 0.01, 750.0
    sp = prv.prv_of_subsampled_gdp(mu, p, mesh=1e-2)
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


@pytest.mark.parametrize("k", [2, 99, 100, 2500, 40000])
@pytest.mark.parametrize("mu, p", [(0.2, 0.01), (1.0, 0.05), (0.8, 1.0),
                                   (3.0, 0.05)])
def test_self_compose_powers_only_the_surviving_bins(mu, p, k):
    # Each bin self_compose skips is exactly 0 after the power, so at the
    # same window the bytes equal those of the all-bin power. (A 1e-2 mesh
    # keeps the k = 40000 windows below 1.5e6 points.)
    from scipy import fft
    sp = prv.prv_of_subsampled_gdp(mu, p, 1e-2)
    got = prv.self_compose(sp, k)
    n, i_lo = got.pmf.size, got.offset
    buf = np.zeros(n)
    buf[sp.offset - i_lo: sp.offset - i_lo + sp.pmf.size] = sp.pmf
    want = np.roll(fft.irfft(prv._power(fft.rfft(buf), k), n),
                   ((k - 1) * i_lo) % n)
    np.clip(want, 0.0, None, out=want)
    assert got.pmf.tobytes() == want.tobytes()


def _on_window(grid, lo, size):
    out = np.zeros(size)
    out[grid.offset - lo: grid.offset - lo + grid.pmf.size] = grid.pmf
    return out


@pytest.mark.parametrize("mu, p, k", [
    (1.5, 0.0012, 23352), (2.18, 0.0016, 20299), (0.32, 0.0164, 8007),
    (0.217, 0.0789, 184), (0.8, 1.0, 400)])
def test_power_is_at_least_as_accurate_as_cpow(mu, p, k):
    # On the bins self_compose raises, against 40-digit mpmath powers:
    # repeated squaring's largest relative error is no larger than that of
    # NumPy's z ** k (C cpow at these k). Bins whose power is below 1e-300
    # are left out: there the double result is subnormal.
    mpmath = pytest.importorskip("mpmath")
    from scipy import fft
    sp = prv.prv_of_subsampled_gdp(mu, p)
    window = prv.self_compose(sp, k)
    z = fft.rfft(_on_window(sp, window.offset, window.pmf.size))
    z = z[np.abs(z) > 1e-300 ** (1.0 / k)]
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.mpc(c.real, c.imag) ** k)
                          for c in z.tolist()])

    def worst(power):
        return np.max(np.abs(power - exact) / np.abs(exact))

    assert worst(prv._power(z, k)) <= worst(z ** k)


@pytest.mark.parametrize("mu, p, mesh", [
    (0.2, 0.01, 1e-3), (1.0, 0.01, 1e-3), (1.0, 0.05, 1e-2), (0.8, 1.0, 1e-2),
    (2.0, 0.5, 1e-2)])
def test_self_compose_matches_linear_convolution(mu, p, mesh):
    # No composed mass of these lattices lies beyond the cyclic window, so
    # the k-th power equals k - 1 linear convolutions up to the FFT round-off
    # of either side (up to about 2.4e-15 of the peak).
    sp = prv.prv_of_subsampled_gdp(mu, p, mesh)
    linear = sp
    for k in range(2, 13):
        linear = prv.convolve(linear, sp)
        cyclic = prv.self_compose(sp, k)
        lo = min(linear.offset, cyclic.offset)
        size = max(linear.offset + linear.pmf.size,
                   cyclic.offset + cyclic.pmf.size) - lo
        diff = _on_window(cyclic, lo, size) - _on_window(linear, lo, size)
        assert np.max(np.abs(diff)) <= 4e-15 * linear.pmf.max()


def _largest_prime_factor(n: int) -> int:
    f = 2
    while f * f <= n:
        while n % f == 0 and n > f:
            n //= f
        f += 1
    return n


def test_every_fft_runs_at_a_fast_length(monkeypatch):
    # A raw window length can make an FFT several times slower. self_compose
    # and overlap-add use the real fast lengths (no prime factor above 5),
    # convolve's single FFT the complex ones (none above 11).
    from scipy import fft
    lengths = []
    composing = []  # nonempty inside self_compose and _overlap_add

    def rfft(x, n=None, axis=-1):
        lengths.append((bool(composing), np.shape(x)[axis] if n is None else n))
        return fft.rfft(x, n, axis=axis)

    def irfft(x, n=None, axis=-1):
        out = fft.irfft(x, n, axis=axis)
        lengths.append((bool(composing), out.shape[axis]))
        return out

    def marking(real):
        def wrapped(*args):
            composing.append(True)
            try:
                return real(*args)
            finally:
                composing.pop()
        return wrapped

    monkeypatch.setattr(prv, "sfft", types.SimpleNamespace(
        rfft=rfft, irfft=irfft, next_fast_len=fft.next_fast_len))
    for name in ("self_compose", "_overlap_add"):
        monkeypatch.setattr(prv, name, marking(getattr(prv, name)))
    eps = [0.0, 0.5, 1.0, 3.0]
    for factors in [
            (acc.GdpFactor(0.5), acc.SubsampledGdpFactor(0.8, 0.2, 12)),
            (acc.GdpFactor(4.0), acc.SubsampledGdpFactor(0.3, 0.05, 200),
             acc.SubsampledGdpFactor(0.6, 0.05, 1)),
            (acc.SubsampledGdpFactor(3.0, 0.05, 12),
             acc.SubsampledGdpFactor(1.0, 0.05, 7)),
            (acc.GdpFactor(0.2), acc.SubsampledGdpFactor(2.0, 1.0, 3))]:
        prv.evaluate_composite(acc.CompositeBound(factors), eps)
    sgd = dict(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25, L=4.0, steps=50)
    acc.sweep_tau(acc.AlgoParams(**sgd, M=20.0, D=1.0, constrained=True),
                  eps, setting="proj", max_candidates=8)
    acc.sweep_tau(acc.AlgoParams(**sgd, m=1.0, M=10.0), eps,
                  max_candidates=8)
    assert {real for real, _ in lengths} == {True, False}
    slow = [(real, n) for real, n in lengths
            if _largest_prime_factor(n) > (5 if real else 11)]
    assert slow == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_self_compose_counts_mass_beyond_the_cyclic_window():
    # A heavy right tail puts k-fold mass beyond the cyclic window; that mass
    # wraps onto negative losses instead of being counted, so delta falls
    # below that of a linear composition of the same lattice.
    sp = prv.prv_of_subsampled_gdp(3.0, 0.05)
    linear = sp
    for _ in range(11):
        linear = prv.convolve(linear, sp)
    cyclic = prv.self_compose(sp, 12)
    assert prv.prv_delta(cyclic, 1.0) >= prv.prv_delta(linear, 1.0) - 1e-12


def test_self_compose_budget():
    # 1e-9 of tail mass per factor, 10^4-fold, must trip the accuracy budget
    sp = prv.prv_of_subsampled_gdp(1.0, 0.01)
    loose = prv.PrvGrid(sp.offset, sp.mesh, sp.pmf * (1.0 - 1e-9),
                        sp.tail_mass + 1e-9)
    with pytest.raises(AccuracyError):
        prv.self_compose(loose, 10 ** 4)


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
    a = prv.self_compose(prv.prv_of_gdp(1.0, mesh=1e-3), 4)
    b = prv.self_compose(prv.prv_of_gdp(1.0, mesh=5e-4), 4)
    gap = abs(prv.prv_delta(a, 1.0) - prv.prv_delta(b, 1.0))
    assert gap <= 4.0 * 0.5 * a.mesh ** 2


def test_composed_subsampled_approaches_clt_limit():
    # p sqrt(t) = 1 held fixed: the composed curve approaches the CLT limit
    # from below; at t = 1e4 the mu-equivalent gap is ~0.037, shrinking to
    # under 0.02 by t = 9e4.
    mu_clt = acc.clt_subsampled(1.0, 0.01, 10 ** 4)
    gaps = []
    for t, p in ((10 ** 4, 0.01), (9 * 10 ** 4, 1.0 / 300.0)):
        cb = acc.CompositeBound((acc.SubsampledGdpFactor(1.0, p, t),))
        (_, delta), = prv.evaluate_composite(cb, [1.0])
        gaps.append(abs(gdp_mu_from_delta(1.0, delta) - mu_clt))
    assert gaps[0] < 0.04
    assert gaps[1] < 0.02
    assert gaps[1] < gaps[0]


def test_convolve_rejects_unequal_meshes():
    a = prv.prv_of_gdp(1.0, mesh=1e-3)
    for mesh in (5e-4, 3e-4):
        with pytest.raises(DomainError):
            prv.convolve(a, prv.prv_of_gdp(1.0, mesh=mesh))


@pytest.mark.parametrize("call, message", [
    (lambda: prv.PrvGrid(0, 1e-3, np.ones(0), 0.0), "nonempty 1-d array"),
    (lambda: prv.PrvGrid(0, 1e-3, np.ones((1, 1)), 0.0), "nonempty 1-d array"),
    (lambda: prv.PrvGrid(0, 0.0, np.ones(1), 0.0), "mesh must be > 0"),
    (lambda: prv.PrvGrid(0, 1e-3, np.array([1.5, -0.5]), 0.0),
     "entries must be >= 0"),
    (lambda: prv.PrvGrid(0, 1e-3, np.array([0.5, 0.25]), 0.0),
     "must sum to 1"),
    (lambda: prv.prv_of_gdp(-1.0), "mu must be >= 0"),
    (lambda: prv.prv_of_subsampled_gdp(-1.0, 0.5), "mu must be >= 0"),
    (lambda: prv.self_compose(prv.prv_of_gdp(1.0), 0),
     "composition count must be >= 1"),
], ids=["pmf-empty", "pmf-2d", "mesh", "pmf-negative", "pmf-sum",
        "gdp-mu", "subsampled-mu", "compose-k"])
def test_domain_gaps_raise(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_evaluate_composite_rejects_unknown_factor_type():
    cb = acc.CompositeBound((types.SimpleNamespace(mu=1.0),))
    with pytest.raises(DomainError):
        prv.evaluate_composite(cb, [1.0])


def _reference_cases(count=6, seed=10):
    """(mu0, mu, p): G(mu0) x C_p(G(mu)) at k = 1, the first with a head too
    narrow for the lattice (added at query time), the second with a wide
    one."""
    rng = random.Random(seed)
    return [(0.005 if i == 0 else 3.0 if i == 1 else rng.uniform(0.1, 1.0),
             rng.uniform(0.3, 2.5),
             math.exp(rng.uniform(math.log(0.02), math.log(0.5))))
            for i in range(count)]


REFERENCE_EPS = [0.0, 0.5, 1.0, 2.0, 4.0, 6.0]


def _against_the_reference():
    """(reported, exact) for every reference case and eps with exact delta
    at least 1e-10."""
    pairs = []
    for mu0, mu, p in _reference_cases():
        cb = acc.CompositeBound((acc.GdpFactor(mu0),
                                 acc.SubsampledGdpFactor(mu, p)))
        for e, d in prv.evaluate_composite(cb, REFERENCE_EPS):
            exact = subsampled_composite_delta(mu0, mu, p, e)
            if exact >= 1e-10:
                pairs.append((d, exact))
    return pairs


@pytest.mark.parametrize("mu0, mu", [(0.3, 1.2), (0.005, 0.8), (2.0, 0.5)])
def test_subsampled_reference_at_full_batch_is_the_gaussian(mu0, mu):
    # At p = 1 the reference integrates G(hypot(mu0, mu)), whose delta is
    # closed-form: a check of the quadrature, not of the lattice.
    for e in [0.0, 1.0, 3.0]:
        assert subsampled_composite_delta(mu0, mu, 1.0, e) == pytest.approx(
            cv.gdp_to_delta(math.hypot(mu0, mu), e), rel=1e-12)


def test_p_below_1_composite_matches_an_exact_reference():
    pairs = _against_the_reference()
    assert len(pairs) >= 30
    assert max(abs(d - x) / x for d, x in pairs) <= 1e-4


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the lattice is cell-centred, not certified; it reports "
    "below the exact reference in 5 of the 6 cases, by up to 1e-6 relative"))
def test_p_below_1_composite_never_reports_below_the_exact_reference():
    assert all(d >= x for d, x in _against_the_reference())
