import math

import numpy as np
import pytest

from fdp_accountant import accountant as acc
from fdp_accountant import oracle
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError

GRID = np.linspace(0.05, 0.95, 19)


def test_worst_case_matches_bound_formula():
    p = acc.AlgoParams(kind="gd", eta=0.1, sigma=10.0, n=1, L=1.0, steps=50,
                       m=1.0, M=1.0)
    assert oracle.worst_case_gd_sc_mu(0.9, 1.0, 10.0, 50) == pytest.approx(
        acc.bound_gd_sc(p), abs=1e-14)
    assert oracle.worst_case_gd_sc_mu(0.5, 1.0, 2.0, 1) == pytest.approx(0.5)
    assert oracle.worst_case_gd_sc_mu(0.92, 0.1, 1.0, 10) == pytest.approx(
        0.308, abs=5e-4)


def test_simulate_is_deterministic():
    spec = oracle.SimSpec(trials=2000, seed=7)
    x1, y1 = oracle.simulate(spec)
    x2, y2 = oracle.simulate(spec)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_simulate_moments_match_closed_form():
    eta, m, sigma, L, t = 0.1, 1.0, 1.0, 0.5, 30
    spec = oracle.SimSpec(kind="gd", m=m, eta=eta, sigma=sigma, L=L, n=1,
                          steps=t, trials=400_000, seed=0)
    xp, xq = oracle.simulate(spec)
    c = 1 - eta * m
    var = (eta * sigma) ** 2 * (1 - c ** (2 * t)) / (1 - c * c)
    gap = eta * L * (1 - c ** t) / (1 - c)
    n = spec.trials
    assert xp.mean() == pytest.approx(0.0, abs=4 * math.sqrt(var / n))
    assert xq.mean() - xp.mean() == pytest.approx(gap, abs=6 * math.sqrt(var / n))
    assert xp.var() == pytest.approx(var, rel=0.02)


def test_simulate_projection_containment():
    spec = oracle.SimSpec(kind="gd", m=0.0, eta=0.1, sigma=4.0, L=0.5, n=1,
                          steps=50, trials=20_000, seed=1, diameter=1.0)
    xp, xq = oracle.simulate(spec)
    assert np.max(np.abs(xp)) <= 0.5 and np.max(np.abs(xq)) <= 0.5


def test_simulate_batch_variants():
    cyc = oracle.SimSpec(kind="cgd", n=4, b=2, j_star=2, steps=8, trials=1000,
                         seed=0)
    xp, xq = oracle.simulate(cyc)
    assert xp.shape == (1000,)
    sub = oracle.SimSpec(kind="sgd", n=10, b=2, steps=8, trials=1000, seed=0)
    xp, xq = oracle.simulate(sub)
    assert np.isfinite(xp).all() and np.isfinite(xq).all()
    with pytest.raises(DomainError):
        oracle.SimSpec(kind="cgd", n=5, b=2)


def test_empirical_tradeoff_identical_is_identity():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(100_000), rng.standard_normal(100_000)
    for method in ("exact-lr", "histogram-lr"):
        emp = oracle.empirical_tradeoff(a, b, method=method, alphas=GRID)
        assert np.max(np.abs(emp.values - (1 - GRID))) <= emp.ci_halfwidth


def test_empirical_tradeoff_gaussian_pair():
    rng = np.random.default_rng(1)
    n = 300_000
    emp = oracle.empirical_tradeoff(rng.standard_normal(n),
                                    rng.standard_normal(n) + 1.0,
                                    method="exact-lr", alphas=GRID)
    assert np.max(np.abs(emp.values - tc.gdp_eval(1.0, GRID))) <= emp.ci_halfwidth
    # the DKW band width scales as announced
    assert emp.ci_halfwidth == pytest.approx(2 * oracle.dkw_halfwidth(n), rel=1e-12)


def test_empirical_tradeoff_histogram_on_simulated_worst_case():
    spec = oracle.SimSpec(kind="gd", m=1.0, eta=0.05, sigma=2.0, L=0.1, n=1,
                          steps=60, trials=400_000, seed=5)
    xp, xq = oracle.simulate(spec)
    mu = oracle.worst_case_gd_sc_mu(0.95, 0.05 * 0.1, 0.05 * 2.0, 60)
    emp = oracle.empirical_tradeoff(xp, xq, method="histogram-lr", alphas=GRID)
    assert np.max(np.abs(emp.values - tc.gdp_eval(mu, GRID))) <= emp.ci_halfwidth


def test_empirical_tradeoff_errors():
    with pytest.raises(DomainError):
        oracle.empirical_tradeoff([], [1.0])
    with pytest.raises(DomainError):
        oracle.empirical_tradeoff([1.0], [1.0], method="kde")


def test_check_gdpinf_equality_and_slack_cases():
    const = lambda rng, size: np.full(size, 1.0)
    ok, margin, emp = oracle.check_gdpinf(1.0, 2.0, const, 150_000, seed=0)
    assert ok
    # constant shift attains the floor: the curve sits within ci of G(1/2)
    dev = np.max(np.abs(emp.values - tc.gdp_eval(0.5, emp.alphas)))
    assert dev <= emp.ci_halfwidth
    uniform = lambda rng, size: rng.uniform(-1.0, 1.0, size)
    ok_u, margin_u, emp_u = oracle.check_gdpinf(1.0, 2.0, uniform, 150_000, seed=0)
    assert ok_u
    # strictly above the floor in the interior
    mid = np.abs(emp_u.alphas - 0.5) < 0.2
    assert np.min(emp_u.values[mid] - tc.gdp_eval(0.5, emp_u.alphas[mid])) > 0.01


def test_check_gdpinf_zero_shift():
    zero = lambda rng, size: np.zeros(size)
    ok, margin, _ = oracle.check_gdpinf(0.0, 1.0, zero, 50_000, seed=2)
    assert ok


def test_check_gdpinf_randomized_laws():
    # bounded laws sampled from a small family; the floor must never be
    # violated beyond the confidence band
    rng_master = np.random.default_rng(0)
    for trial in range(20):
        kind = trial % 3
        scale = rng_master.uniform(0.2, 1.0)

        def law(rng, size, kind=kind, scale=scale):
            if kind == 0:
                return rng.uniform(-scale, scale, size)
            if kind == 1:
                return rng.choice([-scale, 0.0, scale], size)
            return scale * np.sin(rng.uniform(0, 2 * np.pi, size))

        ok, margin, _ = oracle.check_gdpinf(scale, 1.5, law, 60_000,
                                            seed=100 + trial)
        assert ok, f"law {trial} violated the floor by {margin}"


def test_check_gdpinf_rejects_unbounded_law():
    with pytest.raises(DomainError):
        oracle.check_gdpinf(0.5, 1.0, lambda rng, size: np.full(size, 1.0),
                            1000, seed=0)


def test_brute_force_schedule_small_cases():
    val, lam = oracle.brute_force_schedule(0.5, 1.0, 1)
    assert val == 1.0
    val2, lam2 = oracle.brute_force_schedule(0.5, 1.0, 2, restarts=20)
    assert val2 == pytest.approx(1.8, abs=1e-9)
    assert lam2[-1] == 1.0
    with pytest.raises(DomainError):
        oracle.brute_force_schedule(0.5, 1.0, 13)


@pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
def test_brute_force_matches_closed_form(c):
    from fdp_accountant.schedule import optimal_sc_schedule
    for t in (3, 6):
        val, _ = oracle.brute_force_schedule(c, 1.0, t, restarts=30, seed=1)
        _, closed = optimal_sc_schedule(c, 1.0, t)
        assert val == pytest.approx(closed, rel=1e-6)


def test_multivariate_simulation_and_estimation():
    spec = oracle.SimSpec(dimension=3, m=1.0, eta=0.1, sigma=1.0, L=0.5,
                          steps=25, trials=120_000, seed=4)
    xp, xq = oracle.simulate(spec)
    assert xp.shape == (120_000, 3)
    # the perturbation lives on the first axis; it is a sufficient statistic
    emp = oracle.empirical_tradeoff(xp, xq, method="exact-lr",
                                    loglr=lambda s: s[:, 0], alphas=GRID)
    mu = oracle.worst_case_gd_sc_mu(0.9, 0.1 * 0.5, 0.1 * 1.0, 25)
    assert np.max(np.abs(emp.values - tc.gdp_eval(mu, GRID))) <= emp.ci_halfwidth
    with pytest.raises(DomainError):
        oracle.empirical_tradeoff(xp, xq, method="histogram-lr")
    with pytest.raises(DomainError):
        oracle.empirical_tradeoff(xp, xq, method="exact-lr")
    # ball projection keeps iterates inside the constraint set
    proj = oracle.SimSpec(dimension=2, m=0.0, eta=0.1, sigma=2.0, L=0.5,
                          steps=20, trials=5_000, seed=4, diameter=1.0)
    yp, yq = oracle.simulate(proj)
    assert np.max(np.linalg.norm(yp, axis=1)) <= 0.5 + 1e-12
    assert np.max(np.linalg.norm(yq, axis=1)) <= 0.5 + 1e-12
