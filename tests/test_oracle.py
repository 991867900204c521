import dataclasses
import math
import os

import numpy as np
import pytest

from fdp_accountant import accountant as acc
from fdp_accountant import oracle
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError, VerificationError

GRID = np.linspace(0.05, 0.95, 19)


def test_worst_case_matches_bound_formula():
    p = acc.AlgoParams(kind="gd", eta=0.1, sigma=10.0, n=1, L=1.0, steps=50,
                       m=1.0, M=1.0)
    assert oracle.worst_case_gd_sc_mu(0.9, 1.0, 10.0, 50) == pytest.approx(
        acc.bound_gd_sc(p), abs=1e-14)
    assert oracle.worst_case_gd_sc_mu(0.5, 1.0, 2.0, 1) == pytest.approx(0.5)
    assert oracle.worst_case_gd_sc_mu(0.92, 0.1, 1.0, 10) == pytest.approx(
        0.308, abs=5e-4)


def test_simulate_is_deterministic(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 700)   # three chunks, six streams
    spec = oracle.SimSpec(kind="sgd", n=8, b=2, steps=12, trials=1500, seed=7)
    x1, y1 = oracle.simulate(spec)
    x2, y2 = oracle.simulate(spec)
    assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
    x3, _ = oracle.simulate(dataclasses.replace(spec, seed=8))
    assert x3.tobytes() != x1.tobytes()


def _expression_simulate(spec: oracle.SimSpec):
    """simulate with each step as a fresh expression, c x - s z, and each
    process drawn from its own stream: x from the chunk's child 0, y (with
    its sgd inclusions) from child 1. The threaded in-place loop must
    reproduce it bit for bit."""
    n_chunks = (spec.trials + oracle._CHUNK - 1) // oracle._CHUNK
    seeds = np.random.SeedSequence(spec.seed).spawn(n_chunks)
    xs, ys = [], []
    for i, seed in enumerate(seeds):
        n = min(oracle._CHUNK, spec.trials - i * oracle._CHUNK)
        rng_x, rng_y = (np.random.default_rng(child) for child in seed.spawn(2))
        c, s = 1.0 - spec.eta * spec.m, spec.eta * spec.sigma
        drifts = oracle._drifts(spec)
        shape = (n,) if spec.dimension == 1 else (n, spec.dimension)
        x, y = np.zeros(shape), np.zeros(shape)
        for k in range(spec.steps):
            if spec.kind == "sgd":
                inc = rng_y.random(n) < spec.b / spec.n
                drift = np.where(inc, spec.eta * spec.L / spec.b, 0.0)
            else:
                drift = spec.eta * drifts[k]
            x = c * x - s * rng_x.standard_normal(shape)
            y = c * y - s * rng_y.standard_normal(shape)
            if spec.dimension == 1:
                y += drift
            else:
                y[:, 0] += drift
            if math.isfinite(spec.diameter):
                oracle._project_ball(x, spec.diameter / 2.0)
                oracle._project_ball(y, spec.diameter / 2.0)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _mixed_spec(**kw):
    return oracle.SimSpec(**{**dict(m=0.5, eta=0.1, sigma=2.0, L=1.0, n=8, b=2,
                                    j_star=3, steps=25, trials=1500, seed=11),
                             **kw})


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("diameter", [math.inf, 1.5])
@pytest.mark.parametrize("kind", ["gd", "cgd", "sgd"])
def test_simulate_in_place_matches_the_expression_form(monkeypatch, kind,
                                                       diameter, dimension):
    monkeypatch.setattr(oracle, "_CHUNK", 700)   # three chunks, one partial
    spec = _mixed_spec(kind=kind, dimension=dimension, diameter=diameter)
    x, y = oracle.simulate(spec)
    want_x, want_y = _expression_simulate(spec)
    assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("cpus", [1, None, 64])
def test_simulate_does_not_depend_on_the_worker_count(monkeypatch, cpus):
    monkeypatch.setattr(oracle, "_CHUNK", 700)
    spec = _mixed_spec(kind="sgd", dimension=2, diameter=1.5)
    x, y = oracle.simulate(spec)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    x1, y1 = oracle.simulate(spec)
    assert x1.tobytes() == x.tobytes() and y1.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ["gd", "cgd", "sgd"])
def test_simulate_baseline_does_not_read_L(monkeypatch, kind):
    monkeypatch.setattr(oracle, "_CHUNK", 700)
    spec = _mixed_spec(kind=kind, diameter=1.5)
    x, y = oracle.simulate(spec)
    x2, y2 = oracle.simulate(dataclasses.replace(spec, L=3.0))
    assert x2.tobytes() == x.tobytes()
    assert y2.tobytes() != y.tobytes()


@pytest.mark.parametrize("field,value", [
    ("eta", math.nan), ("eta", math.inf), ("eta", -0.1),
    ("sigma", math.nan), ("sigma", math.inf), ("sigma", -1.0),
    ("m", math.nan), ("m", -math.inf),
    ("L", math.nan), ("L", math.inf), ("L", -1.0),
    ("diameter", math.nan), ("diameter", 0.0), ("diameter", -1.0),
])
def test_simspec_rejects_bad_numbers(field, value):
    with pytest.raises(DomainError):
        oracle.SimSpec(**{field: value})


def test_simulate_projects_a_zero_row_without_dividing_by_it():
    # Both processes stay at the origin, whose norm is 0: projecting onto
    # the ball must leave it there without a divide-by-zero warning.
    spec = oracle.SimSpec(kind="gd", dimension=2, sigma=0.0, L=0.0,
                          diameter=1.0, trials=50)
    x, y = oracle.simulate(spec)
    assert not x.any() and not y.any()


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


def test_optimal_schedule_qp_small_cases(monkeypatch):
    # one step: the whole residual c z_tau + s_1 is shifted at once
    val, a = oracle.optimal_schedule_qp(0.5, [1.0], z_tau=2.0)
    assert val == pytest.approx(4.0, rel=1e-12) and a == pytest.approx([2.0])
    # two steps at c = 1/2: (1 - c^2)/(1 + c^2) (1 + c)/(1 - c) = 1.8
    val, a = oracle.optimal_schedule_qp(0.5, [1.0, 1.0])
    assert val == pytest.approx(1.8, rel=1e-12)
    assert a == pytest.approx([0.6, 1.2], abs=1e-9)
    # no sensitivity at all: nothing to shift
    val, a = oracle.optimal_schedule_qp(0.9, [0.0, 0.0, 0.0])
    assert val == 0.0 and np.all(a == 0.0)
    for c, s_seq, z_tau in ((0.5, [], 0.0), (-0.1, [1.0], 0.0),
                            (0.5, [1.0, -1.0], 0.0), (1.0, [1.0], -1.0)):
        with pytest.raises(DomainError):
            oracle.optimal_schedule_qp(c, s_seq, z_tau=z_tau)
    from scipy import optimize
    failed = optimize.OptimizeResult(success=False, message="stub", x=np.ones(2))
    monkeypatch.setattr(optimize, "minimize", lambda *args, **kw: failed)
    with pytest.raises(VerificationError):
        oracle.optimal_schedule_qp(0.5, [1.0, 1.0])


@pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
def test_optimal_schedule_qp_matches_closed_form(c):
    # closed form of the contractive optimum, written out independently of
    # schedule.optimal_sc_schedule: a_k = c^{t-k} (1+c) s / (1+c^t)
    s = 0.7
    for t in (1, 3, 6, 40):
        val, a = oracle.optimal_schedule_qp(c, np.full(t, s))
        k = np.arange(1, t + 1)
        want = c ** (t - k) * (1 + c) * s / (1 + c ** t)
        assert val == pytest.approx(float(want @ want), rel=1e-9)
        assert np.max(np.abs(a - want)) <= 1e-6 * s
    # projected (c = 1) window of 8 steps from z_tau = D: shifts s + D/8
    D = 2.0 * c
    val, a = oracle.optimal_schedule_qp(1.0, np.full(8, s), z_tau=D)
    assert val == pytest.approx(8 * (s + D / 8) ** 2, rel=1e-9)
    assert np.max(np.abs(a - (s + D / 8))) <= 1e-6 * s


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
