import dataclasses
import math
import os

import numpy as np
import pytest

from fdp_accountant import accountant as acc
from fdp_accountant import oracle
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError
from oracles import VerificationError, optimal_schedule_qp

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
    monkeypatch.setattr(oracle, "_CHUNK", 700)   # four chunks, four streams
    spec = oracle.SimSpec(kind="sgd", n=8, b=2, steps=12, trials=1500, seed=7)
    x1, y1 = oracle.simulate(spec)
    x2, y2 = oracle.simulate(spec)
    assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
    x3, _ = oracle.simulate(dataclasses.replace(spec, seed=8))
    assert x3.tobytes() != x1.tobytes()


def _chunk_sizes(trials: int) -> list:
    return np.diff(oracle._chunk_edges(trials)).tolist()


@pytest.mark.parametrize("trials,sizes", [
    (40_000, [10_000] * 4),
    (200_000, [14_286] * 10 + [14_285] * 4),
    (32_768, [16_384] * 2),
    (32_769, [8_193] + [8_192] * 3),
    (20_000, [10_000] * 2),   # below two chunks' worth: two equal halves
    (3, [2, 1]),
    (1, [1]),                 # one trial: one chunk, none empty
])
def test_chunk_layout(trials, sizes):
    assert oracle._CHUNK == 16_384
    assert _chunk_sizes(trials) == sizes


@pytest.mark.parametrize("trials", [*range(1, 40), 16_383, 16_385, 65_537,
                                    10 ** 6, oracle.MAX_TRIALS])
def test_chunks_are_even_in_count_equal_and_never_empty(trials):
    sizes = _chunk_sizes(trials)
    assert sum(sizes) == trials
    assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1
    assert max(sizes) <= oracle._CHUNK
    # the fewest chunks, rounded up to an even count unless a trial short
    fewest = -(-trials // oracle._CHUNK)
    assert len(sizes) == min(fewest + fewest % 2, trials)


def _expression_simulate(spec: oracle.SimSpec):
    """simulate with each step as a fresh expression, c x - s z, for each
    process on its own: one SFC64 stream per chunk, whose draws are (for
    sgd) the inclusions, then one z that both x and y take, then a clip
    onto the interval. The chunks are np.array_split's equal parts, their
    count the fewest of at most _CHUNK trials rounded up to an even number,
    and at most the trial count. The threaded in-place loop on the stacked
    pair must reproduce it bit for bit."""
    count = -(-spec.trials // oracle._CHUNK)
    count = min(count + count % 2, spec.trials)
    parts = np.array_split(np.arange(spec.trials), count)
    seeds = np.random.SeedSequence(spec.seed).spawn(count)
    xs, ys = [], []
    for part, seed in zip(parts, seeds):
        n = part.size
        rng = np.random.Generator(np.random.SFC64(seed))
        c, s = 1.0 - spec.eta * spec.m, spec.eta * spec.sigma
        drifts = oracle._drifts(spec)
        half = spec.diameter / 2.0
        x, y = np.zeros(n), np.zeros(n)
        for k in range(spec.steps):
            if spec.kind == "sgd":
                inc = rng.random(n) < spec.b / spec.n
                drift = np.where(inc, spec.eta * spec.L / spec.b, 0.0)
            else:
                drift = spec.eta * drifts[k]
            z = rng.standard_normal(n)
            x = c * x - s * z
            y = c * y - s * z + drift
            if math.isfinite(spec.diameter):
                x, y = np.clip(x, -half, half), np.clip(y, -half, half)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _mixed_spec(**kw):
    return oracle.SimSpec(**{**dict(m=0.5, eta=0.1, sigma=2.0, L=1.0, n=8, b=2,
                                    steps=25, trials=1500, seed=11),
                             **kw})


@pytest.mark.parametrize("diameter", [math.inf, 1.5])
@pytest.mark.parametrize("kind", ["gd", "sgd"])
def test_simulate_in_place_matches_the_expression_form(monkeypatch, kind,
                                                       diameter):
    monkeypatch.setattr(oracle, "_CHUNK", 700)   # four chunks of 375
    spec = _mixed_spec(kind=kind, diameter=diameter)
    x, y = oracle.simulate(spec)
    want_x, want_y = _expression_simulate(spec)
    assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


def test_simulate_matches_the_expression_form_on_unequal_chunks(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 700)   # four chunks of 376 and 375
    spec = _mixed_spec(kind="sgd", diameter=1.5, trials=1502)
    x, y = oracle.simulate(spec)
    want_x, want_y = _expression_simulate(spec)
    assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("cpus", [1, None, 64])
def test_simulate_does_not_depend_on_the_worker_count(monkeypatch, cpus):
    monkeypatch.setattr(oracle, "_CHUNK", 700)
    spec = _mixed_spec(kind="sgd", diameter=1.5)
    x, y = oracle.simulate(spec)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    x1, y1 = oracle.simulate(spec)
    assert x1.tobytes() == x.tobytes() and y1.tobytes() == y.tobytes()


@pytest.mark.parametrize("cpus", [1, 64])
def test_simulate_at_the_real_chunk_does_not_depend_on_the_core_count(
        monkeypatch, cpus):
    # 40,000 trials: four chunks of 10,000 at _CHUNK = 16,384.
    spec = _mixed_spec(kind="sgd", diameter=1.5, steps=4, trials=40_000)
    x, y = oracle.simulate(spec)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    x1, y1 = oracle.simulate(spec)
    assert x1.tobytes() == x.tobytes() and y1.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ["gd", "sgd"])
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
    ("n", 0), ("n", -4), ("n", 2.0), ("b", 0), ("b", -2),
    ("trials", 0), ("trials", 1.5), ("trials", True),
    ("trials", oracle.MAX_TRIALS + 1), ("steps", 0),
    ("steps", 2.5),
])
def test_simspec_rejects_bad_numbers(field, value):
    with pytest.raises(DomainError):
        oracle.SimSpec(**{field: value})


@pytest.mark.parametrize("counts", [
    dict(b=0), dict(n=-4, b=-2), dict(n=4.0, b=2), dict(n=3, b=10),
], ids=["sgd-b0", "sgd-n-4-b-2", "sgd-n-float", "sgd-b-above-n"])
def test_simspec_rejects_bad_batch_counts(counts):
    # Before the integer checks these divided by zero, or (n=-4, b=-2) ran
    # with an inclusion probability of 0.5; no batch of b > n can be drawn.
    with pytest.raises(DomainError):
        oracle.SimSpec(kind="sgd", **counts)


def test_coupled_pair_differs_by_the_drift():
    # Both processes take the same noise, so without projection y - x is
    # the drift alone: sum over k of c^(t-k) eta L / n.
    spec = _mixed_spec(kind="gd", trials=3000)
    x, y = oracle.simulate(spec)
    c = 1.0 - spec.eta * spec.m
    k = np.arange(1, spec.steps + 1)
    gap = float(np.sum(c ** (spec.steps - k) * spec.eta * spec.L / spec.n))
    assert gap > 0.1
    assert np.max(np.abs((y - x) - gap)) <= 1e-12


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
    sub = oracle.SimSpec(kind="sgd", n=10, b=2, steps=8, trials=1000, seed=0)
    xp, xq = oracle.simulate(sub)
    assert xp.shape == (1000,)
    assert np.isfinite(xp).all() and np.isfinite(xq).all()
    # Cyclic batches have no simulation: their bounds' oracle is the QP.
    with pytest.raises(DomainError, match="kind must be gd or sgd"):
        oracle.SimSpec(kind="cgd", n=4, b=2)


def test_sgd_batches_need_not_divide_n():
    # Uniform batches of b = 3 from n = 10: each step includes the perturbed
    # index w.p. 0.3 and then shifts it by eta L / b, so without projection
    # y - x = sum_k c^(t-k) (eta L / b) I_k, I_k ~ Bernoulli(b / n).
    spec = oracle.SimSpec(kind="sgd", m=0.5, eta=0.1, L=1.0, n=10, b=3,
                          steps=20, trials=20_000, seed=2)
    x, y = oracle.simulate(spec)
    assert x.shape == y.shape == (20_000,)
    c, p = 1.0 - spec.eta * spec.m, spec.b / spec.n
    weights = c ** (spec.steps - np.arange(1, spec.steps + 1))
    mean = spec.eta * spec.L / spec.n * weights.sum()
    sd = spec.eta * spec.L / spec.b * math.sqrt(p * (1 - p) * (weights ** 2).sum())
    assert float(np.mean(y - x)) == pytest.approx(
        mean, abs=6 * sd / math.sqrt(spec.trials))
    assert float(np.var(y - x)) == pytest.approx(sd * sd, rel=0.05)


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


@pytest.mark.parametrize("method", ["exact-lr", "histogram-lr"])
@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_empirical_tradeoff_rejects_alphas_outside_the_unit_interval(method, bad):
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(1000), rng.standard_normal(1000) + 1.0
    with pytest.raises(DomainError):
        oracle.empirical_tradeoff(a, b, method=method, alphas=[0.5, bad])


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


@pytest.mark.parametrize("s,sigma", [(1.0, 2.0), (0.3, 1.5), (2.0, 1.0)])
def test_check_gdpinf_margin_matches_the_array_reference(s, sigma):
    # The reference curve is evaluated at float alphas, on the standard
    # library; against scipy.special's array path the margin moves by at
    # most a few ulps.
    law = lambda rng, size: rng.uniform(-s, s, size)
    _, margin, emp = oracle.check_gdpinf(s, sigma, law, 20_000, seed=3,
                                         alphas=GRID)
    array_margin = oracle.curve_margin(emp, tc.gdp_eval(s / sigma, emp.alphas))
    assert abs(margin - array_margin) <= 1e-15


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


@pytest.mark.parametrize("s,sigma", [
    (1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
    (-1.0, 1.0), (1.0, 0.0),
])
def test_check_gdpinf_rejects_nonfinite_parameters(s, sigma):
    with pytest.raises(DomainError):
        oracle.check_gdpinf(s, sigma, lambda rng, size: np.zeros(size), 1000)


@pytest.mark.parametrize("call, message", [
    (lambda: oracle.dkw_halfwidth(0), "need at least one sample"),
    (lambda: oracle.worst_case_gd_sc_mu(0.0, 1.0, 1.0, 1), "need 0 < c < 1"),
    (lambda: oracle.worst_case_gd_sc_mu(1.0, 1.0, 1.0, 1), "need 0 < c < 1"),
    (lambda: oracle.worst_case_gd_sc_mu(0.5, -1.0, 1.0, 1),
     "need s >= 0, sigma > 0, t >= 1"),
    (lambda: oracle.worst_case_gd_sc_mu(0.5, 1.0, 0.0, 1),
     "need s >= 0, sigma > 0, t >= 1"),
    (lambda: oracle.worst_case_gd_sc_mu(0.5, 1.0, 1.0, 0),
     "need s >= 0, sigma > 0, t >= 1"),
    (lambda: oracle.check_gdpinf(1.0, 1.0, lambda rng, size: np.zeros(size), 1),
     "n_trials >= 2"),
], ids=["dkw-n", "worst-c-0", "worst-c-1", "worst-s", "worst-sigma",
        "worst-t", "gdpinf-trials"])
def test_domain_gaps_raise(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_check_gdpinf_refuses_too_many_trials_before_drawing():
    def law(rng, size):
        raise AssertionError("w_law ran")
    with pytest.raises(DomainError, match="trials exceeds the limit"):
        oracle.check_gdpinf(1.0, 2.0, law, oracle.MAX_TRIALS + 1)


def test_check_gdpinf_rejects_unbounded_law():
    with pytest.raises(DomainError):
        oracle.check_gdpinf(0.5, 1.0, lambda rng, size: np.full(size, 1.0),
                            1000, seed=0)


def test_optimal_schedule_qp_small_cases(monkeypatch):
    # one step: the whole residual c z_tau + s_1 is shifted at once
    val, a = optimal_schedule_qp(0.5, [1.0], z_tau=2.0)
    assert val == pytest.approx(4.0, rel=1e-12) and a == pytest.approx([2.0])
    # two steps at c = 1/2: (1 - c^2)/(1 + c^2) (1 + c)/(1 - c) = 1.8
    val, a = optimal_schedule_qp(0.5, [1.0, 1.0])
    assert val == pytest.approx(1.8, rel=1e-12)
    assert a == pytest.approx([0.6, 1.2], abs=1e-9)
    # no sensitivity at all: nothing to shift
    val, a = optimal_schedule_qp(0.9, [0.0, 0.0, 0.0])
    assert val == 0.0 and np.all(a == 0.0)
    for c, s_seq, z_tau in ((0.5, [], 0.0), (-0.1, [1.0], 0.0),
                            (0.5, [1.0, -1.0], 0.0), (1.0, [1.0], -1.0)):
        with pytest.raises(DomainError):
            optimal_schedule_qp(c, s_seq, z_tau=z_tau)
    from scipy import optimize
    failed = optimize.OptimizeResult(success=False, message="stub", x=np.ones(2))
    monkeypatch.setattr(optimize, "minimize", lambda *args, **kw: failed)
    with pytest.raises(VerificationError):
        optimal_schedule_qp(0.5, [1.0, 1.0])


@pytest.mark.parametrize("c", [0.2, 0.5, 0.8])
def test_optimal_schedule_qp_matches_closed_form(c):
    # closed form of the contractive optimum, written out independently of
    # schedule.optimal_sc_schedule: a_k = c^{t-k} (1+c) s / (1+c^t)
    s = 0.7
    for t in (1, 3, 6, 40):
        val, a = optimal_schedule_qp(c, np.full(t, s))
        k = np.arange(1, t + 1)
        want = c ** (t - k) * (1 + c) * s / (1 + c ** t)
        assert val == pytest.approx(float(want @ want), rel=1e-9)
        assert np.max(np.abs(a - want)) <= 1e-6 * s
    # projected (c = 1) window of 8 steps from z_tau = D: shifts s + D/8
    D = 2.0 * c
    val, a = optimal_schedule_qp(1.0, np.full(8, s), z_tau=D)
    assert val == pytest.approx(8 * (s + D / 8) ** 2, rel=1e-9)
    assert np.max(np.abs(a - (s + D / 8))) <= 1e-6 * s
