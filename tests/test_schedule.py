import math

import numpy as np
import pytest

from fdp_accountant.errors import DomainError
import schedule as sch


def test_recursion_hand_example():
    # c=0.9, s=1, lambda=0: z accumulates as 0, 1, 1.9, 2.71
    s = sch.recurse_schedule(0.9, 1.0, [0.0, 0.0, 0.0])
    assert np.allclose(s.z, [0.0, 1.0, 1.9, 2.71], atol=1e-15)
    assert np.all(s.a == 0.0)
    assert not s.is_terminal()


def test_recursion_full_shift():
    s = sch.recurse_schedule(0.5, 1.0, [1.0] * 4)
    assert np.all(s.a == 1.0)
    assert np.all(s.z == 0.0)
    assert s.is_terminal()


@pytest.mark.parametrize("seed", range(5))
def test_terminal_lambda_forces_zero(seed):
    rng = np.random.default_rng(seed)
    lam = rng.random(6)
    lam[-1] = 1.0
    s = sch.recurse_schedule(0.8, rng.random(6), lam, z_tau=0.0)
    assert s.z_final == 0.0


def test_recursion_domain_errors():
    with pytest.raises(DomainError):
        sch.recurse_schedule(0.5, 1.0, [1.5])
    with pytest.raises(DomainError):
        sch.recurse_schedule(-0.1, 1.0, [0.5])
    with pytest.raises(DomainError):
        sch.recurse_schedule(0.5, -1.0, [0.5])


def test_optimal_sc_base_cases():
    _, ss1 = sch.optimal_sc_schedule(0.5, 1.0, 1)
    assert ss1 == pytest.approx(1.0, rel=1e-15)
    _, ss2 = sch.optimal_sc_schedule(0.5, 1.0, 2)
    # brute 1-d scan over the single free shift
    lam = np.linspace(0.0, 1.0, 100001)
    obj = lam ** 2 + (0.5 * (1 - lam) + 1.0) ** 2
    assert ss2 == pytest.approx(float(obj.min()), abs=1e-9)
    assert ss2 == pytest.approx(1.8, rel=1e-12)


@pytest.mark.parametrize("c,t", [(0.92, 10), (0.99, 100), (0.3, 7), (0.995, 400)])
def test_optimal_sc_replay(c, t):
    s, ssq = sch.optimal_sc_schedule(c, 0.1, t)
    assert s.is_terminal()
    assert ssq == pytest.approx(s.sum_sq, rel=1e-12)
    r = s.replay()
    assert np.allclose(r.a, s.a, rtol=1e-12, atol=0)
    assert np.allclose(r.z, s.z, rtol=1e-12, atol=1e-15)


def test_optimal_sc_monotone_and_limit():
    c, s_val = 0.9, 0.7
    prev = 0.0
    for t in (1, 2, 4, 8, 16, 64, 256):
        _, ssq = sch.optimal_sc_schedule(c, s_val, t)
        assert ssq >= prev - 1e-12
        prev = ssq
    limit = (1 + c) / (1 - c) * s_val ** 2
    _, tail = sch.optimal_sc_schedule(c, s_val, 2000)
    assert tail == pytest.approx(limit, rel=1e-9)


def test_optimal_sc_domain():
    with pytest.raises(DomainError):
        sch.optimal_sc_schedule(1.0, 1.0, 5)
    with pytest.raises(DomainError):
        sch.optimal_sc_schedule(0.5, 0.0, 5)
    with pytest.raises(DomainError):
        sch.optimal_sc_schedule(0.5, 1.0, 0)


def test_optimal_proj_values():
    s, ssq, mini = sch.optimal_proj_schedule(1.0, 4.0, 10, 6)
    assert ssq == pytest.approx(16.0, rel=1e-15)
    assert mini == 4.0
    assert s.is_terminal()
    # minimal over integer window lengths
    grid = [(w, (1.0 + 4.0 / w) ** 2 * w) for w in range(1, 13)]
    assert min(v for _, v in grid) == pytest.approx(16.0)

    s0, ssq0, _ = sch.optimal_proj_schedule(1.0, 0.0, 5, 2)
    assert np.all(s0.a == 1.0)
    assert ssq0 == pytest.approx(3.0)

    _, ssq1, _ = sch.optimal_proj_schedule(1.0, 4.0, 3, 2)
    assert ssq1 == pytest.approx(25.0)  # one step: (s + D)^2


def test_optimal_proj_unimodal():
    s_val, D = 0.7, 5.3
    vals = [(w, (s_val + D / w) ** 2 * w) for w in range(1, 40)]
    best_w = min(vals, key=lambda p: p[1])[0]
    assert best_w in (math.floor(D / s_val), math.ceil(D / s_val))
    diffs = np.sign(np.diff([v for _, v in vals]))
    # decreasing then increasing
    assert np.all(np.diff(diffs) >= 0)


def test_cgd_sc_schedule():
    # E = 1 leaves no tail to shift: total reduces to the single-factor bound
    _, ssq = sch.cgd_sc_schedule(0.9, 1.0, 5, 1, 2)
    assert ssq == 0.0

    s, ssq = sch.cgd_sc_schedule(0.5, 1.0, 2, 2, 1)
    assert s.is_terminal()
    assert ssq == pytest.approx(0.2, rel=1e-12)
    r = s.replay()
    assert np.allclose(r.z, s.z, atol=1e-12)

    # closed-form total for a grid of parameters
    for c in (0.9, 0.98):
        for l in (2, 5, 10):
            for E in (2, 3, 6):
                _, got = sch.cgd_sc_schedule(c, 1.0, l, E, max(1, l // 2))
                q = c ** (l * (E - 1))
                want = (c ** (2 * l - 2) * (1 - c * c) / (1 - c ** l) ** 2
                        * (1 - q) / (1 + q))
                assert got == pytest.approx(want, rel=1e-12)


def test_cgd_sc_independent_of_jstar():
    vals = [sch.cgd_sc_schedule(0.95, 1.0, 4, 3, j)[1] for j in (1, 2, 3, 4)]
    assert np.allclose(vals, vals[0], rtol=1e-12)


def test_cgd_proj_schedule():
    s, ssq = sch.cgd_proj_schedule(1.0, 1.0, 2, 3, 1, 1)
    assert s.is_terminal()
    assert np.min(s.z) >= 0.0
    assert ssq == pytest.approx((1.0 + 2.0) ** 2 / 4.0, rel=1e-12)

    # l = 1 reduces to the plain projected schedule
    _, ssq1 = sch.cgd_proj_schedule(1.0, 4.0, 1, 10, 6, 1)
    _, ssq2, _ = sch.optimal_proj_schedule(1.0, 4.0, 10, 6)
    assert ssq1 == pytest.approx(ssq2, rel=1e-15)

    # zero diameter spreads s over the l steps of each cycle
    s0, _ = sch.cgd_proj_schedule(1.0, 0.0, 4, 3, 1, 2)
    assert np.allclose(s0.a, 0.25)

    with pytest.raises(DomainError):
        sch.cgd_proj_schedule(1.0, 1.0, 2, 3, 3, 1)  # tau > E - 1


def test_cgd_proj_feasible_small_diameter():
    # feasible even when D << s thanks to cycle-aligned windows
    s, ssq = sch.cgd_proj_schedule(1.0, 0.05, 10, 30, 5, 7)
    assert s.is_terminal() and np.min(s.z) >= 0.0
    assert ssq == pytest.approx((0.05 + 25.0) ** 2 / 250.0, rel=1e-12)


def test_meta_mu():
    s = sch.recurse_schedule(0.0, [3.0, 4.0], [1.0, 1.0])
    assert sch.meta_mu(s, 1.0) == pytest.approx(5.0, rel=1e-15)
    zero = sch.recurse_schedule(0.5, 0.0, [1.0, 1.0], z_tau=0.0)
    assert sch.meta_mu(zero, 2.0) == 0.0
    with pytest.raises(DomainError):
        sch.meta_mu(s, 0.0)
    open_ended = sch.recurse_schedule(0.9, 1.0, [0.0, 0.0])
    with pytest.raises(DomainError):
        sch.meta_mu(open_ended, 1.0)


def test_meta_mu_reference_values():
    s, _ = sch.optimal_sc_schedule(0.92, 0.1, 10)
    assert sch.meta_mu(s, 1.0) == pytest.approx(0.308, abs=5e-4)
    s, _ = sch.optimal_sc_schedule(0.99, 0.1, 100)
    assert sch.meta_mu(s, 1.0) == pytest.approx(0.961, abs=5e-4)



def test_proj_lambdas_match_their_closed_form():
    s_val, D, t, tau = 0.7, 5.3, 40, 12
    s, _, _ = sch.optimal_proj_schedule(s_val, D, t, tau)
    r = D / (t - tau)
    k = np.arange(tau + 1, t + 1, dtype=float)
    closed = (s_val + r) / (s_val + r * (t - k + 1.0))
    assert np.all(np.abs(s.lambdas - closed) <= np.spacing(closed))


@pytest.mark.parametrize("build", [
    lambda: sch.optimal_sc_schedule(0.995, 0.1, 400)[0],
    lambda: sch.optimal_sc_schedule(0.3, 1.0, 7)[0],
    lambda: sch.optimal_proj_schedule(1.0, 4.0, 10, 6)[0],
    lambda: sch.cgd_sc_schedule(0.95, 1.0, 4, 3, 2)[0],
    lambda: sch.cgd_proj_schedule(1.0, 0.05, 10, 30, 5, 7)[0],
], ids=["sc", "sc-short", "proj", "cgd-sc", "cgd-proj"])
def test_terminal_schedules_end_with_lambda_1(build):
    s = build()
    assert s.is_terminal()
    assert s.lambdas[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all((s.lambdas >= 0.0) & (s.lambdas <= 1.0))


@pytest.mark.parametrize("build,tau,t", [
    (lambda: sch.optimal_sc_schedule(0.9, 1.0, 25)[0], 0, 25),
    (lambda: sch.optimal_proj_schedule(1.0, 4.0, 10, 6)[0], 6, 10),
    # t* = lE + j* - l - 1 and tau* = j* + l(tau - 1) - 1
    (lambda: sch.cgd_sc_schedule(0.95, 1.0, 4, 3, 2)[0], 0, 9),
    (lambda: sch.cgd_proj_schedule(1.0, 0.05, 10, 30, 5, 7)[0], 46, 296),
], ids=["sc", "proj", "cgd-sc", "cgd-proj"])
def test_horizon_is_tau_plus_the_shift_count(build, tau, t):
    s = build()
    assert (s.tau, s.t) == (tau, t)
    assert s.t == s.tau + s.a.size == s.tau + s.z.size - 1
