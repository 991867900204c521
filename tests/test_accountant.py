import json
import math

import numpy as np
import pytest

from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import prv
from fdp_accountant.errors import DomainError


def gd(c, t, leff=0.1):
    return acc.AlgoParams(kind="gd", eta=1.0 - c, sigma=1.0, n=1, L=leff,
                          steps=t, m=1.0, M=1.0)


def cgd(c, l, E, lbs=0.2):
    return acc.AlgoParams(kind="cgd", eta=1.0 - c, sigma=1.0, n=l, b=1,
                          L=lbs, epochs=E, m=1.0, M=1.0)


# -- parameter plumbing -------------------------------------------------------


def test_params_validation():
    with pytest.raises(DomainError):
        acc.AlgoParams(kind="bad", eta=0.1, sigma=1.0, n=10, L=1.0)
    with pytest.raises(DomainError):
        acc.AlgoParams(kind="gd", eta=0.1, sigma=0.0, n=10, L=1.0)
    with pytest.raises(DomainError):
        acc.AlgoParams(kind="cgd", eta=0.1, sigma=1.0, n=10, b=3, L=1.0, epochs=2)
    p = acc.AlgoParams(kind="cgd", eta=0.1, sigma=1.0, n=10, b=2, L=1.0, epochs=3)
    assert p.l == 5 and p.t == 15
    with pytest.raises(DomainError):
        acc.AlgoParams(kind="cgd", eta=0.1, sigma=1.0, n=10, b=2, L=1.0,
                       epochs=3, steps=14)


def test_params_json_round_trip():
    p = acc.AlgoParams(kind="sgd", eta=0.05, sigma=2.0, n=1000, b=50, L=4.0,
                       steps=200, m=1.0, M=10.0)
    doc = json.loads(p.to_json())
    assert set(doc) == {"kind", "eta", "sigma", "n", "b", "epochs", "steps",
                        "L", "m", "M", "D", "constrained"}
    assert doc["D"] is None  # infinity encodes as null
    assert acc.AlgoParams.from_dict(doc) == p
    with pytest.raises(DomainError):
        acc.AlgoParams.from_dict({"kind": "gd", "nope": 1})


def test_contraction_requires_caller_not_to_supply_c():
    p = gd(0.92, 10)
    assert p.contraction() == pytest.approx(0.92, abs=1e-15)
    assert not hasattr(p, "c")


# -- full batch ---------------------------------------------------------------


def test_bound_gd_composition():
    assert acc.bound_gd_composition(gd(0.9, 100)) == pytest.approx(1.0, rel=1e-12)
    assert acc.bound_gd_composition(gd(0.9, 1)) == pytest.approx(0.1, rel=1e-15)
    assert acc.bound_gd_composition(gd(0.9, 7, leff=0.0)) == 0.0


def test_bound_gd_sc_reference():
    assert acc.bound_gd_sc(gd(0.92, 10)) == pytest.approx(0.308, abs=5e-4)
    assert acc.bound_gd_sc(gd(0.92, 10 ** 6)) == pytest.approx(
        0.1 * math.sqrt(1.92 / 0.08), rel=1e-9)
    assert acc.bound_gd_sc(gd(0.5, 1)) == pytest.approx(0.1, rel=1e-12)


def test_bound_gd_sc_domain():
    p = acc.AlgoParams(kind="gd", eta=0.1, sigma=1.0, n=1, L=0.1, steps=10,
                       m=0.0, M=1.0)
    with pytest.raises(DomainError, match="constrained"):
        acc.bound_gd_sc(p)


def test_bound_gd_sc_monotone_below_composition():
    prev = 0.0
    for t in (1, 2, 5, 20, 100, 1000):
        p = gd(0.95, t)
        mu = acc.bound_gd_sc(p)
        assert mu >= prev - 1e-15
        assert mu <= acc.bound_gd_composition(p) + 1e-12
        prev = mu
    assert acc.bound_gd_sc(gd(0.95, 1)) == pytest.approx(
        acc.bound_gd_composition(gd(0.95, 1)), rel=1e-12)


def proj_gd(Ln, eta, sigma=8.0, D=1.0, t=10 ** 6):
    return acc.AlgoParams(kind="gd", eta=eta, sigma=sigma, n=1, L=Ln, steps=t,
                          M=2.0 / eta, D=D, constrained=True)


def test_bound_gd_proj_reference():
    assert acc.bound_gd_proj(proj_gd(0.5, 0.1)) == pytest.approx(0.559, abs=5e-4)
    assert acc.bound_gd_proj(proj_gd(0.25, 0.2)) == pytest.approx(0.280, abs=5e-4)
    # window form
    mu = acc.bound_gd_proj(proj_gd(0.5, 0.1, t=100), tau=75)
    assert mu == pytest.approx(0.5 * 5 / 8 + 1.0 / (0.1 * 8 * 5), rel=1e-12)
    # degenerate diameter
    assert acc.bound_gd_proj(proj_gd(0.5, 0.1, D=0.0)) == pytest.approx(0.5 / 8)
    with pytest.raises(DomainError):
        acc.bound_gd_proj(proj_gd(0.5, 0.1, t=10))  # below validity threshold


def test_gd_sc_equals_schedule_plus_meta():
    for c in (0.3, 0.92, 0.99):
        for t in (1, 7, 64):
            p = gd(c, t)
            assert acc.bound_gd_sc(p) == pytest.approx(
                acc.gd_sc_mu_via_schedule(p), rel=1e-12)


def test_gd_proj_plateau_equals_schedule_at_integer_ratio():
    # D n / (eta L) = 20 exactly
    p = proj_gd(0.5, 0.1)
    assert acc.bound_gd_proj(p) == pytest.approx(
        acc.gd_proj_mu_via_schedule(p), rel=1e-12)
    # plateau form never undercuts the schedule value
    q = proj_gd(0.37, 0.13)
    assert acc.bound_gd_proj(q) >= acc.gd_proj_mu_via_schedule(q) - 1e-12


# -- cyclic batch -------------------------------------------------------------


def test_bound_cgd_reference():
    assert acc.bound_cgd_composition(cgd(0.98, 10, 5)) == pytest.approx(
        0.2 * math.sqrt(5), rel=1e-12)
    assert acc.bound_cgd_sc(cgd(0.98, 10, 5)) == pytest.approx(0.229, abs=5e-4)
    assert acc.bound_cgd_sc(cgd(0.995, 40, 500)) == pytest.approx(0.219, abs=5e-4)
    assert acc.bound_cgd_sc(cgd(0.9, 10, 1)) == 0.2
    assert acc.bound_cgd_composition(cgd(0.9, 10, 1, lbs=0.0)) == 0.0


def proj_cgd(l, Lb, eta, sigma=3.0, D=1.0, E=10 ** 6):
    return acc.AlgoParams(kind="cgd", eta=eta, sigma=sigma, n=l, b=1, L=Lb,
                          epochs=E, M=2.0 / eta, D=D, constrained=True)


def test_bound_cgd_proj_reference():
    assert acc.bound_cgd_proj(proj_cgd(20, 0.5, 0.02)) == pytest.approx(0.764, abs=5e-4)
    assert acc.bound_cgd_proj(proj_cgd(10, 1.0, 0.04)) == pytest.approx(
        math.sqrt(11.0) / 3.0, rel=1e-12)
    assert acc.bound_cgd_proj(proj_cgd(10, 0.5, 0.04, D=0.0)) == pytest.approx(0.5 / 3)
    with pytest.raises(DomainError):
        acc.bound_cgd_proj(proj_cgd(10, 1.0, 0.04, E=10))


def test_cgd_proj_matches_schedule_total_at_integer_ratio():
    from fdp_accountant.schedule import cgd_proj_schedule
    l, Lb, eta, sigma = 10, 1.0, 0.04, 3.0
    p = proj_cgd(l, Lb, eta, E=100)
    w = acc.ceil_snap(p.D * p.b / (p.eta * p.L))
    s = p.eta * p.L / p.b
    _, ssq = cgd_proj_schedule(s, p.D, l, 100, 100 - w, 1)
    mu_sched = math.sqrt((p.eta * Lb) ** 2 + ssq) / (p.eta * sigma)
    assert acc.bound_cgd_proj(p) == pytest.approx(mu_sched, rel=1e-12)


# -- stochastic batch ---------------------------------------------------------


def sgd(t=100, tau=None, **kw):
    base = dict(kind="sgd", eta=0.05, sigma=5.0, n=1000, b=100, L=10.0,
                steps=t, m=1.0, M=10.0)
    base.update(kw)
    return acc.AlgoParams(**base)


def test_bound_sgd_composition_structure():
    p = sgd(t=1)
    cb = acc.bound_sgd_composition(p)
    assert len(cb.factors) == 1
    f = cb.factors[0]
    assert (f.mu, f.p, f.multiplicity) == (10.0 / (100 * 5.0), 0.1, 1)


def test_bound_sgd_composition_full_batch_collapse():
    # b = n: evaluating the symmetrized-subsampled product matches the
    # Gaussian self-composition
    p = acc.AlgoParams(kind="sgd", eta=0.05, sigma=2.0, n=50, b=50, L=10.0,
                       steps=16, m=1.0, M=10.0)
    cb = acc.bound_sgd_composition(p)
    mu = acc.bound_gd_composition(
        acc.AlgoParams(kind="gd", eta=0.05, sigma=2.0, n=50, L=10.0, steps=16,
                       m=1.0, M=10.0))
    for eps, delta in prv.evaluate_composite(cb, [0.5, 1.0, 2.0]):
        assert delta == pytest.approx(cv.gdp_to_delta(mu, eps), abs=1e-4)


def test_bound_sgd_sc_structure():
    p = sgd(t=100)
    cb = acc.bound_sgd_sc(p, tau=99)
    assert len(cb.factors) == 3
    head, one, tail = cb.factors
    c = p.contraction()
    ratio = p.L / (p.b * p.sigma)
    assert head.mu == pytest.approx(
        2 * math.sqrt(2) * ratio * (c ** 2 - c ** 100) / (1 - c), rel=1e-12)
    assert one.multiplicity == 1 and one.mu == pytest.approx(2 * math.sqrt(2) * ratio)
    assert tail.multiplicity == 1 and tail.mu == pytest.approx(2 * ratio)
    assert acc.bound_sgd_sc(p, tau=0).factors[0].mu == 0.0
    with pytest.raises(DomainError):
        acc.bound_sgd_sc(p, tau=100)


def test_bound_sgd_proj_structure():
    p = sgd(t=100, D=2.0, m=0.0, constrained=True)
    cb = acc.bound_sgd_proj(p, tau=96)
    head, tail = cb.factors
    assert head.mu == pytest.approx(math.sqrt(2) * 2.0 / (0.05 * 5.0 * 2.0), rel=1e-12)
    assert tail.multiplicity == 4
    # D = 0 drops the distance factor
    cb0 = acc.bound_sgd_proj(sgd(t=100, D=0.0, m=0.0, constrained=True), tau=96)
    assert len(cb0.factors) == 1


def test_sweep_tau_reports_pointwise_best():
    p = acc.AlgoParams(kind="sgd", eta=0.02, sigma=4.0, n=400, b=40, L=4.0,
                       steps=60, m=1.0, M=10.0)
    out = acc.sweep_tau(p, [0.5, 1.0], max_candidates=6)
    matrix = np.asarray(out["deltas"])
    assert matrix.shape == (len(out["taus"]), 2)
    for j, entry in enumerate(out["best"]):
        assert entry["delta"] == pytest.approx(float(matrix[:, j].min()))


@pytest.mark.parametrize("count", [0, -3])
def test_sweep_tau_rejects_nonpositive_candidate_count(count):
    p = acc.AlgoParams(kind="sgd", eta=0.02, sigma=4.0, n=400, b=40, L=4.0,
                       steps=60, m=1.0, M=10.0)
    with pytest.raises(DomainError, match="candidate count"):
        acc.tau_window_grid(60, count)
    with pytest.raises(DomainError, match="candidate count"):
        acc.sweep_tau(p, [1.0], max_candidates=count)


# -- CLT approximations -------------------------------------------------------


def test_clt_subsampled_scalar():
    assert acc.clt_subsampled(0.0, 0.01, 100) == 0.0
    # frozen from an erfc-based evaluation of the stated expression
    want = math.sqrt(2) * math.sqrt(
        math.e * 0.9331927987311419 + 3 * 0.3085375387259869 - 2.0)
    assert acc.clt_subsampled(1.0, 0.01, 10 ** 4) == pytest.approx(want, rel=1e-9)
    assert acc.clt_subsampled(1.0, 0.01, 10 ** 4) == pytest.approx(1.71014, abs=1e-5)


def test_clt_sgd_sc_consistency():
    p = sgd(t=10 ** 5, n=10000, b=100)
    w, mu = acc.clt_sgd_sc(p)
    assert mu == pytest.approx(acc._clt_sgd_sc_mu(p, w), rel=1e-12)
    assert mu <= acc._clt_sgd_sc_mu(p, w - 1.0) + 1e-15
    assert mu <= acc._clt_sgd_sc_mu(p, w + 1.0) + 1e-15


def test_clt_sgd_proj_consistency():
    p = acc.AlgoParams(kind="sgd", eta=0.05, sigma=5.0, n=10000, b=100, L=10.0,
                       steps=10 ** 5, M=10.0, D=2.0, constrained=True)
    w, mu = acc.clt_sgd_proj(p)
    ratio = p.L / (p.b * p.sigma)
    K = (math.exp(8 * ratio ** 2) * phi(3 * math.sqrt(2) * ratio)
         + 3 * phi(-math.sqrt(2) * ratio) - 2)
    # stationary point of a convex objective
    ws = np.linspace(0.5 * w, 1.5 * w, 41)
    vals = [acc._clt_sgd_proj_mu(p, x, K) for x in ws]
    assert np.all(np.diff(np.sign(np.diff(vals))) >= 0)  # convex on the grid
    assert min(vals) >= mu - 1e-12
    with pytest.raises(DomainError):
        acc.clt_sgd_proj(acc.AlgoParams(kind="sgd", eta=0.05, sigma=5.0,
                                        n=10000, b=100, L=10.0, steps=10,
                                        M=10.0, D=0.0, constrained=True))


def phi(x):
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


# -- sampling corollaries -----------------------------------------------------


def test_expmech_and_lmc():
    assert acc.expmech_sc(1.0, 1.0) == 1.0
    assert acc.expmech_convex(1.0, 1.0) == 2.0
    assert acc.expmech_convex(1.0, 1.0, eta=0.0) == 2.0
    assert acc.expmech_convex(2.0, 0.5, eta=0.1) == pytest.approx(math.sqrt(4.8))
    assert acc.lmc_stationary_sc(1.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert abs(acc.lmc_sc(1.0, 1.0, 0.5, 10 ** 6)
               - acc.lmc_stationary_sc(1.0, 1.0, 0.5)) <= 1e-9


def test_expmech_pure_dp_threshold():
    c_star = acc.expmech_pure_dp_threshold()
    assert 0.675 <= c_star <= 0.678
    # the comparison flips truth across the root
    def dominates(x):
        r = math.sqrt(x)
        return math.exp(2 * x) <= (1 - phi(-r)) / phi(-r)
    assert dominates(c_star - 0.01)
    assert not dominates(c_star + 0.01)
    # at x = 0.1 the pure-DP curve still dominates the Gaussian bound
    assert dominates(0.1)


def test_crossover_step():
    assert acc.crossover_step(0.5, 0.5) == 1
    p = proj_gd(0.5, 0.1)
    assert acc.crossover_step(acc.bound_gd_proj(p), 0.5 / 8.0) == 80
    p2 = proj_gd(0.25, 0.2)
    assert acc.crossover_step(acc.bound_gd_proj(p2), 0.25 / 8.0) == 80


def test_ceil_snap():
    from fractions import Fraction
    assert acc.ceil_snap(2.0000000001) == 2
    assert acc.ceil_snap(2.1) == 3
    assert acc.ceil_snap(Fraction(7, 3)) == 3
    assert acc.ceil_snap(1.0 / (0.1 * 0.5)) == 20  # exactly at a float integer
