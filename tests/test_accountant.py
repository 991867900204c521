import dataclasses
import json
import math
import random

import numpy as np
import pytest

from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import prv
from fdp_accountant.errors import DomainError
from oracles import (cgd, clamp_window, clt_sgd_proj, clt_sgd_proj_mu,
                     clt_sgd_proj_window, clt_sgd_sc, clt_sgd_sc_mu,
                     clt_sgd_sc_window, gd, gd_proj_mu_via_schedule,
                     gd_sc_mu_via_schedule, phi, tau_window_grid)


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


@pytest.mark.parametrize("change, message", [
    (dict(n=0), "dataset size n"),
    (dict(L=-1.0), "sensitivity L"),
    (dict(eta=-0.1), "learning rate eta"),
    (dict(M=-1.0), "smoothness modulus M"),
    (dict(b=0), "batch size b must satisfy"),
    (dict(b=11), "batch size b must satisfy"),
    (dict(kind="sgd"), "sgd runs need a batch size b"),
    (dict(kind="cgd"), "cgd runs need a batch size b"),
    (dict(kind="cgd", b=2, steps=7), "multiple of n/b"),
], ids=["n", "L", "eta", "M", "b=0", "b>n", "sgd-b", "cgd-b", "cgd-steps"])
def test_params_reject_each_domain_gap(change, message):
    base = dict(kind="gd", eta=0.1, sigma=1.0, n=10, L=1.0, steps=10)
    with pytest.raises(DomainError, match=message):
        acc.AlgoParams(**(base | change))


def test_step_conditions_read_eta_M_against_2():
    p = acc.AlgoParams(kind="gd", eta=0.2, sigma=1.0, n=10, L=1.0, steps=100,
                       m=1.0, M=10.0, D=1.0, constrained=True)
    assert p.eta * p.M == 2.0
    assert acc.bound_gd_proj(p) > 0           # eta M <= 2
    with pytest.raises(DomainError, match="eta M < 2"):
        acc.bound_gd_sc(p)
    # M = 0 is a linear loss: every step is non-expansive.
    flat = dataclasses.replace(p, M=0.0)
    assert acc.bound_gd_proj(flat) == acc.bound_gd_proj(p)
    with pytest.raises(DomainError, match="contraction factor is >= 1"):
        acc.bound_gd_sc(flat)


def test_params_json_round_trip():
    p = acc.AlgoParams(kind="sgd", eta=0.05, sigma=2.0, n=1000, b=50, L=4.0,
                       steps=200, m=1.0, M=10.0)
    doc = p.to_dict()
    assert set(doc) == {"kind", "eta", "sigma", "n", "b", "epochs", "steps",
                        "L", "m", "M", "D", "constrained"}
    assert doc["D"] is None  # infinity encodes as null
    assert acc.AlgoParams.from_dict(json.loads(json.dumps(doc))) == p
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
                gd_sc_mu_via_schedule(p), rel=1e-12)


def test_gd_proj_plateau_equals_schedule_at_integer_ratio():
    # D n / (eta L) = 20 exactly
    p = proj_gd(0.5, 0.1)
    assert acc.bound_gd_proj(p) == pytest.approx(
        gd_proj_mu_via_schedule(p), rel=1e-12)
    # plateau form never undercuts the schedule value
    q = proj_gd(0.37, 0.13)
    assert acc.bound_gd_proj(q) >= gd_proj_mu_via_schedule(q) - 1e-12


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
    from schedule import cgd_proj_schedule
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


@pytest.mark.parametrize("kind", ["gd", "cgd"])
def test_sgd_bounds_reject_runs_that_are_not_sgd(kind):
    p = sgd(t=100, kind=kind, D=2.0)
    for build in (acc.bound_sgd_composition,
                  lambda q: acc.bound_sgd_sc(q, 96),
                  lambda q: acc.bound_sgd_proj(q, 96)):
        with pytest.raises(DomainError, match="kind 'sgd'"):
            build(p)


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
        acc.sweep_tau(p, [1.0], max_candidates=count)


def _proj_runs(count=12, seed=1):
    """Seeded constrained SGD runs with t <= 600 and 1 to 3 eps in [0.5, 3].
    The CLT window, about kappa / (2 rate ratio), falls on both sides of t."""
    rng = random.Random(seed)
    runs = []
    for _ in range(count):
        b = rng.randint(16, 128)
        rate = math.exp(rng.uniform(math.log(0.02), math.log(0.2)))
        eta, sigma = rng.uniform(0.01, 0.1), rng.uniform(2.0, 6.0)
        ratio, kappa = rng.uniform(0.03, 0.1), rng.uniform(1.0, 4.0)
        eps = sorted(round(rng.uniform(0.5, 3.0), 2)
                     for _ in range(rng.randint(1, 3)))
        runs.append((acc.AlgoParams(
            kind="sgd", eta=eta, sigma=sigma, n=round(b / rate), b=b,
            L=ratio * b * sigma, steps=rng.randint(100, 600), M=1.0 / eta,
            D=kappa * eta * sigma, constrained=True), eps))
    return runs


PROJ_RUNS = _proj_runs()


def _sc_runs(count=8, seed=1):
    """Seeded strongly convex SGD runs with t <= 600. Their eps are the
    (eps, delta) points of the CLT mu at delta 1e-3, 1e-6 or 1e-9, so the
    best delta of a sweep lies near [1e-9, 1e-3]. The CLT window, 86 to 242
    steps here, lies inside every run."""
    rng = random.Random(seed)
    runs = []
    for _ in range(count):
        b = rng.randint(16, 128)
        rate = math.exp(rng.uniform(math.log(0.02), math.log(0.2)))
        eta, sigma = rng.uniform(0.02, 0.06), rng.uniform(2.0, 6.0)
        ratio = rng.uniform(0.01, 0.1)
        p = acc.AlgoParams(
            kind="sgd", eta=eta, sigma=sigma, n=round(b / rate), b=b,
            L=ratio * b * sigma, steps=rng.randint(100, 600), m=1.0, M=10.0)
        mu = clt_sgd_sc(p)[1]
        deltas = rng.sample([1e-3, 1e-6, 1e-9], rng.randint(1, 3))
        runs.append((p, sorted(cv.gdp_to_eps(mu, d) for d in deltas)))
    return runs


SC_RUNS = _sc_runs()

SETTINGS = {"proj": (acc.bound_sgd_proj, clt_sgd_proj),
            "sc": (acc.bound_sgd_sc, clt_sgd_sc)}


def clt_start(p, setting="proj"):
    return min(max(1, round(SETTINGS[setting][1](p)[0])), p.t)


def _no_worse_than_the_grid(p, eps, setting):
    out = acc.sweep_tau(p, eps, setting=setting)
    build = SETTINGS[setting][0]
    grid = [[d for _, d in prv.evaluate_composite(build(p, p.t - w), eps)]
            for w in tau_window_grid(p.t)]
    for j, entry in enumerate(out["best"]):
        ref = min(row[j] for row in grid)
        if ref > 1e-14:
            assert entry["delta"] <= ref
    return out


@pytest.mark.parametrize("p, eps", PROJ_RUNS,
                         ids=[f"run{i}" for i in range(len(PROJ_RUNS))])
def test_proj_sweep_is_no_worse_than_the_grid(p, eps):
    _no_worse_than_the_grid(p, eps, "proj")


@pytest.mark.parametrize("p, eps", SC_RUNS,
                         ids=[f"run{i}" for i in range(len(SC_RUNS))])
def test_sc_sweep_is_no_worse_than_the_grid(p, eps):
    # The grid reaches heads too narrow for the lattice (mu < 10 mesh), which
    # evaluate_composite adds at query time.
    out = _no_worse_than_the_grid(p, eps, "sc")
    assert all(1e-10 <= entry["delta"] <= 2e-3 for entry in out["best"])


def _check_cap_and_start(runs, setting, cap):
    inside = 0
    for p, eps in runs:
        w0 = clt_start(p, setting)
        inside += w0 < p.t
        out = acc.sweep_tau(p, eps, setting=setting, max_candidates=cap)
        taus = out["taus"]
        assert 1 <= len(taus) <= cap
        assert p.t - w0 in taus
        assert taus == sorted(set(taus), reverse=True)
        matrix = np.asarray(out["deltas"])
        assert matrix.shape == (len(taus), len(eps))
        for j, entry in enumerate(out["best"]):
            assert entry["delta"] == matrix[:, j].min()
            assert entry["tau"] == taus[int(np.argmin(matrix[:, j]))]
    # Some runs start inside the run, some at w = t.
    assert 2 <= inside <= len(runs) - 2


@pytest.mark.parametrize("cap", [1, 2, 3, 64])
def test_proj_sweep_evaluates_at_most_the_cap_from_the_clt_window(cap):
    _check_cap_and_start(PROJ_RUNS, "proj", cap)


# SC_RUNS cut to half their CLT window, which then starts at w = t.
SHORT_SC_RUNS = [(dataclasses.replace(p, steps=clt_start(p, "sc") // 2), eps)
                 for p, eps in SC_RUNS[:3]]


@pytest.mark.parametrize("cap", [1, 2, 3, 64])
def test_sc_sweep_evaluates_at_most_the_cap_from_the_clt_window(cap):
    _check_cap_and_start(SC_RUNS[3:] + SHORT_SC_RUNS, "sc", cap)


PROJ_BASE = dict(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25, L=4.0,
                 steps=50, M=20.0, D=1.0, constrained=True)


@pytest.mark.parametrize("change, cap, best_w", [
    (dict(D=0.0), 64, 1),         # no head factor; clt_sgd_proj raises
    (dict(L=0.0), 64, 50),        # the CLT term vanishes
    (dict(steps=1), 1, 1),
], ids=["D=0", "L=0", "t=1-cap=1"])
def test_proj_sweep_edge_cases(change, cap, best_w):
    p = acc.AlgoParams(**(PROJ_BASE | change))
    out = acc.sweep_tau(p, [0.5, 2.0], setting="proj", max_candidates=cap)
    assert p.t - best_w in out["taus"]
    assert [entry["tau"] for entry in out["best"]] == [p.t - best_w] * 2


SC_BASE = dict(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25, L=4.0,
               steps=50, m=1.0, M=10.0)


@pytest.mark.parametrize("change", [
    dict(L=0.0),                  # every factor is G(0): delta is the same
    dict(eta=0.1, m=10.0),        # c = 0 leaves the head at 0
], ids=["L=0", "c=0"])
def test_sc_sweep_edge_cases(change):
    # clt_sgd_sc raises; the search starts at w = 1, the best window.
    p = acc.AlgoParams(**(SC_BASE | change))
    out = acc.sweep_tau(p, [0.5, 2.0], setting="sc")
    assert [entry["tau"] for entry in out["best"]] == [p.t - 1] * 2


def test_clt_term_is_infinite_past_its_overflow():
    assert acc._clt_inner(26.0) < math.inf
    assert acc._clt_inner(27.0) == math.inf


@pytest.mark.parametrize("setting, change, start", [
    ("sc", dict(SC_BASE, sigma=1e-9), 1),       # the CLT term overflows
    ("proj", dict(PROJ_BASE, L=1000.0), 1),     # the CLT term overflows
    ("proj", dict(PROJ_BASE, D=1e300), 50),     # the CLT mu would overflow
], ids=["sc-overflow", "proj-overflow", "proj-D"])
def test_window_start_survives_an_overflowing_clt(setting, change, start):
    assert acc._window_start(acc.AlgoParams(**change), setting) == start


def test_proj_sweep_repeats_exactly():
    p, eps = PROJ_RUNS[0]
    prv._subsampled_base.cache_clear()
    cold = acc.sweep_tau(p, eps, setting="proj")
    assert acc.sweep_tau(p, eps, setting="proj") == cold


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, -1.0])
def test_factors_reject_a_non_finite_or_negative_mu(mu):
    with pytest.raises(DomainError, match="mu"):
        acc.GdpFactor(mu)
    with pytest.raises(DomainError, match="mu"):
        acc.SubsampledGdpFactor(mu, 0.5)


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
    w, mu = clt_sgd_sc(p)
    assert mu == pytest.approx(clt_sgd_sc_mu(p, w), rel=1e-12)
    assert mu <= clt_sgd_sc_mu(p, w - 1.0) + 1e-15
    assert mu <= clt_sgd_sc_mu(p, w + 1.0) + 1e-15


def test_clt_sgd_proj_consistency():
    p = acc.AlgoParams(kind="sgd", eta=0.05, sigma=5.0, n=10000, b=100, L=10.0,
                       steps=10 ** 5, M=10.0, D=2.0, constrained=True)
    w, mu = clt_sgd_proj(p)
    ratio = p.L / (p.b * p.sigma)
    K = (math.exp(8 * ratio ** 2) * phi(3 * math.sqrt(2) * ratio)
         + 3 * phi(-math.sqrt(2) * ratio) - 2)
    # stationary point of a convex objective
    ws = np.linspace(0.5 * w, 1.5 * w, 41)
    vals = [clt_sgd_proj_mu(p, x, K) for x in ws]
    assert np.all(np.diff(np.sign(np.diff(vals))) >= 0)  # convex on the grid
    assert min(vals) >= mu - 1e-12
    with pytest.raises(DomainError):
        clt_sgd_proj(acc.AlgoParams(kind="sgd", eta=0.05, sigma=5.0,
                                    n=10000, b=100, L=10.0, steps=10,
                                    M=10.0, D=0.0, constrained=True))


# Per-step ratio L/(b sigma) about 11: the sc window is about -4e7 and the
# proj CLT term overflows. These raised ValueError (math.sqrt of w K < 0)
# and ZeroDivisionError (w = 0).
HUGE_CLT_TERM = dict(kind="sgd", eta=0.00044, sigma=0.0156, n=634, b=496,
                     L=85.8, steps=2050, m=0.136, M=0.0134, D=9.17)


def test_clt_sgd_sc_clamps_a_window_below_1():
    p = acc.AlgoParams(**HUGE_CLT_TERM)
    assert clt_sgd_sc_window(p) < -1e7
    w, mu = clt_sgd_sc(p)
    assert w == 1.0
    assert mu == clt_sgd_sc_mu(p, 1.0) and math.isfinite(mu) and mu > 1e100


def test_clt_sgd_proj_is_infinite_where_the_clt_term_overflows():
    p = acc.AlgoParams(**HUGE_CLT_TERM)
    assert clt_sgd_proj_window(p) == (0.0, math.inf)
    assert clt_sgd_proj(p) == (1.0, math.inf)


def test_clt_sgd_sc_is_infinite_where_the_clt_term_overflows():
    p = acc.AlgoParams(**{**HUGE_CLT_TERM, "L": 400.0})
    assert clt_sgd_sc_window(p) == -math.inf
    assert clt_sgd_sc(p) == (1.0, math.inf)


def test_clt_sgd_proj_takes_a_diameter_whose_square_overflows():
    # D ** 2 raised OverflowError. The window is clamped to t, and mu is
    # sqrt(2 / t) D / (eta sigma): the CLT part is about 1e-160 of it.
    p = acc.AlgoParams(kind="sgd", eta=0.05, sigma=5.0, n=10000, b=100,
                       L=10.0, steps=10 ** 5, M=10.0, D=1e160,
                       constrained=True)
    w, mu = clt_sgd_proj(p)
    assert w == 1e5
    assert mu == pytest.approx(math.sqrt(2.0 / 1e5) * 1e160 / 0.25, rel=1e-15)


@pytest.mark.parametrize("clt", [clt_sgd_sc, clt_sgd_proj])
def test_clt_windows_are_clamped_to_the_run(clt):
    long = acc.AlgoParams(kind="sgd", eta=0.05, sigma=5.0, n=10000, b=100,
                          L=10.0, steps=10 ** 5, m=1.0, M=10.0, D=2.0)
    w_long, _ = clt(long)
    assert 10 < w_long < 10 ** 5
    short = dataclasses.replace(long, steps=10)
    assert clt(short)[0] == 10.0


def _oracle_start(p, setting):
    """The CLT window of the setting's oracle, clamped into [1, t] and
    rounded. Where the oracle raises DomainError: w = t for proj with D != 0
    (its CLT term vanishes, as sweep_tau's docstring states, or the run is
    invalid and raises when its first window is built), else w = 1."""
    try:
        if setting == "sc":
            return round(clamp_window(clt_sgd_sc_window(p), p.t))
        return round(clamp_window(clt_sgd_proj_window(p)[0], p.t))
    except DomainError:
        return p.t if setting == "proj" and p.D != 0 else 1


def _start_params(count=300, seed=7):
    """Seeded sgd runs over wide log-ranges, valid and invalid for either
    setting, then the named cases: the overflowing CLT terms, a diameter
    whose square overflows, and D = 0, L = 0 and c = 0."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    runs = []
    for _ in range(count):
        n = rng.randint(1, 10 ** 5)
        eta = log_uniform(1e-4, 2.0)
        runs.append(dict(
            kind="sgd", eta=eta, sigma=log_uniform(1e-3, 10.0), n=n,
            b=rng.randint(1, n), L=rng.choice([0.0, log_uniform(1e-3, 1e3)]),
            steps=rng.randint(1, 5000), m=log_uniform(1e-3, 10.0),
            M=log_uniform(1e-3, 3.0) / eta,
            D=rng.choice([0.0, log_uniform(1e-3, 1e3), 1e160])))
    sc, proj = SC_BASE, PROJ_BASE
    runs += [HUGE_CLT_TERM, {**HUGE_CLT_TERM, "L": 400.0},
             dict(sc, sigma=1e-9), dict(proj, L=1000.0), dict(proj, D=1e300),
             dict(proj, D=0.0), dict(proj, L=0.0), dict(sc, L=0.0),
             dict(sc, eta=0.1, m=10.0), dict(sc, D=1e160, steps=10 ** 5)]
    return [acc.AlgoParams(**run) for run in runs]


@pytest.mark.parametrize("setting", ["sc", "proj"])
def test_window_start_is_the_oracle_clt_window(setting):
    starts = set()
    for p in _start_params():
        got = acc._window_start(p, setting)
        assert got == _oracle_start(p, setting) and type(got) is int, p
        starts.add("1" if got == 1 else "t" if got == p.t else "inside")
    assert starts == {"1", "t", "inside"}


# -- sampling corollaries -----------------------------------------------------


def test_expmech_and_lmc():
    assert acc.expmech_sc(1.0, 1.0) == 1.0
    assert acc.expmech_convex(1.0, 1.0) == 2.0
    assert acc.expmech_convex(1.0, 1.0, eta=0.0) == 2.0
    assert acc.expmech_convex(2.0, 0.5, eta=0.1) == pytest.approx(math.sqrt(4.8))
    assert acc.lmc_stationary_sc(1.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert abs(acc.lmc_sc(1.0, 1.0, 0.5, 10 ** 6)
               - acc.lmc_stationary_sc(1.0, 1.0, 0.5)) <= 1e-9


def test_lmc_sc_at_c_zero_is_one_step_of_the_chain():
    # eta m = 1: one step forgets the start, so the bound is L / sigma with
    # sigma = sqrt(2 / eta) = 2, whatever t is.
    assert acc.lmc_sc(1.0, 2.0, 0.5, 7) == 0.5


@pytest.mark.parametrize("call, message", [
    (lambda: acc.clt_subsampled(-1.0, 0.5, 10), "need mu >= 0, p in"),
    (lambda: acc.clt_subsampled(1.0, 1.5, 10), "need mu >= 0, p in"),
    (lambda: acc.clt_subsampled(1.0, 0.5, 0), "need mu >= 0, p in"),
    (lambda: acc.expmech_sc(-1.0, 1.0), "need L >= 0 and m > 0"),
    (lambda: acc.expmech_sc(1.0, 0.0), "need L >= 0 and m > 0"),
    (lambda: acc.lmc_sc(-1.0, 1.0, 0.5, 7), "need L >= 0, m > 0, t >= 1"),
    (lambda: acc.lmc_sc(1.0, 1.0, 0.5, 0), "need L >= 0, m > 0, t >= 1"),
    (lambda: acc.lmc_sc(1.0, 1.0, 2.0, 7), "need 0 < eta m <= 1"),
    (lambda: acc.lmc_sc(1.0, 1.0, 0.0, 7), "need 0 < eta m <= 1"),
    (lambda: acc.lmc_stationary_sc(-1.0, 1.0, 0.5), "need L >= 0 and m > 0"),
    (lambda: acc.lmc_stationary_sc(1.0, 1.0, 2.0), "need 0 <= eta m <= 1"),
    (lambda: acc.expmech_convex(-1.0, 1.0), "need L >= 0 and D >= 0"),
    (lambda: acc.expmech_convex(1.0, -1.0), "need L >= 0 and D >= 0"),
    (lambda: acc.expmech_convex(1.0, 1.0, eta=-0.1), "eta must be >= 0"),
    (lambda: acc.crossover_step(-1.0, 0.5), "need mu >= 0 and rate > 0"),
    (lambda: acc.crossover_step(1.0, 0.0), "need mu >= 0 and rate > 0"),
    (lambda: acc.sweep_tau(sgd(t=60, n=400, b=40), [1.0], setting="x"),
     "setting must be 'sc' or 'proj'"),
], ids=["clt-mu", "clt-p", "clt-t", "expmech-sc-L", "expmech-sc-m", "lmc-L",
        "lmc-t", "lmc-eta-m-above-1", "lmc-eta-0", "lmc-stationary-L",
        "lmc-stationary-eta-m", "expmech-convex-L", "expmech-convex-D",
        "expmech-convex-eta", "crossover-mu", "crossover-rate", "sweep-setting"])
def test_corollaries_reject_their_domain_gaps(call, message):
    with pytest.raises(DomainError, match=message):
        call()


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
