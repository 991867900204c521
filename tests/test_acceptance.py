"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Criterion
8c is expected to fail: the finite-t gap between the composed curve and its
Gaussian limit is ~0.037 at those parameters, so the required 0.02 is not
attainable (test_prv.py verifies convergence to the limit as t grows).
Everything else passes at the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import oracle
from fdp_accountant import prv
from fdp_accountant import tradeoff as tc
import schedule as sch
from oracles import (cgd, curve_geq, gd, gd_sc_mu_via_schedule,
                     gdp_mu_from_delta, mesh, mixture_gaussian_tradeoff,
                     optimal_schedule_qp, phi)

ALPHA_GRID = np.linspace(0.05, 0.95, 19)


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f"  [{detail}]" if detail else ""))


# -- criterion 1: GD strongly convex table ------------------------------------

GD_SC_C = (0.92, 0.96, 0.98, 0.99, 0.995)
GD_SC_TABLE = {
    10: ((0.308, 0.314, 0.316, 0.316, 0.316), 0.316),
    100: ((0.490, 0.688, 0.871, 0.961, 0.990), 1.000),
    1000: ((0.490, 0.700, 0.995, 1.411, 1.984), 3.162),
}


def test_criterion_1_gd_sc_table():
    start = time.monotonic()
    ok = True
    for t, (cells, comp) in GD_SC_TABLE.items():
        ok &= abs(acc.bound_gd_composition(gd(0.92, t)) - comp) <= 1e-3
        for c, want in zip(GD_SC_C, cells):
            ok &= abs(acc.bound_gd_sc(gd(c, t)) - want) <= 1e-3
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report("criterion 1 (GD strongly convex table, 15 cells +- 0.001)", ok,
           f"{elapsed:.3f}s")
    assert ok


# -- criterion 2: CGD strongly convex table ------------------------------------

CGD_SC_LC = [(l, c) for l in (10, 20, 40) for c in (0.98, 0.99, 0.995)]
CGD_SC_TABLE = {
    5: (0.229, 0.233, 0.235, 0.211, 0.215, 0.217, 0.202, 0.205, 0.208),
    50: (0.270, 0.334, 0.410, 0.216, 0.237, 0.275, 0.203, 0.208, 0.219),
    500: (0.270, 0.336, 0.439, 0.216, 0.237, 0.276, 0.203, 0.208, 0.219),
}


def test_criterion_2_cgd_sc_table():
    start = time.monotonic()
    ok = True
    for E, cells in CGD_SC_TABLE.items():
        comp = acc.bound_cgd_composition(cgd(0.98, 10, E))
        ok &= abs(comp - 0.2 * math.sqrt(E)) <= 1e-12  # exact to formula
        for (l, c), want in zip(CGD_SC_LC, cells):
            ok &= abs(acc.bound_cgd_sc(cgd(c, l, E)) - want) <= 1e-3
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report("criterion 2 (CGD strongly convex table, 27 cells +- 0.001)", ok,
           f"{elapsed:.3f}s")
    assert ok


# -- criterion 3: constrained tables -------------------------------------------

GD_PROJ_TABLE = {  # (L/n, eta) -> (t*, mu*)
    (0.25, 0.2): (80, 0.280), (0.25, 0.1): (160, 0.395), (0.25, 0.05): (320, 0.559),
    (0.5, 0.2): (40, 0.395), (0.5, 0.1): (80, 0.559), (0.5, 0.05): (160, 0.791),
    (1.0, 0.2): (20, 0.559), (1.0, 0.1): (40, 0.791), (1.0, 0.05): (80, 1.118),
}
CGD_PROJ_TABLES = {  # l -> {(L/b, eta) -> mu*}   (E* columns excluded)
    10: {(0.25, 0.04): 0.534, (0.25, 0.02): 0.750, (0.25, 0.01): 1.057,
         (0.5, 0.04): 0.764, (0.5, 0.02): 1.067, (0.5, 0.01): 1.500,
         (1.0, 0.04): 1.106, (1.0, 0.02): 1.528, (1.0, 0.01): 2.134},
    20: {(0.25, 0.04): 0.382, (0.25, 0.02): 0.534, (0.25, 0.01): 0.750,
         (0.5, 0.04): 0.553, (0.5, 0.02): 0.764, (0.5, 0.01): 1.067,
         (1.0, 0.04): 0.816, (1.0, 0.02): 1.106, (1.0, 0.01): 1.528},
    40: {(0.25, 0.04): 0.276, (0.25, 0.02): 0.382, (0.25, 0.01): 0.534,
         (0.5, 0.04): 0.408, (0.5, 0.02): 0.553, (0.5, 0.01): 0.764,
         (1.0, 0.04): 0.624, (1.0, 0.02): 0.816, (1.0, 0.01): 1.106},
}


def test_criterion_3_constrained_tables():
    ok = True
    for (ln, eta), (t_star, mu_star) in GD_PROJ_TABLE.items():
        p = acc.AlgoParams(kind="gd", eta=eta, sigma=8.0, n=1, L=ln,
                           steps=10 ** 6, M=2.0 / eta, D=1.0, constrained=True)
        mu = acc.bound_gd_proj(p)
        ok &= abs(mu - mu_star) <= 1e-3
        ok &= acc.crossover_step(mu, ln / 8.0) == t_star
    spot = acc.AlgoParams(kind="gd", eta=0.1, sigma=8.0, n=1, L=0.5,
                          steps=10 ** 6, M=20.0, D=1.0, constrained=True)
    ok &= acc.crossover_step(acc.bound_gd_proj(spot), 0.5 / 8.0) == 80
    for l, cells in CGD_PROJ_TABLES.items():
        for (lb, eta), mu_star in cells.items():
            p = acc.AlgoParams(kind="cgd", eta=eta, sigma=3.0, n=l, b=1, L=lb,
                               epochs=10 ** 6, M=2.0 / eta, D=1.0,
                               constrained=True)
            ok &= abs(acc.bound_cgd_proj(p) - mu_star) <= 1e-3
    report("criterion 3 (constrained tables: 9 GD + 27 CGD mu*, t* column)", ok)
    assert ok


# -- criterion 4: closed-form schedules = convex-QP oracle ----------------------


def _cyclic_s(s, l, j_star, k_lo, k_hi):
    """Sensitivity s at the steps k_lo..k_hi that touch batch j_star, else 0."""
    return [s if (k - 1) % l + 1 == j_star else 0.0 for k in range(k_lo, k_hi + 1)]


def _schedule_cases():
    """(family, closed-form schedule, closed-form sum_sq, c, z_tau, s_seq);
    c, z_tau and s_seq are built here from the family's definition, not taken
    from the schedule under test."""
    sc_grid = [(float(c), t) for c in np.arange(0.1, 0.95, 0.1) for t in range(2, 9)]
    sc_grid += [(c, t) for c in (0.5, 0.9, 0.99) for t in (50, 100, 200)]
    for c, t in sc_grid:
        yield ("sc", *sch.optimal_sc_schedule(c, 1.0, t), c, 0.0, [1.0] * t)
    for s, D, t, tau in ((0.1, 1.0, 20, 5), (0.5, 2.0, 30, 0), (0.05, 1.0, 100, 60)):
        sched, total, _ = sch.optimal_proj_schedule(s, D, t, tau)
        yield "proj", sched, total, 1.0, D, [s] * (t - tau)
    for c, s, l, E in ((0.9, 0.2, 4, 5), (0.7, 1.0, 3, 6), (0.95, 0.1, 10, 4)):
        for j in range(1, l + 1):
            yield ("cgd-sc", *sch.cgd_sc_schedule(c, s, l, E, j), c, 0.0,
                   _cyclic_s(s, l, j, 1, l * E + j - l - 1))
    for s, D, l, E, tau in ((0.2, 1.0, 4, 6, 2), (1.0, 0.5, 3, 5, 1),
                            (0.1, 2.0, 10, 4, 3)):
        for j in range(1, l + 1):
            yield ("cgd-proj", *sch.cgd_proj_schedule(s, D, l, E, tau, j), 1.0, D,
                   _cyclic_s(s, l, j, j + l * (tau - 1), l * E + j - l - 1))


def test_criterion_4_schedule_optimality():
    start = time.monotonic()
    worst = {}
    ok = True
    for family, sched, closed, c, z_tau, s_seq in _schedule_cases():
        # the closed form answers the same problem the oracle is given
        ok &= (sched.c == c and sched.z[0] == z_tau
               and np.array_equal(sched.s_seq, s_seq))
        qp, a = optimal_schedule_qp(c, s_seq, z_tau=z_tau)
        rel = abs(qp - closed) / closed
        shift = np.max(np.abs(a - sched.a)) / max(max(s_seq), z_tau)
        ok &= rel <= 1e-9 and shift <= 1e-6
        r0, a0 = worst.get(family, (0.0, 0.0))
        worst[family] = (max(r0, rel), max(a0, shift))
    elapsed = time.monotonic() - start
    ok &= set(worst) == {"sc", "proj", "cgd-sc", "cgd-proj"} and elapsed < 120.0
    detail = ", ".join(f"{f} {r:.1e}/{a:.1e}" for f, (r, a) in worst.items())
    report("criterion 4 (closed forms = convex-QP oracle, 1e-9 rel sum, "
           "1e-6 shifts)", ok, f"worst rel/shift: {detail}; {elapsed:.1f}s")
    assert ok


# -- criterion 5: theorem = schedule + meta bound -------------------------------


def test_criterion_5_theorem_equals_schedule():
    cs = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.92, 0.95, 0.99, 0.995)
    ts = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
    worst = 0.0
    for c in cs:
        for t in ts:
            p = gd(c, t)
            a = acc.bound_gd_sc(p)
            b = gd_sc_mu_via_schedule(p)
            worst = max(worst, abs(a - b) / a)
    ok = worst <= 1e-12
    report("criterion 5 (theorem = schedule + meta, 1e-12 rel, 100 points)",
           ok, f"worst rel {worst:.2e}")
    assert ok


# -- criterion 6: Monte-Carlo oracle equivalence --------------------------------


def test_criterion_6_monte_carlo():
    start = time.monotonic()
    trials = 10 ** 6
    # exact worst-case pair at the contraction/effective-sensitivity setting
    # of the running example (c = 0.95, L/(n sigma) = 0.1, t = 160)
    spec = oracle.SimSpec(kind="gd", m=1.0, eta=0.05, sigma=1.0, L=0.1, n=1,
                          steps=160, trials=trials, seed=0)
    xp, xq = oracle.simulate(spec)
    mu = acc.bound_gd_sc(acc.AlgoParams(kind="gd", eta=0.05, sigma=1.0, n=1,
                                        L=0.1, steps=160, m=1.0, M=10.0))
    emp = oracle.empirical_tradeoff(xp, xq, method="exact-lr", alphas=ALPHA_GRID)
    dev = float(np.max(np.abs(emp.values - tc.gdp_eval(mu, ALPHA_GRID))))
    ok = emp.ci_halfwidth <= 0.005 and dev <= emp.ci_halfwidth

    # projected one-dimensional run never violates the constrained bound
    pspec = oracle.SimSpec(kind="gd", m=0.0, eta=0.1, sigma=8.0, L=0.5, n=1,
                           steps=100, trials=trials, seed=0, diameter=1.0)
    yp, yq = oracle.simulate(pspec)
    params = acc.AlgoParams(kind="gd", eta=0.1, sigma=8.0, n=1, L=0.5,
                            steps=100, M=20.0, D=1.0, constrained=True)
    mu_star = acc.bound_gd_proj(params)
    emp_p = oracle.empirical_tradeoff(yp, yq, method="histogram-lr",
                                      alphas=ALPHA_GRID)
    margin = oracle.curve_margin(emp_p, tc.gdp_eval(mu_star, ALPHA_GRID))
    ok &= margin >= 0.0
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    report("criterion 6 (MC tradeoff within ci <= 0.005; projected one-sided)",
           ok, f"dev {dev:.4f} <= ci {emp.ci_halfwidth:.4f}, "
               f"proj margin {margin:+.4f}, {elapsed:.1f}s")
    assert ok


# -- criterion 7: subsampling operator ------------------------------------------


def test_criterion_7_subsampling_operator():
    g1 = tc.curve_of_gdp(1.0)
    c1 = tc.subsample(g1, 1.0)
    ok = curve_geq(c1, g1)[0] and curve_geq(g1, c1)[0]

    c0 = tc.subsample(g1, 0.0)
    ok &= bool(np.array_equal(c0.values, 1.0 - c0.alphas))

    p, mu = 0.25, 2.5
    cp = tc.subsample(tc.curve_of_gdp(mu), p)
    sym = float(np.max(np.abs(tc.invert_curve(cp).values - cp.values)))
    ok &= sym <= 2.0 * mesh(cp)

    fp = p * tc.gdp_eval(mu, cp.alphas) + (1 - p) * (1 - cp.alphas)
    ok &= float(np.max(cp.values - fp)) <= 1e-9 + mesh(cp)

    target = (1 + p) * phi(-mu / 2) + (1 - p) * phi(mu / 2)
    lo = phi(-mu / 2)
    hi = p * lo + (1 - p) * phi(mu / 2)
    tangency_ok = all(
        abs(a + cp(a) - target) <= 1e-6
        for a in np.linspace(lo + 0.05, hi - 0.05, 9))
    ok &= tangency_ok
    report("criterion 7 (subsampling operator: endpoints, symmetry, "
           "domination, tangency)", ok, f"symmetry {sym:.2e}")
    assert ok


# -- criterion 8: PRV correctness ------------------------------------------------


def test_criterion_8a_gaussian_closure():
    start = time.monotonic()
    cb = acc.CompositeBound((acc.GdpFactor(3.0), acc.GdpFactor(4.0)))
    pairs = prv.evaluate_composite(cb, [0.0, 1.0, 2.0, 5.0])
    ok = all(abs(d - cv.gdp_to_delta(5.0, e)) <= 1e-4 for e, d in pairs)
    report("criterion 8a (PRV: G(3) x G(4) = G(5) within 1e-4)", ok,
           f"{time.monotonic() - start:.2f}s")
    assert ok


def test_criterion_8b_subsampled_single_step():
    sp = prv.prv_of_subsampled_gdp(1.0, 0.1)
    curve = tc.subsample(tc.curve_of_gdp(1.0), 0.1)
    ok = all(abs(prv.prv_delta(sp, e) - cv.curve_to_delta(curve, e)) <= 1e-4
             for e in (0.0, 0.5, 1.0))
    report("criterion 8b (PRV of subsampled GDP matches curve space at t=1)", ok)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="at t=1e4, p=1e-2 the composed curve is mu-equivalent to ~1.673 "
           "vs the 1.7102 Gaussian limit (gap ~0.037 > 0.02); convergence "
           "to the limit as t grows is verified in test_prv.py")
def test_criterion_8c_clt_composition():
    start = time.monotonic()
    mu_clt = acc.clt_subsampled(1.0, 0.01, 10 ** 4)
    cb = acc.CompositeBound((acc.SubsampledGdpFactor(1.0, 0.01, 10 ** 4),))
    (_, delta), = prv.evaluate_composite(cb, [1.0])
    mu_eq = gdp_mu_from_delta(1.0, delta)
    gap = abs(mu_eq - mu_clt)
    elapsed = time.monotonic() - start
    ok = gap <= 0.02 and elapsed < 60.0
    report("criterion 8c (1e4-fold subsampled composition within 0.02 "
           "mu-equivalent of the CLT limit)", ok,
           f"gap {gap:.4f}, {elapsed:.2f}s; known finite-t shortfall")
    assert ok


# -- criterion 9: conversions -----------------------------------------------------


def test_criterion_9_conversions():
    ok = abs(cv.gdp_to_delta(1.0, 0.0) - (2 * phi(0.5) - 1)) <= 1e-12
    ok &= abs(cv.gdp_to_delta(1.0, 0.0) - 0.38292) <= 1e-5
    ok &= abs(cv.gdp_to_delta(1.0, 1.0) - (phi(-0.5) - math.e * phi(-1.5))) <= 1e-12
    ok &= abs(cv.gdp_to_delta(1.0, 1.0) - 0.12693) <= 1e-5
    for mu in (0.5, 1.0, 2.0):
        for eps in (0.5, 2.0):
            ok &= abs(cv.gdp_to_eps(mu, cv.gdp_to_delta(mu, eps)) - eps) <= 1e-9
    # lossless beats lossy: f-DP-derived eps below the RDP route throughout
    sep = math.inf
    for t in (10, 20, 40, 80, 160):
        mu = acc.bound_gd_sc(gd(0.95, t))
        eps_fdp = cv.gdp_to_eps(mu, 1e-5)
        eps_rdp = cv.rdp_to_epsdelta(0.5 * mu * mu, 1e-5)
        sep = min(sep, eps_rdp - eps_fdp)
    ok &= sep > 0
    report("criterion 9 (conversion reference points, round trip, "
           "f-DP < RDP)", ok, f"min RDP-fDP eps gap {sep:.4f}")
    assert ok


# -- criterion 10: exponential mechanism ------------------------------------------


def test_criterion_10_exponential_mechanism():
    c_star = acc.expmech_pure_dp_threshold()
    ok = 0.675 <= c_star <= 0.678
    for L, m, eta in ((1.0, 1.0, 0.5), (2.0, 0.5, 0.2)):
        ok &= abs(acc.lmc_sc(L, m, eta, 10 ** 6)
                  - acc.lmc_stationary_sc(L, m, eta)) <= 1e-9
    ok &= abs(acc.lmc_stationary_sc(1.0, 1.0, 1e-12) - 1.0) <= 1e-9
    report("criterion 10 (pure-DP threshold band; LMC limits)", ok,
           f"c* = {c_star:.6f}")
    assert ok


# -- criterion 11: monotonicity / convergence / curve invariants -------------------


def test_criterion_11_monotonicity_and_invariants():
    c, leff = 0.95, 0.1
    prev, ok = 0.0, True
    for t in (1, 2, 5, 10, 30, 100, 300, 600):
        mu = acc.bound_gd_sc(gd(c, t))
        ok &= mu >= prev - 1e-15
        prev = mu
    limit = math.sqrt((1 + c) / (1 - c)) * leff
    ok &= abs(acc.bound_gd_sc(gd(c, 600)) - limit) / limit <= 1e-9
    ok &= acc.bound_cgd_sc(cgd(0.99, 10, 1)) == 0.2

    curves = [tc.curve_of_gdp(m) for m in (0.0, 0.3, 1.0, 5.0, 20.0)]
    curves += [tc.subsample(tc.curve_of_gdp(m), p)
               for m in (0.5, 1.0, 2.5) for p in (0.1, 0.25, 0.9, 1.0)]
    curves += [mixture_gaussian_tradeoff(0.3, 1.5)]
    curves += [tc.invert_curve(curve) for curve in curves[:6]]
    for curve in curves:
        curve.validate()
    ok &= True
    report("criterion 11 (monotone/convergent in t; curve invariant suite "
           f"over {len(curves)} curves)", ok)
    assert ok
