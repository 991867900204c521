"""Tests of the benchmark's tracer and references.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

from fdp_accountant import accountant, cli, conversions, oracle, prv, tradeoff  # noqa: E402
from fdp_accountant.errors import ConfigurationError  # noqa: E402


def small_requests(capsys):
    """One small call into each layer; returns outputs as exact bytes."""
    params = accountant.AlgoParams(kind="sgd", eta=0.05, sigma=4.0, n=500, b=25,
                                   L=4.0, steps=30, M=20.0, D=1.0, constrained=True)
    sweep = accountant.sweep_tau(params, [0.5, 2.0], setting="proj", max_candidates=8)
    cb = accountant.bound_sgd_composition(params)
    composite = prv.evaluate_composite(cb, [0.0, 1.0, 3.0])
    curve = tradeoff.invert_curve(tradeoff.subsample(tradeoff.curve_of_gdp(1.0, 101), 0.3))
    curve_delta = conversions.curve_to_delta(curve, 1.0)
    eps = conversions.gdp_to_eps(1.0, 1e-5)
    xp, xq = oracle.simulate(oracle.SimSpec(kind="gd", steps=10, trials=1000, seed=3))
    emp = oracle.empirical_tradeoff(xp, xq, method="histogram-lr")
    assert cli.main(["convert", "gdp-to-epsdelta", "--mu", "1", "--delta", "1e-5"]) == 0
    printed = capsys.readouterr().out
    return [json.dumps(sweep).encode(), repr(composite).encode(), curve.values.tobytes(),
            float(curve_delta).hex().encode(), float(eps).hex().encode(),
            xp.tobytes() + xq.tobytes(), emp.values.tobytes(), printed.encode()]


def test_wrapped_functions_return_bit_identical_results(capsys):
    plain = small_requests(capsys)
    tracer = Tracer()
    with tracer.installed():
        traced = small_requests(capsys)
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"accountant.sweep_tau", "prv.convolve", "tradeoff.subsample",
            "conversions.gdp_to_eps", "oracle.simulate", "cli.main",
            "oracle.empirical_tradeoff.histogram-lr"} <= names
    assert tracer.counts["normal.calls"] > 0


def test_uninstall_restores_the_original_functions():
    before = (prv.convolve, accountant.sweep_tau, cli.main)
    tracer = Tracer()
    with tracer.installed():
        assert prv.convolve is not before[0]
        assert prv.convolve.__wrapped__ is before[0]
    assert (prv.convolve, accountant.sweep_tau, cli.main) == before


def test_spans_of_one_request_nest(capsys):
    tracer = Tracer()
    with tracer.installed():
        tracer.request = 7
        small_requests(capsys)
    spans = tracer.spans
    assert spans and all(span[4] == 7 for span in spans)
    nested = 0
    for name, start, end, parent, request in spans:
        assert start <= end
        if parent is not None:
            p_name, p_start, p_end, _, p_request = spans[parent]
            assert p_request == request
            assert p_start <= start <= end <= p_end
            nested += 1
    assert nested > 0
    summary = tracer.summary()
    assert all(entry["self_s"] >= -1e-9 for entry in summary.values())
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(tracer.top_level_time(), rel=1e-9)


def test_error_counted_once_at_the_layer_entry():
    tracer = Tracer()
    cb = accountant.CompositeBound((accountant.GdpFactor(1e-4),))
    with tracer.installed(), pytest.raises(ConfigurationError):
        prv.evaluate_composite(cb, [1.0])
    assert tracer.errors == {("prv", "ConfigurationError"): 1}


@pytest.mark.parametrize("mu,eps", [(0.1, 0.4), (1.0, 3.0), (3.0, 6.0), (0.5, 2.8)])
def test_reference_delta_matches_library(mu, eps):
    assert ref.gauss_delta(mu, eps) == pytest.approx(conversions.gdp_to_delta(mu, eps),
                                                     rel=1e-11)


def test_reference_worst_case_matches_oracle():
    for eta, sigma, L, steps in [(0.05, 2.0, 0.1, 60), (0.03, 1.0, 0.2, 160)]:
        ours = ref.worst_case_gd_sc_mu(eta, 1.0, sigma, L, 1, steps)
        theirs = oracle.worst_case_gd_sc_mu(1.0 - eta, eta * L, eta * sigma, steps)
        assert ours == pytest.approx(theirs, rel=1e-12)


def test_reference_tradeoff_matches_library():
    alphas = np.linspace(0.01, 0.99, 50)
    ours = [ref.gauss_tradeoff(0.961, a) for a in alphas]
    assert np.allclose(ours, tradeoff.gdp_eval(0.961, alphas), rtol=0, atol=1e-12)
