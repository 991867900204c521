"""The domain of every bound, drawn across kind x mode with its edges.

A gd or cgd bound gives a mu >= 0 (inf included: the report writes it as
null) or raises DomainError. An sgd bound builds a composite of finite
factors or raises DomainError, and a composite whose lattices stay small
evaluates to deltas in [0, 1] that do not grow with eps. Nothing else may
escape: not a ZeroDivisionError, nor an error of the numerics.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdp_accountant import accountant as acc
from fdp_accountant import cli
from fdp_accountant import prv
from fdp_accountant.errors import ConfigurationError, DomainError

# Edges next to ordinary values: eta = 0, products eta sigma and eta L that
# underflow to 0 (1e-300 squared), L = 0, D = 0 and M = 0.
FIELDS = {
    "eta": st.sampled_from([0.0, 1e-300]) | st.floats(1e-4, 1.0),
    "sigma": st.sampled_from([1e-300]) | st.floats(1e-3, 1e3),
    "m": st.sampled_from([0.0]) | st.floats(1e-3, 10.0),
    "M": st.sampled_from([0.0, math.inf]) | st.floats(1e-3, 1e3),
    "D": st.sampled_from([0.0, math.inf]) | st.floats(1e-3, 1e3),
}
L = st.sampled_from([0.0, 1e-300]) | st.floats(1e-3, 1e3)
MODES = ("composition", "sc", "constrained")
CLOSED_FORM = {
    ("gd", "composition"): acc.bound_gd_composition,
    ("gd", "sc"): acc.bound_gd_sc,
    ("gd", "constrained"): acc.bound_gd_proj,
    ("cgd", "composition"): acc.bound_cgd_composition,
    ("cgd", "sc"): acc.bound_cgd_sc,
    ("cgd", "constrained"): acc.bound_cgd_proj,
}
COMPOSITE = {"composition": acc.bound_sgd_composition, "sc": acc.bound_sgd_sc,
             "constrained": acc.bound_sgd_proj}
EPS = [0.0, 0.5, 1.0, 4.0, math.inf]


def _tau(data, t):
    """A window start: the edges 0, t - 1, t and -1, or any in [0, t)."""
    return data.draw(st.sampled_from([0, t - 1, t, -1]) | st.integers(0, t - 1))


def _shared(data):
    return {name: data.draw(values) for name, values in FIELDS.items()}


@given(st.data())
def test_closed_form_bound_is_a_mu_at_least_0_or_a_domain_error(data):
    kind = data.draw(st.sampled_from(["gd", "cgd"]))
    mode = data.draw(st.sampled_from(MODES))
    if kind == "gd":
        sizes = dict(n=data.draw(st.integers(1, 1000)),
                     steps=data.draw(st.integers(1, 10 ** 5)))
    else:
        l, b = data.draw(st.integers(1, 50)), data.draw(st.integers(1, 20))
        sizes = dict(n=l * b, b=b, epochs=data.draw(st.integers(1, 10 ** 5 // l)))
    try:
        p = acc.AlgoParams(kind=kind, L=data.draw(L), **_shared(data), **sizes)
        windowed = (kind, mode) == ("gd", "constrained") and data.draw(st.booleans())
        bound = CLOSED_FORM[kind, mode]
        mu = bound(p, _tau(data, p.t)) if windowed else bound(p)
    except DomainError:
        return
    assert mu >= 0.0  # +inf passes, nan fails


def _sgd_params(data, ratio):
    """sgd parameters with a drawn sensitivity ratio L/(b sigma): the
    per-step factors have mu = ratio times 1, 2 or 2 sqrt(2)."""
    n = data.draw(st.integers(1, 1000))
    b = data.draw(st.integers(1, n))
    shared = _shared(data)
    L = data.draw(ratio) * b * shared["sigma"]
    t = data.draw(st.integers(1, 64) | st.integers(1, 10 ** 5))
    return acc.AlgoParams(kind="sgd", n=n, b=b, L=L, steps=t, **shared)


def _composite(data, p):
    mode = data.draw(st.sampled_from(MODES))
    if mode == "composition":
        return acc.bound_sgd_composition(p)
    return COMPOSITE[mode](p, _tau(data, p.t))


def _small(cb) -> bool:
    """Every lattice of the composite is at most about a million points."""
    heads = [f.mu for f in cb.factors if isinstance(f, acc.GdpFactor)]
    return math.hypot(*heads) <= 10.0 and all(
        f.multiplicity <= 64 and f.mu * math.sqrt(f.multiplicity) <= 10.0
        for f in cb.factors if isinstance(f, acc.SubsampledGdpFactor))


def _check_deltas(cb):
    deltas = [d for _, d in prv.evaluate_composite(cb, EPS)]
    assert all(0.0 <= d <= 1.0 for d in deltas)
    assert deltas == sorted(deltas, reverse=True)


@given(st.data())
def test_sgd_bound_is_finite_factors_or_a_domain_error(data):
    # Per-step mu = 0 or 0.02 and up; the large-batch regime is below.
    try:
        p = _sgd_params(data, st.sampled_from([0.0]) | st.floats(0.02, 1.0))
        cb = _composite(data, p)
    except DomainError:
        return
    assert all(0.0 <= f.mu < math.inf for f in cb.factors)
    if _small(cb):
        _check_deltas(cb)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: a per-step mu below "
                   "10 meshes has no lattice at the fixed mesh")
def test_large_batch_sgd_bound_evaluates():
    refused = []

    # Per-step mu in (0, 0.01) for every factor, 1e-300 included.
    @settings(max_examples=10)
    @given(st.data())
    def draw(data):
        try:
            p = _sgd_params(data, st.sampled_from([1e-300]) | st.floats(1e-4, 0.0035))
            cb = _composite(data, p)
        except DomainError:
            return
        if _small(cb):
            try:
                _check_deltas(cb)
            except ConfigurationError as exc:
                refused.append(exc)

    draw()
    assert not refused


GD_PROJ = dict(kind="gd", eta=0.1, sigma=2, n=10, L=1, steps=200, M=10, D=1)
CGD_PROJ = dict(kind="cgd", eta=0.1, sigma=2, n=10, b=2, L=1, epochs=40, M=10,
                D=1)
SGD_PROJ = dict(kind="sgd", eta=1e-300, sigma=1e-300, n=500, b=25, L=4,
                steps=50, M=10, D=1, eps=1)


def _argv(command, params, **change):
    argv = command.split()
    for name, value in (params | change).items():
        argv += [f"--{name}", str(value)]
    return argv


@pytest.mark.parametrize("argv, message", [
    # Ended in a ZeroDivisionError: the window form had no eta check.
    (_argv("bound --constrained", GD_PROJ, eta=0, tau=5), "need 0 < eta"),
    (_argv("bound --constrained", GD_PROJ, eta=0, tau=0), "need 0 < eta"),
    # eta L or eta sigma underflows to 0 in a denominator.
    (_argv("bound --constrained", GD_PROJ, eta=1e-300, L=1e-300), "underflow"),
    (_argv("bound --constrained", CGD_PROJ, eta=1e-300, L=1e-300), "underflow"),
    (_argv("bound --constrained", SGD_PROJ), "underflow"),
    (_argv("bound --constrained", SGD_PROJ, tau=25), "underflow"),
    (_argv("sweep-tau", SGD_PROJ), "underflow"),
    # Exited 0: tau outside [0, t) went unchecked at L = 0 or D = 0.
    (_argv("bound --constrained", GD_PROJ, L=0, tau=999999), "need 0 <= tau < t"),
    (_argv("bound --constrained", GD_PROJ, D=0, tau=-5), "need 0 <= tau < t"),
    # Exited 0: eta = 0 went unchecked at L = 0, or at D = 0 for gd.
    (_argv("bound --constrained", GD_PROJ, eta=0, L=0), "need 0 < eta"),
    (_argv("bound --constrained", GD_PROJ, eta=0, D=0), "need 0 < eta"),
    (_argv("bound --constrained", CGD_PROJ, eta=0, L=0), "need 0 < eta"),
], ids=["gd-eta-0-tau", "gd-eta-0-tau-0", "gd-eta-L", "cgd-eta-L",
        "sgd-eta-sigma", "sgd-eta-sigma-tau", "sweep-eta-sigma",
        "gd-L-0-tau-past-t", "gd-D-0-tau-negative", "gd-eta-0-L-0",
        "gd-eta-0-D-0", "cgd-eta-0-L-0"])
def test_request_outside_the_domain_exits_2(argv, message, capsys):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("invalid request: ") and message in out.err
