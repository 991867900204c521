import argparse
import dataclasses
import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from fdp_accountant import accountant as acct
from fdp_accountant import cli, oracle, prv
from fdp_accountant.tradeoff import TradeoffCurve, alpha_grid, curve_of_gdp
from oracles import curve_at


def read_curve_csv(path) -> TradeoffCurve:
    """The curve of a CSV written by the CLI (header alpha,f)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    return TradeoffCurve(data[:, 0], data[:, 1])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_gd_sc_example(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "gd", "--sc", "--eta", "0.05",
                       "--m", "1", "--M", "10", "--steps", "160",
                       "--leff", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == pytest.approx(0.624, abs=5e-4)


def test_bound_composition_example(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "gd", "--composition",
                       "--eta", "0.05", "--m", "1", "--M", "10",
                       "--steps", "160", "--leff", "0.1")
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(1.265, abs=5e-4)


def test_bound_missing_m_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--kind", "gd", "--sc", "--eta", "0.05",
                       "--M", "10", "--steps", "160", "--leff", "0.1")
    assert code == 2
    assert "m > 0" in err


def test_bound_without_required_fields_exits_2(capsys):
    code, _, err = run(capsys, "bound", "--kind", "gd", "--sc")
    assert code == 2
    assert "['eta', 'sigma', 'n', 'L']" in err


def test_bound_conversions(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "gd", "--sc", "--eta", "0.05",
                       "--m", "1", "--M", "10", "--steps", "160",
                       "--leff", "0.1", "--delta", "1e-5")
    doc = json.loads(out)
    assert doc["conversions"]["eps_at_delta"][0]["delta"] == 1e-5
    assert doc["conversions"]["eps_at_delta"][0]["eps"] > 0


def test_bound_sgd_composite(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "sgd", "--sc",
                       "--eta", "0.02", "--sigma", "4", "--n", "400",
                       "--b", "40", "--L", "4", "--steps", "50", "--m", "1",
                       "--M", "10", "--tau", "40", "--eps", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["composite"]) == 3
    assert doc["delta_at_eps"][0]["eps"] == 1.0


SGD_README_SC = ("--kind", "sgd", "--sc", "--eta", "0.05", "--sigma", "5",
                 "--n", "1000", "--b", "100", "--L", "10", "--steps", "500",
                 "--m", "1", "--M", "10")
SGD_PROJ = ("--kind", "sgd", "--constrained", "--eta", "0.05", "--sigma", "4",
            "--n", "500", "--b", "25", "--L", "4", "--steps", "300",
            "--M", "20", "--D", "1")


@pytest.mark.parametrize("argv, setting", [(SGD_README_SC, "sc"),
                                           (SGD_PROJ, "proj")],
                         ids=["sc", "proj"])
def test_sgd_bound_defaults_to_the_sweeps_best_tau(argv, setting, capsys,
                                                  monkeypatch):
    eps = [0.05, 0.5]
    evaluated = []
    evaluate = prv.evaluate_composite

    def counted(composite, eps_list):
        evaluated.append(composite)
        return evaluate(composite, eps_list)

    monkeypatch.setattr(prv, "evaluate_composite", counted)
    code, out, err = run(capsys, "bound", *argv, "--eps", "0.05",
                         "--eps", "0.5")
    assert code == 0, err
    doc = json.loads(out)
    params = acct.AlgoParams.from_dict(doc["params"])
    bound_calls = len(evaluated)
    sweep = acct.sweep_tau(params, eps, setting=setting)
    best = sweep["best"][0]
    assert doc["tau"] == best["tau"]
    assert doc["delta_at_eps"][0]["delta"] == best["delta"]
    # The bound evaluates each window of its sweep once, and reports the
    # row of the best window.
    assert bound_calls == len(sweep["taus"])
    assert [d["delta"] for d in doc["delta_at_eps"]] == sweep["deltas"][
        sweep["taus"].index(best["tau"])]
    # --tau still overrides it: a one-step window reads far worse.
    code, out, err = run(capsys, "bound", *argv, "--eps", "0.05",
                         "--eps", "0.5", "--tau", str(params.t - 1))
    assert code == 0, err
    one_step = json.loads(out)
    assert one_step["tau"] == params.t - 1 != doc["tau"]
    assert one_step["delta_at_eps"][0]["delta"] > 2 * best["delta"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "gd", "eta": 0.05, "sigma": 1.0,
                               "n": 1, "L": 0.1, "steps": 10, "m": 1.0,
                               "M": 10.0}))
    code, out, _ = run(capsys, "bound", "--config", str(cfg), "--sc",
                       "--steps", "160")
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(0.624, abs=5e-4)


CONFIG_GD_SC = ("bound", "--sc", "--m", "1", "--M", "10", "--steps", "160",
                "--leff", "0.1")


@pytest.mark.parametrize("doc, err_part", [
    ([1, 2], "JSON object"),
    ({"kind": "gd", "eta": "0.05"}, "eta must be a number"),
    ({"kind": "gd", "eta": 0.05, "n": 1.5}, "n must be an integer"),
    ({"kind": "gd", "eta": 0.05, "n": math.inf}, "n must be an integer"),
    ({"kind": "gd", "eta": 0.05, "sigma": True}, "sigma must be a number"),
], ids=["array", "string-eta", "float-n", "infinite-n", "bool-sigma"])
def test_config_file_of_the_wrong_type_exits_2(doc, err_part, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))  # math.inf is written as Infinity
    code, out, err = run(capsys, *CONFIG_GD_SC, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err_part in err


def test_config_file_null_takes_the_default(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "gd", "eta": 0.05, "n": None}))
    code, out, _ = run(capsys, *CONFIG_GD_SC, "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(0.624, abs=5e-4)


@pytest.mark.parametrize("command", ["bound", "sweep-tau"])
def test_param_flags_are_the_json_fields_then_leff(command):
    # One --name flag per parameter field, in field order, then --leff;
    # constrained is no parameter flag (bound's --constrained is a mode).
    fields = [n for n in acct._JSON_FIELDS if n != "constrained"]
    (subs,) = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    actions = subs.choices[command]._actions
    param = [a for a in actions if a.dest in (*fields, "leff")]
    assert [a.option_strings for a in param] == [
        [f"--{n}"] for n in (*fields, "leff")]
    for a in param[1:]:
        types = (float if a.dest == "leff" else acct._JSON_FIELDS[a.dest][0])
        value = a.type("2")
        assert isinstance(value, types) and value == 2
        assert (a.type is int) == (types is int)
    assert tuple(param[0].choices) == acct._KINDS
    constrained = [a for a in actions if a.dest == "constrained"]
    if command == "bound":
        assert [(a.option_strings, a.const) for a in constrained] == [
            (["--constrained"], True)]
    else:
        assert constrained == []


def test_constrained_mode_sets_the_field_over_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "gd", "eta": 0.1, "sigma": 8.0, "n": 1,
                               "L": 0.5, "steps": 100, "M": 20.0,
                               "constrained": False}))
    code, out, err = run(capsys, "bound", "--config", str(cfg),
                         "--constrained", "--D", "1")
    assert code == 0, err
    assert json.loads(out)["params"]["constrained"] is True
    # Without the mode flag the config's value is kept.
    code, out, err = run(capsys, "bound", "--config", str(cfg), "--D", "1")
    assert code == 0, err
    assert json.loads(out)["params"]["constrained"] is False


def test_curve_round_trip(tmp_path, capsys):
    path = tmp_path / "g.csv"
    code, _, _ = run(capsys, "curve", "--mu", "0.961", "--out", str(path))
    assert code == 0
    back = read_curve_csv(path)
    ref = curve_of_gdp(0.961)
    assert np.array_equal(back.alphas, ref.alphas)
    assert np.array_equal(back.values, ref.values)


def test_curve_identity_endpoints(capsys):
    code, out, _ = run(capsys, "curve", "--grid", "11")
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,f"
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    assert float(last[0]) == 1.0 and float(last[1]) == 0.0


def test_subsampled_large_mu_curve_starts_at_1(capsys):
    code, out, _ = run(capsys, "curve", "--mu", "40", "--subsample-p", "1")
    assert code == 0
    assert out.splitlines()[1] == "0,1"


def test_subsampled_curve_matches_library(tmp_path, capsys):
    from fdp_accountant.tradeoff import subsample
    path = tmp_path / "c.csv"
    for mu, p, size in (("1.0", "0.25", ("--grid", "2001")), ("3", "0.5", ())):
        code, _, _ = run(capsys, "curve", "--mu", mu, "--subsample-p", p, *size,
                         "--out", str(path))
        assert code == 0
        back = read_curve_csv(path)
        ref = subsample(curve_of_gdp(float(mu), int(size[1]) if size else None), float(p))
        assert np.array_equal(back.values, ref.values)


def test_curve_help_labels_the_curve_an_estimate(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["curve", "--help"])
    assert done.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "The curve is an estimate" in out
    assert "can fall below the exact value" in out


def test_convert_commands(capsys):
    code, out, _ = run(capsys, "convert", "gdp-to-epsdelta", "--mu", "1",
                       "--delta", "1e-5")
    rows = json.loads(out)
    assert rows[0]["output"] > 0
    code, out, _ = run(capsys, "convert", "gdp-to-rdp", "--mu", "2",
                       "--order", "3")
    assert json.loads(out)[0]["output"] == 6.0
    # rdp eps grows with rho
    outs = []
    for rho in ("0.5", "1.0"):
        code, out, _ = run(capsys, "convert", "rdp-to-epsdelta", "--rho", rho,
                           "--delta", "1e-5")
        outs.append(json.loads(out)[0]["output"])
    assert outs[0] < outs[1]


def test_table_shapes(capsys):
    code, out, _ = run(capsys, "table", "--name", "gd-sc")
    lines = out.strip().splitlines()
    assert lines[0] == "t,c,mu_composition,mu"
    assert len(lines) == 1 + 15
    code, out, _ = run(capsys, "table", "--name", "cgd-sc")
    assert len(out.strip().splitlines()) == 1 + 27
    code, out, _ = run(capsys, "table", "--name", "gd-proj")
    assert len(out.strip().splitlines()) == 1 + 9
    for l in (10, 20, 40):
        code, out, _ = run(capsys, "table", "--name", f"cgd-proj-l{l}")
        assert len(out.strip().splitlines()) == 1 + 9
    for name in ("nope", "cgd-proj-l7", "cgd-proj-l1_0", "cgd-proj-l 20",
                 "cgd-proj-lx"):
        code, _, err = run(capsys, "table", "--name", name)
        assert code == 2
        assert all(table in err for table in (
            "gd-sc", "cgd-sc", "gd-proj", "cgd-proj-l10", "cgd-proj-l20",
            "cgd-proj-l40")), name


def test_verify_pass_and_tamper(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "verify.json"
    code, _, err = run(capsys, "verify", "--trials", "50000", "--seed", "0",
                       "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["passed"] and doc["max_ci"] > 0
    assert all(c["passed"] for c in doc["checks"])
    # A worst-case mu 20% too small must fail its exact-curve check.
    exact = oracle.worst_case_gd_sc_mu
    monkeypatch.setattr(oracle, "worst_case_gd_sc_mu",
                        lambda *args: 0.8 * exact(*args))
    code, _, err = run(capsys, "verify", "--trials", "50000", "--seed", "0")
    assert code == 4
    assert "FAIL" in err


@pytest.mark.parametrize("seed", range(10))
def test_verify_raises_no_false_alarm(capsys, seed):
    # An untampered simulation passes every check; across these seeds the
    # smallest margin is about +0.034.
    code, out, err = run(capsys, "verify", "--trials", "5000", "--seed",
                         str(seed))
    assert code == 0, err
    assert all(c["margin"] >= 0.0 for c in json.loads(out)["checks"])


@pytest.mark.parametrize("tamper,trials,failing", [
    ("drift", 50_000, "gd-sc-exact-curve"),
    ("contraction", 50_000, "gd-sc-exact-curve"),
    pytest.param("projection", 50_000, "gd-proj-one-sided", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="an unprojected pair (mu 0.625) falls below "
        "G(0.559) by at most about 0.026, inside the 50,000-trial band (0.031)")),
    ("projection", 200_000, "gd-proj-one-sided"),
])
def test_verify_fails_on_a_tampered_simulation(capsys, monkeypatch, tamper,
                                               trials, failing):
    if tamper == "drift":   # every drift 20% too large
        drifts = oracle._drifts
        monkeypatch.setattr(oracle, "_drifts", lambda spec: 1.2 * drifts(spec))
    elif tamper == "contraction":   # c = 1 - eta m / 2 = 0.975, not 0.95
        run_chunk = oracle._run_chunk
        monkeypatch.setattr(oracle, "_run_chunk", lambda spec, *task: run_chunk(
            dataclasses.replace(spec, m=spec.m / 2), *task))
    else:                   # the iterates are never projected
        monkeypatch.setattr(oracle, "_project", lambda x, half: None)
    code, _, err = run(capsys, "verify", "--trials", str(trials), "--seed", "0")
    assert code == 4
    assert f"FAIL  {failing} " in err


@pytest.mark.parametrize("argv,flag", [
    (("--trials", "1"), "--trials"),
    (("--trials", "0"), "--trials"),
    (("--seed", "-1"), "--seed"),
])
def test_verify_rejects_bad_trials_and_seed_up_front(argv, flag, capsys,
                                                     monkeypatch):
    def no_simulation(spec):
        raise AssertionError("simulate ran")
    monkeypatch.setattr(oracle, "simulate", no_simulation)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert flag in err


def test_verify_rejects_trials_at_which_a_check_could_not_fail(capsys):
    # At 64 trials the gd-proj-one-sided band (0.863) reaches the largest
    # value of its reference G(0.559) on the grid (0.861), so no simulated
    # curve could fail that check; at 65 the band is 0.850.
    code, out, err = run(capsys, "verify", "--trials", "64")
    assert code == 2
    assert out == ""
    assert "--trials" in err and "gd-proj-one-sided" in err
    code, out, _ = run(capsys, "verify", "--trials", "65")
    assert code == 0
    assert json.loads(out)["trials"] == 65


def test_verify_deterministic_reruns(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--trials", "20000", "--out", str(p1))
    run(capsys, "verify", "--trials", "20000", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_global_flags_before_or_after_subcommand(capsys):
    before = run(capsys, "--seed", "3", "verify", "--trials", "20000")
    after = run(capsys, "verify", "--trials", "20000", "--seed", "3")
    assert before == after
    assert json.loads(before[1])["seed"] == 3


def test_sweep_tau_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep-tau", "--kind", "sgd", "--sc",
                     "--eta", "0.02", "--sigma", "4", "--n", "400", "--b", "40",
                     "--L", "4", "--steps", "40", "--m", "1", "--M", "10",
                     "--eps", "1.0", "--candidates", "5",
                     "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,eps,delta"
    assert len(lines) > 1


def test_sweep_tau_rejects_zero_candidates(capsys):
    code, out, err = run(capsys, "sweep-tau", "--kind", "sgd", "--sc",
                         "--eta", "0.02", "--sigma", "4", "--n", "400",
                         "--b", "40", "--L", "4", "--steps", "40", "--m", "1",
                         "--M", "10", "--eps", "1.0", "--candidates", "0")
    assert code == 2
    assert out == ""
    assert "candidate count" in err


SGD_SC = ("--kind", "sgd", "--sc", "--eta", "0.02", "--sigma", "4",
          "--n", "400", "--b", "40", "--L", "4", "--steps", "40", "--m", "1",
          "--M", "10")
SWEEP_PROJ = ("sweep-tau", "--eta", "0.02", "--sigma", "4", "--n", "1000",
              "--b", "10", "--L", "160", "--M", "50", "--D", "0.5", "--eps", "1")


@pytest.mark.parametrize("argv", [
    (*SWEEP_PROJ, "--steps", "200"),
    (*SWEEP_PROJ, "--kind", "cgd", "--epochs", "2"),
    ("sweep-tau", *SGD_SC[2:], "--candidates", "3"),
], ids=["proj-no-kind", "proj-cgd", "sc-no-kind"])
def test_sweep_tau_rejects_runs_that_are_not_sgd(argv, capsys):
    # The sgd bounds assume amplification by random batch sampling.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "kind 'sgd'" in err


@pytest.mark.parametrize("argv", [
    ("bound", *SGD_SC, "--tau", "30", "--eps", "1.0", "--eps", "nan"),
    ("sweep-tau", *SGD_SC, "--eps", "nan", "--candidates", "3"),
], ids=["bound", "sweep-tau"])
def test_nan_eps_exits_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nan" in err


GD_SC = ("bound", "--kind", "gd", "--sc", "--eta", "0.05", "--M", "10",
         "--steps", "160")


@pytest.mark.parametrize("argv", [
    (*GD_SC, "--m", "1", "--leff", "nan"),
    (*GD_SC, "--m", "nan", "--leff", "0.1"),
    (*GD_SC, "--m", "1", "--leff", "0.1", "--eta", "nan"),
    ("bound", *SGD_SC, "--tau", "30", "--eps", "1.0", "--sigma", "nan"),
    (*GD_SC, "--m", "1", "--leff", "0.1", "--M", "nan"),
    ("bound", "--kind", "gd", "--constrained", "--eta", "0.1", "--sigma", "8",
     "--n", "1", "--L", "0.5", "--steps", "100", "--M", "20", "--D", "nan"),
], ids=["L", "m", "eta", "sigma", "M", "D"])
def test_nan_params_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nan" in err


@pytest.mark.parametrize("argv", [
    (*GD_SC, "--m", "1", "--leff", "inf"),
    (*GD_SC, "--m", "1", "--leff", "0.1", "--sigma", "inf"),
    (*GD_SC, "--m", "1", "--L", "inf", "--sigma", "1", "--n", "1"),
], ids=["leff", "sigma", "L"])
def test_infinite_params_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "inf" in err


def test_bound_sgd_rejects_delta(capsys):
    code, out, err = run(capsys, "bound", *SGD_SC, "--tau", "30",
                         "--delta", "1e-5")
    assert code == 2
    assert out == ""
    assert "--eps" in err


def test_bound_curve_ref_and_csv_outputs(tmp_path, capsys):
    curve_path = tmp_path / "bound.csv"
    code, out, _ = run(capsys, "bound", "--kind", "gd", "--sc", "--eta", "0.05",
                       "--m", "1", "--M", "10", "--steps", "160",
                       "--leff", "0.1", "--curve-out", str(curve_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["curve_ref"] == str(curve_path)
    back = read_curve_csv(curve_path)
    assert curve_at(back, 0.5) == pytest.approx(
        curve_at(curve_of_gdp(doc["mu"]), 0.5), abs=1e-12)

    table_path = tmp_path / "deltas.csv"
    code, _, _ = run(capsys, "bound", "--kind", "sgd", "--sc", "--eta", "0.02",
                     "--sigma", "4", "--n", "400", "--b", "40", "--L", "4",
                     "--steps", "40", "--m", "1", "--M", "10", "--tau", "30",
                     "--eps", "0.5", "--eps", "1.0", "--out", str(table_path))
    assert code == 0
    lines = table_path.read_text().splitlines()
    assert lines[0] == "eps,delta,uncertainty"
    assert len(lines) == 3


def test_bound_sgd_csv_rows_are_the_json_deltas_with_the_mesh_heuristic(
        tmp_path, capsys):
    argv = ("bound", *SGD_SC, "--tau", "30", "--eps", "0.5", "--eps", "1.0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    pairs = json.loads(out)["delta_at_eps"]
    path = tmp_path / "deltas.csv"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    unc = 0.5 * prv.DEFAULT_MESH ** 2
    assert path.read_text() == "eps,delta,uncertainty\n" + "".join(
        f"{p['eps']:.17g},{p['delta']:.17g},{unc:.17g}\n" for p in pairs)


def test_bound_sgd_composition_mode(capsys):
    code, out, _ = run(capsys, "bound", "--kind", "sgd", "--composition",
                       "--eta", "0.05", "--sigma", "2", "--n", "50", "--b", "50",
                       "--L", "10", "--steps", "16", "--eps", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["composite"][0]["multiplicity"] == 16
    # full batch: matches the Gaussian composition bound's conversion
    from fdp_accountant import conversions as cv
    import math
    mu = 10 * math.sqrt(16) / (50 * 2)
    assert doc["delta_at_eps"][0]["delta"] == pytest.approx(
        cv.gdp_to_delta(mu, 1.0), abs=1e-4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, eps", [
    ("1e-160", "1"),        # both log Phi terms are -inf
    ("1", "inf"),
    ("2.259580655798291e-07", "718.0027729730126"),  # exp overflowed
    ("1e-5", "1"),          # printed -0.0
], ids=["tiny-mu", "infinite-eps", "overflow", "negative-zero"])
def test_gdp_to_delta_is_a_plain_zero_where_delta_vanishes(mu, eps, capsys):
    code, out, err = run(capsys, "convert", "gdp-to-epsdelta", "--mu", mu,
                         "--eps", eps)
    assert code == 0
    assert err == ""
    assert '"output": 0.0}' in out


@pytest.mark.parametrize("argv", [
    ("convert", "gdp-to-epsdelta", "--mu", "inf", "--eps", "1"),
    ("convert", "gdp-to-rdp", "--mu", "inf"),
    ("convert", "rdp-to-epsdelta", "--rho", "inf"),
], ids=["gdp-to-epsdelta", "gdp-to-rdp", "rdp-to-epsdelta"])
def test_infinite_conversion_inputs_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "inf" in err


@pytest.mark.parametrize("argv, mu", [
    (("convert", "gdp-to-epsdelta", "--mu", "12000", "--delta", "1e-5"),
     12000.0),
    (("bound", "--kind", "gd", "--composition", "--eta", "0.05",
      "--steps", "1600000", "--leff", "10", "--delta", "1e-5"),
     10.0 * math.sqrt(1600000)),
], ids=["convert", "bound"])
def test_eps_beyond_1e8_is_found(argv, mu, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    eps = (doc[0]["output"] if argv[0] == "convert"
           else doc["conversions"]["eps_at_delta"][0]["eps"])
    # At this mu, delta(eps) is Phi(-eps/mu + mu/2) to 4e-4 relative.
    z = NormalDist().inv_cdf(1.0 - 1e-5)
    assert eps == pytest.approx(mu * (mu / 2 + z), rel=1e-7)
    assert eps > 7e7


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


SGD_COMPOSITION = ("--kind", "sgd", "--composition", "--eta", "0.05",
                   "--sigma", "2", "--n", "50", "--b", "5", "--L", "1",
                   "--steps", "16")


@pytest.mark.parametrize("argv, read", [
    (("convert", "gdp-to-epsdelta", "--mu", "1", "--eps", "inf"),
     lambda doc: (doc[0]["inputs"]["eps"], doc[0]["output"])),
    (("bound", *SGD_COMPOSITION, "--eps", "inf", "--eps", "1"),
     lambda doc: (doc["delta_at_eps"][0]["eps"],
                  doc["delta_at_eps"][0]["delta"])),
    (("sweep-tau", *SGD_SC, "--eps", "inf", "--candidates", "3"),
     lambda doc: (doc["eps"][0], max(row[0] for row in doc["deltas"]))),
], ids=["convert", "bound", "sweep-tau"])
def test_infinite_eps_is_written_as_json_null(argv, read, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert read(_strict_json(out)) == (None, 0.0)


CGD_PROJ = ("bound", "--kind", "cgd", "--constrained", "--eta", "0.02",
            "--sigma", "3", "--n", "20", "--b", "1", "--L", "0.5",
            "--epochs", "1000", "--M", "100", "--D", "1")


@pytest.mark.parametrize("argv, flag", [
    ((*GD_SC, "--m", "1", "--leff", "0.1", "--tau", "5"), "--tau"),
    ((*CGD_PROJ, "--tau", "5"), "--tau"),
    (("bound", *SGD_COMPOSITION, "--tau", "5", "--eps", "1"), "--tau"),
    ((*GD_SC, "--m", "1", "--leff", "0.1", "--eps", "1"), "--eps"),
    ((*CGD_PROJ, "--eps", "1"), "--eps"),
    (("bound", *SGD_SC, "--tau", "30", "--curve-out", "bound.csv"),
     "--curve-out"),
], ids=["gd-sc-tau", "cgd-tau", "sgd-composition-tau", "gd-eps", "cgd-eps",
        "sgd-curve-out"])
def test_bound_rejects_flags_it_would_ignore(argv, flag, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_bound_gd_constrained_takes_tau(capsys):
    code, out, err = run(capsys, "bound", "--kind", "gd", "--constrained",
                         "--eta", "0.1", "--sigma", "8", "--n", "1",
                         "--L", "0.5", "--steps", "100", "--M", "20",
                         "--D", "1", "--tau", "50")
    assert code == 0, err
    # The window form L sqrt(t - tau)/(n sigma) + D/(eta sigma sqrt(t - tau)).
    want = 0.5 * math.sqrt(50) / 8 + 1 / (0.1 * 8 * math.sqrt(50))
    assert json.loads(out)["mu"] == pytest.approx(want, rel=1e-12)


# One run per kind that every mode of that kind accepts.
EVERY_MODE = {
    "gd": ("--eta", "0.1", "--sigma", "8", "--n", "1", "--L", "0.5",
           "--steps", "100", "--m", "1", "--M", "10", "--D", "1"),
    "cgd": ("--eta", "0.02", "--sigma", "3", "--n", "20", "--b", "1",
            "--L", "0.5", "--epochs", "1000", "--m", "1", "--M", "10",
            "--D", "1"),
    "sgd": ("--eta", "0.02", "--sigma", "4", "--n", "400", "--b", "40",
            "--L", "4", "--steps", "50", "--m", "1", "--M", "10", "--D", "1",
            "--eps", "1"),
}


@pytest.mark.parametrize("kind, mode", list(cli._bounds()),
                         ids=[f"{k}-{m}" for k, m in cli._bounds()])
def test_tau_is_taken_by_the_windowed_bounds_only(kind, mode, capsys):
    argv = ("bound", "--kind", kind, f"--{mode}", *EVERY_MODE[kind])
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    params = acct.AlgoParams.from_dict(json.loads(out)["params"])
    code, out, err = run(capsys, *argv, "--tau", "30")
    bound, windowed = cli._bounds()[kind, mode]
    # The bounds with a window t - tau in the paper.
    assert windowed == (mode == "constrained" and kind != "cgd"
                        or (kind, mode) == ("sgd", "sc"))
    if not windowed:
        assert (code, out) == (2, "") and "--tau" in err
    elif kind == "sgd":
        assert code == 0, err
        doc = json.loads(out)
        assert doc["tau"] == 30
        assert doc["composite"] == bound(params, 30).describe()
    else:
        assert code == 0, err
        assert json.loads(out)["mu"] == bound(params, 30)


SWEEP_SC = ("sweep-tau", "--kind", "sgd", "--sc", "--eta", "0.02", "--sigma",
            "4", "--n", "400", "--b", "40", "--L", "4", "--steps", "40", "--m",
            "1", "--M", "10", "--candidates", "3")


@pytest.mark.parametrize("argv, flag", [
    (("convert", "gdp-to-rdp", "--mu", "2", "--grid", "5"), "--grid"),
    (("table", "--name", "gd-sc", "--grid", "7"), "--grid"),
    (("table", "--name", "gd-sc", "--seed", "3"), "--seed"),
    (("--seed", "0", "convert", "gdp-to-epsdelta", "--mu", "1"), "--seed"),
    (("curve", "--mu", "1", "--seed", "2", "--out", "c.csv"), "--seed"),
    ((*GD_SC, "--m", "1", "--leff", "0.1", "--grid", "11"), "--grid"),
    ((*GD_SC, "--m", "1", "--leff", "0.1", "--seed", "1"), "--seed"),
    (("bound", *SGD_SC, "--tau", "30", "--eps", "1", "--grid", "11"), "--grid"),
    ((*SWEEP_SC, "--grid", "5"), "--grid"),
    ((*SWEEP_SC, "--seed", "0"), "--seed"),
    (("curve", "--mu", "1", "--config", "/nonexistent.json"), "--config"),
    (("convert", "gdp-to-rdp", "--config", "/nonexistent.json"), "--config"),
    (("table", "--name", "gd-sc", "--config", "/nonexistent.json"), "--config"),
    (("--config", "/nonexistent.json", "verify", "--trials", "100"), "--config"),
], ids=["convert-grid", "table-grid", "table-seed", "seed-before-convert",
        "curve-seed", "gd-bound-grid", "gd-bound-seed", "sgd-bound-grid",
        "sweep-grid", "sweep-seed-0", "curve-config", "convert-config",
        "table-config", "config-before-verify"])
def test_global_flags_without_effect_exit_2(argv, flag, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err
    assert list(tmp_path.iterdir()) == []


def test_grid_sizes_a_gd_bound_curve(tmp_path, capsys):
    path = tmp_path / "bound.csv"
    code, out, err = run(capsys, *GD_SC, "--m", "1", "--leff", "0.1",
                         "--curve-out", str(path), "--grid", "11")
    assert code == 0, err
    back = read_curve_csv(path)
    assert np.array_equal(back.values,
                          curve_of_gdp(json.loads(out)["mu"], 11).values)


def test_verify_seed_defaults_to_0(capsys):
    default = run(capsys, "verify", "--trials", "2000")
    assert default == run(capsys, "verify", "--trials", "2000", "--seed", "0")
    assert json.loads(default[1])["seed"] == 0


@pytest.mark.parametrize("argv", [
    ("curve", "--mu", "1", "--grid", "0"),
    (*GD_SC, "--m", "1", "--leff", "0.1", "--curve-out", "bound.csv",
     "--grid", "0"),
], ids=["curve", "bound-curve-out"])
def test_grid_0_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "grid_size" in err
    assert list(tmp_path.iterdir()) == []


def test_curve_without_mu_is_the_identity(capsys):
    code, out, _ = run(capsys, "curve")
    assert code == 0
    data = np.loadtxt(out.splitlines()[1:], delimiter=",")
    assert np.array_equal(data[:, 0], alpha_grid())
    assert np.array_equal(data[:, 1], 1.0 - alpha_grid())

    code, out, err = run(capsys, "curve", "--subsample-p", "0.5")
    assert code == 0, err
    sub = np.loadtxt(out.splitlines()[1:], delimiter=",")
    assert np.array_equal(sub[:, 0], data[:, 0])
    assert np.max(np.abs(sub[:, 1] - data[:, 1])) <= 1e-15


def test_infinite_factor_mu_exits_2(capsys):
    # eta = 1e-300 and D = 1e300 make the window's GDP factor G(inf)
    code, out, err = run(capsys, "bound", "--kind", "sgd", "--constrained",
                         "--eta", "1e-300", "--sigma", "1", "--n", "10",
                         "--b", "5", "--L", "1", "--steps", "10", "--M", "1",
                         "--D", "1e300", "--tau", "5", "--eps", "1")
    assert code == 2
    assert out == ""
    assert "mu" in err and "inf" in err


def test_an_exceeded_accuracy_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(prv, "TAIL_BUDGET", -1.0)
    code, out, err = run(capsys, "bound", *SGD_PROJ, "--tau", "200",
                         "--eps", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("accuracy budget exceeded: ")


def test_a_factor_too_narrow_for_the_mesh_exits_2(capsys):
    # A large-batch proj sweep: the per-step mu 2 sqrt(2) L/(b sigma) is
    # 0.0057, below 10 meshes.
    code, out, err = run(capsys, "sweep-tau", "--kind", "sgd", "--eta",
                         "0.05", "--sigma", "1", "--n", "25000", "--b", "500",
                         "--L", "1", "--steps", "300", "--M", "20", "--D", "1",
                         "--eps", "1")
    assert code == 2
    assert out == ""
    assert "too coarse" in err


@pytest.mark.parametrize("params, setting, eps", [
    (dict(eta=0.02, sigma=4.0, n=400, b=400, L=4.0, steps=300, m=1.0, M=10.0),
     "sc", 0.1),
    (dict(eta=0.05, sigma=4.0, n=500, b=500, L=4.0, steps=2000, M=20.0, D=1.0),
     "proj", 1.0),
], ids=["sc", "proj"])
def test_full_batch_sweep_reads_the_folded_gaussian(params, setting, eps,
                                                    capsys):
    from fdp_accountant import conversions as cv
    # With b = n every subsampled factor is C_1(G(mu))^k = G(mu sqrt(k)).
    # Per step mu is 0.00707 or 0.00566, below 10 meshes: no factor could
    # have a lattice of its own, and all fold into the Gaussian head.
    argv = [f"--{key}={value:g}" for key, value in params.items()]
    code, out, err = run(capsys, "sweep-tau", "--kind", "sgd",
                         *(["--sc"] if setting == "sc" else []), *argv,
                         "--eps", str(eps))
    assert code == 0, err
    best, = json.loads(out)["best"]
    build = acct.bound_sgd_sc if setting == "sc" else acct.bound_sgd_proj
    cb = build(acct.AlgoParams(kind="sgd", **params,
                               constrained=setting == "proj"), best["tau"])
    mu = math.hypot(*[f.mu * math.sqrt(getattr(f, "multiplicity", 1))
                      for f in cb.factors])
    exact = cv.gdp_to_delta(mu, eps)
    assert exact > 1e-6
    # The lattice error of G(mu) at mu = 0.062 (sc) and 0.28 (proj).
    assert best["delta"] == pytest.approx(exact, rel=1e-4)


def test_an_oversized_folded_head_exits_2_before_any_composition(
        capsys, monkeypatch):
    # Per step mu is 2 sqrt(2) L/(b sigma) = 20 at p = 1, so the 300-step
    # window folds into G(346), whose lattice from 0 up to 12 sigma past its
    # mean exceeds MAX_LATTICE_POINTS. No factor lattice is built first.
    def unreachable(*args):
        raise AssertionError("a factor was built before the head check")

    for name in ("_subsampled_base", "self_compose", "convolve"):
        monkeypatch.setattr(prv, name, unreachable)
    code, out, err = run(capsys, "bound", "--kind", "sgd", "--constrained",
                         "--eta", "0.05", "--sigma", "4", "--n", "500",
                         "--b", "500", "--L", "14142.2", "--steps", "300",
                         "--M", "20", "--D", "1", "--tau", "0", "--eps", "1")
    assert code == 2
    assert out == ""
    assert "exceeds the limit" in err
