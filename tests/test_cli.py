import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from fdp_accountant import cli, oracle
from fdp_accountant.tradeoff import TradeoffCurve, curve_of_gdp


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


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "gd", "eta": 0.05, "sigma": 1.0,
                               "n": 1, "L": 0.1, "steps": 10, "m": 1.0,
                               "M": 10.0}))
    code, out, _ = run(capsys, "bound", "--config", str(cfg), "--sc",
                       "--steps", "160")
    assert code == 0
    assert json.loads(out)["mu"] == pytest.approx(0.624, abs=5e-4)


def test_curve_round_trip(tmp_path, capsys):
    path = tmp_path / "g.csv"
    code, _, _ = run(capsys, "curve", "--mu", "0.961", "--out", str(path))
    assert code == 0
    back = TradeoffCurve.from_csv(path)
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


def test_subsampled_curve_matches_library(tmp_path, capsys):
    from fdp_accountant.tradeoff import subsample
    path = tmp_path / "c.csv"
    code, _, _ = run(capsys, "curve", "--mu", "1.0", "--subsample-p", "0.25",
                     "--grid", "2001", "--out", str(path))
    assert code == 0
    back = TradeoffCurve.from_csv(path)
    ref = subsample(curve_of_gdp(1.0, 2001), 0.25)
    assert np.array_equal(back.values, ref.values)


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
    code, _, err = run(capsys, "table", "--name", "nope")
    assert code == 2


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
    back = TradeoffCurve.from_csv(curve_path)
    assert back(0.5) == pytest.approx(curve_of_gdp(doc["mu"])(0.5), abs=1e-12)

    table_path = tmp_path / "deltas.csv"
    code, _, _ = run(capsys, "bound", "--kind", "sgd", "--sc", "--eta", "0.02",
                     "--sigma", "4", "--n", "400", "--b", "40", "--L", "4",
                     "--steps", "40", "--m", "1", "--M", "10", "--tau", "30",
                     "--eps", "0.5", "--eps", "1.0", "--out", str(table_path))
    assert code == 0
    lines = table_path.read_text().splitlines()
    assert lines[0] == "eps,delta,uncertainty"
    assert len(lines) == 3


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
