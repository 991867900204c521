"""Golden corpus: outputs that must stay the same bytes from change to change.

Four groups, each compared with the digests stored in golden.json:
- readme: every command of the README's CLI block, run in process through
  cli.main, with `verify` at --trials 5000 and seeds 0-2 in place of the
  README's 200,000 trials; hashed over the exit code, stdout, stderr and
  each file written;
- sweeps: 40 seeded sweep_tau runs, proj and sc, each read at the 61 eps of
  EPS; hashed over float.hex of the taus, the delta matrix and the best;
- composites: 40 seeded sgd composites, p < 1 and folded p = 1, with and
  without a head factor, evaluated at EPS; hashed over float.hex of delta;
- routes: one composite for each way evaluate_composite can turn factors
  into a lattice, each read at EPS, at ROUTE_EPS and at no eps, and the sgd
  `bound` requests that no README example makes (an sc bound that sweeps
  for its window, as JSON and as CSV, and the composition bound); hashed
  over float.hex of each (eps, delta) pair, or the error raised, and over
  the CLI text as in readme.

On a mismatch the test names the group and the items that moved, and prints
the largest relative change over the stored values of each item (every
number for the sweeps' best and the composites, at most MAX_VALUES evenly
spaced numbers of a README output). A change that moves outputs on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which groups moved and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from fdp_accountant import accountant as acc
from fdp_accountant import cli, prv
from fdp_accountant.errors import ConfigurationError
from test_readme import COMMANDS

GOLDEN = Path(__file__).with_name("golden.json")
EPS = [round(0.1 * i, 1) for i in range(61)]    # 0, 0.1, ..., 6
SEED = 31
MAX_VALUES = 200
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _hex(obj) -> str:
    """obj with every float as float.hex, so a digest sees every bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_hex(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_hex(v)}" for k, v in obj.items()) + "}"
    return str(obj)


def _item(text: str, values) -> dict:
    return {"digest": hashlib.sha256(text.encode()).hexdigest()[:16],
            "values": [float(v) for v in values]}


# -- readme --------------------------------------------------------------------


def _readme_argvs() -> dict:
    """Each README command by name, with verify at 5000 trials, seeds 0-2."""
    argvs = {}
    for i, argv in enumerate(COMMANDS):
        if argv[0] == "verify":
            for seed in range(3):
                argvs[f"{i:02d}-verify-seed{seed}"] = [
                    "verify", "--trials", "5000", "--seed", str(seed)]
        else:
            argvs[f"{i:02d}-{argv[0]}"] = argv
    return argvs


def _run_cli(argv) -> str:
    """The exit code, stdout, stderr and written files of one in-process
    cli.main call, run in an empty directory, as one text."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            files = [f"--- {name}\n{Path(name).read_text()}"
                     for name in sorted(os.listdir(tmp))]
        finally:
            os.chdir(cwd)
    return "\n".join([f"exit {code}", out.getvalue(), err.getvalue(), *files])


def _readme_items() -> dict:
    items = {}
    for name, argv in _readme_argvs().items():
        text = _run_cli(argv)
        numbers = _NUMBER.findall(text)
        stride = max(1, math.ceil(len(numbers) / MAX_VALUES))
        items[name] = _item(text, numbers[::stride])
    return items


# -- sweeps --------------------------------------------------------------------


def _sweep_runs(count=40, seed=SEED):
    """Seeded tau-sweep-style runs: every fourth one sc, the rest proj, over
    the benchmark's ranges of rate, batch, noise and per-step ratio, with
    100 to 800 steps."""
    rng = random.Random(seed)
    runs = []
    for i in range(count):
        setting = "sc" if i % 4 == 3 else "proj"
        b = rng.randint(16, 128)
        rate = math.exp(rng.uniform(math.log(0.005), math.log(0.1)))
        sigma = rng.uniform(2.0, 6.0)
        ratio = rng.uniform(0.01, 0.1)
        steps = rng.randint(100, 800)
        if setting == "sc":
            eta = rng.uniform(0.03, 0.06)
            extra = dict(m=1.0, M=10.0)
        else:
            eta = rng.uniform(0.01, 0.1)
            extra = dict(M=1.0 / eta, D=rng.uniform(2.0, 8.0) * eta * sigma)
        runs.append((setting, acc.AlgoParams(
            kind="sgd", eta=eta, sigma=sigma, n=round(b / rate), b=b,
            L=ratio * b * sigma, steps=steps, **extra)))
    return runs


def _sweep_items() -> dict:
    items = {}
    for i, (setting, p) in enumerate(_sweep_runs()):
        out = acc.sweep_tau(p, EPS, setting=setting)
        items[f"{i:02d}-{setting}"] = _item(
            _hex([out["taus"], out["deltas"], out["best"]]),
            [entry["delta"] for entry in out["best"]])
    return items


# -- composites ----------------------------------------------------------------


def _factor_mu(mu_clt: float, p: float, t: int) -> float:
    """The per-step mu whose t-fold composition at rate p has CLT limit
    mu_clt (bisection; clt_subsampled is increasing in mu)."""
    lo, hi = 0.0, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = ((mid, hi) if acc.clt_subsampled(mid, p, t) < mu_clt
                  else (lo, mid))
    return hi


def _composites(count=40, seed=SEED):
    """Seeded privacy-profile-style composites, in turn: the composition
    bound at p < 1 (no head) and at p = 1 (folded into a head), and the proj
    bound at p < 1 and at p = 1 (each with its head factor). Batch 32 and
    sigma 4; the subsampled part has GDP size 0.5 to 5 (its CLT limit when
    p < 1)."""
    rng = random.Random(seed)
    b, sigma = 32, 4.0
    kinds = ("composition", "p1-composition", "proj", "p1-proj")
    out = []
    for i in range(count):
        kind = kinds[i % 4]
        proj = kind.endswith("proj")
        mu_sub, eta = rng.uniform(0.5, 5.0), rng.uniform(0.02, 0.1)
        if kind.startswith("p1"):
            steps, n = rng.randint(20, 400), b
        else:
            steps = rng.randint(1000, 20000)
            n = round(b / math.exp(rng.uniform(math.log(0.001), math.log(0.05))))
        w = max(1, round(rng.uniform(0.05, 1.0) * steps)) if proj else steps
        mu = mu_sub / math.sqrt(w) if n == b else _factor_mu(mu_sub, b / n, w)
        # The subsampled factor is G(L/(b sigma)) for the composition bound
        # and G(2 sqrt(2) L/(b sigma)) for the proj bound.
        L = mu / (2.0 * math.sqrt(2.0) if proj else 1.0) * b * sigma
        params = dict(kind="sgd", eta=eta, sigma=sigma, n=n, b=b, L=L,
                      steps=steps)
        if proj:
            D = rng.uniform(0.2, 2.0) * eta * sigma * math.sqrt(w / 2.0)
            p = acc.AlgoParams(**params, M=1.0 / eta, D=D)
            out.append((kind, acc.bound_sgd_proj(p, steps - w)))
        else:
            out.append((kind, acc.bound_sgd_composition(acc.AlgoParams(**params))))
    return out


def _composite_items() -> dict:
    items = {}
    for i, (kind, composite) in enumerate(_composites()):
        deltas = [d for _, d in prv.evaluate_composite(composite, EPS)]
        items[f"{i:02d}-{kind}"] = _item(_hex(deltas), deltas)
    return items


# -- routes --------------------------------------------------------------------


ROUTE_EPS = [-math.inf, -1.0, 0.0, 0.5, 0.5, 2.0, math.inf, 1.0, -0.25]
_P_LT_1 = (acc.SubsampledGdpFactor(0.4, 0.1, 10),
           acc.SubsampledGdpFactor(0.6, 0.1, 1))
ROUTES = {
    "narrow-head": (acc.GdpFactor(0.005), *_P_LT_1),   # added at query time
    "lone-gdp": (acc.GdpFactor(1.3),),
    "wide-p1-k1": (acc.SubsampledGdpFactor(0.8, 1.0, 1),),   # own lattice
    "narrow-p1-k1": (acc.SubsampledGdpFactor(0.005, 1.0, 1),),   # folds
    "narrow-p1-k1-rest": (acc.SubsampledGdpFactor(0.005, 1.0, 1), *_P_LT_1),
    "gdp0-rest": (acc.GdpFactor(0.0), *_P_LT_1),
    "mix": (acc.GdpFactor(0.5), acc.SubsampledGdpFactor(0.8, 1.0, 4),
            acc.SubsampledGdpFactor(0.8, 0.2, 12),
            acc.SubsampledGdpFactor(0.3, 0.05, 3)),
    "empty": (),
}
_SGD = ["--kind", "sgd", "--eta", "0.05", "--sigma", "5", "--n", "1000",
        "--b", "100", "--L", "10", "--steps", "500", "--m", "1", "--M", "10",
        "--eps", "0.05", "--eps", "0", "--eps", "0.2"]
ROUTE_ARGVS = {
    "bound-sc-sweep-json": ["bound", "--sc", *_SGD],
    "bound-sc-sweep-csv": ["bound", "--sc", *_SGD, "--out", "deltas.csv"],
    "bound-composition": ["bound", "--composition", *_SGD],
}


def _route_items() -> dict:
    items = {}
    for name, factors in ROUTES.items():
        for tag, eps in [("eps", EPS), ("edges", ROUTE_EPS), ("none", [])]:
            try:
                pairs = prv.evaluate_composite(acc.CompositeBound(factors), eps)
            except ConfigurationError as exc:   # a refusal is an output too
                items[f"{name}-{tag}"] = _item(f"{type(exc).__name__}: {exc}", [])
                continue
            items[f"{name}-{tag}"] = _item(
                _hex(pairs), [d for _, d in pairs if math.isfinite(d)])
    for name, argv in ROUTE_ARGVS.items():
        text = _run_cli(argv)
        items[name] = _item(text, _NUMBER.findall(text)[:MAX_VALUES])
    return items


GROUPS = {"readme": _readme_items, "sweeps": _sweep_items,
          "composites": _composite_items, "routes": _route_items}


def _group_digest(items: dict) -> str:
    text = "".join(f"{name}={item['digest']};" for name, item in items.items())
    return hashlib.sha256(text.encode()).hexdigest()


def _relative_change(old, new) -> float:
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        if a != b:
            worst = max(worst, abs(b - a) / abs(a) if a else math.inf)
    return worst


def _mismatch(name: str, doc: dict, items: dict) -> str:
    stored = doc["groups"][name]
    moved = [k for k in items.keys() | stored["items"].keys()
             if items.get(k, {}).get("digest")
             != stored["items"].get(k, {}).get("digest")]
    changes = {k: _relative_change(stored["items"][k]["values"],
                                   items[k]["values"])
               for k in moved if k in items and k in stored["items"]}
    names = sorted(moved)
    listed = ", ".join(names[:8]) + (", ..." if len(names) > 8 else "")
    lines = [f"golden group {name!r} moved: {len(moved)} of "
             f"{len(stored['items'])} items ({listed})"]
    if changes:
        worst = max(changes, key=changes.get)
        lines.append(f"largest relative change over the stored values: "
                     f"{changes[worst]:.3g} ({worst})")
    versions, now = doc["versions"], _versions()
    differ = [f"{lib} {versions[lib]} -> {now[lib]}" for lib in now
              if versions.get(lib) != now[lib]]
    lines.append("digests stored with " + ", ".join(
        f"{lib} {v}" for lib, v in versions.items())
        + ("; versions differ: " + ", ".join(differ) if differ
           else "; the same versions run here"))
    return "\n".join(lines)


@pytest.mark.parametrize("name", list(GROUPS))
def test_golden_outputs_are_unchanged(name):
    doc = json.loads(GOLDEN.read_text())
    items = GROUPS[name]()
    if _group_digest(items) != doc["groups"][name]["digest"]:
        pytest.fail(_mismatch(name, doc, items), pytrace=False)


def _write_golden() -> None:
    groups = {}
    for name, build in GROUPS.items():
        items = build()
        groups[name] = {"digest": _group_digest(items), "items": items}
    # One item a line, so that a diff of the file shows which items moved.
    lines = ["{", f'"versions": {json.dumps(_versions())},', '"groups": {']
    for g, (name, group) in enumerate(groups.items()):
        lines.append(f'"{name}": {{"digest": "{group["digest"]}", "items": {{')
        entries = [f"{json.dumps(k)}: {json.dumps(v)}"
                   for k, v in group["items"].items()]
        lines.append(",\n".join(entries))
        lines.append("}}" + ("," if g < len(groups) - 1 else ""))
    lines += ["}", "}"]
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write_golden()
    sys.stdout.write(f"wrote {GOLDEN}\n")
