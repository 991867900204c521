"""Every command in the README's CLI block runs and exits 0, the closed-form
ones do so without loading NumPy or SciPy, and verify without SciPy."""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fdp_accountant
from fdp_accountant import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands():
    """argv lists of the `fdp-accountant ...` lines of the `## CLI` block,
    with backslash continuations joined and trailing comments dropped."""
    text = README.read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("fdp-accountant ")]


COMMANDS = _cli_commands()


def test_readme_covers_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {
        "bound", "curve", "convert", "table", "verify", "sweep-tau"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[
    f"{i:02d}-{argv[0]}" for i, argv in enumerate(COMMANDS)])
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


def _closed_form(argv):
    """gd/cgd bounds, conversions and tables: no PRV, curve or Monte Carlo."""
    if argv[0] == "bound":
        return argv[argv.index("--kind") + 1] != "sgd"
    return argv[0] in ("convert", "table")


# Runs each argv list of argv[1] through cli.main in one process; after each
# command, writes its exit code and the NumPy and SciPy modules loaded so far
# to stderr.
_IMPORT_PROBE = """
import json, sys
from fdp_accountant import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded = sorted(m for m in sys.modules
                    if m.split(".")[0] in ("numpy", "scipy"))
    sys.stderr.write(json.dumps([code, loaded]) + "\\n")
"""


def _fresh_python(*args, cwd):
    src = str(Path(fdp_accountant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def test_importing_the_cli_loads_neither_numpy_nor_scipy(tmp_path):
    proc = _fresh_python("-c", "import sys, fdp_accountant.cli; "
                         "print('scipy' in sys.modules, 'numpy' in sys.modules)",
                         cwd=tmp_path)
    assert proc.stdout.split() == ["False", "False"], proc.stderr


def test_importing_the_oracle_does_not_load_scipy_optimize(tmp_path):
    # verify imports the oracle; only the test oracles' schedule QP
    # (tests/oracles.py) needs scipy.optimize
    proc = _fresh_python("-c", "import sys, fdp_accountant.oracle; "
                         "print('scipy.optimize' in sys.modules)", cwd=tmp_path)
    assert proc.stdout.split() == ["False"], proc.stderr


def _probe(argvs, cwd):
    """Runs the argv lists in one fresh process; returns [exit code, NumPy and
    SciPy modules loaded] after each, and the stdout of all."""
    proc = _fresh_python("-c", _IMPORT_PROBE, json.dumps(argvs), cwd=cwd)
    runs = [json.loads(line) for line in proc.stderr.splitlines()
            if line.startswith("[")]
    assert len(runs) == len(argvs), proc.stderr
    return runs, proc.stdout


# verify exits 0 at this trial count on seeds 0-39 as well as at the
# README's seed.
PROBE_TRIALS = 5000


def test_closed_form_examples_do_not_load_scipy(tmp_path):
    closed = [argv for argv in COMMANDS if _closed_form(argv)]
    rest = [argv for argv in COMMANDS if not _closed_form(argv)]
    assert len(closed) == 8
    runs, _ = _probe(closed, tmp_path)
    assert runs == [[0, []]] * len(closed)
    # Each of the others, in a process of its own, loads NumPy lazily and
    # writes its outputs; all but verify load SciPy too. verify runs at
    # PROBE_TRIALS: the import facts do not depend on the trial count, and
    # test_readme_cli_example_exits_0 runs the README's own.
    for argv in rest:
        if argv[0] == "verify":
            argv = [*argv, "--trials", str(PROBE_TRIALS)]
        [[code, loaded]], stdout = _probe([argv], tmp_path)
        assert code == 0
        if argv[0] == "verify":
            assert "numpy" in loaded
            assert not any(m.split(".")[0] == "scipy" for m in loaded), loaded
        else:
            assert {"numpy", "scipy"} <= set(loaded), argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
        else:
            assert '"max_ci"' in stdout  # verify's report


def test_the_monte_carlo_oracle_runs_without_scipy(tmp_path):
    proc = _fresh_python("-c", """
import sys
import numpy as np
from fdp_accountant import oracle
spec = oracle.SimSpec(kind="gd", m=1.0, eta=0.05, sigma=2.0, L=0.1,
                      steps=20, trials=2000, seed=0)
oracle.empirical_tradeoff(*oracle.simulate(spec), method="exact-lr")
oracle.check_gdpinf(1.0, 2.0, lambda r, size: r.uniform(-1.0, 1.0, size),
                    2000, seed=1)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


# (module, function) of each place the package may import SciPy: the array
# paths of `normal`, through one helper, and the FFTs of `prv`.
SCIPY_IMPORTERS = {("normal", "_special"), ("prv", None)}


def _scipy_imports(path):
    """(module, enclosing function or None) of each SciPy import in a file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append((path.stem, func))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_scipy_is_imported_only_by_normal_special_and_prv():
    package = Path(fdp_accountant.__file__).resolve().parent
    found = {site for path in sorted(package.glob("*.py"))
             for site in _scipy_imports(path)}
    assert found == SCIPY_IMPORTERS
