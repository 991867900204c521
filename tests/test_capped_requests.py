"""Requests that once died inside the library end in exit 0 or 2.

Each command runs in a child process whose address space is capped with
resource.setrlimit, which binds that child alone: a request that tries to
allocate gigabytes fails there, with a MemoryError traceback, instead of
exhausting the machine. Never run these commands without the cap.
"""

import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fdp_accountant

# Enough for the largest lattice a request may build (prv.MAX_LATTICE_POINTS),
# far below what the uncapped requests asked for.
_ADDRESS_SPACE = 2 * 2 ** 30

COMMANDS = {
    # sgd without a batch size: was a TypeError on p.b * p.sigma.
    "sgd-without-b": "bound --kind sgd --sc --eta 0.05 --sigma 5 --n 1000 "
                     "--L 10 --steps 500 --m 1 --M 10 --tau 450 --eps 1",
    # M = 0: was a ZeroDivisionError on 2 / M; now no contraction (exit 2).
    "M-0": "bound --kind sgd --sc --eta 0.05 --sigma 5 --n 1000 --b 100 "
           "--L 10 --steps 500 --m 1 --M 0 --tau 450 --eps 1",
    # The CLT term overflowed (OverflowError in math.exp).
    "clt-overflow": "sweep-tau --kind sgd --sc --eta 0.02 --sigma 1e-9 "
                    "--n 400 --b 40 --L 4 --steps 30 --m 1 --M 10 --eps 1",
    # The discarded CLT mu overflowed on D ** 2.
    "D-1e300": "sweep-tau --kind sgd --eta 0.05 --sigma 4 --n 500 --b 25 "
               "--L 4 --steps 300 --M 20 --D 1e300 --eps 1",
    # An infinite lattice cut (OverflowError in math.ceil).
    "infinite-cut": "bound --kind sgd --sc --eta 0.05 --sigma 1e-300 "
                    "--n 1000 --b 100 --L 10 --steps 500 --m 1 --M 10 --eps 1",
    # A 447,394,412-point head lattice (3.33 GiB).
    "huge-lattice": "bound --kind sgd --sc --eta 0.05 --sigma 5 --n 1000 "
                    "--b 100 --L 10 --steps 50 --m 1 --M 10 --tau 49 --eps 1 "
                    "--leff 2",
    # A 300,000,000-point alpha grid (2.24 GiB).
    "huge-grid": "curve --mu 1 --grid 300000000",
    # A 1,000,000,000-trial simulation (16 GiB of pairs and noise).
    "huge-trials": "verify --trials 1000000000",
}
# The 286,156,013-point head of the --tau 45 window must be refused before
# the two subsampled lattices are composed: they take about 1 GB and 6 s.
OVERSIZED_HEAD = ("bound --kind sgd --sc --eta 0.05 --sigma 5 --n 1000 "
                  "--b 100 --L 10 --steps 50 --m 1 --M 10 --tau 45 --eps 1 "
                  "--leff 2")


def _run_capped(command, address_space=_ADDRESS_SPACE, cpu_seconds=None):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        if cpu_seconds is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    src = str(Path(fdp_accountant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # One BLAS thread: each thread reserves address space of its own.
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "fdp_accountant", *command.split()],
        capture_output=True, text=True, timeout=300, env=env, preexec_fn=cap)


@pytest.fixture(scope="module")
def outcomes():
    # Two children at a time: the commands are independent.
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(COMMANDS, pool.map(_run_capped, COMMANDS.values())))


@pytest.mark.parametrize("name, code, message", [
    ("sgd-without-b", 2, "need a batch size b"),
    ("M-0", 2, "contraction factor is >= 1"),
    ("clt-overflow", 2, "points exceeds the limit"),
    ("D-1e300", 2, "is not finite"),
    ("infinite-cut", 2, "is not finite"),
    ("huge-lattice", 2, "447394412 points exceeds the limit"),
    ("huge-grid", 2, "grid_size must lie in"),
    ("huge-trials", 2, "1000000000 trials exceeds the limit of 16777216"),
])
def test_request_ends_in_an_exit_code_not_a_traceback(outcomes, name, code,
                                                       message):
    result = outcomes[name]
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == code, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("invalid request: ")
    assert message in result.stderr


def test_oversized_head_exits_2_before_composing_the_rest():
    # 512 MiB of address space and 1 s of CPU time: the interpreter and its
    # imports fit, the two subsampled lattices do not.
    result = _run_capped(OVERSIZED_HEAD, address_space=2 ** 29, cpu_seconds=1)
    assert "Traceback" not in result.stderr, result.stderr
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr == ("invalid request: lattice of 286156013 points "
                             "exceeds the limit of 33554432\n")
