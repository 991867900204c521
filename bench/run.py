"""Benchmark of fdp-accountant: one workload, one seed, one measured run.

    python3 bench/run.py --workload tau-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the checkout's src/, found
relative to this file, and the run fails if it is missing. Workloads:
cli-cold, tau-sweep, privacy-profile, mc-verify (see bench/README.md).

Prints a report (lines starting with '#') and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones listed in
BENCHMARK.json. Scratch files go to .bench_out/ in the checkout.

The measured run happens in a child process (worker.py). Set-up time is the
median over that process and SETUP_PROBES more fresh processes that only set
up, since imports can only be timed once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "tau-sweep", "privacy-profile", "mc-verify")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


def worker(args, out_dir: Path, deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py in its own process group; return its JSON result and
    forward its report lines."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("FDP_ACCOUNTANT_THREADS", None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.decode().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "fdp_accountant" / "__init__.py").is_file():
        print(f"bench: no fdp_accountant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    print(f"# workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"trace {args.trace}  (closed loop, one caller, one thread)")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(args, out_dir, deadline, setup_only=True)["setup_s"])
    result = worker(args, out_dir, deadline)
    measured = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        setup_s = statistics.median(setups)
        measured["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"# setup_s                {setup_s:.6g} s  (median of "
              + ", ".join(f"{s:.4g}" for s in setups) + ")")
    # The result line carries exactly the metrics BENCHMARK.json lists.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for entry in listed["per_layer" if args.trace else "end_to_end"]:
        if entry["name"] not in measured:
            raise RuntimeError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = measured[entry["name"]]
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
