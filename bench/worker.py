"""Run one workload in this process and print its measurements.

Started by run.py, with PYTHONPATH pointing at the checkout's src/:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        [--setup-only]

Set-up time runs from the first statement of this file to the end of the
workload's warm-up: imports, input generation and one untimed request.
Then requests run back to back (one caller, closed loop) in whole cycles of
the workload's request mix, as many as start within --seconds.
With --trace 1 every request runs twice, with and without the tracer
installed, alternating which goes first; the traced runs give the per-layer
metrics and the pair gives the tracing overhead.

The last line of stdout is a JSON object for run.py; the lines before it,
starting with '#', are the human-readable report.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from typing import NamedTuple  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

DIGEST_PREFIX = 10   # requests covered by the run's output digest
IMPORT_PROBES = 3


# The compute kernel: a Python float loop, NumPy elementwise passes, a real
# FFT pair, and a masked expm1-and-dot pass over an 8 MB array, memory-bound
# like the delta queries over large lattices. It runs in a helper process of
# its own, so that its arrays stay out of the worker's peak RSS; each line
# on stdin runs it once and answers with its time.
_COMPUTE_PROBE = """
import math, sys, time
import numpy as np
from scipy import fft

small = np.linspace(0.0, 1.0, 1 << 17)
big = np.linspace(0.0, 1.0, 1 << 20)


def compute():
    total = 0.0
    for i in range(20_000):
        total += math.sqrt(i)
    x = small
    for _ in range(4):
        x = np.exp(-x) * small
    fft.irfft(fft.rfft(x) ** 2)
    tail = big[big > 0.25]
    np.dot(-np.expm1(0.25 - tail), tail)


compute()  # the first call pays for page faults and FFT planning
for _ in sys.stdin:
    start = time.perf_counter()
    compute()
    print(time.perf_counter() - start, flush=True)
"""
# The import kernel: a fresh interpreter importing the NumPy and SciPy
# modules the CLI imports, started from the worker itself.
_IMPORTS = "import numpy, scipy.fft, scipy.optimize, scipy.special"


class Calibration:
    """Machine speed, from a fixed kernel timed between requests.

    The timings come from a shared virtual machine whose speed drifts: the
    same proj sweep took 0.22 s at one time and 0.40 s ten minutes later.
    Times are reported scaled by reference_s / (median kernel time in the
    run), that is, as they would read on a machine where the kernel takes
    reference_s. No kernel calls the program under test, so a change to the
    program moves scaled and raw times alike; the report prints both.
    """

    KERNELS = {"compute": (0.020, 0.5),   # reference_s, interval_s
               "import": (0.5, 1.0)}

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s, self.interval_s = self.KERNELS[kernel]
        self.samples = []
        self._last = -math.inf
        self._probe = None
        if kernel == "compute":
            self._probe = subprocess.Popen(
                [sys.executable, "-c", _COMPUTE_PROBE], text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def _time_kernel(self) -> float:
        if self._probe is None:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", _IMPORTS],
                           capture_output=True, check=True, timeout=60)
            return time.perf_counter() - start
        self._probe.stdin.write("\n")
        self._probe.stdin.flush()
        return float(self._probe.stdout.readline())

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(self._time_kernel())
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def close(self) -> None:
        if self._probe is not None:
            self._probe.stdin.close()
            self._probe.wait(timeout=60)

    @property
    def factor(self) -> float:
        return self.reference_s / statistics.median(self.samples)

    def describe(self) -> str:
        return (f"{self.kernel} kernel median {statistics.median(self.samples) * 1e3:.4g} ms "
                f"over {len(self.samples)} samples; times scaled by {self.factor:.4g}")


def nearest_rank(sorted_values, q: float):
    """Value at the ceil(q n)-th smallest of n samples."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Failure(NamedTuple):
    label: str     # exception class or "exit <code>"
    detail: str


class Run:
    """The outcomes of one run's requests."""

    def __init__(self):
        self.latencies = []        # seconds; +inf for a failed request
        self.errors = Counter()    # failure label -> count
        self.check_failures = []
        self.exact = []            # (exact, reported) deltas of the requests
        self.panels = {}           # metric -> (exact, reported) panel deltas
        self.log = []              # one record per request
        self._shown = set()        # exception classes already printed

    def attempt(self, workload, request):
        """Run one request; return (latency, output, failure or None)."""
        start = time.perf_counter()
        try:
            output, failure = workload.execute(request), None
        except workloads.RequestFailed as exc:
            output, failure = None, Failure(exc.label, str(exc))
        except Exception as exc:  # a failed request; the run goes on
            output, failure = None, Failure(type(exc).__name__, str(exc))
            if failure.label not in self._shown:
                self._shown.add(failure.label)
                traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, output, failure

    def record(self, request, latency, failure, checked):
        if failure is not None:
            self.errors[failure.label] += 1
        if checked.failures:
            self.errors["check"] += 1
        self.check_failures += checked.failures
        self.exact += checked.exact
        failed = failure is not None or bool(checked.failures)
        self.latencies.append(math.inf if failed else latency)
        self.log.append({"i": len(self.log), "kind": request.kind,
                         "latency_s": latency, "failure": failure and failure._asdict(),
                         "check_failures": checked.failures,
                         "digest": checked.digest})

    @property
    def failed(self) -> int:
        return sum(1 for x in self.latencies if math.isinf(x))


def check(workload, request, output, failure):
    if failure is not None:
        return workloads.Checked(digest=workloads.digest_of("failure", failure.label))
    return workload.check(request, output)


def import_time() -> float:
    """Median wall time of `import fdp_accountant.cli` in fresh processes."""
    code = ("import time; t = time.perf_counter(); import fdp_accountant.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def timed_loop(workload, seconds: float, run: Run, speed: Calibration) -> None:
    deadline = time.perf_counter() + seconds
    for i, request in enumerate(workload.requests()):
        if i % workload.cycle == 0 and time.perf_counter() >= deadline:
            break
        latency, output, failure = run.attempt(workload, request)
        run.record(request, latency, failure, check(workload, request, output, failure))
        speed.sample_if_due()


def traced_loop(workload, seconds: float, run: Run, tracer) -> dict:
    """Each request traced and untraced, in alternating order."""
    sums = {True: 0.0, False: 0.0}
    deadline = time.perf_counter() + seconds
    for i, request in enumerate(workload.requests()):
        if i % workload.cycle == 0 and time.perf_counter() >= deadline:
            break
        results = {}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.request = i
                with tracer.installed():
                    results[traced] = run.attempt(workload, request)
            else:
                results[traced] = run.attempt(workload, request)
        latency, output, failure = results[True]
        checked = check(workload, request, output, failure)
        plain = check(workload, request, *results[False][1:])
        if plain.digest != checked.digest:
            checked.failures.append("traced output differs from untraced output")
        run.record(request, latency, failure, checked)
        sums[True] += latency
        sums[False] += results[False][0]
    return {"overhead_frac": sums[True] / sums[False] - 1.0,
            "coverage_frac": tracer.top_level_time() / sums[True]}


def peak_rss_mb(workload) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload.peak_rss_kb / 1024.0


def end_to_end(workload, run: Run, rss: float, factor: float) -> tuple:
    lat = sorted(run.latencies)
    n = len(lat)
    rank = math.ceil(workload.tail_level * n)
    p50, tail = nearest_rank(lat, 0.5), nearest_rank(lat, workload.tail_level)
    metrics = {
        "latency_p50_s": (p50 * factor, "s"),
        "latency_tail_s": (tail * factor, "s"),
        "success_frac": (1.0 - run.failed / n, "frac"),
        "peak_rss_mb": (rss, "MB"),
    }
    for name, pairs in run.panels.items():
        metrics[name] = (workloads.shortfall(pairs), "ratio")
    errors = ", ".join(f"{k} x{v}" for k, v in sorted(run.errors.items())) or "none"
    report = [
        f"latency_p50_s          {p50 * factor:.6g} s  (raw {p50:.6g} s)",
        f"latency_tail_s         {tail * factor:.6g} s  (raw {tail:.6g} s; "
        f"p{100 * workload.tail_level:g}; {n - rank} of {n} samples beyond)",
        f"failed_frac            {run.failed / n:.6g}  ({run.failed} of {n}: {errors})",
        f"success_frac           {metrics['success_frac'][0]:.6g}",
        f"delta_underreport_max  {metrics['delta_underreport_max'][0]:.6g}  "
        f"(lattice panel, exact delta > {workloads.DELTA_FLOOR:g})",
        f"delta_underreport_tail {metrics['delta_underreport_tail'][0]:.6g}  "
        f"(truncation panel, exact delta > {workloads.DELTA_FLOOR:g})",
        f"peak_rss_mb            {rss:.6g} MB  "
        f"({'this process' if workload.in_process else 'largest CLI child'})",
    ]
    if run.exact:
        report.append(
            f"p = 1 requests         shortfall "
            f"{workloads.shortfall(run.exact, workloads.CHECK_FLOOR):.6g} at exact delta > "
            f"{workloads.CHECK_FLOOR:g}, {workloads.shortfall(run.exact):.6g} at > "
            f"{workloads.DELTA_FLOOR:g} ({len(run.exact)} points; not gated)")
    if n - rank < 10:
        report.append(f"note: fewer than 10 samples beyond p{100 * workload.tail_level:g}")
    return metrics, report


def per_layer(tracer, loop: dict, run: Run) -> tuple:
    summary = tracer.summary()
    counts = tracer.counts
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def span(name, *stats):
        entry = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in stats:
            unit = "count" if stat == "calls" else "s"
            put(f"{name}.{stat}", entry[stat], unit)

    put("cli.import_s", import_time(), "s")
    span("cli.main", "calls", "busy_s")
    span("accountant.sweep_tau", "calls", "busy_s", "self_s")
    put("accountant.sweep_tau.windows", counts["accountant.sweep_tau.windows"], "count")
    for fn in ("prv_of_subsampled_gdp", "prv_of_gdp", "self_compose", "convolve"):
        span(f"prv.{fn}", "calls", "busy_s")
        put(f"prv.{fn}.lattice_points", counts[f"prv.{fn}.lattice_points"], "count")
    span("prv.prv_delta", "calls", "busy_s")
    put("prv.prv_delta.points_scanned", counts["prv.prv_delta.points_scanned"], "count")
    span("prv.evaluate_composite", "calls", "busy_s", "self_s")
    prv_errors = {cls: n for (layer, cls), n in tracer.errors.items() if layer == "prv"}
    for cls in sorted({"ConfigurationError", "AccuracyError", *prv_errors}):
        put(f"prv.errors.{cls}", prv_errors.get(cls, 0), "count")
    put("normal.calls", counts["normal.calls"], "count")
    put("normal.elements", counts["normal.elements"], "count")
    put("normal.elements_per_call",
        counts["normal.elements"] / max(1, counts["normal.calls"]), "elements/call")
    grid_points = 0
    for fn in ("curve_of_gdp", "subsample", "convexify", "invert_curve"):
        span(f"tradeoff.{fn}", "calls", "busy_s")
        grid_points += counts[f"tradeoff.{fn}.grid_points"]
    put("tradeoff.grid_points", grid_points, "count")
    for fn in ("gdp_to_eps", "gdp_to_delta", "curve_to_delta"):
        span(f"conversions.{fn}", "calls", "busy_s")
    inner = sum(1 for name, _, _, parent, _ in tracer.spans
                if name == "conversions.gdp_to_delta" and parent is not None
                and tracer.spans[parent][0] == "conversions.gdp_to_eps")
    put("conversions.gdp_to_delta_per_gdp_to_eps",
        inner / max(1, metrics["conversions.gdp_to_eps.calls"][0]), "calls/call")
    span("oracle.simulate", "calls", "busy_s")
    steps = counts["oracle.simulate.trial_steps"]
    busy = metrics["oracle.simulate.busy_s"][0]
    put("oracle.simulate.trial_steps", steps, "count")
    put("oracle.simulate.trial_steps_per_s", steps / busy if busy else 0.0, "1/s")
    put("oracle.simulate.bytes_computed", counts["oracle.simulate.bytes_computed"], "B")
    for method in ("exact-lr", "histogram-lr"):
        span(f"oracle.empirical_tradeoff.{method}", "calls", "busy_s")
    span("oracle.check_gdpinf", "calls", "busy_s")
    put("trace.overhead_frac", loop["overhead_frac"], "frac")
    put("trace.coverage_frac", loop["coverage_frac"], "frac")
    put("trace.requests", len(run.latencies), "count")
    width = max(len(k) for k in metrics)
    report = [f"{k:<{width}}  {v:.6g} {u}" for k, (v, u) in metrics.items()]
    report.append(f"{'trace.spans':<{width}}  {len(tracer.spans)} recorded")
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if args.trace and not workload.in_process:
        workload.use_in_process()
    workload.setup()
    setup_s = time.perf_counter() - T0
    setup_speed = Calibration("compute")
    try:
        setup_speed.sample(5)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s * setup_speed.factor}))
            return 0
        return measure(args, workload, setup_speed, setup_s)
    finally:
        setup_speed.close()


def measure(args, workload, setup_speed: Calibration, setup_s: float) -> int:
    out_dir = Path(args.out_dir)

    run = Run()
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        loop = traced_loop(workload, args.seconds, run, tracer)
    else:
        speed = setup_speed if workload.in_process else Calibration("import")
        try:
            speed.sample(3)
            timed_loop(workload, args.seconds, run, speed)
            speed.sample(3)
            rss = peak_rss_mb(workload)
        finally:
            if speed is not setup_speed:
                speed.close()

    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}-requests.jsonl", "w") as fh:
        for entry in run.log:
            fh.write(json.dumps(entry) + "\n")
    if args.trace:
        tracer.dump(f"{stem}-spans.jsonl")
        metrics, report = per_layer(tracer, loop, run)
    else:
        run.panels = workloads.accuracy_panels()
        metrics, report = end_to_end(workload, run, rss, speed.factor)
        report.append(f"machine speed          {speed.describe()}")
    head = workloads.digest_of(*[e["digest"] for e in run.log[:DIGEST_PREFIX]])
    report.append(f"outputs_digest         {head}  (first {min(DIGEST_PREFIX, len(run.log))} "
                  f"requests; per-request digests in {stem.name}-requests.jsonl)")
    for line in dict.fromkeys(run.check_failures):
        report.append(f"CHECK FAILED: {line}")
    for line in report:
        print(f"# {line}")
    print(json.dumps({
        "setup_s": setup_s * setup_speed.factor,
        "correct": not run.check_failures,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
