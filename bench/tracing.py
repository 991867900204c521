"""In-memory spans around the layers of fdp_accountant, installed from outside.

`Tracer.installed()` replaces every public module-level function of the layer
modules (`cli`, `accountant`, `prv`, `normal`, `tradeoff`, `conversions`,
`oracle`) by a wrapper, and puts the originals back on exit. The library
calls its layers through module attributes (`prv.convolve`,
`normal.cdf`, ...), so calls between layers and inside a layer go through
the wrappers too. Nothing under src/ is edited.

Each wrapped call records a span [name, start, end, parent, request]; spans
stay in memory and are written out by `dump`. The `normal` functions are
called thousands of times per request on arrays of any size, so they are
counted (calls and elements) instead of timed. A few functions also add work
counts derived from their arguments and results (lattice points, windows,
trial-steps); see `_COUNTERS`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "accountant", "prv", "normal", "tradeoff", "conversions",
          "oracle")
NORMAL_FUNCTIONS = ("cdf", "sf", "log_cdf", "inv_cdf", "inv_upper")

# Bytes written per simulated trial-step: two processes, each drawing one
# float64 normal and updating one float64 state. Computed, not measured.
SIM_BYTES_PER_TRIAL_STEP = 2 * 2 * 8


def _lattice(args, kwargs, result):
    return {"lattice_points": result.pmf.size}


def _grid(args, kwargs, result):
    return {"grid_points": result.alphas.size}


def _scanned(args, kwargs, result):
    grid = args[0] if args else kwargs["prv"]
    return {"points_scanned": grid.pmf.size}


def _windows(args, kwargs, result):
    return {"windows": len(result["taus"])}


def _trial_steps(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    steps = spec.trials * spec.steps * spec.dimension
    return {"trial_steps": steps,
            "bytes_computed": steps * SIM_BYTES_PER_TRIAL_STEP}


_COUNTERS = {
    "accountant.sweep_tau": _windows,
    "prv.prv_of_subsampled_gdp": _lattice,
    "prv.prv_of_gdp": _lattice,
    "prv.self_compose": _lattice,
    "prv.convolve": _lattice,
    "prv.prv_delta": _scanned,
    "tradeoff.curve_of_gdp": _grid,
    "tradeoff.subsample": _grid,
    "tradeoff.convexify": _grid,
    "tradeoff.invert_curve": _grid,
    "oracle.simulate": _trial_steps,
}


def _method(args, kwargs):
    return kwargs.get("method", args[2] if len(args) > 2 else "exact-lr")


# Functions whose span name carries an argument, as <name>.<label>.
_LABELS = {"oracle.empirical_tradeoff": _method}


class Tracer:
    """Spans and counts for the calls made while installed."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"fdp_accountant.{layer}")
                        for layer in LAYERS}
        self.spans: list[list] = []   # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception class)
        self.request = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation --------------------------------------------------------

    def public_functions(self):
        """(layer, name, function) for every function a layer defines."""
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    if layer == "normal" and name not in NORMAL_FUNCTIONS:
                        continue
                    yield layer, name, obj

    @contextmanager
    def installed(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, name, fn in list(self.public_functions()):
            wrap = self._counting if layer == "normal" else self._spanning
            self._saved.append((self.modules[layer], name, fn))
            setattr(self.modules[layer], name, wrap(layer, name, fn))
        try:
            yield self
        finally:
            for module, name, fn in self._saved:
                setattr(module, name, fn)
            self._saved.clear()

    def _counting(self, layer, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["normal.calls"] += 1
            counts["normal.elements"] += np.size(args[0] if args else
                                                 next(iter(kwargs.values())))
            return fn(*args, **kwargs)
        return wrapper

    def _spanning(self, layer, name, fn):
        qual = f"{layer}.{name}"
        label = _LABELS.get(qual)
        counter = _COUNTERS.get(qual)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = qual if label is None else f"{qual}.{label(args, kwargs)}"
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append([span_name, clock(), None, parent, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if parent is None or not spans[parent][0].startswith(layer + "."):
                    self.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{span_name}.{key}"] += value
            return result
        return wrapper

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s (outermost spans of that name only,
        so recursion is not counted twice) and self_s (duration minus the
        part covered by child spans)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self._has_ancestor_named(parent, name):
                entry["busy_s"] += end - start
        return dict(out)

    def _has_ancestor_named(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def top_level_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent is None)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
