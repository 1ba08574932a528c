"""Spans around calls into the eqfrio layers, recorded from outside the
package.

The tracer replaces a module attribute (a public function of one layer, as
bound in the module that calls it) with a wrapper that times each call.
Spans nest through a stack, so a span's self time is its duration minus the
time of the traced spans it caused.  Counters are taken from the call's
arguments or result at the same boundary.
"""

from __future__ import annotations

import importlib
import logging
import os
from collections import Counter, defaultdict
from time import perf_counter


def _rows(args, kwargs, result):
    return len(args[1])


def _detections(args, kwargs, result):
    return sum(len(scan.detections) for scan in result.scans)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, counter) for the full trace.  A function
# that several modules import is wrapped in each module that calls it.
LAYER_TARGETS = [
    ("eqfrio.pipeline", "run_filter", "pipeline.run_filter", None),
    ("eqfrio.cli", "run_filter", "pipeline.run_filter", None),
    ("eqfrio.pipeline", "propagate", "filter.propagate", None),
    ("eqfrio.pipeline", "update_doppler", "filter.update_doppler", _rows),
    ("eqfrio.pipeline", "update_msc", "filter.update_msc", _rows),
    ("eqfrio.pipeline", "clone_augment", "filter.clone_augment", None),
    ("eqfrio.pipeline", "clone_marginalize", "filter.clone_marginalize", None),
    ("eqfrio.pipeline", "estimated_state", "filter.estimated_state", None),
    ("eqfrio.simulator", "run_simulation", "simulator.run_simulation", _detections),
    ("eqfrio.pipeline", "run_simulation", "simulator.run_simulation", _detections),
    ("eqfrio.cli", "run_simulation", "simulator.run_simulation", _detections),
    ("eqfrio.pipeline", "evaluate_run", "evaluation.evaluate_run", None),
    ("eqfrio.cli", "evaluate_run", "evaluation.evaluate_run", None),
] + [("eqfrio.io", f"write_{kind}_csv", "io.write", _bytes_written)
     for kind in ("imu", "radar", "groundtruth", "estimate")] + [
    ("eqfrio.io", f"read_{kind}_csv", "io.read", None)
    for kind in ("imu", "radar", "groundtruth", "estimate")]

# The stages of a job, timed on every run: two spans per job.
STAGE_TARGETS = [t for t in LAYER_TARGETS
                 if t[2] in ("pipeline.run_filter", "evaluation.evaluate_run")]


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Collects span durations, self times and counters for one job at a
    time; `reset` starts the next job."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.skipped = _CountHandler()
        self.reset()

    def reset(self):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        self.counts = Counter()
        self.skipped.count = 0

    def install(self, targets):
        """Wrap every target whose module imports; a module that fails to
        import is skipped here and fails again, visibly, in the job."""
        for module_name, attr, name, counter in targets:
            try:
                module = importlib.import_module(module_name)
            except Exception:
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, counter))
            self._patches.append((module, attr, original))
        logging.getLogger("eqfrio.filter").addHandler(self.skipped)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        logging.getLogger("eqfrio.filter").removeHandler(self.skipped)

    def _wrap(self, name, fn, counter):
        def span(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.durations[name].append(elapsed)
                self.self_times[name].append(elapsed - child[0])
            if counter is not None:
                self.counts[name] += counter(args, kwargs, result)
            return result

        return span

    def self_total(self, name) -> float:
        return sum(self.self_times.get(name, ()))

    def total(self, name) -> float:
        return sum(self.durations.get(name, ()))

    def calls(self, name) -> int:
        return len(self.durations.get(name, ()))
