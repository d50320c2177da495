"""Spans around the public functions of every acdkit module, recorded from outside.

`Tracer.install()` replaces each public module-level function of the acdkit
modules with a wrapper, in every acdkit namespace that holds the name (so
`acdkit.cli.run_acda` and `acdkit.acda.run_acda` both route through the same
wrapper), and `uninstall()` puts the originals back. A wrapper records a span
(name, start, end, parent, thread) and, for a few functions, counts taken
from its arguments and result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MODULES = ("core", "linalg", "neural", "predetect", "acda", "baselines", "evaluate", "synth", "cli")
MALLOC_TRACED = ("acda.run_acda", "baselines.diff_rx", "baselines.run_baseline")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def public_functions() -> dict[str, object]:
    """'module.function' -> function, for every public function defined in an acdkit module."""
    found = {}
    for short in MODULES:
        module = sys.modules[f"acdkit.{short}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[f"{short}.{name}"] = obj
    return found


class Patcher:
    """Swap functions for wrappers in every acdkit namespace that imported them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def install(self, wrappers: dict[object, object]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "acdkit" and not mod_name.startswith("acdkit."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.truth: np.ndarray | None = None  # flat 0/1 labels of the scene being run
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.fusion_violations = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._patcher = Patcher()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread's first span belongs to whatever the main thread has open.
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            span_id = next(tracer._ids)
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, started, ended, parent, threading.get_ident())
                )
            if hook is not None:
                # Hook time is a span of its own so it is not charged to the parent.
                hook_start = time.perf_counter()
                hook(tracer, args, kwargs, result)
                tracer.spans.append(
                    Span(next(tracer._ids), "trace.hook", hook_start, time.perf_counter(),
                         parent, threading.get_ident())
                )
            return result

        return traced

    def install(self) -> None:
        self._patcher.install({fn: self.wrap(name, fn) for name, fn in public_functions().items()})

    def uninstall(self) -> None:
        self._patcher.uninstall()


class MallocProbe:
    """tracemalloc peak (MB) of each call of the MALLOC_TRACED functions.

    tracemalloc runs only inside those calls (none of them nests another), and
    in a pass of its own, because it slows every allocation it sees.
    """

    def __init__(self):
        self.peaks: dict[str, list[float]] = defaultdict(list)
        self._patcher = Patcher()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peaks[name].append(peak / 2**20)

        return probed

    def __enter__(self):
        functions = public_functions()
        self._patcher.install({functions[n]: self.wrap(n, functions[n]) for n in MALLOC_TRACED})
        return self

    def __exit__(self, *exc):
        self._patcher.uninstall()
        return False


# --- counts taken at layer boundaries -------------------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _on_read_cube(tracer, args, kwargs, cube):
    tracer.counts["read_bytes"].append(cube.data.nbytes)


def _on_train(tracer, args, kwargs, result):
    shape = _arg(args, kwargs, 0, "shape")
    samples = _arg(args, kwargs, 1, "samples")
    config = _arg(args, kwargs, 2, "config")
    dims = shape.layer_dims
    macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    # forward + backward ~ 6 flops per weight per sample row
    tracer.counts["gflop"].append(6.0 * config.epochs * samples.size * macs / 1e9)


def _on_select_samples(tracer, args, kwargs, samples):
    requested = _arg(args, kwargs, 3, "count")
    tracer.counts["pool_fraction"].append(samples.size / requested)
    tracer.counts["samples_selected"].append(samples.size)
    tracer.counts["contamination"].append(float(tracer.truth[samples.indices].mean()))


def _on_eigh(tracer, args, kwargs, result):
    tracer.counts["eigh_dim"].append(np.shape(_arg(args, kwargs, 0, "a"))[0])


def _on_roc(tracer, args, kwargs, curve):
    tracer.counts["roc_points"].append(curve.thresholds.size)


def _on_run_acda(tracer, args, kwargs, result):
    _, runs = result
    for run in runs:
        fused = run.fused.values
        if not (np.all(fused <= run.loss_map_fwd.values) and np.all(fused <= run.loss_map_bwd.values)):
            tracer.fusion_violations += 1
    tracer.counts["repeats_checked"].append(len(runs))


_HOOKS = {
    "core.read_cube": _on_read_cube,
    "neural.train": _on_train,
    "predetect.select_samples": _on_select_samples,
    "linalg.eigh": _on_eigh,
    "evaluate.roc": _on_roc,
    "acda.run_acda": _on_run_acda,
}


# --- span analysis ----------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
            if c.end > span.start and c.start < span.end
        ]
        result[span.id] = span.duration - _covered(clipped)
    return result


@dataclass
class TraceSummary:
    by_name: dict[str, list[Span]]
    self_s: dict[str, float]
    thread_self_s: dict[int, float]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def p50(self, name: str) -> float:
        spans = self.by_name.get(name, ())
        return statistics.median(s.duration for s in spans) if spans else 0.0

    def covered(self, name: str) -> float:
        """Wall time during which at least one `name` span was open, on any thread."""
        return _covered([(s.start, s.end) for s in self.by_name.get(name, ())])

    def module_self(self, module: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == module)


def summarize(spans: list[Span]) -> TraceSummary:
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    thread_self_s: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        self_s[span.name] += own[span.id]
        thread_self_s[span.thread] += own[span.id]
    return TraceSummary(dict(by_name), dict(self_s), dict(thread_self_s))


def spans_within(spans: list[Span], root_id: int) -> list[Span]:
    """The span `root_id` and every span that descends from it."""
    by_id = {s.id: s for s in spans}
    inside: dict[int, bool] = {}

    def under(span_id):
        if span_id not in inside:
            span = by_id[span_id]
            inside[span_id] = span_id == root_id or (span.parent in by_id and under(span.parent))
        return inside[span_id]

    return [s for s in spans if under(s.id)]
