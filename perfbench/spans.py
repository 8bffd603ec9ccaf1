"""Thread-aware span recorder and the layer wrappers of the traced run.

The traced run wraps the public functions of each snwell module (the names
in its __all__ that are plain functions) from outside the package: the
module attribute is replaced, and so is every reference that snwell.sweep
and snwell.cli took with `from .x import f`.  Calls inside one module go
through its globals and are traced too; calls between the physics modules
other than from sweep (for example wigner -> classical.hamiltonian) are not
separate spans and count towards their caller's self time.

Spans stay in memory and are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
import types
from dataclasses import asdict, dataclass

LAYERS = ("cli", "sweep", "eigensolve", "discretize", "observables", "wigner", "classical")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    run_id: str
    work: float | None = None  # a count measured at the call: flop or bytes


class SpanRecorder:
    """Records one span per wrapped call.

    The parent of a span is the innermost open span on the same thread.  A
    worker thread with nothing open (a thread-pool task) is attributed to the
    innermost span open on the main thread at that moment, the call that is
    waiting for the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _stack(self, thread: int) -> list[int]:
        with self._lock:
            return self._stacks.setdefault(thread, [])

    def wrap(self, layer: str, fn, work=None):
        """Wrap `fn`; `work(args, kwargs, result)` returns a count for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stack(thread)
            if stack:
                parent = stack[-1]
            elif thread != self._main:
                main = list(self._stacks.get(self._main, ()))
                parent = main[-1] if main else None
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, fn.__name__, layer, start, end, parent, thread, self.run_id)
                with self._lock:
                    self.spans.append(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


def install(recorder: SpanRecorder, work_counters: dict | None = None) -> None:
    """Wrap every public function of every layer, and sweep's and cli's references."""
    work_counters = work_counters or {}
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"snwell.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType):
                traced = recorder.wrap(layer, fn, work_counters.get(name))
                wrapped[id(fn)] = traced
                setattr(module, name, traced)
    for holder in ("sweep", "cli"):
        module = importlib.import_module(f"snwell.{holder}")
        for name, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, name, wrapped[id(value)])


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children on parallel threads overlap; the union of their intervals is
    subtracted, so a parent waiting on two busy workers has self time only
    where neither worker was inside a traced call.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per function name: calls, inclusive seconds, self seconds, summed work."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(
            s["name"], {"layer": s["layer"], "calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += s["end"] - s["start"]
        entry["self_s"] += own[s["id"]]
        entry["work"] += s["work"] or 0.0
    return out
