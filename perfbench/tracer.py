"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``mvtransfer`` modules from
outside the package: each wrapper is installed on the module attribute its
caller looks up, and removed again when the traced experiment ends.

Two kinds of wrapper exist:

* ``span`` records one entry per call (name, start, end, parent span, run
  id).  It is used for the few coarse calls of an experiment.
* ``fold`` adds hot leaf calls (a warping distance, an optimizer step, a
  convolution) into a per-run aggregate of call count, total time and work
  done, so the memory a trace needs does not grow with the call count.

Every call, of either kind, adds its duration to the enclosing frame, so a
span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    run: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    work: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Folded:
    name: str
    run: int
    parent: str | None
    calls: int = 0
    seconds: float = 0.0
    child_s: float = 0.0
    work: float = 0.0


class _Frame:
    __slots__ = ("span_id", "span_name", "child_s")

    def __init__(self, span_id, span_name):
        self.span_id = span_id
        self.span_name = span_name
        self.child_s = 0.0


class Tracer:
    """Collects spans and folded call aggregates in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.folded: dict[tuple, Folded] = {}
        self.run_id = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    def span(self, name: str, fn, work=None):
        """Wrap ``fn`` so that each call is recorded as its own span.

        ``work(result, *args, **kwargs)``, when given, returns the work the
        call did; it runs after the call and outside the timed interval.
        """

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = Span(
                id=len(self.spans),
                name=name,
                run=self.run_id,
                parent=parent.span_id if parent else None,
            )
            self.spans.append(record)
            frame = _Frame(record.id, name)
            self._stack.append(frame)
            record.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
                record.child_s = frame.child_s
                if parent is not None:
                    parent.child_s += record.seconds
            if work is not None:
                record.work = work(result, *args, **kwargs)
            return result

        return traced

    def fold(self, name: str, fn, describe=None):
        """Wrap ``fn`` so that its calls are added into one aggregate per name.

        ``describe(result, *args, **kwargs)``, when given, returns the
        ``(name, work)`` to book the call under; it runs after the call and
        outside the timed interval.  A call that raises is not booked.
        """

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = _Frame(parent.span_id if parent else None, name)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent.child_s += elapsed
            label, work = describe(result, *args, **kwargs) if describe else (name, 0.0)
            parent_name = parent.span_name if parent else None
            key = (self.run_id, label, parent_name)
            record = self.folded.get(key)
            if record is None:
                record = self.folded[key] = Folded(label, self.run_id, parent_name)
            record.calls += 1
            record.seconds += elapsed
            record.child_s += frame.child_s
            record.work += work
            return result

        return traced

    def patch(self, module, attribute: str, wrapper) -> None:
        """Install ``wrapper`` as ``module.attribute`` until :meth:`restore`."""
        self._patches.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attribute, original = self._patches.pop()
            setattr(module, attribute, original)

    def totals(self, run: int) -> dict[str, dict]:
        """Calls, seconds, self seconds and work per name within one run.

        Spans and folds alike; self seconds exclude the time of traced calls
        made inside.
        """
        out: dict[str, dict] = {}

        def add(name, calls, seconds, child_s, work):
            entry = out.setdefault(
                name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "work": 0.0}
            )
            entry["calls"] += calls
            entry["seconds"] += seconds
            entry["self_seconds"] += seconds - child_s
            entry["work"] += work

        for span in self.spans:
            if span.run == run:
                add(span.name, 1, span.seconds, span.child_s, span.work)
        for record in self.folded.values():
            if record.run == run:
                add(record.name, record.calls, record.seconds, record.child_s, record.work)
        return out

    def roots(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run and s.parent is None]

    def root_children(self, root: Span) -> list:
        """Direct children of a root span: recorded spans and folded aggregates."""
        spans = [s for s in self.spans if s.parent == root.id]
        folded = [
            f for f in self.folded.values() if f.run == root.run and f.parent == root.name
        ]
        return spans + folded

    def to_json_dict(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "folded": [vars(f) for f in self.folded.values()],
        }
