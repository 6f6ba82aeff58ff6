"""In-memory spans for the traced benchmark run.

Spans are recorded only around the benchmark's own calls into blockpec's
public functions; nothing inside the library is instrumented. A public call
that runs other layers internally (``hybrid_plan`` runs ``classify_circuit``
and ``block_coefficients``) is followed by a *replay*: the benchmark makes
the same inner public calls again, after the task, as child spans of the
outer call. Those children are marked ``estimated``: their time was measured
outside the parent's interval, so the parent's self time (its duration minus
its children's) is an estimate.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<call>", e.g. "blocks.hybrid_plan"
    parent: int | None
    task: int | None
    estimated: bool
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "task": self.task,
            "start": self.start,
            "end": self.end,
            "estimated": self.estimated,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans; each task's spans share the task id."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pending: list[tuple[int, object, tuple]] = []
        self._task: int | None = None
        self._replaying = False

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, self._task, self._replaying, attrs)
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def replay(self, parent: Span, fn, *args) -> None:
        """Queue ``fn(tracer, *args)``: inner public calls that estimate what
        ``parent``'s call spent in other layers. It runs after the task,
        outside the task's timed span, with its spans parented to ``parent``."""
        self._pending.append((parent.id, fn, args))

    def run_task(self, task_id: int, name: str, fn):
        """Run ``fn(tracer)`` as one task; returns (output, timed seconds)."""
        self._task = task_id
        try:
            with self.span("bench.task", task=name) as root:
                out = fn(self)
            while self._pending:
                parent, replay_fn, args = self._pending.pop(0)
                self._stack.append(parent)
                self._replaying = True
                try:
                    replay_fn(self, *args)
                finally:
                    self._replaying = False
                    self._stack.pop()
        finally:
            self._pending.clear()
            self._task = None
        return out, root.duration


class _NullSpan:
    attrs: dict = {}


class NullTracer:
    """Tracing off: no spans, no replays, only the task's wall time."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs):
        yield _NullSpan

    def replay(self, parent, fn, *args) -> None:
        pass

    def run_task(self, task_id: int, name: str, fn):
        t0 = time.perf_counter()
        out = fn(self)
        return out, time.perf_counter() - t0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its child spans."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return {s.id: s.duration - children[s.id] for s in spans}
