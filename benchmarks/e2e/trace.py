"""Outside-in tracer: timing proxies around public methods of objects the
benchmark constructs, spans kept in memory, self-time aggregation, and a
Chrome trace-event export that Perfetto opens.

No span code lives in the program itself.  A :class:`TimingProxy` stands
in for one object: calls to its allowlisted methods record a span, every
other attribute read or write goes straight to the wrapped object, so the
serving loop's ``getattr`` probes (``update``, ``reset``, ``stats``,
``breaker``, ``service``, ``activate``) see exactly what they would see
without it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["Tracer", "TimingProxy", "Patches", "self_times", "chrome_trace"]

# Span record layout: [name, start, end, parent, run, tick, count]
NAME, START, END, PARENT, RUN, TICK, COUNT = range(7)


class Tracer:
    """Nested spans on one thread, appended to an in-memory list."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.run = 0
        self.tick = 0

    def push(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.run, self.tick, 0]
        )

    def pop(self, count: int = 0, name: Optional[str] = None) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter()
        span[COUNT] = count
        if name is not None:
            span[NAME] = name

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self.spans = []


def chrome_trace(spans: List[list]) -> Dict[str, object]:
    """Chrome trace-event JSON (complete ``X`` events, microseconds).

    ``args.parent`` is the index of the parent span among the spans of the
    same ``args.run``, or -1 for a root.
    """
    origin = min((s[START] for s in spans), default=0.0)
    events = [
        {
            "name": s[NAME],
            "ph": "X",
            "ts": (s[START] - origin) * 1e6,
            "dur": (s[END] - s[START]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"run": s[RUN], "tick": s[TICK], "parent": s[PARENT],
                     "count": s[COUNT]},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly on one thread, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class TimingProxy:
    """Forward everything to ``target``; time the allowlisted methods.

    ``methods`` maps a method name to ``(span name, counter)``, where
    ``counter(args, result)`` gives the call's work count (rows, frames,
    requests) or is ``None``.  A call that raises still closes its span,
    with count ``-1`` marking the error.
    """

    __slots__ = ("_target", "_methods", "_tracer")

    def __init__(self, target, tracer: Tracer, methods: Dict[str, tuple]):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_methods", methods)

    def __getattr__(self, attr: str):
        value = getattr(self._target, attr)
        spec = self._methods.get(attr)
        if spec is None:
            return value
        name, counter = spec
        tracer = self._tracer

        def timed(*args, **kwargs):
            tracer.push(name)
            try:
                result = value(*args, **kwargs)
            except BaseException:
                tracer.pop(count=-1)
                raise
            tracer.pop(count=counter(args, result) if counter else 0)
            return result

        return timed

    def __setattr__(self, attr: str, value) -> None:
        setattr(self._target, attr, value)


class Patches:
    """Attribute swaps that are undone in reverse order on :meth:`undo`."""

    def __init__(self):
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, tracer: Tracer,
             methods: Dict[str, tuple]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, TimingProxy(original, tracer, methods))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
