"""Timing and in-memory spans around the benchmark's calls into the library.

Every library call the benchmark makes goes through :meth:`Recorder.call`,
which times it.  With tracing on, the recorder also keeps a span per call
(name, start, end, parent, workload, request id and counts taken from the
call's result); spans stay in memory and are written out once, when the run
ends.  Spans are recorded here, around the public functions, and never
inside the library.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    request: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Times library calls; keeps spans only while ``traced`` is true."""

    def __init__(self, workload: str):
        self.workload = workload
        self.traced = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return ``(result, seconds)``.

        A call that raises leaves its span closed with ``attrs["raised"]``
        set, and the exception propagates to the caller's check.
        """
        if not self.traced:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            return result, time.perf_counter() - start
        with self.span(name) as span:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
        return result, span.duration

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Open a span (a no-op yielding ``None`` when tracing is off)."""
        if not self.traced:
            yield None
            return
        outer_request = self._request
        if request is not None:
            self._request = request
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.workload, self._request)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._request = outer_request

    def annotate(self, **attrs) -> None:
        """Attach counts to the most recently closed or open span."""
        if self.traced and self.spans:
            self.spans[-1].attrs.update(attrs)

    def write(self, path: Path, header: dict) -> None:
        """Write the header line and then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "workload": s.workload,
                    "request": s.request, **s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_of(name: str) -> str:
    """``"measures.x_u"`` -> ``"measures"``; benchmark spans are ``"bench"``."""
    return name.split(".", 1)[0]
