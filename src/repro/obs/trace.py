"""Query tracing: structured span trees with timings and annotations.

A :class:`Trace` is activated on the current context (``contextvars``)
for the duration of one query; instrumentation sites open nested
:func:`trace_span` blocks (compile → schedule → per-pattern scans →
narrowing re-queries → joins) and attach annotations from deep inside
the storage layer via :func:`trace_add` / :func:`trace_annotate`.

When no trace is active — the common case — every hook is a single
``ContextVar.get`` returning ``None``.  Thread-pool workers do *not*
inherit the active trace (contextvars don't propagate into pool
threads), which is deliberate: parallel partition scans aggregate their
annotations on the calling thread inside ``EventStore.scan_columns``
instead of racing on one span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(slots=True)
class Span:
    """One timed step of a query, with child spans and annotations."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    started: float = 0.0
    ended: Optional[float] = None

    @property
    def duration_s(self) -> float:
        end = self.ended if self.ended is not None else time.perf_counter()
        return max(0.0, end - self.started)

    def add(self, key: str, n: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + n

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    # -- renderers ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "duration_ms": round(self.duration_s * 1e3, 3),
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def to_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        bits = [f"{pad}{self.name}"]
        detail = []
        for key, value in self.attrs.items():
            detail.append(f"{key}={value}")
        for key, value in sorted(self.counters.items()):
            n = int(value) if value == int(value) else value
            detail.append(f"{key}={n}")
        head = bits[0]
        if detail:
            head += " [" + " ".join(detail) + "]"
        head += f"  ({self.duration_s * 1e3:.2f} ms)"
        lines = [head]
        for child in self.children:
            lines.append(child.to_text(indent + 1))
        return "\n".join(lines)

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (including self) with ``name``."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out


class Trace:
    """A span tree under construction for one query execution.

    Spans are opened/closed on a stack; query execution is
    single-threaded at span granularity (parallelism only happens below
    span level, inside one scan), so a plain list suffices.
    """

    def __init__(self, name: str = "query", **attrs: Any) -> None:
        self.root = Span(name, attrs=dict(attrs), started=time.perf_counter())
        self._stack: List[Span] = [self.root]

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def push(self, name: str, **attrs: Any) -> Span:
        # ``attrs`` is a fresh kwargs dict — owned outright, no copy.
        span = Span(name, attrs=attrs, started=time.perf_counter())
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def pop(self, span: Span) -> None:
        span.ended = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def finish(self) -> Span:
        now = time.perf_counter()
        while self._stack:
            self._stack.pop().ended = now
        return self.root


_ACTIVE: ContextVar[Optional[Trace]] = ContextVar("aiql_trace", default=None)


def active_trace() -> Optional[Trace]:
    return _ACTIVE.get()


@contextmanager
def activate(trace: Trace) -> Iterator[Trace]:
    """Make ``trace`` the active trace for the current context."""
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        trace.finish()
        _ACTIVE.reset(token)


class trace_span:
    """Open a child span on the active trace; no-op when tracing is off.

    A hand-rolled context manager (not ``@contextmanager``): spans open
    on every scan/join of a traced query, and the generator protocol
    costs several times more than this slotted object.
    """

    __slots__ = ("_trace", "span")

    def __init__(self, name: str, **attrs: Any) -> None:
        trace = _ACTIVE.get()
        self._trace = trace
        self.span = None if trace is None else trace.push(name, **attrs)

    def __enter__(self) -> Optional[Span]:
        return self.span

    def __exit__(self, *exc: object) -> None:
        if self._trace is not None:
            assert self.span is not None
            self._trace.pop(self.span)


def trace_add(key: str, n: float = 1.0) -> None:
    """Bump a counter on the current span (no-op when tracing is off)."""
    trace = _ACTIVE.get()
    if trace is not None:
        trace.current.add(key, n)


def trace_annotate(**attrs: Any) -> None:
    """Set attributes on the current span (no-op when tracing is off)."""
    trace = _ACTIVE.get()
    if trace is not None:
        trace.current.annotate(**attrs)
