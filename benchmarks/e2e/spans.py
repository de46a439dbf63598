"""Harness-side layer trace: spans around calls into the program.

``Tracer.wrap`` replaces one attribute of one object (an instance method,
or a function in a module's namespace) with a timing wrapper; nothing
under ``src/`` changes and :meth:`Tracer.uninstall` puts every original
back.  A span is ``(id, name, start, end, parent, op)``: ``parent`` comes
from a per-thread stack, ``op`` is the operation (one query, one commit)
the harness opened on that thread.  Spans stay in memory until the run
ends and are then written out by the caller.

Self time is a span's duration minus the part of its interval its child
spans cover; coverage of an operation is the self time of everything
below its root span over the root's duration — what the wrappers account
for of the wall the client saw.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrappers installed on live objects."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str, op: Optional[int] = None) -> tuple:
        """Open a span on this thread; pass the result to :meth:`close`.

        ``op`` starts a new operation (the harness's root spans); without
        it the span joins the operation of the span it nests in.
        """
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, parent_op = stack[-1]
            op = parent_op if op is None else op
        else:
            parent = None
        stack.append((span_id, op))
        return (span_id, name, parent, op, time.perf_counter())

    def close(self, token: tuple) -> Span:
        end = time.perf_counter()
        span_id, name, parent, op, start = token
        self._stack().pop()
        span = Span(span_id, name, start, end, parent, op)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def new_op(self) -> int:
        return next(self._ids)

    # -- installation ----------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        inner = getattr(owner, attr)
        tracer_open, tracer_close = self.open, self.close

        def traced(*args, **kwargs):
            token = tracer_open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer_close(token)

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Put ``replacement`` at ``owner.attr`` until :meth:`uninstall`."""
        inner = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, inner, had_own))

    def uninstall(self) -> None:
        for owner, attr, inner, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attr, inner)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> int:
        """Write the spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        return len(self.spans)


# -- analysis -------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the cover of its children,
    each child clipped to the parent's interval (a child on another thread
    can outlive the call that started it)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[parent.id].append((start, end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()))
        for span in spans
    }


def by_op(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    grouped: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.op is not None:
            grouped[span.op].append(span)
    return grouped


def coverage(op_spans: Sequence[Span], selfs: Dict[int, float]) -> float:
    """Share of an operation's root span that spans below it account for."""
    roots = [s for s in op_spans if s.parent is None]
    if len(roots) != 1 or roots[0].duration <= 0:
        raise ValueError("an operation has exactly one root span")
    root = roots[0]
    below = sum(selfs[s.id] for s in op_spans if s.id != root.id)
    return below / root.duration


def self_by_name(
    spans: Sequence[Span], selfs: Dict[int, float]
) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += selfs[span.id]
    return dict(totals)
