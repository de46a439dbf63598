"""EXPLAIN / EXPLAIN ANALYZE reports.

:func:`plan_lines` renders the static plan (pattern scores, agent set,
relationships) from a compiled query context; :class:`ExplainReport`
pairs it with the executed span tree when the query actually ran
(``AIQLSystem.explain(text, analyze=True)``).

The report stringifies to the text rendering (search it with
``"..." in str(report)``).  JSON output goes through the
versioned :mod:`repro.api` wire schema, so ``repro explain --json``,
``GET /v1/explain`` and this method all emit the same
``explain_report`` message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import Span


def plan_lines(ctx: Any) -> List[str]:
    """Static execution plan for a compiled query context."""
    lines = [f"kind: {ctx.kind}"]
    if ctx.agent_ids is not None:
        lines.append(f"agents: {sorted(ctx.agent_ids)}")
    if ctx.window.start is not None or ctx.window.end is not None:
        lines.append(f"window: [{ctx.window.start}, {ctx.window.end})")
    for pattern in ctx.patterns:
        flt = pattern.filter
        ops = (
            ",".join(sorted(op.value for op in flt.operations))
            if flt.operations
            else "*"
        )
        lines.append(
            f"pattern {pattern.index} ({pattern.event_name}): "
            f"{pattern.subject_name} -[{ops}]-> {pattern.object_name} "
            f"({pattern.object_type.value}; score={pattern.score})"
        )
    for rel in ctx.attr_relationships:
        lines.append(
            f"attr rel: p{rel.left.pattern}.{rel.left.role}.{rel.left.attr} "
            f"{rel.op} p{rel.right.pattern}.{rel.right.role}.{rel.right.attr}"
        )
    for rel in ctx.temp_relationships:
        bounds = ""
        if rel.low is not None or rel.high is not None:
            bounds = f"[{rel.low or 0}-{rel.high}s]"
        lines.append(
            f"temp rel: evt{rel.left} {rel.kind}{bounds} evt{rel.right}"
        )
    return lines


@dataclass
class ExplainReport:
    """Static plan plus (optionally) the executed span tree."""

    query: str
    kind: str
    plan: List[str] = field(default_factory=list)
    root: Optional[Span] = None
    rows: Optional[int] = None
    scheduler: Optional[Dict[str, Any]] = None
    # Degraded sharded reads: merged ScanCompleteness summary of the
    # scans this execution ran without every shard (None = complete).
    completeness: Optional[Dict[str, Any]] = None

    # -- renderers ----------------------------------------------------------

    def to_text(self) -> str:
        lines = list(self.plan)
        if self.root is not None:
            lines.append("")
            lines.append(
                f"execution ({self.root.duration_s * 1e3:.2f} ms, "
                f"{self.rows if self.rows is not None else '?'} row(s)):"
            )
            lines.append(self.root.to_text())
        if self.scheduler:
            order = self.scheduler.get("order")
            if order is not None:
                lines.append(f"scheduler order: {list(order)}")
        if self.completeness:
            lines.append(
                "completeness: DEGRADED "
                f"(missing shards {self.completeness.get('missing_shards')}, "
                f"~{self.completeness.get('estimated_missed_rows')} "
                f"row(s) unavailable)"
            )
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = None) -> str:
        """The versioned ``explain_report`` wire message (:mod:`repro.api`)."""
        # Imported lazily: repro.api is the public surface and must stay
        # importable without pulling the obs/storage stack (and vice versa).
        from repro.api import explain_payload

        return explain_payload(self).to_json(indent=indent)

    def __str__(self) -> str:
        return self.to_text()

    # -- span access ---------------------------------------------------------

    def spans(self, name: str) -> List[Span]:
        """All spans with ``name`` (empty when not analyzed)."""
        return self.root.find(name) if self.root is not None else []

    def pattern_spans(self) -> List[Span]:
        """Per-pattern scan spans in execution order."""
        return self.spans("scan")
