#!/usr/bin/env python
"""Run the paper's performance evaluation programmatically (no pytest).

Deploys the benchmark enterprise once, executes the 19 performance queries
(Sec. 6.3.1) on every engine of the evaluation, and renders Fig. 6- and
Fig. 7-style ASCII bar charts plus the headline speedups.  A lighter-weight
alternative to ``pytest benchmarks/ --benchmark-only`` when you just want
the picture.

Run: ``python examples/run_evaluation.py [events_per_host_day]``
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.baselines.mpp import aiql_parallel_engine, greenplum_engine
from repro.baselines.relational import MonolithicJoinEngine
from repro.engine.anomaly import AnomalyExecutor
from repro.engine.dependency import compile_dependency
from repro.engine.executor import MultieventExecutor
from repro.lang.ast import DependencyQuery
from repro.lang.context import compile_multievent
from repro.lang.parser import parse
from repro.workload.corpus import PERFORMANCE_QUERIES
from repro.workload.loader import build_enterprise

BAR_WIDTH = 44


def compile_text(text: str):
    tree = parse(text)
    if isinstance(tree, DependencyQuery):
        return compile_dependency(tree)
    return compile_multievent(tree)


def time_engine(run) -> float:
    run()  # warm caches once
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def bar_chart(title: str, series: Dict[str, Dict[str, float]]) -> str:
    """Render per-query grouped horizontal bars, log-ish scaled."""
    lines = [f"=== {title} ===)".replace(")", "")]
    peak = max(v for per in series.values() for v in per.values()) or 1.0
    engines = list(series)
    for qid in PERFORMANCE_QUERIES:
        lines.append(qid.qid)
        for engine in engines:
            value = series[engine].get(qid.qid, 0.0)
            width = max(1, int(BAR_WIDTH * value / peak))
            lines.append(
                f"  {engine:<12s} {'#' * width} {value * 1000:8.2f} ms"
            )
    return "\n".join(lines)


def main() -> None:
    rate = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    print(f"deploying the enterprise (rate={rate})...")
    enterprise = build_enterprise(
        stores=(
            "partitioned",
            "flat",
            "segmented_domain",
            "segmented_arrival",
        ),
        events_per_host_day=rate,
    )
    print(f"{enterprise.total_events} events\n")

    partitioned = enterprise.store("partitioned")
    engines = {
        "postgresql": MonolithicJoinEngine(partitioned),
        "aiql_ff": MultieventExecutor(partitioned, scheduling="fetch_filter"),
        "aiql": MultieventExecutor(partitioned),
        "greenplum": greenplum_engine(enterprise.store("segmented_arrival")),
        "aiql_par": aiql_parallel_engine(enterprise.store("segmented_domain")),
    }
    anomaly = {
        "postgresql": AnomalyExecutor(partitioned, scheduling="fetch_filter"),
        "aiql_ff": AnomalyExecutor(partitioned, scheduling="fetch_filter"),
        "aiql": AnomalyExecutor(partitioned),
        "greenplum": AnomalyExecutor(
            enterprise.store("segmented_arrival"), scheduling="fetch_filter"
        ),
        "aiql_par": AnomalyExecutor(enterprise.store("segmented_domain")),
    }

    results: Dict[str, Dict[str, float]] = {name: {} for name in engines}
    for query in PERFORMANCE_QUERIES:
        ctx = compile_text(query.text)
        for name in engines:
            engine = anomaly[name] if ctx.kind == "anomaly" else engines[name]
            results[name][query.qid] = time_engine(lambda: engine.run(ctx))

    print(bar_chart(
        "Fig. 6-style: single-node scheduling",
        {k: results[k] for k in ("postgresql", "aiql_ff", "aiql")},
    ))
    print()
    print(bar_chart(
        "Fig. 7-style: parallel scheduling",
        {k: results[k] for k in ("greenplum", "aiql_par")},
    ))

    def total(name: str) -> float:
        return sum(results[name].values())

    print("\n=== headline speedups ===")
    print(f"AIQL FF over PostgreSQL scheduling: "
          f"{total('postgresql') / total('aiql_ff'):5.1f}x  (paper: 19x)")
    print(f"AIQL over PostgreSQL scheduling:    "
          f"{total('postgresql') / total('aiql'):5.1f}x  (paper: 40x)")
    print(f"AIQL over Greenplum scheduling:     "
          f"{total('greenplum') / total('aiql_par'):5.1f}x  (paper: 16x)")


if __name__ == "__main__":
    main()
