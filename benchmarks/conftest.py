"""Shared benchmark fixtures: a benchmark-scale deployment of Sec. 6.

The deployment is larger than the test-suite one (more background events)
so the cost asymmetries between scheduling strategies are visible, while
still finishing in minutes on a laptop.  Scale with ``AIQL_BENCH_RATE``
(background events per host-day, default 1000).
"""

from __future__ import annotations

import os

import pytest

from repro.baselines.graph import GraphEngine, GraphStore
from repro.baselines.mpp import (
    aiql_parallel_anomaly_engine,
    aiql_parallel_engine,
    greenplum_engine,
)
from repro.baselines.relational import MonolithicJoinEngine
from repro.engine.anomaly import AnomalyExecutor
from repro.engine.dependency import compile_dependency
from repro.engine.executor import MultieventExecutor
from repro.lang.ast import DependencyQuery
from repro.lang.context import compile_multievent
from repro.lang.parser import parse
from repro.storage.filters import EventFilter
from repro.workload.loader import build_enterprise

DEFAULT_BENCH_RATE = 1000
BENCH_RATE = int(os.environ.get("AIQL_BENCH_RATE", str(DEFAULT_BENCH_RATE)))


def compile_text(text: str):
    tree = parse(text)
    if isinstance(tree, DependencyQuery):
        return compile_dependency(tree)
    return compile_multievent(tree)


@pytest.fixture(scope="session")
def enterprise():
    return build_enterprise(
        stores=(
            "partitioned",
            "flat",
            "segmented_domain",
            "segmented_arrival",
        ),
        events_per_host_day=BENCH_RATE,
    )


@pytest.fixture(scope="session")
def engines(enterprise):
    """Every engine of the evaluation, over identical data."""
    partitioned = enterprise.store("partitioned")
    flat = enterprise.store("flat")
    graph = GraphStore.from_events(
        enterprise.registry, flat.scan_columns(EventFilter()).events()
    )
    return {
        # end-to-end systems (Table 3 / Fig. 5)
        "aiql": MultieventExecutor(partitioned, scheduling="relationship"),
        "aiql_anomaly": AnomalyExecutor(partitioned, scheduling="relationship"),
        "postgresql": MonolithicJoinEngine(flat),
        "neo4j": GraphEngine(graph),
        # scheduling-only comparison over the optimized store (Fig. 6)
        "postgresql_sched": MonolithicJoinEngine(partitioned),
        "aiql_ff": MultieventExecutor(partitioned, scheduling="fetch_filter"),
        "aiql_ff_anomaly": AnomalyExecutor(partitioned, scheduling="fetch_filter"),
        # parallel comparison (Fig. 7)
        "greenplum": greenplum_engine(enterprise.store("segmented_arrival")),
        "greenplum_anomaly": AnomalyExecutor(
            enterprise.store("segmented_arrival"), scheduling="fetch_filter"
        ),
        "aiql_parallel": aiql_parallel_engine(
            enterprise.store("segmented_domain")
        ),
        "aiql_parallel_anomaly": aiql_parallel_anomaly_engine(
            enterprise.store("segmented_domain")
        ),
    }


def prepare(engines, engine_name: str, query):
    """Compile once; return a zero-arg runner so benchmarks time execution
    only (parse + semantic analysis are sub-millisecond and not what the
    paper's Figs. 5-7 measure)."""
    ctx = compile_text(query.text)
    if ctx.kind == "anomaly":
        anomaly_map = {
            "aiql": "aiql_anomaly",
            "aiql_ff": "aiql_ff_anomaly",
            "postgresql_sched": "aiql_ff_anomaly",
            "aiql_parallel": "aiql_parallel_anomaly",
            "greenplum": "greenplum_anomaly",
        }
        engine = engines[anomaly_map.get(engine_name, engine_name)]
    else:
        engine = engines[engine_name]
    return lambda: engine.run(ctx)


def run_query(engines, engine_name: str, query):
    """Compile + execute one corpus query on the named engine."""
    return prepare(engines, engine_name, query)()
