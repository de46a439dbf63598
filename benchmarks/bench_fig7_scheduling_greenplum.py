"""Fig. 7: scheduling comparison on parallel (MPP) storage.

The 19 performance queries over the 5-segment store: *Greenplum
scheduling* (monolithic hash-join plan over arrival-order-distributed
segments, every scan touching the whole fleet) vs *AIQL* (relationship
scheduling over the semantics-aware (agent, day) distribution, with
segment pruning).  Both engines scan their segments serially in process,
so the bars compare distribution and scheduling, not thread counts.  The
paper reports a 16x average speedup and near-parity on the cheap queries.

Run: ``pytest benchmarks/bench_fig7_scheduling_greenplum.py --benchmark-only``
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from benchmarks.conftest import prepare
from repro.workload.corpus import PERFORMANCE_QUERIES

ENGINES = ("greenplum", "aiql_parallel")
_RESULTS: dict = defaultdict(dict)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("query", PERFORMANCE_QUERIES, ids=lambda q: q.qid)
def test_parallel_scheduling(benchmark, engines, engine, query):
    runner = prepare(engines, engine, query)
    result = benchmark.pedantic(runner, rounds=2, iterations=1)
    assert len(result) >= query.min_rows
    _RESULTS[engine][query.qid] = benchmark.stats["mean"]


@pytest.mark.benchmark(group="summary")
def test_zz_fig7_summary(benchmark, enterprise):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n=== Fig. 7 (reproduced): parallel scheduling, seconds ===")
    print(f"{'query':6s} {'Greenplum':>10s} {'AIQL':>9s} {'ratio':>7s}")
    totals = defaultdict(float)
    ratios = []
    for query in PERFORMANCE_QUERIES:
        gp = _RESULTS["greenplum"].get(query.qid, 0.0)
        aiql = _RESULTS["aiql_parallel"].get(query.qid, 0.0)
        ratio = gp / aiql if aiql else float("nan")
        ratios.append(ratio)
        print(f"{query.qid:6s} {gp:10.4f} {aiql:9.4f} {ratio:7.1f}")
        totals["greenplum"] += gp
        totals["aiql"] += aiql
    print(
        f"{'total':6s} {totals['greenplum']:10.4f} {totals['aiql']:9.4f}"
    )
    avg = sum(r for r in ratios if r == r) / len(ratios)
    print(f"average speedup over Greenplum scheduling: {avg:.1f}x (paper: 16x)")
    print(
        "segment skew — domain: "
        f"{enterprise.store('segmented_domain').skew():.3f}, arrival: "
        f"{enterprise.store('segmented_arrival').skew():.3f}"
    )
    assert totals["aiql"] < totals["greenplum"]
