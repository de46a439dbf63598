"""Observability overhead: metrics + tracing cost on the hot query path.

The ISSUE-8 acceptance benchmark (machine-readable output in
``BENCH_obs.json``).  Cells, all over the APT-style multi-pattern
investigation from the scan-kernel bench:

* **query_disabled** — metrics off, no trace: the baseline every other
  cell is measured against (instrumentation guards still present).
* **query_metrics**  — metrics registry enabled.
* **query_traced**   — metrics enabled *and* the query runs under an
  active span tree (the EXPLAIN ANALYZE path).
* **ingest** — live-stream commit throughput with metrics on vs off.
* **disabled_guard_model** — there is no uninstrumented build to diff
  against, so the "disabled" overhead is modeled directly: the per-call
  cost of a disabled counter/trace hook is micro-benchmarked, multiplied
  by a generous estimate of hook executions per query, and compared to
  the measured workload latency.

The query cells run a mixed investigation workload per sample — one
broad triage sweep plus several highly selective APT-pattern queries —
because that is what the engine serves in practice and because a pure
sub-millisecond point query would measure the fixed ~tens-of-µs
per-query span/counter cost against almost no work.  Cells are sampled
in interleaved rounds (off/metrics/traced per round, order rotating) and
an overhead is the **median over rounds of the round's own ratio**: the
cells of one round run within ~25 ms of each other, so a slow spell of
the box scales both sides of a ratio, and a burst that lands on one cell
moves one round's ratio, not the median.  (The ratio of the two
min-of-rounds, used before, compares a ~7 ms sample's luckiest run in
each cell: on a shared box it read 1.035-1.145 over six runs of one
tree.)

Acceptance (``--check``): enabled overhead (metrics, and metrics+trace)
<= 5% of the disabled baseline on the mixed workload; the modeled
disabled-guard cost <= 1%.

Run:  PYTHONPATH=src python benchmarks/bench_observability.py
      (``--check`` exits nonzero on acceptance failures; AIQL_BENCH_RATE
      scales the workload, default 300 events/host-day)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine import compile_query
from repro.engine.executor import MultieventExecutor
from repro.obs import REGISTRY, Trace, set_metrics_enabled
from repro.obs.trace import activate
from repro.workload.loader import build_enterprise

ROUNDS = 25
SELECTIVE_PER_SAMPLE = 5
GUARD_CALLS = 200_000

# Same APT-style investigation bench_scan_kernels.py uses: scan-bound
# multi-pattern scheduling with narrowed re-queries and joins — the path
# carrying the densest instrumentation.
MULTI_PATTERN = """
    agentid = 1
    proc p1[cmd = "%outlook%"] start proc p2[cmd = "%excel%"] as evt1
    proc p2 write file f1[owner in ("u1", "u2", "u3")] as evt2
    proc p2 start proc p3[cmd = "%payload%"] as evt3
    with evt1 before evt2, evt2 before evt3
    return distinct p1, p2, f1, p3
"""

# Broad triage sweep: unconstrained patterns defeat both pruning and the
# entity index, so every partition's columns are scanned and thousands
# of rows materialize — the scan/materialize-bound end of the workload.
SWEEP = """
    proc p1 write file f1 as e1
    return distinct p1, f1
"""


def bench_query_cells(store) -> dict:
    apt = compile_query(MULTI_PATTERN)
    sweep = compile_query(SWEEP)
    executor = MultieventExecutor(store)

    def workload():
        executor.run(sweep)
        for _ in range(SELECTIVE_PER_SAMPLE):
            executor.run(apt)

    def workload_traced():
        with activate(Trace("query")):
            executor.run(sweep)
        for _ in range(SELECTIVE_PER_SAMPLE):
            with activate(Trace("query")):
                executor.run(apt)

    def sample(runner, metrics: bool) -> float:
        set_metrics_enabled(metrics)
        started = time.perf_counter()
        runner()
        return (time.perf_counter() - started) * 1000

    cells = [
        ("query_disabled", workload, False),
        ("query_metrics", workload, True),
        ("query_traced", workload_traced, True),
    ]
    for _, runner, metrics in cells:  # warm caches/kernels once per cell
        sample(runner, metrics)
    samples: dict = {name: [] for name, _, _ in cells}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # GC pauses otherwise dominate cell-to-cell deltas
    try:
        for round_no in range(ROUNDS):
            # Interleave cells and rotate their order every round so any
            # systematic drift (thermal, frequency) hits all cells equally.
            start = round_no % len(cells)
            for name, runner, metrics in cells[start:] + cells[:start]:
                samples[name].append(sample(runner, metrics))
    finally:
        if gc_was_enabled:
            gc.enable()
        set_metrics_enabled(True)

    def overhead(cell: str) -> float:
        return statistics.median(
            on / off for on, off in zip(samples[cell], samples["query_disabled"])
        )

    rows_plain = set(executor.run(apt).rows)
    with activate(Trace("query")):
        rows_traced = set(executor.run(apt).rows)

    out: dict = {
        name: {
            "min_ms": round(min(values), 4),
            "median_ms": round(statistics.median(values), 4),
        }
        for name, values in samples.items()
    }
    out["metrics_overhead"] = round(overhead("query_metrics"), 4)
    out["traced_overhead"] = round(overhead("query_traced"), 4)
    out["identical"] = rows_traced == rows_plain
    return out


def bench_ingest(rate: int) -> dict:
    """Live-stream commit throughput, metrics on vs off."""

    def throughput() -> float:
        system = AIQLSystem(SystemConfig())
        try:
            started = time.perf_counter()
            build_enterprise(
                stores=(),
                ingestor=system.ingestor,
                events_per_host_day=rate,
                days=4,
                stream_batch_size=256,
            )
            elapsed = time.perf_counter() - started
            return system.ingestor.events_ingested / elapsed
        finally:
            system.close()

    set_metrics_enabled(False)
    off = throughput()
    set_metrics_enabled(True)
    on = throughput()
    return {
        "events_per_s_disabled": round(off),
        "events_per_s_metrics": round(on),
        "ratio": round(off / on, 4) if on else None,
    }


def bench_disabled_guard_model(store, workload_ms: float) -> dict:
    """Model the cost of disabled instrumentation on one workload sample.

    Every disabled metric mutation is one flag check; every disabled
    trace hook is one ``ContextVar.get``.  The per-call cost of both is
    micro-benchmarked, and the number of hook executions one workload
    sample actually performs is *counted* (``sys.setprofile`` over one
    disabled run, tallying calls into ``repro/obs`` code).  Their product
    is the disabled overhead the 1% gate holds against the measured
    workload latency.
    """
    set_metrics_enabled(False)
    counter = REGISTRY.counter("aiql_bench_guard_probe_total", "probe")
    started = time.perf_counter()
    for _ in range(GUARD_CALLS):
        counter.inc()
    guard_ns = (time.perf_counter() - started) / GUARD_CALLS * 1e9

    from repro.obs.trace import trace_add

    started = time.perf_counter()
    for _ in range(GUARD_CALLS):
        trace_add("probe")
    hook_ns = (time.perf_counter() - started) / GUARD_CALLS * 1e9

    # Count disabled hook executions in one workload sample.
    apt = compile_query(MULTI_PATTERN)
    sweep = compile_query(SWEEP)
    executor = MultieventExecutor(store)
    hook_calls = 0
    marker = os.path.join("repro", "obs") + os.sep

    def profiler(frame, event, arg):  # noqa: ANN001 - sys.setprofile hook
        nonlocal hook_calls
        if event == "call" and marker in frame.f_code.co_filename:
            hook_calls += 1

    sys.setprofile(profiler)
    try:
        executor.run(sweep)
        for _ in range(SELECTIVE_PER_SAMPLE):
            executor.run(apt)
    finally:
        sys.setprofile(None)
    set_metrics_enabled(True)

    modeled_ms = hook_calls * max(guard_ns, hook_ns) / 1e6
    return {
        "guard_ns_per_call": round(guard_ns, 1),
        "trace_hook_ns_per_call": round(hook_ns, 1),
        "hooks_per_sample": hook_calls,
        "modeled_ms_per_sample": round(modeled_ms, 5),
        "fraction_of_workload": (
            round(modeled_ms / workload_ms, 5) if workload_ms else None
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_obs.json")
    args = parser.parse_args()
    rate = int(os.environ.get("AIQL_BENCH_RATE", "300"))

    print(f"building corpus at rate={rate}...", file=sys.stderr)
    system = AIQLSystem(SystemConfig())
    build_enterprise(stores=(), ingestor=system.ingestor,
                     events_per_host_day=rate)
    try:
        print("running query cells...", file=sys.stderr)
        query = bench_query_cells(system.store)
        print("running ingest cell...", file=sys.stderr)
        ingest = bench_ingest(rate)
        model = bench_disabled_guard_model(
            system.store, query["query_disabled"]["min_ms"]
        )

        checks = {
            "metrics_overhead_5pct": query["metrics_overhead"] <= 1.05,
            "traced_overhead_5pct": query["traced_overhead"] <= 1.05,
            "disabled_guard_1pct": model["fraction_of_workload"] <= 0.01,
            "results_identical": query["identical"],
        }
        result = {
            "bench": "observability",
            "workload": {"rate": rate, "events": len(system.store)},
            "query": query,
            "ingest": ingest,
            "disabled_guard_model": model,
            "checks": checks,
        }
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        if args.check and not all(checks.values()):
            failed = sorted(k for k, v in checks.items() if not v)
            print(f"ACCEPTANCE FAILED: {failed}", file=sys.stderr)
            return 1
        return 0
    finally:
        system.close()
        set_metrics_enabled(True)


if __name__ == "__main__":
    sys.exit(main())
