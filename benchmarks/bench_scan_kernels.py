"""Compiled scan kernels: interpreted vs compiled filter evaluation.

The ISSUE-4 acceptance benchmark (machine-readable output in
``BENCH_scan.json``).  Five cells, every one asserting the compiled path
returns *byte-identical* results to the interpreted oracle:

* **single_pattern** — a LIKE+IN-heavy single-pattern filter over
  non-indexed attributes (the worst case for index narrowing: every
  candidate event pays the full match), scanned through the partitioned
  store with the entity indexes off.  Floor: >= 3x scan throughput (and
  >= 5.5M compiled events/s absolute at the default workload rate).
* **multi_pattern** — an end-to-end APT-style investigation (parser ->
  scheduler -> constrained scans -> joins) whose patterns constrain
  non-indexed attributes, so data queries are scan-bound.  Floor: >= 1.5x.
* **numeric_predicate** — the ISSUE-20 cell: an ``amount > N`` event
  predicate over every partition block of a multi-day window, as one pass
  over the raw ``array`` column (``kernel.select``) vs the per-row compiled
  predicate (a getter, a type dispatch and a comparison call per row: the
  path every non-numeric leaf still takes).  Floor: >= 3x.
* **cold_only** — a cold-window query through the columnar cold path
  (structural prefilter on raw columns before any ``SystemEvent`` is
  materialized), with the per-segment result cache disabled so the cell
  measures the scan itself, not memoization.
* **mixed_window** — the BENCH_tier regression cell: a window spanning
  both tiers, tiered store vs the RAM-only baseline, with the shipped
  defaults (partition-scan cache + per-segment cold result cache).
  Floor: ratio <= 1.5x (down from 5.02x in BENCH_tier.json); the
  columnar refactor holds it <= 1.1x at the default rate.

Run:  PYTHONPATH=src python benchmarks/bench_scan_kernels.py
      (``--check`` exits nonzero on acceptance failures; AIQL_BENCH_RATE
      scales the workload, default 300 events/host-day)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine import compile_query
from repro.engine.executor import MultieventExecutor
from repro.storage.filters import EventFilter
from repro.storage.kernels import (
    _compile_block_event_predicate,
    compile_filter,
    use_kernels,
)
from repro.workload.loader import build_enterprise

DAYS = 20
RETENTION_DAYS = 2
REPEATS = 15

_USERS = '"u1", "u2", "u3", "u4", "u5", "root", "www-data"'

# LIKE + IN over cmd/user/owner: none of these attributes is hash-indexed,
# so every candidate event pays the full per-event match — the pure
# interpreted-vs-compiled comparison.
SINGLE_PATTERN = f"""
    proc p1[cmd = "%e%", user in ({_USERS})]
    write file f1[name = "%o%", owner in ({_USERS})] as evt1
    return distinct p1, f1
"""

# The paper's c2-4-style APT investigation on the attack host, expressed
# over non-indexed attributes (cmd/owner) so every unconstrained data query
# pays the full per-event match: phishing client spawns the macro host,
# which stages a file and launches the payload.  Joins ride p2's entity id
# (postings-list narrowings), keeping the cell scan-bound end to end.
MULTI_PATTERN = """
    agentid = 1
    proc p1[cmd = "%outlook%"] start proc p2[cmd = "%excel%"] as evt1
    proc p2 write file f1[owner in ("u1", "u2", "u3")] as evt2
    proc p2 start proc p3[cmd = "%payload%"] as evt3
    with evt1 before evt2, evt2 before evt3
    return distinct p1, p2, f1, p3
"""

# A sweep's pattern (benchmarks/e2e): no entity predicate, a multi-day
# window, a numeric event predicate.  Amounts top out at 2**20.
NUMERIC_PATTERN = """
    (from "01/03/2017" to "01/10/2017")
    proc p1 write file f1 as evt1[amount > 600000]
    return distinct p1, f1
"""

# Windows relative to the 20-day corpus (2017-01-01 .. 2017-01-21): the
# last two days stay hot, everything earlier compacts cold.
COLD_WINDOW = '(from "01/02/2017" to "01/04/2017")'
MIXED_WINDOW = '(from "01/12/2017" to "01/21/2017")'

COLD_QUERY = f"""
    {COLD_WINDOW}
    proc p1 write file f1 as evt1
    return distinct p1, f1 top 5
"""

MIXED_QUERY = f"""
    {MIXED_WINDOW}
    proc p1 write file f1 as evt1
    return distinct p1, f1 top 5
"""


def median_ms(runner) -> float:
    runner()  # warm caches/indexes once
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        runner()
        samples.append((time.perf_counter() - started) * 1000)
    return statistics.median(samples)


def compare_modes(run_interpreted, run_compiled, rows_of) -> dict:
    """Median latency per mode + identical-results assertion material."""
    with use_kernels(False):
        interpreted_rows = rows_of(run_interpreted())
        interpreted_ms = median_ms(run_interpreted)
    with use_kernels(True):
        compiled_rows = rows_of(run_compiled())
        compiled_ms = median_ms(run_compiled)
    return {
        "interpreted_ms": round(interpreted_ms, 3),
        "compiled_ms": round(compiled_ms, 3),
        "speedup": round(interpreted_ms / compiled_ms, 2) if compiled_ms else None,
        "rows": len(compiled_rows),
        "identical": compiled_rows == interpreted_rows,
    }


def bench_single_pattern(store) -> dict:
    flt = compile_query(SINGLE_PATTERN).patterns[0].filter
    run = lambda: store.scan(flt, use_entity_index=False)  # noqa: E731
    cell = compare_modes(run, run, list)
    events = len(store)
    cell["events_scanned"] = events
    cell["interpreted_events_per_s"] = round(
        events / (cell["interpreted_ms"] / 1000)
    )
    cell["compiled_events_per_s"] = round(
        events / (cell["compiled_ms"] / 1000)
    )
    return cell


def bench_numeric_predicate(store) -> dict:
    """One pass over the raw amount column vs the per-row predicate.

    Both run over the same partition blocks (every block the window
    reaches) and the same candidates (every row), so only the evaluation
    of the predicate differs.
    """
    flt = compile_query(NUMERIC_PATTERN).patterns[0].filter
    blocks = [
        part.block
        for part in store.scan_columns(EventFilter(window=flt.window)).parts
    ]
    lookup = store.registry.get
    select = compile_filter(EventFilter(event_pred=flt.event_pred)).select
    per_row = _compile_block_event_predicate(flt.event_pred)

    def column_pass():
        return [list(select(b, range(len(b)), lookup)) for b in blocks]

    def per_row_pass():
        return [[i for i in range(len(b)) if per_row(b, i)] for b in blocks]

    per_row_ms = median_ms(per_row_pass)
    column_ms = median_ms(column_pass)
    survivors = column_pass()
    return {
        "per_row_ms": round(per_row_ms, 3),
        "column_ms": round(column_ms, 3),
        "speedup": round(per_row_ms / column_ms, 2) if column_ms else None,
        "partitions": len(blocks),
        "events_scanned": sum(len(b) for b in blocks),
        "rows": sum(len(positions) for positions in survivors),
        "identical": survivors == per_row_pass(),
    }


def bench_multi_pattern(store) -> dict:
    ctx = compile_query(MULTI_PATTERN)
    executor = MultieventExecutor(store)
    run = lambda: executor.run(ctx)  # noqa: E731
    cell = compare_modes(run, run, lambda result: set(result.rows))
    cell["patterns"] = len(ctx.patterns)
    return cell


def bench_cold_only(tiered_store) -> dict:
    ctx = compile_query(COLD_QUERY)
    executor = MultieventExecutor(tiered_store)
    run = lambda: executor.run(ctx)  # noqa: E731
    return compare_modes(run, run, lambda result: set(result.rows))


def bench_mixed_window(baseline_store, tiered_store) -> dict:
    """BENCH_tier methodology: tiered vs RAM-only latency, kernels on."""
    ctx = compile_query(MIXED_QUERY)
    base_rows = set(MultieventExecutor(baseline_store).run(ctx).rows)
    base_ms = median_ms(lambda: MultieventExecutor(baseline_store).run(ctx))
    tier_rows = set(MultieventExecutor(tiered_store).run(ctx).rows)
    tier_ms = median_ms(lambda: MultieventExecutor(tiered_store).run(ctx))
    return {
        "baseline_ms": round(base_ms, 3),
        "tiered_ms": round(tier_ms, 3),
        "ratio": round(tier_ms / base_ms, 3) if base_ms else None,
        "rows": len(tier_rows),
        "identical": tier_rows == base_rows,
    }


def build_tiered(rate: int, data_dir: Path, cold_result_cache: int) -> AIQLSystem:
    system = AIQLSystem(
        SystemConfig(
            data_dir=str(data_dir),
            retention_days=RETENTION_DAYS,
            compact_interval_s=3600,  # compaction driven explicitly below
            wal_sync=False,  # population speed; durability benched elsewhere
            cold_scan_cache_entries=cold_result_cache,
        )
    )
    build_enterprise(
        stores=(),
        ingestor=system.ingestor,
        events_per_host_day=rate,
        days=DAYS,
        stream_batch_size=512,
    )
    system.compact()
    system.checkpoint()
    return system


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_scan.json")
    args = parser.parse_args()
    rate = int(os.environ.get("AIQL_BENCH_RATE", "300"))

    root = Path(tempfile.mkdtemp(prefix="bench-scan-"))
    try:
        print(f"building {DAYS}-day corpora at rate={rate}...", file=sys.stderr)
        baseline = build_enterprise(
            stores=("partitioned",), events_per_host_day=rate, days=DAYS
        ).store("partitioned")
        # Two tiered deployments: the cold-only cell measures the scan
        # path itself (per-segment result cache off); the mixed cell runs
        # the shipped defaults.
        uncached = build_tiered(rate, root / "uncached", cold_result_cache=0)
        shipped = build_tiered(rate, root / "shipped", cold_result_cache=128)

        print("running cells...", file=sys.stderr)
        single = bench_single_pattern(baseline)
        numeric = bench_numeric_predicate(baseline)
        multi = bench_multi_pattern(baseline)
        cold = bench_cold_only(uncached.store)
        mixed = bench_mixed_window(baseline, shipped.store)
        uncached.close()
        shipped.close()

        checks = {
            "single_pattern_3x": single["speedup"] >= 3.0,
            "numeric_predicate_3x": numeric["speedup"] >= 3.0,
            "multi_pattern_1_5x": multi["speedup"] >= 1.5,
            "mixed_window_1_5x": mixed["ratio"] <= 1.5,
            "results_identical": all(
                cell["identical"]
                for cell in (single, numeric, multi, cold, mixed)
            ),
        }
        if rate >= 300:
            # Absolute floors only hold on the full-size workload; the CI
            # perf-smoke runs a scaled-down rate where fixed overheads
            # (parse, result assembly) dominate the timings.
            checks["single_pattern_5_5m_events_per_s"] = (
                single["compiled_events_per_s"] >= 5_500_000
            )
            checks["mixed_window_1_1x"] = mixed["ratio"] <= 1.1
        result = {
            "bench": "scan_kernels",
            "workload": {
                "rate": rate,
                "days": DAYS,
                "retention_days": RETENTION_DAYS,
                "events": len(baseline),
            },
            "single_pattern": single,
            "numeric_predicate": numeric,
            "multi_pattern": multi,
            "cold_only": cold,
            "mixed_window": mixed,
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
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
