"""Sharded scatter/gather scans vs the single-process store.

The ISSUE-7 acceptance benchmark (machine-readable output in
``BENCH_shard.json``).  Cells:

* **scatter_scan** — a LIKE+IN-heavy selective filter over non-indexed
  attributes (entity indexes off, so every shard pays the full compiled
  scan of its slice) at 1, 2 and 4 shards; speedups are 1-shard latency
  over N-shard latency.  Every cell asserts the gathered results are
  identical to the single-process reference.  (That the baseline stores
  answer like the partitioned one is ``test_backend_equivalence``'s job.)
* **multi_pattern** — an end-to-end APT-style investigation through the
  scheduler on a 2-shard deployment: join narrowing pushes the
  constrained re-query filters down to every shard.  Asserts identical
  rows to the single-process reference.
* **compacted** — the same scatter scan over a durable 2-shard
  deployment after compaction pushed most days into per-shard cold
  segments: the wire path over hot+cold merged results stays exact.
* **point_queries** — the whole query corpus (the benchmark's point
  queries) on a 2-shard deployment.  Single-owner queries run whole on
  their shard (routed); asserts every answer identical, row for row, to
  the in-process one and the routed count equal to the single-owner count.
  Reports the per-query median routed and forced onto the scatter path
  (no speed gate).

Scaling floor: >= 2.8x scan throughput from 1 to 4 shards, gated on
``rate >= 300`` AND ``os.cpu_count() >= 4`` — scatter/gather cannot beat
the GIL on fewer cores than shards, and the CI smoke rate is dominated
by fixed per-command overheads; the differential (identity) checks gate
at every rate and core count.

Run:  PYTHONPATH=src python benchmarks/bench_sharded_scan.py
      (``--check`` exits nonzero on acceptance failures; AIQL_BENCH_RATE
      scales the workload, default 300 events/host-day)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine import canonical_text, compile_query
from repro.engine.executor import MultieventExecutor
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise

DAYS = 20
RETENTION_DAYS = 2
REPEATS = 11
SHARD_COUNTS = (1, 2, 4)

_USERS = '"u1", "u2", "u3", "u4", "u5", "root", "www-data"'

# LIKE + IN over cmd/user/owner: none of these attributes is hash-indexed,
# so the scatter scan is bound by each shard's compiled kernel over its
# whole slice — the case sharding parallelizes.
SELECTIVE_PATTERN = f"""
    proc p1[cmd = "%e%", user in ({_USERS})]
    write file f1[name = "%o%", owner in ({_USERS})] as evt1
    return distinct p1, f1
"""

MULTI_PATTERN = """
    agentid = 1
    proc p1[cmd = "%outlook%"] start proc p2[cmd = "%excel%"] as evt1
    proc p2 write file f1[owner in ("u1", "u2", "u3")] as evt2
    proc p2 start proc p3[cmd = "%payload%"] as evt3
    with evt1 before evt2, evt2 before evt3
    return distinct p1, p2, f1, p3
"""


def median_ms(runner) -> float:
    runner()  # warm caches once
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        runner()
        samples.append((time.perf_counter() - started) * 1000)
    return statistics.median(samples)


def by_time(events):
    return sorted(events, key=lambda e: (e.start_time, e.event_id))


def build_sharded(rate: int, shards: int, data_dir=None, retention=None):
    system = AIQLSystem(
        SystemConfig(
            shards=shards,
            data_dir=None if data_dir is None else str(data_dir),
            retention_days=retention,
            compact_interval_s=3600,  # compaction driven explicitly below
            wal_sync=False,  # population speed; durability benched elsewhere
        )
    )
    build_enterprise(
        stores=(),
        ingestor=system.ingestor,
        events_per_host_day=rate,
        days=DAYS,
        stream_batch_size=512,
    )
    return system


def bench_scatter_scan(sharded: dict, reference) -> dict:
    flt = compile_query(SELECTIVE_PATTERN).patterns[0].filter
    expected = by_time(reference.scan_columns(flt, use_entity_index=False).events())
    cells = {}
    base_ms = None
    for shards, system in sorted(sharded.items()):
        run = lambda: system.store.scan_columns(  # noqa: E731
            flt, use_entity_index=False
        ).events()
        rows = run()  # gathered results arrive already (t0, id)-sorted
        ms = median_ms(run)
        if shards == 1:
            base_ms = ms
        cells[f"shards_{shards}"] = {
            "median_ms": round(ms, 3),
            "rows": len(rows),
            "identical": rows == expected,
            "speedup_vs_1shard": round(base_ms / ms, 2) if base_ms else None,
        }
    cells["events_scanned"] = len(reference)
    return cells


def bench_multi_pattern(system, reference) -> dict:
    ctx = compile_query(MULTI_PATTERN)
    expected = set(MultieventExecutor(reference).run(ctx).rows)
    executor = MultieventExecutor(system.store)
    run = lambda: executor.run(ctx)  # noqa: E731
    rows = set(run().rows)
    return {
        "median_ms": round(median_ms(run), 3),
        "rows": len(rows),
        "identical": rows == expected,
        "patterns": len(ctx.patterns),
    }


def bench_point_queries(system, reference) -> dict:
    in_process = AIQLSystem.over(reference)
    prepared = [
        (compile_query(q.text), canonical_text(q.text)) for q in ALL_QUERIES
    ]
    single_owner = sum(system.store.route(ctx) is not None for ctx, _ in prepared)
    routed_before = system.stats()["scatter_gather"]["routed_queries"]
    identical = True
    for query in ALL_QUERIES:
        got, expected = system.query(query.text), in_process.query(query.text)
        identical &= (got.columns, got.rows, got.meta) == (
            expected.columns,
            expected.rows,
            expected.meta,
        )
    routed = system.stats()["scatter_gather"]["routed_queries"] - routed_before

    def per_query_ms(use_key: bool) -> float:
        def run():
            for ctx, key in prepared:
                system.execute(ctx, key if use_key else None)

        return median_ms(run) / len(prepared)

    return {
        "queries": len(ALL_QUERIES),
        "single_owner": single_owner,
        "routed": routed,
        "identical": identical and single_owner > 0 and routed == single_owner,
        "routed_median_ms_per_query": round(per_query_ms(True), 3),
        "scatter_median_ms_per_query": round(per_query_ms(False), 3),
    }


def git_commit() -> str:
    """The checkout's commit, ``-dirty`` when the tree has local changes."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bench_compacted(rate: int, root: Path, reference) -> dict:
    system = build_sharded(
        rate, 2, data_dir=root / "compacted", retention=RETENTION_DAYS
    )
    try:
        report = system.store.compact(retention_days=RETENTION_DAYS)
        flt = compile_query(SELECTIVE_PATTERN).patterns[0].filter
        expected = by_time(reference.scan_columns(flt, use_entity_index=False).events())
        run = lambda: system.store.scan_columns(  # noqa: E731
            flt, use_entity_index=False
        ).events()
        rows = run()
        return {
            "median_ms": round(median_ms(run), 3),
            "events_migrated_cold": report.events_migrated,
            "rows": len(rows),
            "identical": rows == expected and report.moved,
        }
    finally:
        system.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_shard.json")
    args = parser.parse_args()
    rate = int(os.environ.get("AIQL_BENCH_RATE", "300"))
    cpu_count = os.cpu_count() or 1

    root = Path(tempfile.mkdtemp(prefix="bench-shard-"))
    sharded = {}
    try:
        print(f"building {DAYS}-day corpora at rate={rate}...", file=sys.stderr)
        reference = build_enterprise(events_per_host_day=rate, days=DAYS).store()
        for shards in SHARD_COUNTS:
            sharded[shards] = build_sharded(rate, shards)

        print("running cells...", file=sys.stderr)
        scatter = bench_scatter_scan(sharded, reference)
        multi = bench_multi_pattern(sharded[2], reference)
        points = bench_point_queries(sharded[2], reference)
        compacted = bench_compacted(rate, root, reference)

        speedup_2 = scatter["shards_2"]["speedup_vs_1shard"]
        speedup_4 = scatter["shards_4"]["speedup_vs_1shard"]
        checks = {
            "scatter_identical_all_shard_counts": all(
                scatter[f"shards_{n}"]["identical"] for n in SHARD_COUNTS
            ),
            "multi_pattern_identical": multi["identical"],
            "point_queries_identical": points["identical"],
            "compacted_identical": compacted["identical"],
        }
        if rate >= 300 and cpu_count >= 4:
            # The scaling floor needs real cores to scale onto and a
            # workload big enough that per-command overheads amortize.
            checks["sharded_scan_2_8x"] = speedup_4 >= 2.8
        result = {
            "bench": "sharded_scan",
            "workload": {
                "rate": rate,
                "days": DAYS,
                "retention_days": RETENTION_DAYS,
                "events": len(reference),
                "cpu_count": cpu_count,
                "python": platform.python_version(),
                "commit": git_commit(),
                "shard_counts": list(SHARD_COUNTS),
            },
            "scatter_scan": scatter,
            "speedup_1_to_2": speedup_2,
            "speedup_1_to_4": speedup_4,
            "multi_pattern": multi,
            "point_queries": points,
            "compacted": compacted,
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
        for system in sharded.values():
            system.close()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
