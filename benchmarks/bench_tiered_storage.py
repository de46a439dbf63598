"""Tiered storage: hot/cold/mixed latency, zone-map pruning, recovery time.

The ISSUE-3 acceptance benchmark, first entry in the repo's perf
trajectory (machine-readable output in ``BENCH_tier.json``):

* **10x larger-than-retention corpus** — a 20-day workload with a 2-day
  hot retention horizon: after compaction 90% of the data lives in
  compressed cold segments.
* **Hot-window latency** — queries whose window lies inside the retention
  horizon must stay within 10% of the plain (RAM-only) store's latency:
  the cold tier's only cost on that path is the zone-map prune loop.
* **Cold/mixed windows** — answer correctly through the compressed
  segments, with >= 80% of out-of-window cold segments pruned by zone
  maps without decompression (both asserted with ``--check``).
* **Recovery time vs WAL length** — crash-recover data dirs whose WALs
  hold growing batch counts, timing snapshotless replay; every restore
  (these, and the corpus directory's snapshot under its cold tier) must
  come back without building a row object (``recovery_builds_no_rows``).

Run:  PYTHONPATH=src python benchmarks/bench_tiered_storage.py
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
from repro.model.events import SystemEvent
from repro.workload.loader import build_enterprise

DAYS = 20
RETENTION_DAYS = 2  # hot tier holds 1/10th of the corpus
REPEATS = 21

# Windows relative to the 20-day corpus (2017-01-01 .. 2017-01-21):
# the last two days stay hot; everything earlier compacts cold.
QUERIES = {
    "hot": """
        (from "01/19/2017" to "01/21/2017")
        proc p1 write file f1 as evt1
        return distinct p1, f1 top 5
    """,
    "cold": """
        (from "01/02/2017" to "01/04/2017")
        proc p1 write file f1 as evt1
        return distinct p1, f1 top 5
    """,
    "mixed": """
        (from "01/12/2017" to "01/21/2017")
        proc p1 write file f1 as evt1
        return distinct p1, f1 top 5
    """,
}


def median_ms(runner) -> float:
    runner()  # warm caches/indexes once
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        runner()
        samples.append((time.perf_counter() - started) * 1000)
    return statistics.median(samples)


def build_baseline(rate: int):
    enterprise = build_enterprise(
        stores=("partitioned",), events_per_host_day=rate, days=DAYS
    )
    return enterprise.store("partitioned")


def build_tiered(rate: int, data_dir: Path) -> AIQLSystem:
    system = AIQLSystem(
        SystemConfig(
            data_dir=str(data_dir),
            retention_days=RETENTION_DAYS,
            compact_interval_s=3600,  # compaction driven explicitly below
            wal_sync=False,  # population speed; durability timed separately
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


def measure_latencies(baseline_store, tiered_store) -> dict:
    """Median execution latency per window, plain store vs tiered."""
    out = {}
    for name, text in QUERIES.items():
        ctx = compile_query(text)
        base_rows = MultieventExecutor(baseline_store).run(ctx).rows
        base_ms = median_ms(lambda: MultieventExecutor(baseline_store).run(ctx))
        tier_rows = MultieventExecutor(tiered_store).run(ctx).rows
        tier_ms = median_ms(lambda: MultieventExecutor(tiered_store).run(ctx))
        out[name] = {
            "baseline_ms": round(base_ms, 3),
            "tiered_ms": round(tier_ms, 3),
            "ratio": round(tier_ms / base_ms, 3) if base_ms else None,
            "rows": len(tier_rows),
            "rows_match_baseline": set(tier_rows) == set(base_rows),
        }
    return out


def measure_prune_rate(tiered_store) -> dict:
    """Zone-map effectiveness for the hot-window query: every cold segment
    is out of window, so each one scanned is a pruning failure."""
    cold = tiered_store.cold
    cold.segments_considered = 0
    cold.segments_pruned = 0
    cold.segments_scanned = 0
    ctx = compile_query(QUERIES["hot"])
    MultieventExecutor(tiered_store).run(ctx)
    return {
        "segments": len(cold.zones),
        "considered": cold.segments_considered,
        "pruned": cold.segments_pruned,
        "scanned": cold.segments_scanned,
        "prune_rate": round(cold.prune_rate(), 4),
    }


def recover_counting_rows(data_dir: str):
    """``AIQLSystem.recover`` plus how many row objects it built.

    Counts every :class:`SystemEvent` constructed while the deployment
    comes back (snapshot load, WAL replay, cold-tier reconciliation) and
    adds whether any hot block holds a row view afterwards: a restore path
    that moves columns only reads ``0``.
    """
    built = 0
    validate = SystemEvent.__post_init__

    def counting(event) -> None:
        nonlocal built
        built += 1
        validate(event)

    SystemEvent.__post_init__ = counting
    try:
        started = time.perf_counter()
        system = AIQLSystem.recover(data_dir)
        seconds = time.perf_counter() - started
    finally:
        SystemEvent.__post_init__ = validate
    built += sum(
        block.rows_materialized for block, _ in system.store.hot.column_blocks()
    )
    return system, seconds, built


def measure_recovery(root: Path, batch_counts=(50, 200, 800)) -> list:
    """Crash-recovery wall time as the WAL grows (no snapshot: pure replay)."""
    results = []
    for batches in batch_counts:
        data_dir = root / f"recover-{batches}"
        system = AIQLSystem(
            SystemConfig(data_dir=str(data_dir), compact_interval_s=3600)
        )
        proc = system.ingestor.process(1, 101, "streamer.exe")
        fobj = system.ingestor.file(1, "/var/log/stream.log")
        session = system.stream(batch_size=32)
        base = 1483228800.0
        for i in range(batches * 32):
            session.append(1, base + 30.0 * i, "write", proc, fobj)
        session.commit()
        wal_bytes = system._wal.size_bytes()
        total = system.ingestor.events_ingested
        del session, system  # crash: no close, no checkpoint

        recovered, seconds, rows_built = recover_counting_rows(str(data_dir))
        ok = recovered.ingestor.events_ingested == total
        recovered.close()
        results.append(
            {
                "wal_batches": batches,
                "wal_events": total,
                "wal_bytes": wal_bytes,
                "recovery_s": round(seconds, 4),
                "events_per_s": round(total / seconds) if seconds else None,
                "lossless": ok,
                "rows_built": rows_built,
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_tier.json")
    args = parser.parse_args()
    rate = int(os.environ.get("AIQL_BENCH_RATE", "300"))

    root = Path(tempfile.mkdtemp(prefix="bench-tier-"))
    try:
        print(f"building {DAYS}-day corpus at rate={rate} "
              f"(retention {RETENTION_DAYS} day(s))...", file=sys.stderr)
        baseline = build_baseline(rate)
        tiered_system = build_tiered(rate, root / "data")
        total = tiered_system.ingestor.events_ingested

        report = tiered_system.compact()
        tiered_system.checkpoint()
        hot_events = len(tiered_system.store.hot)
        print(f"{total} events; {report.events_migrated} migrated into "
              f"{report.segments_written} segments, {hot_events} stay hot",
              file=sys.stderr)

        latencies = measure_latencies(baseline, tiered_system.store)
        prune = measure_prune_rate(tiered_system.store)
        recovery = measure_recovery(root)
        tiered_system.close()
        # The corpus directory itself: a snapshot under a cold tier.
        reopened, _, tiered_rows_built = recover_counting_rows(str(root / "data"))
        reopened.close()

        cold_stats = tiered_system.store.cold.stats()
        checks = {
            "hot_within_10pct": latencies["hot"]["ratio"] <= 1.10,
            "cold_correct": all(
                cell["rows_match_baseline"] for cell in latencies.values()
            ),
            "prune_rate_ge_80pct": prune["prune_rate"] >= 0.80,
            "recovery_lossless": all(r["lossless"] for r in recovery),
            "recovery_builds_no_rows": not tiered_rows_built
            and not any(r["rows_built"] for r in recovery),
        }
        result = {
            "bench": "tiered_storage",
            "workload": {
                "rate": rate,
                "days": DAYS,
                "retention_days": RETENTION_DAYS,
                "events": total,
                "hot_events": hot_events,
                "cold_events": cold_stats["events"],
                "cold_bytes": cold_stats["bytes"],
                "cold_segments": cold_stats["segments"],
            },
            "latency": latencies,
            "zone_maps": prune,
            "recovery": recovery,
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
