"""Compiled scan kernels: interpreted vs compiled filter evaluation.

The ISSUE-4 acceptance benchmark (machine-readable output in
``BENCH_scan.json``).  Six cells, every one asserting the compiled path
returns *byte-identical* results to the interpreted oracle:

* **single_pattern** — a LIKE+IN-heavy single-pattern filter over
  non-indexed attributes (the worst case for index narrowing: every
  candidate event pays the full match), scanned through the partitioned
  store with the entity indexes off, through the plan pattern's kernel.
  Floor: >= 3x scan throughput (and
  >= 5.5M compiled events/s absolute at the default workload rate).
* **multi_pattern** — an end-to-end APT-style investigation (parser ->
  scheduler -> constrained scans -> joins) whose patterns constrain
  non-indexed attributes, so data queries are scan-bound.  Floor: >= 1.5x.
* **numeric_predicate** — the ISSUE-20 cell: an ``amount > N`` event
  predicate over every partition block of a multi-day window, as one pass
  over the raw ``array`` column (``kernel.select``) vs the per-row compiled
  predicate (a getter, a type dispatch and a comparison call per row: the
  path every non-numeric leaf still takes), timed alternately sample by
  sample.  Floor: the median per-sample ratio >= 3x.
* **code_pass** — the agent / operation / object-type passes alone (a
  filter with only those three constraints) over every partition block of
  a 7-day window: ``kernel.select``'s ``translate`` masks and one
  ``compress`` vs the reference the masks replaced (``find`` hops, one
  Python step per hit, for a pass wanting one code; a per-row walk for one
  wanting several), timed alternately sample by sample.  Floor: the median
  per-sample ratio >= 1.8x.
* **cold_only** — a cold-window query through the columnar cold path
  (structural prefilter on raw columns before any ``SystemEvent`` is
  materialized), with the per-segment result cache disabled so the cell
  measures the scan itself, not memoization.
* **mixed_window** — the BENCH_tier regression cell: a window spanning
  both tiers, tiered store vs the RAM-only baseline, with the shipped
  defaults (cold result cache only: the per-segment cache; hot partition
  scans are never memoized).
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
import platform
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
from repro.model.entities import EntityType
from repro.model.events import Operation
from repro.storage.blocks import OP_CODE, OTYPE_CODE
from repro.storage.filters import EventFilter
from repro.storage.kernels import (
    _compile_block_event_predicate,
    compile_filter,
    use_kernels,
)
from repro.workload.loader import build_enterprise

from bench_sharded_scan import git_commit

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

# The code-pass cell's filter: agent, operation and object type only.  The
# agents span both agent groups (1-9 and 10-15 partition apart), so every
# block of the window wants several of its agent codes, not all of them.
CODE_AGENTS = frozenset({1, 2, 3, 4, 5, 10, 11, 12})
CODE_OPERATION = Operation.READ
CODE_OBJECT_TYPE = EntityType.FILE

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


def interleaved_samples_ms(first, second, repeats: int = REPEATS):
    """``repeats`` timings of each runner, taken alternately (which runs
    first alternates too), after one warm-up call of each."""
    first()
    second()
    samples: tuple = ([], [])
    for round_no in range(repeats):
        order = ((0, first), (1, second))
        for slot, runner in order if round_no % 2 == 0 else order[::-1]:
            started = time.perf_counter()
            runner()
            samples[slot].append((time.perf_counter() - started) * 1000)
    return samples


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
    pattern = compile_query(SINGLE_PATTERN).patterns[0]

    def run():
        # The plan pattern's kernel, as the engine scans it (ignored by the
        # interpreted mode).
        return store.scan_columns(
            pattern.filter, use_entity_index=False, kernel=pattern.kernel
        ).events()

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

    per_row_ms, column_ms = interleaved_samples_ms(per_row_pass, column_pass)
    survivors = column_pass()
    return {
        "per_row_ms": round(statistics.median(per_row_ms), 3),
        "column_ms": round(statistics.median(column_ms), 3),
        # The median of per-sample ratios: the two runners alternate sample
        # by sample, so drift between them cancels within each pair.
        "speedup": round(
            statistics.median(r / c for r, c in zip(per_row_ms, column_ms)), 2
        ),
        "partitions": len(blocks),
        "events_scanned": sum(len(b) for b in blocks),
        "rows": sum(len(positions) for positions in survivors),
        "identical": survivors == per_row_pass(),
    }


def _find_hop_select(block, agent_ids, op_codes, otype_codes) -> list:
    """The code passes as they ran before the translate masks.

    Over the whole block, the first pass that the block does not prove
    vacuous hops from hit to hit with ``bytearray.find`` (one Python step
    per hit) when it wants one code, and walks every row when it wants
    several; each later pass takes one comprehension step per survivor.
    """
    passes = []
    wanted = block.agent_code_set(agent_ids)
    if wanted is not None:
        passes.append((block.agent_codes, wanted))
    if not block.op_universe <= op_codes:
        passes.append((block.op_codes, op_codes))
    if not block.otype_universe <= otype_codes:
        passes.append((block.otype_codes, otype_codes))
    rows = range(len(block))
    for column, codes in passes:
        if type(rows) is range and len(codes) == 1:
            (code,) = codes
            hits = []
            find = column.find
            i = find(code, 0, rows.stop)
            while i >= 0:
                hits.append(i)
                i = find(code, i + 1, rows.stop)
            rows = hits
        else:
            rows = [i for i in rows if column[i] in codes]
    return list(rows)


def bench_code_pass(store) -> dict:
    """The agent / operation / object-type passes: translate masks vs hops.

    ``kernel.select`` (one ``translate`` mask per code column, ANDed, one
    ``compress``) against the per-hit reference the masks replaced
    (:func:`_find_hop_select`).  Both run over every partition block of a
    7-day window with every row a candidate, timed alternately sample by
    sample.
    """
    window = compile_query(NUMERIC_PATTERN).patterns[0].filter.window
    blocks = [
        part.block
        for part in store.scan_columns(EventFilter(window=window)).parts
    ]
    lookup = store.registry.get
    select = compile_filter(
        EventFilter(
            agent_ids=CODE_AGENTS,
            operations=frozenset({CODE_OPERATION}),
            object_type=CODE_OBJECT_TYPE,
        )
    ).select
    op_codes = frozenset({OP_CODE[CODE_OPERATION]})
    otype_codes = frozenset({OTYPE_CODE[CODE_OBJECT_TYPE]})

    def fused_pass():
        return [list(select(b, range(len(b)), lookup)) for b in blocks]

    def find_hop_pass():
        return [
            _find_hop_select(b, CODE_AGENTS, op_codes, otype_codes)
            for b in blocks
        ]

    hop_ms, fused_ms = interleaved_samples_ms(find_hop_pass, fused_pass)
    survivors = fused_pass()
    events = sum(len(b) for b in blocks)
    rows = sum(len(positions) for positions in survivors)
    return {
        "find_hop_ms": round(statistics.median(hop_ms), 3),
        "fused_ms": round(statistics.median(fused_ms), 3),
        "speedup": round(
            statistics.median(h / f for h, f in zip(hop_ms, fused_ms)), 2
        ),
        "partitions": len(blocks),
        "events_scanned": events,
        "rows": rows,
        "density": round(rows / events, 3) if events else None,
        "identical": survivors == find_hop_pass(),
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
        code = bench_code_pass(baseline)
        multi = bench_multi_pattern(baseline)
        cold = bench_cold_only(uncached.store)
        mixed = bench_mixed_window(baseline, shipped.store)
        uncached.close()
        shipped.close()

        checks = {
            "single_pattern_3x": single["speedup"] >= 3.0,
            "numeric_predicate_3x": numeric["speedup"] >= 3.0,
            "code_pass_1_8x": code["speedup"] >= 1.8,
            "multi_pattern_1_5x": multi["speedup"] >= 1.5,
            "mixed_window_1_5x": mixed["ratio"] <= 1.5,
            "results_identical": all(
                cell["identical"]
                for cell in (single, numeric, code, multi, cold, mixed)
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
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "commit": git_commit(),
            },
            "single_pattern": single,
            "numeric_predicate": numeric,
            "code_pass": code,
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
