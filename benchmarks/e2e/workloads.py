"""Sizes and the four workloads.  Every size is a constant here — no
environment variable scales the benchmark — and every output is stamped
with them (see ``run.stamp``).

All four workloads run the same lifecycle over the **production path**:
partitioned backend, columnar kernels on, scan cache on, a ``data_dir``
with ``wal_sync=True`` and 256-event stream batches — the program's
defaults.  A workload changes only what its row says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.workload.alerts import WATCH_QUERIES
from repro.workload.topology import ATTACKER_IP

# -- inputs -------------------------------------------------------------------

# Base tape: 150 events/host-day x 15 hosts x 16 days + the five attack
# scenarios = 36,384 events.  The issue's starting size (600/host-day) does
# not fit the contract's cap on total run time (92 runs in 3,420 s) beside a
# 20 s measured phase, and the issue says to shrink the base tape first.
BASE_EVENTS_PER_HOST_DAY = 150
BASE_DAYS = 16
LIVE_EVENTS_PER_HOST_DAY = 150

STREAM_BATCH_SIZE = 256  # the program's default, restated for the stamp
COMMITS_PER_SEGMENT = 10
SEGMENT_EVENTS = STREAM_BATCH_SIZE * COMMITS_PER_SEGMENT  # 2,560

# -- lifecycle ----------------------------------------------------------------

# Recoveries of the crash copy, each in a fresh child process.
RECOVERY_REPEATS = 3
# Rounds that always run, whatever ``--seconds`` says.  The mid-run
# checkpoint (after half of them) and the crash copy (after all of them)
# sit at fixed event counts, so the crash state — and with it
# ``disk_bytes_per_event``, ``peak_rss_mb``, the recovered event count, the
# probe answers and the traced run's ``engine.scans_per_query`` — is the
# same on every run of a seed, however many further rounds the time budget
# allows.
FIXED_ROUNDS = 8
PROBE_QUERIES = 10
# Untraced rounds a traced run measures first, for the overhead ratio.
TRACE_BASELINE_ROUNDS = 3

# live_mixed: the writer thread's schedule.
LIVE_RATE_EVENTS_PER_S = 3000.0
LIVE_PACE_EVENTS = 16  # events between looks at the schedule

# serve_sharded: generator connections (= nproc on the reference box) and
# how many served answers per round are compared with ``system.query``.
SERVE_CONNECTIONS = 2
SERVE_CHECKED_PER_ROUND = 5

# The canary: fixed pure-Python work timed before every round, around
# set-up and between recoveries — the same work every time, so only the
# box's speed changes its time.  An arithmetic spin, a walk along a shuffled
# cycle of boxed integers and lookups in a dict of strings: like the
# program, it leans on the interpreter and on memory, which is what this
# shared box's slow spells slow down.
CANARY_SPIN = 100_000
CANARY_TABLE = 1 << 16  # entries of the cycle and of the dict
CANARY_WALK = 30_000
CANARY_LOOKUPS = 10_000
# What one pass takes, caches cold, between two rounds on the box the
# benchmark was sized on in a quiet spell.  The six per-round metrics are
# reported at this box speed (see ``run.at_reference_speed``); the value only
# fixes the scale, and a pass that takes this long leaves them as measured.
REFERENCE_CANARY_MS = 8.0
NOISY_CANARY_FACTOR = 1.25

# -- standing queries -----------------------------------------------------------

FILE_WRITE_WATCH = (
    "file-write",
    "proc p1 write file f1 as evt1 return p1, f1",
)

# bench_continuous.EXTRA_QUERIES, restated so the benchmark does not import
# a legacy script: five more detections of mixed selectivity.
EXTRA_STANDING: Tuple[Tuple[str, str], ...] = (
    (
        "webshell-write",
        'proc p1["%apache%"] write file f1["%.php"] as evt1 return p1, f1',
    ),
    (
        "mail-backdoor",
        'proc p1["%outlook%"] connect ip i1[dstport = 4444] as evt1 '
        "return p1, i1",
    ),
    (
        "attacker-contact",
        f'proc p1 connect ip i1[dstip = "{ATTACKER_IP}"] as evt1 '
        "return p1, i1",
    ),
    (
        "sam-read",
        'proc p1 read file f1["%SAM"] as evt1 return p1, f1',
    ),
    (
        "dropper-chain",
        """
        proc p1["%cmd%"] write file f1["%.vbs"] as evt1
        proc p2["%wscript%"] read file f1 as evt2
        proc p2 start proc p3 as evt3
        with evt1 before evt2, evt2 before evt3
        return p1, f1, p2, p3
        """,
    ),
)

BASE_STANDING: Tuple[Tuple[str, str], ...] = (
    *((q.name, q.text) for q in WATCH_QUERIES),
    FILE_WRITE_WATCH,
)


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (``BENCHMARK.json`` says why it exists)."""

    name: str
    # SystemConfig fields this workload sets beyond data_dir (everything
    # else stays at the program's default).
    config: Dict[str, object] = field(default_factory=dict)
    standing: Tuple[Tuple[str, str], ...] = BASE_STANDING
    serve: bool = False  # queries go through AIQLServer + a generator child
    concurrent_ingest: bool = False  # writer thread beside the query thread
    compact_every: int = 0  # compact() after every n-th round (0 = never)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(name="investigate_hot"),
    Workload(
        name="cold_history",
        config={
            "retention_days": 2,
            # Compaction runs where the lifecycle says, not on a timer that
            # could fire inside a timed segment.
            "compact_interval_s": 3600.0,
            "cold_cache_segments": 4,
        },
        compact_every=5,
    ),
    Workload(name="serve_sharded", config={"shards": 2}, serve=True),
    Workload(
        name="live_mixed",
        standing=(*BASE_STANDING, *EXTRA_STANDING),
        concurrent_ingest=True,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def sizes() -> Dict[str, object]:
    """The constants that shape a run, for the output stamp."""
    return {
        "base_events_per_host_day": BASE_EVENTS_PER_HOST_DAY,
        "base_days": BASE_DAYS,
        "live_events_per_host_day": LIVE_EVENTS_PER_HOST_DAY,
        "stream_batch_size": STREAM_BATCH_SIZE,
        "segment_events": SEGMENT_EVENTS,
        "recovery_repeats": RECOVERY_REPEATS,
        "fixed_rounds": FIXED_ROUNDS,
        "live_rate_events_per_s": LIVE_RATE_EVENTS_PER_S,
        "serve_connections": SERVE_CONNECTIONS,
        "reference_canary_ms": REFERENCE_CANARY_MS,
    }
