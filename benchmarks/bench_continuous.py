"""Continuous standing queries: push-through, alert latency, detection.

The ISSUE-5 acceptance benchmark (machine-readable output in
``BENCH_stream.json``).  Two cells:

* **push_throughput** — the full evaluation corpus is replayed through a
  :class:`~repro.service.continuous.ContinuousQueryEngine` carrying 8
  standing queries (a mix of one-, two- and three-pattern detections),
  in stream-sized batches.  Floor: >= 50k events/s sustained.
* **alert_latency** — :class:`~repro.workload.alerts.AlertReplay`
  streams a day of background noise with the paper's APT injected on
  top, through a live session with the detection queries standing.
  Floors: p99 batch-commit->alert latency <= 100 ms, zero missed
  ground-truth detections.

Run:  PYTHONPATH=src python benchmarks/bench_continuous.py
      (``--check`` exits nonzero on acceptance failures; AIQL_BENCH_RATE
      scales the workload, default 300 events/host-day)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.model.time import DAY
from repro.service.continuous import ContinuousQueryEngine
from repro.storage.filters import EventFilter
from repro.workload.alerts import WATCH_QUERIES, AlertReplay
from repro.workload.loader import build_enterprise
from repro.workload.topology import ATTACKER_IP

BATCH_SIZE = 512
THROUGHPUT_FLOOR = 50_000.0  # events/s with 8 standing queries
LATENCY_P99_FLOOR_MS = 100.0

# Five more standing detections on top of the three ground-truth watch
# queries of workload.alerts: eight total, mixing selectivities and
# pattern counts so the push path pays realistic kernel + join costs.
EXTRA_QUERIES = (
    (
        "webshell-write",
        """
        proc p1["%apache%"] write file f1["%.php"] as evt1
        return p1, f1
        """,
    ),
    (
        "mail-backdoor",
        """
        proc p1["%outlook%"] connect ip i1[dstport = 4444] as evt1
        return p1, i1
        """,
    ),
    (
        "attacker-contact",
        f"""
        proc p1 connect ip i1[dstip = "{ATTACKER_IP}"] as evt1
        return p1, i1
        """,
    ),
    (
        "sam-read",
        """
        proc p1 read file f1["%SAM"] as evt1
        return p1, f1
        """,
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


def bench_push_throughput(enterprise) -> dict:
    """Replay the corpus through an engine with 8 standing queries."""
    # Replay in data-time order (the loader appends the attack scenarios
    # after all background days, so id order would push them pre-expired).
    events = sorted(
        enterprise.store("partitioned").scan_columns(EventFilter()).events(),
        key=lambda e: (e.start_time, e.event_id),
    )
    # One-day horizon (matching AlertReplay): the corpus compresses a day
    # of data time into a couple of batches, so an hour-scale horizon
    # would expire a batch's own matches before they could pair.
    engine = ContinuousQueryEngine(
        enterprise.registry, default_window_s=DAY
    )
    for query in WATCH_QUERIES:
        engine.subscribe(query.text, name=query.name)
    for name, text in EXTRA_QUERIES:
        engine.subscribe(text, name=name)

    started = time.perf_counter()
    for lo in range(0, len(events), BATCH_SIZE):
        engine.push(events[lo : lo + BATCH_SIZE])
    wall = time.perf_counter() - started
    stats = engine.stats()
    return {
        "events": len(events),
        "standing_queries": len(engine.subscriptions),
        "batches": stats["batches_pushed"],
        "wall_s": round(wall, 3),
        "events_per_s": round(len(events) / wall) if wall else None,
        "alerts": sum(s["alerts_emitted"] for s in stats["per_query"]),
        "window_events": sum(
            sum(s["window_sizes"]) for s in stats["per_query"]
        ),
    }


def bench_alert_latency(rate: int) -> dict:
    """One live day (noise + APT) against the standing detections."""
    system = AIQLSystem(SystemConfig())
    score = AlertReplay(system, events_per_host_day=rate).run()
    return score.to_dict()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_stream.json")
    args = parser.parse_args()
    rate = int(os.environ.get("AIQL_BENCH_RATE", "300"))

    print(f"building corpus at rate={rate}...", file=sys.stderr)
    enterprise = build_enterprise(
        stores=("partitioned",), events_per_host_day=rate
    )

    print("running cells...", file=sys.stderr)
    throughput = bench_push_throughput(enterprise)
    latency = bench_alert_latency(rate)

    checks = {
        "push_50k_events_per_s": (
            throughput["events_per_s"] is not None
            and throughput["events_per_s"] >= THROUGHPUT_FLOOR
        ),
        "alert_p99_under_100ms": (
            latency["latency_p99_ms"] is not None
            and latency["latency_p99_ms"] <= LATENCY_P99_FLOOR_MS
        ),
        "zero_missed_detections": latency["missed"] == [],
    }
    result = {
        "bench": "continuous",
        "workload": {"rate": rate, "events": throughput["events"]},
        "push_throughput": throughput,
        "alert_latency": latency,
        "checks": checks,
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if args.check and not all(checks.values()):
        failed = sorted(k for k, v in checks.items() if not v)
        print(f"ACCEPTANCE FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
