"""Network service under open-loop load: throughput, overload, alerts.

The ISSUE-10 acceptance benchmark (machine-readable output in
``BENCH_serve.json``).  Three cells against a live sharded deployment
served by :class:`repro.server.AIQLServer`:

* **steady** — an open-loop fleet (:mod:`repro.workload.load`) drives a
  constant request rate of corpus queries at the HTTP endpoint for a
  fixed window.  Floors: sustain >= 90% of the target rate with
  coordinated-omission-free p99 under the budget and zero hard errors
  (429s count as shed, and the steady cell must not shed).
* **overload** — the same fleet at several times the server's capacity
  (``server_max_inflight`` pinned low).  Floors: the server sheds with
  429 + Retry-After instead of queueing without bound — a nonzero
  reject count, *bounded* p99 on the accepted requests, zero hard
  errors.
* **alerts** — a WebSocket listener holds a standing query while live
  ingest commits and the HTTP fleet runs.  Floors: alerts arrive and
  the server reports zero dropped alert pushes.

Run:  PYTHONPATH=src python benchmarks/bench_service_load.py
      (``--check`` exits nonzero on acceptance failures; AIQL_BENCH_RATE
      scales the request rate, default 500 req/s)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro import api
from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.workload.live import LiveReplay
from repro.workload.load import AlertListener, run_fleet_sync
from repro.workload.loader import build_enterprise

STEADY_RATE_FRACTION = 0.90  # sustain >= 90% of the target
STEADY_P99_BUDGET_MS = 250.0
OVERLOAD_P99_BUDGET_MS = 2_000.0  # accepted requests stay bounded
DURATION_S = float(os.environ.get("AIQL_BENCH_DURATION", "10"))
SHARDS = int(os.environ.get("AIQL_BENCH_SHARDS", "2"))

# A small rotating set of cheap selective queries: the cell measures the
# *service* (admission, protocol, executor handoff), not cold scans —
# the in-flight dedup and the plan cache keep the engine leg cheap, which
# is exactly how a dashboard-style workload behaves.
QUERIES = (
    "agentid = 1\nproc p1 start proc p2\nreturn p1, p2",
    'agentid = 2\nproc p1["%cmd%"] start proc p2\nreturn p1, p2',
    "agentid = 3\nproc p1 read file f1 as evt1\nreturn p1, f1 top 5",
    'agentid = 1\nproc p1 write file f1["%.log"] as evt1\nreturn p1, f1',
)

WATCH_QUERY = "proc p1 write file f1 as evt1\nreturn p1, f1"


def _deploy(
    rate_per_host_day: int,
    max_inflight: int,
    queue_depth: int = 64,
    client_queue: int = 16,
) -> AIQLSystem:
    system = AIQLSystem(
        SystemConfig(
            shards=SHARDS,
            server_max_inflight=max_inflight,
            server_queue_depth=queue_depth,
            server_client_queue_depth=client_queue,
        )
    )
    build_enterprise(
        stores=(),
        ingestor=system.ingestor,
        events_per_host_day=rate_per_host_day,
    )
    return system


def bench_steady(handle, rate: float) -> dict:
    report = run_fleet_sync(
        handle.host,
        handle.port,
        rate=rate,
        duration_s=DURATION_S,
        queries=QUERIES,
        clients=8,
    )
    return report.to_dict()


def bench_overload(handle, rate: float, max_inflight: int) -> dict:
    report = run_fleet_sync(
        handle.host,
        handle.port,
        rate=rate,
        duration_s=DURATION_S,
        queries=QUERIES,
        clients=8,
    )
    out = report.to_dict()
    out["max_inflight"] = max_inflight
    return out


def bench_alerts(system, handle, rate: float) -> dict:
    listener = AlertListener(
        handle.host, handle.port, WATCH_QUERY, name="bench-watch"
    ).start()
    session = system.stream(batch_size=128)
    replay = LiveReplay(session, rate=5_000).start()
    fleet = run_fleet_sync(
        handle.host,
        handle.port,
        rate=rate,
        duration_s=DURATION_S,
        queries=QUERIES,
        clients=4,
    )
    ingest = replay.stop()
    deadline = time.time() + 10.0
    while not listener.alerts and time.time() < deadline:
        time.sleep(0.2)
    alerts = listener.stop()
    server_stats = handle.server.stats()
    latencies = sorted(
        a.latency_ms for a in alerts if a.latency_ms is not None
    )
    p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))] if latencies else None
    return {
        "alerts_received": len(alerts),
        "alerts_sent": server_stats["alerts_sent"],
        "alerts_dropped": server_stats["alerts_dropped"],
        "alert_latency_p99_ms": p99,
        "ingested_events": ingest.events,
        "concurrent_http": {
            "achieved_rate": fleet.to_dict()["achieved_rate"],
            "errors": fleet.errors,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if acceptance criteria fail")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args()
    rate = float(os.environ.get("AIQL_BENCH_RATE", "500"))

    print(f"deploying {SHARDS}-shard system...", file=sys.stderr)
    system = _deploy(rate_per_host_day=40, max_inflight=8)
    handle = system.serve(port=0).start_background()
    try:
        print(f"steady cell at {rate} req/s for {DURATION_S}s...",
              file=sys.stderr)
        steady = bench_steady(handle, rate)

        print("alerts cell (WS listener + live ingest + HTTP load)...",
              file=sys.stderr)
        alerts = bench_alerts(system, handle, rate=max(rate / 5, 20.0))
    finally:
        handle.stop()
        system.close()

    # Overload runs against its own deployment with inflight pinned to 1
    # and a near-zero queue, at several times that capacity, so shedding
    # engages deterministically — the check is that excess arrivals get
    # 429s while *accepted* requests keep bounded latency.
    overload_rate = max(rate * 2, 400.0)
    print(f"overload cell (max_inflight=1, queue=2, {overload_rate} req/s)...",
          file=sys.stderr)
    system2 = _deploy(
        rate_per_host_day=40, max_inflight=1, queue_depth=2, client_queue=1
    )
    handle2 = system2.serve(port=0).start_background()
    try:
        overload = bench_overload(handle2, rate=overload_rate, max_inflight=1)
    finally:
        handle2.stop()
        system2.close()

    checks = {
        "steady_sustains_rate": (
            steady["achieved_rate"] >= STEADY_RATE_FRACTION * rate
        ),
        "steady_p99_bounded": (
            steady["latency_ms"]["p99"] <= STEADY_P99_BUDGET_MS
        ),
        "steady_no_shedding": steady["rejected"] == 0,
        "steady_no_errors": steady["errors"] == 0,
        "overload_sheds_429": overload["rejected"] > 0,
        "overload_accepted_p99_bounded": (
            overload["latency_ms"]["p99"] <= OVERLOAD_P99_BUDGET_MS
        ),
        "overload_no_errors": overload["errors"] == 0,
        "alerts_delivered": alerts["alerts_received"] > 0,
        "zero_dropped_alerts": alerts["alerts_dropped"] == 0,
    }
    result = {
        "bench": "service_load",
        "workload": {
            "rate": rate,
            "duration_s": DURATION_S,
            "shards": SHARDS,
            "schema_version": api.SCHEMA_VERSION,
        },
        "steady": steady,
        "overload": overload,
        "alerts": alerts,
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
