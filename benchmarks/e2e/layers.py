"""The traced run: where the wrappers go and what they add up to.

Layers are the packages of ``src/repro``.  Every per-layer metric named in
``BENCHMARK.json`` (which also holds the units) is produced on every
workload, and ``run`` refuses a result whose names differ.  A layer a
workload does not cross reports 0 (``shard.*`` in-process, ``tier.cold_*``
when nothing is cold), which is itself the check that the workload stresses
the layers its row claims.

Span names and the call each one times:

=========================  ====================================================
``client.query``           the harness's call of ``AIQLSystem.query`` (root)
``lang.compile``           ``compile_query`` as the facade and service see it
``engine.execute``         ``AIQLSystem.execute``
``tier.scan``              ``TieredStore.scan_columns`` (hot + cold merge)
``storage.scan``           the hot ``EventStore.scan_columns``
``tier.cold_scan``         ``ColdTier.scan_selections``
``shard.scatter``          ``ShardedStore.scan_columns`` (scatter/gather)
``shard.decode``           ``wire.decode_result`` in the coordinator
``service.stream.commit``  ``StreamSession.commit`` (root of a commit)
``storage.build_event``    ``Ingestor.build_event``
``storage.commit``         ``Ingestor.commit``
``tier.wal_append``        ``WriteAheadLog.append``
``storage.add_batch``      the hot ``EventStore.add_batch``
``shard.add_batch``        ``ShardedStore.add_batch`` (route + acks)
``service.continuous.push``  ``ContinuousQueryEngine.push``
=========================  ====================================================
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Sequence, Tuple

from repro import api

from benchmarks.e2e import spans as sp
from benchmarks.e2e import workloads as wl
from benchmarks.e2e.lifecycle import Deployment, Measured, Recovery, SetupResult
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.tape import StreamQuery

# -- installation ---------------------------------------------------------------


@dataclass
class TraceState:
    """What the traced run collects besides spans."""

    counters_before: Dict[str, float] = field(default_factory=dict)
    caches_before: Dict[str, float] = field(default_factory=dict)
    commits_before: int = 0
    # (canonical text, submitted, done) per QueryService.submit call
    submits: List[Tuple[str, float, float]] = field(default_factory=list)


def counters(deployment: Deployment) -> Dict[str, float]:
    """Counter totals of the deployment: this process's registry plus, when
    sharded, every worker's (registries are per process)."""
    totals: Dict[str, float] = defaultdict(float)
    snapshots = [deployment.system.metrics_snapshot()]
    if deployment.config.shards:
        snapshots.extend(
            s for s in deployment.system.store.metrics() if "unavailable" not in s
        )
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            if entry.get("kind") == "counter":
                totals[name] += sum(entry["values"].values())
    return dict(totals)


def cache_counters(deployment: Deployment) -> Dict[str, float]:
    """Scan-cache invalidations and the cold scan cache's hits/misses."""
    stats = deployment.system.stats()
    shards = stats.get("per_shard", [stats])
    out: Dict[str, float] = defaultdict(float)
    for shard in shards:
        out["invalidations"] += shard.get("scan_cache", {}).get("invalidations", 0)
        cold = shard.get("cold", {}).get("scan_cache", {})
        out["cold_hits"] += cold.get("hits", 0)
        out["cold_misses"] += cold.get("misses", 0)
    return dict(out)


def install(deployment: Deployment, tracer: sp.Tracer, state: TraceState) -> None:
    """Put the timing wrappers on the deployment's entry points."""
    import repro.core.system as core_system
    import repro.service.query_service as query_service

    system = deployment.system
    store = system.store
    tracer.wrap(core_system, "compile_query", "lang.compile")
    tracer.wrap(query_service, "compile_query", "lang.compile")
    tracer.wrap(system, "execute", "engine.execute")
    if deployment.config.shards:
        import repro.shard.coordinator as coordinator

        tracer.wrap(store, "scan_columns", "shard.scatter")
        tracer.wrap(store, "add_batch", "shard.add_batch")
        tracer.wrap(coordinator, "decode_result", "shard.decode")
    else:
        tracer.wrap(store, "scan_columns", "tier.scan")
        tracer.wrap(store.hot, "scan_columns", "storage.scan")
        tracer.wrap(store.cold, "scan_selections", "tier.cold_scan")
        tracer.wrap(store.hot, "add_batch", "storage.add_batch")
        tracer.wrap(system.ingestor.wal, "append", "tier.wal_append")
    tracer.wrap(system.ingestor, "build_event", "storage.build_event")
    tracer.wrap(system.ingestor, "commit", "storage.commit")
    tracer.wrap(system.continuous, "push", "service.continuous.push")
    if deployment.workload.serve:
        _record_submits(system.service, state, tracer)
    state.counters_before = counters(deployment)
    state.caches_before = cache_counters(deployment)
    state.commits_before = len(deployment.commits)
    deployment.tracer = tracer


def _record_submits(service, state: TraceState, tracer: sp.Tracer) -> None:
    """Span of ``QueryService.submit`` from the call to the future's
    completion — the part of a served request that is not the server's."""
    inner = service.submit
    canonical = service.canonical_text
    submits = state.submits

    def submit(text):
        started = time.perf_counter()
        future = inner(text)
        future.add_done_callback(
            lambda _: submits.append((canonical(text), started, time.perf_counter()))
        )
        return future

    tracer.replace(service, "submit", submit)


# -- derivation -------------------------------------------------------------------


def _ms(spans: Sequence[sp.Span]) -> List[float]:
    return [s.duration * 1000.0 for s in spans]


def _p50(samples: Sequence[float]) -> float:
    return median(samples) if samples else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    deployment: Deployment,
    tracer: sp.Tracer,
    state: TraceState,
    setup: SetupResult,
    measured: Measured,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run that need the deployment
    alive (everything but :func:`recovery_layers`), by name."""
    all_spans = tracer.spans
    selfs = sp.self_times(all_spans)
    named: Dict[str, List[sp.Span]] = defaultdict(list)
    for span in all_spans:
        named[span.name].append(span)
    out: Dict[str, float] = {}

    # -- the query path ------------------------------------------------------
    ops = sp.by_op(all_spans)
    query_ops = [
        spans for spans in ops.values()
        if any(s.name == "client.query" and s.parent is None for s in spans)
    ]
    scan_name = "shard.scatter" if deployment.config.shards else "tier.scan"
    traced_rounds = [r for r in measured.rounds if r.traced]
    # Counts are taken over the traced rounds that always run, so they are
    # the same on every run of a seed however long the phase lasts.
    fixed_end = measured.rounds[wl.FIXED_ROUNDS - 1].end
    engine_self: List[float] = []
    coverages: List[float] = []
    scans = fixed_queries = 0
    for spans in query_ops:
        coverages.append(sp.coverage(spans, selfs))
        if spans[0].start < fixed_end:
            fixed_queries += 1
            scans += sum(1 for s in spans if s.name == scan_name)
        engine_self.extend(
            selfs[s.id] * 1000.0 for s in spans if s.name == "engine.execute"
        )
    out["lang.compile_ms_p50"] = _p50(_ms(named["lang.compile"]))
    out["engine.execute_ms_p50"] = _p50(_ms(named["engine.execute"]))
    out["engine.self_ms_p50"] = _p50(engine_self)
    out["storage.scan_ms_p50"] = _p50(_ms(named["storage.scan"]))
    out["tier.cold_scan_ms_p50"] = _p50(_ms(named["tier.cold_scan"]))
    out["shard.scatter_ms_p50"] = _p50(_ms(named["shard.scatter"]))
    out["shard.decode_ms_p50"] = _p50(_ms(named["shard.decode"]))

    # Where a query's wall goes: self time per layer over the client wall.
    # In-process the wall is the client.query roots and the spans are the
    # ones below them; served, the wall is the generator's round trips, the
    # spans are whatever ran on the server's threads during the traced
    # rounds, and what no span covers is the server's own share.
    if deployment.workload.serve:
        client_wall = sum(ms for r in traced_rounds for ms in r.query_ms) / 1000.0
        first, last = traced_rounds[0].start, traced_rounds[-1].end
        query_spans = [s for s in all_spans if first <= s.start < last]
        # Served scans run on executor threads (no parent span); the ones
        # under engine.execute are the harness's own answer checks.  Two
        # identical requests in flight share one execution, so this count
        # can differ by a scan or two between runs of a seed.
        out["engine.scans_per_query"] = _ratio(
            sum(
                1 for s in query_spans
                if s.name == scan_name and s.parent is None and s.start < fixed_end
            ),
            sum(len(r.query_ms) for r in traced_rounds if r.end <= fixed_end),
        )
    else:
        client_wall = sum(s.duration for spans in query_ops for s in spans
                          if s.name == "client.query")
        query_spans = [s for spans in query_ops for s in spans]
        out["engine.scans_per_query"] = _ratio(scans, fixed_queries)
    by_name = sp.self_by_name(query_spans, selfs)

    def share(*names: str) -> float:
        return _ratio(sum(by_name.get(n, 0.0) for n in names), client_wall)

    out["lang.self_share"] = share("lang.compile")
    out["engine.self_share"] = share("engine.execute")
    out["storage.self_share"] = share("storage.scan", "tier.scan")
    out["tier.cold_self_share"] = share("tier.cold_scan")
    out["shard.self_share"] = share("shard.scatter", "shard.decode")
    out["harness.trace_coverage_ratio"] = _p50(coverages)

    # -- the write path ------------------------------------------------------
    out["storage.build_event_us"] = _p50(_ms(named["storage.build_event"])) * 1000.0
    out["storage.add_batch_ms_p50"] = _p50(_ms(named["storage.add_batch"]))
    out["tier.wal_append_ms_p50"] = _p50(_ms(named["tier.wal_append"]))
    out["shard.commit_ack_ms_p50"] = _p50(_ms(named["shard.add_batch"]))
    out["service.continuous.push_ms_p50"] = _p50(
        _ms(named["service.continuous.push"])
    )
    commit_ms = [ms for _, ms in deployment.commits[state.commits_before:]]
    out["service.stream.commit_ms_p90"] = (
        percentile(commit_ms, 0.9) if commit_ms else 0.0
    )
    alert_ms = [ms for _, ms in deployment.alerts]
    out["service.continuous.alert_ms_p90"] = (
        percentile(alert_ms, 0.9) if alert_ms else 0.0
    )

    # -- counters at the same boundaries -------------------------------------
    after = counters(deployment)
    before = state.counters_before

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    out["storage.rows_scanned_per_selected"] = _ratio(
        delta("aiql_scan_rows_scanned_total"),
        delta("aiql_scan_rows_selected_total"),
    )
    pruned = delta("aiql_scan_partitions_pruned_total")
    out["storage.partitions_pruned_ratio"] = _ratio(
        pruned, pruned + delta("aiql_scan_partitions_scanned_total")
    )
    hits = delta("aiql_scan_cache_hits_total")
    out["service.cache_hit_ratio"] = _ratio(
        hits, hits + delta("aiql_scan_cache_misses_total")
    )
    out["tier.wal_bytes_per_event"] = _ratio(
        delta("aiql_wal_bytes_total"), delta("aiql_wal_events_total")
    )
    out["tier.cold_pruned_ratio"] = _ratio(
        delta("aiql_cold_segments_pruned_total"),
        delta("aiql_cold_segments_considered_total"),
    )
    out["shard.bytes_per_scan"] = _ratio(
        delta("aiql_shard_gather_bytes_total"),
        delta("aiql_shard_scatter_scans_total"),
    )
    out["server.rejected"] = delta("aiql_http_rejected_total")
    caches = cache_counters(deployment)
    cache_before = state.caches_before

    def cache_delta(name: str) -> float:
        return caches.get(name, 0.0) - cache_before.get(name, 0.0)

    out["service.cache_invalidations_per_commit"] = _ratio(
        cache_delta("invalidations"), len(commit_ms)
    )
    cold_hits = cache_delta("cold_hits")
    out["tier.cold_cache_hit_ratio"] = _ratio(
        cold_hits, cold_hits + cache_delta("cold_misses")
    )
    out["shard.skew_ratio"] = _skew(deployment)

    # -- layer operations timed whole -------------------------------------------
    compacts = [op for op in measured.layer_ops if op.name == "compact"]
    compact_s = [setup.compact_s] if setup.compact_s else []
    compact_s.extend(op.seconds for op in compacts)
    compact_events = setup.compact_events + sum(op.events for op in compacts)
    out["tier.compact_s"] = _p50(compact_s)
    out["tier.compact_events_per_s"] = _ratio(compact_events, sum(compact_s))
    checkpoints = [setup.checkpoint_s]
    checkpoints.extend(
        op.seconds for op in measured.layer_ops if op.name == "checkpoint"
    )
    out["tier.checkpoint_s"] = _p50(checkpoints)

    # -- the served path ------------------------------------------------------------
    out["server.query_overhead_ms_p50"] = _server_overhead(
        traced_rounds, state.submits
    )
    for name in (
        "service.submit_overhead_ms_p50", "server.healthz_ms_p50",
        "api.encode_ms_per_krow", "api.request_decode_us",
        "harness.trace_overhead_ratio",
    ):
        out[name] = extras.get(name, 0.0)

    # -- can the run be trusted ------------------------------------------------------
    canaries = [r.canary_ms for r in measured.rounds]
    quiet = median(canaries)
    out["harness.canary_ms"] = quiet
    out["harness.noisy_rounds"] = float(
        sum(1 for c in canaries if c > quiet * wl.NOISY_CANARY_FACTOR)
    )
    out["harness.generator_lag_ms"] = _p50(measured.generator_lag_ms)
    return out


def _skew(deployment: Deployment) -> float:
    """Largest shard's event count over the mean (1.0 = balanced)."""
    if not deployment.config.shards:
        return 0.0
    events = deployment.system.stats().get("shard_events", [])
    mean = sum(events) / len(events) if events else 0.0
    return _ratio(max(events, default=0), mean)


def recovery_layers(recovery: Recovery) -> Dict[str, float]:
    """Replay rate and snapshot load time of the traced recovery.

    In-process the child times ``load_snapshot`` and ``replay_into``; a
    shard worker recovers inside its own process, so sharded deployments
    report the whole construction as replay (events over seconds) and no
    snapshot time.
    """
    if not recovery.reports:
        return {"tier.replay_events_per_s": 0.0, "tier.snapshot_load_s": 0.0}
    report = recovery.reports[0]
    phases = report.get("phases", {})
    recovered = report["report"]
    if "wal_replay_s" in phases:
        rate = _ratio(recovered["wal_events_replayed"], phases["wal_replay_s"])
    else:
        rate = _ratio(
            recovered["wal_events_replayed"] + recovered["snapshot_events"],
            report["construct_s"],
        )
    return {
        "tier.replay_events_per_s": rate,
        "tier.snapshot_load_s": phases.get("snapshot_load_s", 0.0),
    }


def _server_overhead(rounds, submits) -> float:
    """Client round trip minus the paired ``service.submit`` span.

    Requests and submits of one text pair up in order: a connection is
    sequential, and two identical texts in flight at once share one
    execution anyway.
    """
    by_text: Dict[str, deque] = defaultdict(deque)
    for text, started, done in sorted(submits, key=lambda s: s[1]):
        by_text[text].append((done - started) * 1000.0)
    overheads = []
    requests = sorted(
        (request for r in rounds for request in r.requests), key=lambda q: q[0]
    )
    for _, latency_ms, text in requests:
        queue = by_text.get(" ".join(text.split()))
        if queue:
            overheads.append(latency_ms - queue.popleft())
    return _p50(overheads)


# -- measurements the traced run makes after its rounds -------------------------------


def after_rounds(
    deployment: Deployment,
    queries: Sequence[StreamQuery],
    untraced_p50: float,
    traced_p50: float,
) -> Dict[str, float]:
    """Paired and offline measurements on the still-live deployment."""
    system = deployment.system
    extras: Dict[str, float] = {
        "harness.trace_overhead_ratio": _ratio(traced_p50, untraced_p50),
    }

    # service.run(text) minus system.query(text), paired per text.
    points = [q.text for q in queries if q.kind == "point"][:30]
    overheads = []
    for text in points:
        started = time.perf_counter()
        system.query(text)
        direct = time.perf_counter() - started
        started = time.perf_counter()
        system.service.run(text)
        overheads.append((time.perf_counter() - started - direct) * 1000.0)
    extras["service.submit_overhead_ms_p50"] = _p50(overheads)

    # Paging + JSON encode of real answers, per thousand rows.
    page_rows = deployment.config.server_page_rows
    rows = 0
    encode_s = 0.0
    for item in queries:
        if item.kind == "point":
            continue
        result = system.query(item.text)
        started = time.perf_counter()
        for page in api.pages_from_result(result, page_rows):
            page.to_json()
        encode_s += time.perf_counter() - started
        rows += len(result)
    extras["api.encode_ms_per_krow"] = _ratio(encode_s * 1000.0, rows / 1000.0)

    bodies = [api.QueryRequest(text=q.text, client_id="gen-0").to_json() for q in queries]
    decode_us = []
    for body in bodies:
        started = time.perf_counter()
        api.from_json(body)
        decode_us.append((time.perf_counter() - started) * 1e6)
    extras["api.request_decode_us"] = _p50(decode_us)

    if deployment.workload.serve:
        assert deployment.generator is not None and deployment.handle is not None
        reply = deployment.generator.call(
            {"op": "healthz", "port": deployment.handle.port, "count": 50}
        )
        extras["server.healthz_ms_p50"] = _p50(reply["lat_ms"])
    return extras
