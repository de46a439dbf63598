"""Command-line interface: ``python -m repro``.

Subcommands:

* ``demo``    — deploy the simulated enterprise and open a query loop (or
  run ``--query``/``--file`` non-interactively);
* ``explain`` — show the execution plan for a query without running it;
* ``corpus``  — list the paper's query corpus (``--run`` executes it,
  ``--jobs N`` concurrently, ``--live RATE`` with streaming ingest,
  ``--watch QUERY`` with a standing query alerting on the live stream,
  ``--data-dir DIR`` durably through the tiered storage subsystem,
  ``--shards N`` sharded across worker processes);
* ``archive`` — compact a durable data dir to its retention horizon and
  checkpoint it (snapshot + WAL truncate);
* ``recover`` — crash-recover a durable data dir and report what it held;
* ``translate`` — print the SQL/Cypher/SPL equivalents of an AIQL query;
* ``serve``   — deploy the enterprise and expose it over the network
  front door (:mod:`repro.server`): the versioned ``/v1`` HTTP query API
  plus the ``/v1/alerts`` WebSocket.

Every error path prints the structured :class:`repro.api.ErrorEnvelope`
rendering (``error[<code>]: <message>``), so scripts can match on the
same stable codes the network service returns; usage errors exit 2,
query/runtime errors exit 1.

The CLI exists for exploration; programmatic use goes through
:class:`repro.AIQLSystem`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import api
from repro.core.system import AIQLSystem
from repro.lang.errors import AIQLError
from repro.service.continuous import ContinuousError


def _fail(exc: BaseException, prefix: str = "") -> int:
    """Print an exception's error envelope to stderr; returns the exit code."""
    env = api.classify(exc)
    print(f"{prefix}{api.render(env)}", file=sys.stderr)
    return api.exit_code(env)


def _build_system(
    rate: int,
    data_dir: Optional[str] = None,
    retention: Optional[int] = None,
    shards: int = 0,
    chaos: Optional[str] = None,
) -> AIQLSystem:
    from repro.core.config import SystemConfig
    from repro.workload.loader import build_enterprise

    if data_dir is None and not shards:
        print(f"deploying the simulated enterprise (rate={rate})...",
              file=sys.stderr)
        enterprise = build_enterprise(events_per_host_day=rate)
        system = AIQLSystem.over(
            enterprise.store("partitioned"), ingestor=enterprise.ingestor
        )
        print(f"{enterprise.total_events} events ready", file=sys.stderr)
        return system

    # Durable and/or sharded deployment: construct the system first (for
    # a data dir, opening it *is* recovery; shard workers each replay
    # their own slice), then stream the workload through the system's own
    # commit path only when it came up empty — re-running over a
    # populated dir reuses the recovered state.
    system = AIQLSystem(
        SystemConfig(
            data_dir=data_dir,
            retention_days=retention,
            shards=shards,
            shard_chaos=chaos,
        )
    )
    if shards:
        print(f"sharded across {shards} worker process(es)", file=sys.stderr)
        if system.store.fault_plan:
            print(f"chaos plan: {system.store.fault_plan.to_spec()}",
                  file=sys.stderr)
    recovered = system.recovery.total_events if system.recovery else 0
    if recovered:
        print(f"recovered {recovered} events from {data_dir} "
              f"({system.recovery.to_dict()})", file=sys.stderr)
    else:
        where = data_dir if data_dir is not None else f"{shards} shard(s)"
        print(f"deploying into {where} (rate={rate})...", file=sys.stderr)
        build_enterprise(
            stores=(),
            ingestor=system.ingestor,
            events_per_host_day=rate,
            stream_batch_size=system.config.stream_batch_size,
        )
        print(f"{system.ingestor.events_ingested} events committed",
              file=sys.stderr)
    return system


def _run_one(system: AIQLSystem, text: str) -> int:
    try:
        started = time.perf_counter()
        result = system.query(text)
        elapsed = (time.perf_counter() - started) * 1000
    except AIQLError as exc:
        return _fail(exc)
    print(result.to_text())
    print(f"({len(result)} row(s) in {elapsed:.1f} ms)")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    system = _build_system(args.rate)
    if args.query:
        return _run_one(system, args.query)
    if args.file:
        with open(args.file) as handle:
            return _run_one(system, handle.read())
    print("AIQL demo shell — end a query with an empty line; 'quit' exits.")
    buffer: List[str] = []
    while True:
        try:
            prompt = "aiql> " if not buffer else "  ... "
            line = input(prompt)
        except EOFError:
            return 0
        if line.strip().lower() in ("quit", "exit") and not buffer:
            return 0
        if line.strip():
            buffer.append(line)
            continue
        if buffer:
            _run_one(system, "\n".join(buffer))
            buffer = []


def cmd_explain(args: argparse.Namespace) -> int:
    # Static plans need no data; --analyze deploys the enterprise and
    # actually runs the query so the span tree carries real cardinalities.
    system = _build_system(args.rate) if args.analyze else AIQLSystem()
    text = args.query or open(args.file).read()
    try:
        report = system.explain(text, analyze=args.analyze)
    except AIQLError as exc:
        return _fail(exc)
    print(report.to_json(indent=2) if args.json else report.to_text())
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.workload.corpus import ALL_QUERIES, by_id

    if args.show:
        query = by_id(args.show)
        print(f"-- {query.qid} ({query.kind})")
        print(query.text.strip())
        return 0
    if args.live < 0:
        print("--live RATE must be >= 0", file=sys.stderr)
        return 2
    if args.watch and not (args.run and args.live):
        print("--watch requires --run --live RATE: standing queries alert "
              "from live stream commits", file=sys.stderr)
        return 2
    if args.shards < 0:
        print("--shards N must be >= 0", file=sys.stderr)
        return 2
    if args.chaos and not args.shards:
        print("--chaos requires --shards N: faults target shard workers",
              file=sys.stderr)
        return 2
    if args.run:
        system = _build_system(
            args.rate,
            data_dir=args.data_dir,
            retention=args.retention,
            shards=args.shards,
            chaos=args.chaos,
        )
        replay_handle = None
        session = None
        watch = None
        if args.watch:
            try:
                watch_text = by_id(args.watch).text
                watch_name = args.watch
            except KeyError:
                watch_text, watch_name = args.watch, "watch"

            def _print_alert(alert) -> None:
                latency = (
                    f" (+{alert.latency_s * 1000:.1f} ms)"
                    if alert.latency_s is not None
                    else ""
                )
                print(f"ALERT {alert.query}: events {list(alert.key)}"
                      f"{latency}")

            try:
                watch = system.subscribe(
                    watch_text, callback=_print_alert, name=watch_name
                )
            except (AIQLError, ContinuousError) as exc:
                _fail(exc, prefix="--watch: ")
                return 2
            print(f"standing query {watch.name!r} registered "
                  f"({len(watch.queries)} pattern(s), "
                  f"window {watch.horizon_s:.0f}s)", file=sys.stderr)
        if args.live:
            from repro.workload.live import LiveReplay

            session = system.stream()
            replay_handle = LiveReplay(session, rate=args.live).start()
            print(f"live ingest started at {args.live} events/s",
                  file=sys.stderr)
        try:
            if args.jobs > 1:
                rc = _run_corpus_concurrent(system, ALL_QUERIES, args.jobs)
            else:
                failures = 0
                for query in ALL_QUERIES:
                    try:
                        if args.trace:
                            report = system.explain(query.text)
                            rows = report.rows or 0
                            elapsed = (
                                report.root.duration_s * 1000
                                if report.root is not None
                                else 0.0
                            )
                        else:
                            started = time.perf_counter()
                            result = system.query(query.text)
                            elapsed = (time.perf_counter() - started) * 1000
                            rows = len(result)
                        status = "ok" if rows >= query.min_rows else "EMPTY"
                        failures += status != "ok"
                        print(f"{query.qid:12s} {status:5s} {rows:5d} "
                              f"row(s) {elapsed:8.1f} ms")
                        if args.trace and report.root is not None:
                            for line in report.root.to_text().splitlines():
                                print(f"    {line}")
                    except AIQLError as exc:
                        failures += 1
                        print(f"{query.qid:12s} ERROR "
                              f"{api.render(api.classify(exc))}")
                rc = 1 if failures else 0
        finally:
            if replay_handle is not None:
                stats = replay_handle.stop()
                print(f"live ingest: {stats.events} events in "
                      f"{stats.batches} batch(es) over {stats.wall_s:.2f} s "
                      f"({stats.achieved_rate:.0f} ev/s, target "
                      f"{stats.target_rate:.0f}); watermark "
                      f"{session.watermark}")
            if watch is not None:
                print(f"standing query {watch.name!r}: "
                      f"{watch.alerts_emitted} alert(s), "
                      f"{watch.events_matched} window event(s) matched",
                      file=sys.stderr)
            stats = system.stats()
            if "shard_events" in stats:
                print(f"shard stats: {stats['shard_events']} event(s) "
                      f"across {stats['shards']} shard(s); "
                      f"scatter/gather: {stats.get('scatter_gather')}",
                      file=sys.stderr)
                health = stats.get("shard_health") or {}
                if health.get("restarts") or health.get("timeouts"):
                    print(f"shard health: {health['restarts']} restart(s), "
                          f"{health['timeouts']} timeout(s), "
                          f"{health['retries']} retried command(s), "
                          f"{health['lost_events']} event(s) lost, "
                          f"failed shards {health['failed_shards']}",
                          file=sys.stderr)
            elif system.durable:
                print(f"tier stats: {stats.get('cold')}; "
                      f"wal: {stats.get('wal')}", file=sys.stderr)
            if args.metrics_out:
                with open(args.metrics_out, "w") as handle:
                    handle.write(system.metrics_text())
                print(f"metrics written to {args.metrics_out}",
                      file=sys.stderr)
            system.close()
        return rc
    for query in ALL_QUERIES:
        print(f"{query.qid:12s} {query.group:3s} {query.kind}")
    return 0


def _run_corpus_concurrent(system: AIQLSystem, queries, jobs: int) -> int:
    """Run the corpus through the concurrent query service."""
    from repro.service import QueryService, SharedExecutor

    service = QueryService(
        system.store,
        scheduling=system.config.scheduling,
        executor=SharedExecutor(max_workers=jobs),
    )
    started = time.perf_counter()
    futures = service.submit_many([q.text for q in queries])
    failures = 0
    for query, future in zip(queries, futures):
        try:
            result = future.result()
            status = "ok" if len(result) >= query.min_rows else "EMPTY"
            failures += status != "ok"
            print(f"{query.qid:12s} {status:5s} {len(result):5d} row(s)")
        except AIQLError as exc:
            failures += 1
            print(f"{query.qid:12s} ERROR {api.render(api.classify(exc))}")
    elapsed = time.perf_counter() - started
    print(f"({len(queries)} queries, {jobs} workers: {elapsed:.2f} s, "
          f"{len(queries) / elapsed:.1f} q/s)")
    print(f"service stats: {service.stats_snapshot()}")
    return 1 if failures else 0


def cmd_archive(args: argparse.Namespace) -> int:
    """Compact a durable data dir to its retention horizon + checkpoint."""
    with AIQLSystem.recover(args.data_dir) as system:
        retention = args.retention or system.config.retention_days
        if retention is None:
            print("archive needs a retention horizon: pass --retention N",
                  file=sys.stderr)
            return 2
        report = system.compact(retention)
        written = system.checkpoint()
        cold = system.stats()["cold"]
        print(f"compacted {report.events_migrated} event(s) into "
              f"{report.segments_written} cold segment(s) "
              f"({report.cold_bytes} bytes; horizon {retention} day(s))")
        print(f"checkpoint: {written} hot event(s) snapshotted, WAL reset")
        print(f"cold tier: {cold['segments']} segment(s), "
              f"{cold['events']} event(s), {cold['bytes']} bytes")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Crash-recover a durable data dir and report what it held."""
    with AIQLSystem.recover(args.data_dir) as system:
        report = system.recovery
        print(f"recovered {report.total_events} event(s) from {args.data_dir}")
        print(f"  snapshot: {report.snapshot_events} event(s)")
        print(f"  wal replay: {report.wal_events_replayed} event(s)")
        print(f"  cold tier: {report.cold_events} event(s)")
        if report.duplicates_reconciled:
            print(f"  reconciled {report.duplicates_reconciled} "
                  f"half-migrated duplicate(s)")
        print(f"  next event id: {report.next_event_id}")
        if args.query:
            return _run_one(system, args.query)
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    from repro.baselines.conciseness import translate_all

    text = args.query or open(args.file).read()
    try:
        translated = translate_all(text)
    except AIQLError as exc:
        return _fail(exc)
    wanted = args.language.split(",") if args.language else list(translated)
    for language in wanted:
        query = translated[language.strip().lower()]
        print(f"=== {query.language.upper()} ({query.constraints} constraints) ===")
        print(query.text.strip())
        print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Deploy the enterprise and serve it over the network front door."""
    import asyncio

    if args.live < 0:
        env = api.envelope(api.Code.REQUEST_INVALID, "--live RATE must be >= 0")
        print(api.render(env), file=sys.stderr)
        return api.exit_code(env)
    system = _build_system(
        args.rate,
        data_dir=args.data_dir,
        shards=args.shards,
    )
    server = system.serve(host=args.host, port=args.port)
    replay_handle = None
    if args.live:
        from repro.workload.live import LiveReplay

        replay_handle = LiveReplay(system.stream(), rate=args.live).start()
        print(f"live ingest started at {args.live} events/s", file=sys.stderr)

    async def _serve() -> None:
        await server.start()
        print(f"serving the v1 API on http://{server.host}:{server.port} "
              f"(schema v{api.SCHEMA_VERSION}); Ctrl-C stops",
              file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if replay_handle is not None:
            replay_handle.stop()
        system.close()
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AIQL (USENIX ATC'18) reproduction — attack "
        "investigation queries over system monitoring data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="deploy the enterprise and run queries")
    demo.add_argument("--rate", type=int, default=200,
                      help="background events per host-day (default 200)")
    demo.add_argument("--query", "-q", help="run one query and exit")
    demo.add_argument("--file", "-f", help="run the query in FILE and exit")
    demo.set_defaults(func=cmd_demo)

    explain = sub.add_parser("explain", help="show a query's execution plan")
    group = explain.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", "-q")
    group.add_argument("--file", "-f")
    explain.add_argument("--analyze", action="store_true",
                         help="deploy the enterprise and execute the query, "
                              "reporting the traced span tree (EXPLAIN "
                              "ANALYZE)")
    explain.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    explain.add_argument("--rate", type=int, default=120,
                         help="with --analyze: background events per "
                              "host-day (default 120)")
    explain.set_defaults(func=cmd_explain)

    corpus = sub.add_parser("corpus", help="list/run the paper's query corpus")
    corpus.add_argument("--run", action="store_true",
                        help="execute the whole corpus against a deployment")
    corpus.add_argument("--show", metavar="QID", help="print one query's text")
    corpus.add_argument("--rate", type=int, default=120)
    corpus.add_argument("--jobs", "-j", type=int, default=1,
                        help="run the corpus through the concurrent query "
                             "service with this many workers")
    corpus.add_argument("--live", type=float, default=0, metavar="RATE",
                        help="with --run: stream live background events at "
                             "RATE events/sec while the corpus executes")
    corpus.add_argument("--watch", metavar="QUERY",
                        help="with --run --live: register QUERY (a corpus "
                             "qid or raw AIQL text) as a standing query and "
                             "print an alert for every tuple matched as "
                             "batches commit")
    corpus.add_argument("--data-dir", metavar="DIR",
                        help="with --run: deploy durably (WAL + tiered "
                             "storage) into DIR, recovering it if populated")
    corpus.add_argument("--retention", type=int, metavar="DAYS",
                        help="with --data-dir: hot-tier retention horizon "
                             "(background compactor migrates older days to "
                             "compressed cold segments)")
    corpus.add_argument("--trace", action="store_true",
                        help="with --run: execute each query under the "
                             "tracer and print its span tree (per-pattern "
                             "cardinalities, prune/cache annotations)")
    corpus.add_argument("--metrics-out", metavar="FILE",
                        help="with --run: write the Prometheus-style "
                             "metrics exposition to FILE after the run")
    corpus.add_argument("--shards", type=int, default=0, metavar="N",
                        help="with --run: shard the store across N worker "
                             "processes (scatter/gather scans; combine "
                             "with --data-dir for per-shard WALs and cold "
                             "tiers)")
    corpus.add_argument("--chaos", metavar="SPEC",
                        help="with --shards: deterministic fault injection "
                             "— an integer seed, or explicit faults like "
                             "'kill@1:scan#0,delay@2:scan#1x0.05' "
                             "(supervised recovery keeps the run serving)")
    corpus.set_defaults(func=cmd_corpus)

    archive = sub.add_parser(
        "archive",
        help="compact a durable data dir to its retention horizon and "
             "checkpoint it",
    )
    archive.add_argument("--data-dir", required=True, metavar="DIR")
    archive.add_argument("--retention", type=int, metavar="DAYS",
                         help="hot-tier retention horizon in days")
    archive.set_defaults(func=cmd_archive)

    recover = sub.add_parser(
        "recover", help="crash-recover a durable data dir and report it"
    )
    recover.add_argument("--data-dir", required=True, metavar="DIR")
    recover.add_argument("--query", "-q",
                         help="run one query against the recovered store")
    recover.set_defaults(func=cmd_recover)

    translate = sub.add_parser(
        "translate", help="derive SQL/Cypher/SPL equivalents"
    )
    group = translate.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", "-q")
    group.add_argument("--file", "-f")
    translate.add_argument(
        "--language", "-l", help="comma list: aiql,sql,cypher,spl"
    )
    translate.set_defaults(func=cmd_translate)

    serve = sub.add_parser(
        "serve",
        help="deploy the enterprise and serve the v1 HTTP/WebSocket API",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 binds an ephemeral one)")
    serve.add_argument("--rate", type=int, default=120,
                       help="background events per host-day (default 120)")
    serve.add_argument("--live", type=float, default=0, metavar="RATE",
                       help="stream live background events at RATE events/sec "
                            "while serving (feeds /v1/alerts subscriptions)")
    serve.add_argument("--data-dir", metavar="DIR",
                       help="serve a durable deployment rooted at DIR")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="shard the store across N worker processes")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
