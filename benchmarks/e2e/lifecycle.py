"""The lifecycle every workload runs, measured from outside the program.

    set-up (deploy, load the base tape through a StreamSession, checkpoint,
            one untimed warm-up round)
    -> interleaved rounds (a query segment, then an ingest segment with
            the standing queries attached)
    -> crash copy of the live data directory + recovery in fresh child
            processes
    -> correctness checks

Because one run holds reads, writes, durability and recovery, a gain for
one that costs another shows in the same result.  The harness only calls
the program's public surface (``AIQLSystem.query/stream/subscribe/
checkpoint/compact/serve``, the constructor as recovery) and times those
calls; see ``spans`` for the traced variant.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import AIQLSystem
from repro.core.config import SystemConfig

from benchmarks.e2e import E2E_DIR, tape
from benchmarks.e2e import workloads as wl
from benchmarks.e2e.child import answer_digest
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.tape import StreamQuery

CHILD = str(E2E_DIR / "child.py")


# -- small measurements ---------------------------------------------------------


class Canary:
    """Fixed pure-Python work; only the box's speed changes its time.

    A pass is timed while the program is idle — before each round's query
    segment and before its ingest segment — so its caches are as cold as
    the program left them, and the run's median pass says how fast the box
    was for the rounds it sits between (``run.at_reference_speed``).

    Its tables hold integers and strings only — one list and one dict the
    collector has next to nothing to traverse in — so carrying them does
    not weigh on the program's full collections.  They do add about 10 MB
    to the harness's share of ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        order = list(range(wl.CANARY_TABLE))
        rng.shuffle(order)
        self._next = [0] * wl.CANARY_TABLE
        for here, there in zip(order, order[1:] + order[:1]):
            self._next[here] = there
        self._table = {f"key-{i}": i for i in order}
        self._keys = [f"key-{i}" for i in order[: wl.CANARY_LOOKUPS]]

    def ms(self) -> float:
        """One pass over the work, in milliseconds."""
        following, table = self._next, self._table
        started = time.perf_counter()
        total = 0
        for i in range(wl.CANARY_SPIN):
            total += i & 7
        at = 0
        for _ in range(wl.CANARY_WALK):
            at = following[at]
            total += at
        for key in self._keys:
            total += table[key]
        return (time.perf_counter() - started) * 1000.0


def tree_bytes(root) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus every live shard worker.

    Shard workers are ``multiprocessing`` children; the generator and the
    recovery children are plain subprocesses and are not counted.
    """
    total = _vm_hwm_kb(os.getpid())
    for process in multiprocessing.active_children():
        if process.pid is not None:
            total += _vm_hwm_kb(process.pid)
    return total / 1024.0


# -- the generator child ----------------------------------------------------------


class Generator:
    """The served workload's load generator: one child process."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, CHILD, "generator", str(wl.SERVE_CONNECTIONS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def call(self, command: dict) -> dict:
        assert self._process.stdin and self._process.stdout
        self._process.stdin.write(json.dumps(command) + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the generator child exited")
        return json.loads(line)

    def close(self) -> None:
        if self._process.poll() is None:
            try:
                self.call({"op": "exit"})
            except (RuntimeError, OSError, ValueError):
                pass
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        for pipe in (self._process.stdin, self._process.stdout):
            if pipe is not None:
                pipe.close()


# -- one deployment -----------------------------------------------------------------


@dataclass
class QuerySegment:
    latencies_ms: List[float]
    wall_s: float
    failed: int
    # serve_sharded, traced: (sent, latency_ms, text) per request
    requests: List[Tuple[float, float, str]] = field(default_factory=list)


class Deployment:
    """A deployed system under test with the harness's probes attached."""

    def __init__(
        self,
        workload: wl.Workload,
        data_dir: Path,
        generator: Optional[Generator] = None,
    ) -> None:
        self.workload = workload
        self.data_dir = data_dir
        self.generator = generator
        self.config = SystemConfig(data_dir=str(data_dir), **workload.config)
        self.system = AIQLSystem(self.config)
        self.session = self.system.stream()
        self.replayer = tape.Replayer()
        self.handle = None
        self.tracer: Optional[Tracer] = None
        # (clock at end, milliseconds): sliced into rounds afterwards
        self.commits: List[Tuple[float, float]] = []
        self.alerts: List[Tuple[float, float]] = []
        self.failed_commits = 0
        self._time_commits()

    def _time_commits(self) -> None:
        """Time ``StreamSession.commit`` from outside: ack latency of every
        non-empty batch (``append`` reaches the wrapper through ``self``)."""
        session = self.session
        inner = session.commit
        commits = self.commits

        def commit():
            staged = session.pending
            tracer = self.tracer
            token = (
                tracer.open("service.stream.commit", op=tracer.new_op())
                if tracer is not None and staged
                else None
            )
            started = time.perf_counter()
            try:
                return inner()
            except Exception:
                self.failed_commits += 1
                raise
            finally:
                ended = time.perf_counter()
                if token is not None:
                    tracer.close(token)
                if staged:
                    commits.append((ended, (ended - started) * 1000.0))

        session.commit = commit

    def subscribe_standing(self) -> None:
        alerts = self.alerts

        def on_alert(alert) -> None:
            if alert.latency_s is not None:
                alerts.append((time.perf_counter(), alert.latency_s * 1000.0))

        for name, text in self.workload.standing:
            self.system.subscribe(text, callback=on_alert, name=name)

    def start_server(self) -> None:
        self.handle = self.system.serve(port=0).start_background()

    # -- segments ----------------------------------------------------------------

    def run_queries(self, queries: Sequence[StreamQuery]) -> QuerySegment:
        if self.workload.serve:
            return self._run_served(queries)
        latencies: List[float] = []
        failed = 0
        query = self.system.query
        tracer = self.tracer
        segment_started = time.perf_counter()
        for item in queries:
            token = (
                tracer.open("client.query", op=tracer.new_op())
                if tracer is not None
                else None
            )
            started = time.perf_counter()
            try:
                rows = len(query(item.text))
            except Exception:
                rows = -1  # a failure, and no latency sample
            else:
                latencies.append((time.perf_counter() - started) * 1000.0)
            if token is not None:
                tracer.close(token)
            if rows < item.min_rows:
                failed += 1
        wall = time.perf_counter() - segment_started
        return QuerySegment(latencies, wall, failed)

    def _run_served(self, queries: Sequence[StreamQuery]) -> QuerySegment:
        """The round through the server, from the generator child; then a
        sample of the served answers is compared with ``system.query``."""
        assert self.generator is not None and self.handle is not None
        texts = [q.text for q in queries]
        step = max(1, len(texts) // wl.SERVE_CHECKED_PER_ROUND)
        check = list(range(0, len(texts), step))[: wl.SERVE_CHECKED_PER_ROUND]
        reply = self.generator.call(
            {"op": "round", "port": self.handle.port, "texts": texts,
             "check": check}
        )
        failed = 0
        latencies: List[float] = []
        for item, status, rows, latency in zip(
            queries, reply["status"], reply["rows"], reply["lat_ms"]
        ):
            if status == 200:
                latencies.append(latency)
            if status != 200 or rows < item.min_rows:
                failed += 1
        for index in check:
            served = reply["answers"].get(str(index))
            if served is not None and served != answer_digest(
                self.system.query(texts[index])
            ):
                failed += 1
        requests = [
            (sent, latency, text)
            for sent, latency, text, status in zip(
                reply["sent"], reply["lat_ms"], texts, reply["status"]
            )
            if status == 200
        ]
        return QuerySegment(latencies, reply["wall_s"], failed, requests)

    def ingest(self, records: Sequence[tuple]) -> Tuple[int, float]:
        """Replay one cut and commit its tail; (events, wall seconds)."""
        started = time.perf_counter()
        events = self.replayer.feed(records, self.session)
        self.session.commit()
        return events, time.perf_counter() - started

    def close(self) -> None:
        if self.handle is not None:
            # Keep-alive connections first: the server cannot stop cleanly
            # under a client that still holds one open.
            if self.generator is not None:
                self.generator.call({"op": "disconnect"})
            self.handle.stop()
            self.handle = None
        self.system.close()


# -- inputs -------------------------------------------------------------------------


@dataclass
class Inputs:
    seed: int
    # Dropped once it is loaded: set-up runs once, and 70k records of the
    # harness's would otherwise weigh on every full collection the program's
    # allocations trigger in the measured phase.
    base: Optional[tape.Tape]
    live: tape.LiveTape
    warmup_cut: List[tuple]
    probes: List[StreamQuery]


def make_inputs(seed: int) -> Inputs:
    base = tape.record_base(
        seed, wl.BASE_EVENTS_PER_HOST_DAY, wl.BASE_DAYS
    )
    live = tape.LiveTape(seed, wl.LIVE_EVENTS_PER_HOST_DAY)
    return Inputs(
        seed=seed,
        base=base,
        live=live,
        warmup_cut=live.take(wl.SEGMENT_EVENTS),
        probes=tape.probe_queries(seed, wl.PROBE_QUERIES),
    )


# -- set-up ---------------------------------------------------------------------------


@dataclass
class SetupResult:
    deployment: Deployment
    setup_s: float
    checkpoint_s: float
    compact_s: float = 0.0
    compact_events: int = 0
    failed: int = 0
    attempted: int = 0


def set_up(
    workload: wl.Workload,
    inputs: Inputs,
    data_dir: Path,
    generator: Optional[Generator],
) -> SetupResult:
    """Deploy, load, checkpoint, warm up — all inside ``setup_s``."""
    started = time.perf_counter()
    deployment = Deployment(workload, data_dir, generator)
    try:
        assert inputs.base is not None, "the base tape is loaded once"
        tape.Replayer().feed(inputs.base.records, deployment.session)
        deployment.session.commit()
        inputs.base = None
        mark = time.perf_counter()
        deployment.system.checkpoint()
        checkpoint_s = time.perf_counter() - mark
        result = SetupResult(deployment, 0.0, checkpoint_s)
        if workload.compact_every:
            mark = time.perf_counter()
            report = deployment.system.compact()
            result.compact_s = time.perf_counter() - mark
            result.compact_events = report.events_migrated
        if workload.serve:
            deployment.start_server()
        deployment.subscribe_standing()
        # The warm-up round: fills the scan cache, the kernel cache and the
        # entity-attribute caches, and opens the live partitions.
        warm = deployment.run_queries(tape.round_queries(inputs.seed, -1))
        deployment.ingest(inputs.warmup_cut)
        result.failed = warm.failed + deployment.failed_commits
        result.attempted = tape.QUERIES_PER_ROUND + len(deployment.commits)
        deployment.commits.clear()
        deployment.alerts.clear()
        result.setup_s = time.perf_counter() - started
        return result
    except BaseException:
        deployment.close()
        raise


# -- the measured phase -----------------------------------------------------------------


@dataclass
class Round:
    start: float
    end: float
    query_ms: List[float]
    query_wall_s: float
    ingest_events: int
    ingest_wall_s: float
    canary_ms: float  # mean of the round's passes
    traced: bool
    requests: List[Tuple[float, float, str]] = field(default_factory=list)


@dataclass
class Crash:
    """The crash point: a copy of the live data directory and what had
    been acknowledged when it was taken."""

    directory: Path
    acked_events: int
    disk_bytes: int
    alerts_emitted: int
    # Taken here, where every run of a seed has done the same work, and
    # not at the end of a phase whose length the clock decides.
    peak_rss_mb: float
    # The probes' answers on the live deployment at this very state, and
    # how many missed their ground truth.
    probe_answers: List[list]
    probe_failed: int


@dataclass
class LayerOp:
    name: str
    seconds: float
    events: int = 0


@dataclass
class Measured:
    rounds: List[Round]
    crash: Crash
    failed: int
    attempted: int
    layer_ops: List[LayerOp]
    generator_lag_ms: List[float]
    phase_s: float
    events_ingested: int
    alerts_emitted: int


class _Milestones:
    """The mid-run checkpoint and the crash copy, at fixed event counts.

    Both are triggered by how many live events the measured phase has
    acknowledged, not by the clock, so the crash state of a seed is the
    same on every run.  They run on the ingesting thread, between commits.
    """

    def __init__(
        self,
        deployment: Deployment,
        crash_dir: Path,
        probes: Sequence[StreamQuery],
    ) -> None:
        self.deployment = deployment
        self.crash_dir = crash_dir
        self.probes = probes
        self.checkpoint_at = (wl.FIXED_ROUNDS // 2) * wl.SEGMENT_EVENTS
        self.crash_at = wl.FIXED_ROUNDS * wl.SEGMENT_EVENTS
        self.crash: Optional[Crash] = None
        self.layer_ops: List[LayerOp] = []
        self._checkpointed = False

    def next_stop(self) -> Optional[int]:
        """The next event count at which ingest must pause, if any."""
        if not self._checkpointed:
            return self.checkpoint_at
        if self.crash is None:
            return self.crash_at
        return None

    def reached(self, events: int) -> None:
        system = self.deployment.system
        if not self._checkpointed and events >= self.checkpoint_at:
            started = time.perf_counter()
            written = system.checkpoint()
            self.layer_ops.append(
                LayerOp("checkpoint", time.perf_counter() - started, written)
            )
            self._checkpointed = True
        if self.crash is None and events >= self.crash_at:
            # Live and un-closed, right after the last ack: what a crash at
            # this instant would leave on disk (every ack was fsynced).
            shutil.copytree(self.deployment.data_dir, self.crash_dir)
            rss = peak_rss_mb()
            answers, missed = probe_answers(self.deployment, self.probes)
            self.crash = Crash(
                directory=self.crash_dir,
                acked_events=self.deployment.session.watermark,
                disk_bytes=tree_bytes(self.crash_dir),
                alerts_emitted=len(self.deployment.alerts),
                peak_rss_mb=rss,
                probe_answers=answers,
                probe_failed=missed,
            )


def _compact(deployment: Deployment, ops: List[LayerOp]) -> None:
    started = time.perf_counter()
    report = deployment.system.compact()
    ops.append(
        LayerOp("compact", time.perf_counter() - started, report.events_migrated)
    )


def measure(
    deployment: Deployment,
    inputs: Inputs,
    seconds: float,
    crash_dir: Path,
    canary: Canary,
    tracer: Optional[Tracer],
    install: Optional[Callable[[Deployment, Tracer], None]],
) -> Measured:
    """Rounds until ``seconds`` have passed (and the fixed rounds are done).

    With a tracer, the first ``TRACE_BASELINE_ROUNDS`` run untraced (the
    overhead baseline), then ``install`` puts the wrappers on.
    """
    if deployment.workload.concurrent_ingest:
        return _measure_concurrent(
            deployment, inputs, seconds, crash_dir, canary, tracer, install
        )
    milestones = _Milestones(deployment, crash_dir, inputs.probes)
    rounds: List[Round] = []
    failed = 0
    events = 0
    phase_started = time.perf_counter()
    index = 0
    while True:
        if tracer is not None and index == wl.TRACE_BASELINE_ROUNDS:
            assert install is not None
            install(deployment, tracer)
        queries = tape.round_queries(inputs.seed, index)
        cut = inputs.live.take(wl.SEGMENT_EVENTS)
        spin = canary.ms()
        start = time.perf_counter()
        segment = deployment.run_queries(queries)
        spin = (spin + canary.ms()) / 2
        ingested, ingest_wall = deployment.ingest(cut)
        end = time.perf_counter()
        events += ingested
        failed += segment.failed
        rounds.append(
            Round(
                start, end, segment.latencies_ms, segment.wall_s, ingested,
                ingest_wall, spin, deployment.tracer is not None,
                segment.requests,
            )
        )
        index += 1
        milestones.reached(events)
        every = deployment.workload.compact_every
        if every and index % every == 0:
            _compact(deployment, milestones.layer_ops)
        if _phase_over(index, phase_started, seconds):
            break
    return _finish(
        deployment, rounds, milestones, failed, events, [], phase_started
    )


def _phase_over(rounds: int, phase_started: float, seconds: float) -> bool:
    """The fixed rounds are done and the clock has run out."""
    return (
        rounds >= wl.FIXED_ROUNDS
        and time.perf_counter() - phase_started >= seconds
    )


def _finish(
    deployment: Deployment,
    rounds: List[Round],
    milestones: _Milestones,
    failed: int,
    events: int,
    lag_ms: List[float],
    phase_started: float,
) -> Measured:
    crash = milestones.crash
    assert crash is not None
    attempted = (
        tape.QUERIES_PER_ROUND * len(rounds)
        + len(deployment.commits)
        + len(crash.probe_answers)
    )
    return Measured(
        rounds=rounds,
        crash=crash,
        failed=failed + deployment.failed_commits + crash.probe_failed,
        attempted=attempted,
        layer_ops=milestones.layer_ops,
        generator_lag_ms=lag_ms,
        phase_s=time.perf_counter() - phase_started,
        events_ingested=events,
        alerts_emitted=len(deployment.alerts),
    )


class _PacedWriter(threading.Thread):
    """live_mixed's writer: replays the live tape on a fixed schedule.

    Event ``n`` is due at ``epoch + n / rate``.  The writer looks at the
    schedule every ``LIVE_PACE_EVENTS`` events, sleeps when it is early and
    records how late it is when it is not; time spent in a milestone
    (checkpoint, crash copy) shifts the epoch instead of being caught up
    in a burst.
    """

    def __init__(
        self,
        deployment: Deployment,
        records: Sequence[tuple],
        milestones: _Milestones,
    ) -> None:
        super().__init__(name="e2e-writer", daemon=True)
        self.deployment = deployment
        self.records = records
        self.milestones = milestones
        self.stop_requested = threading.Event()
        self.exhausted = False
        self.events = 0
        self.lag_ms: List[float] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._replay()
        except BaseException as exc:  # surfaced by the measuring thread
            self.error = exc

    def _replay(self) -> None:
        session = self.deployment.session
        feed = self.deployment.replayer.feed
        milestones = self.milestones
        interval = wl.LIVE_PACE_EVENTS / wl.LIVE_RATE_EVENTS_PER_S
        chunk: List[tuple] = []
        pending = 0
        due = time.perf_counter()
        for record in self.records:
            chunk.append(record)
            if record[0] != tape.EMIT:
                continue
            pending += 1
            if pending < wl.LIVE_PACE_EVENTS:
                continue
            if self.stop_requested.is_set():
                break
            early = due - time.perf_counter()
            if early > 0:
                time.sleep(early)
            else:
                self.lag_ms.append(-early * 1000.0)
            self.events += feed(chunk, session)
            chunk, pending = [], 0
            due += interval
            stop = milestones.next_stop()
            if stop is not None and self.events >= stop:
                paused = time.perf_counter()
                session.commit()
                milestones.reached(self.events)
                due += time.perf_counter() - paused
        else:
            self.exhausted = True
        session.commit()


def _measure_concurrent(
    deployment: Deployment,
    inputs: Inputs,
    seconds: float,
    crash_dir: Path,
    canary: Canary,
    tracer: Optional[Tracer],
    install: Optional[Callable[[Deployment, Tracer], None]],
) -> Measured:
    """live_mixed: query rounds back to back while the writer commits.

    A round is a query segment; the events the writer appended while it
    ran, over its wall, are the round's ingest rate.  The tape is recorded
    before the phase starts, so generating it does not compete with either
    thread.
    """
    milestones = _Milestones(deployment, crash_dir, inputs.probes)
    budget = int(wl.LIVE_RATE_EVENTS_PER_S * max(seconds, 1.0) * 1.5)
    records = inputs.live.take(budget + milestones.crash_at)
    writer = _PacedWriter(deployment, records, milestones)
    session = deployment.session
    rounds: List[Round] = []
    failed = 0
    phase_started = time.perf_counter()
    writer.start()
    index = 0
    try:
        while True:
            if tracer is not None and index == wl.TRACE_BASELINE_ROUNDS:
                assert install is not None
                install(deployment, tracer)
            queries = tape.round_queries(inputs.seed, index)
            spin = canary.ms()
            appended = session.appended
            start = time.perf_counter()
            segment = deployment.run_queries(queries)
            end = time.perf_counter()
            failed += segment.failed
            rounds.append(
                Round(
                    start, end, segment.latencies_ms, segment.wall_s,
                    session.appended - appended, end - start, spin,
                    deployment.tracer is not None,
                )
            )
            index += 1
            if writer.error is not None or writer.exhausted:
                break
            # The writer decides when the crash point comes; wait for it.
            if milestones.crash is not None and _phase_over(
                index, phase_started, seconds
            ):
                break
    finally:
        writer.stop_requested.set()
        writer.join(timeout=60)
    if writer.error is not None:
        raise writer.error
    if writer.is_alive():
        raise RuntimeError("the writer thread did not stop")
    if milestones.crash is None:
        raise RuntimeError(
            "the live tape ran out before the crash point: "
            f"{writer.events} of {milestones.crash_at} events"
        )
    return _finish(
        deployment, rounds, milestones, failed, writer.events,
        writer.lag_ms, phase_started,
    )


# -- recovery -----------------------------------------------------------------------------


@dataclass
class Recovery:
    recovery_s: List[float]
    reports: List[dict]
    failed: int
    attempted: int


def recover_crash_copy(
    workload: wl.Workload,
    crash: Crash,
    probes: Sequence[StreamQuery],
    repeats: int,
    trace: bool,
) -> Recovery:
    """Recover the crash copy ``repeats`` times, each in a fresh process.

    A recovery fails if it loses an acknowledged event (recovered count
    != the watermark acked when the copy was taken) or changes a probe
    answer taken when the copy was.
    """
    spec_path = crash.directory.parent / "recover.json"
    spec_path.write_text(
        json.dumps(
            {
                "data_dir": str(crash.directory),
                "config": dict(workload.config),
                "probes": [p.text for p in probes],
                "trace": trace,
            }
        ),
        encoding="utf-8",
    )
    times: List[float] = []
    reports: List[dict] = []
    failed = 0
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, CHILD, "recover", str(spec_path)],
            capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
            failed += 1
            continue
        report = json.loads(done.stdout.strip().splitlines()[-1])
        reports.append(report)
        times.append(report["recovery_s"])
        if report["events"] != crash.acked_events:
            failed += 1
        elif report["answers"] != crash.probe_answers:
            failed += 1
    return Recovery(times, reports, failed, repeats)


def probe_answers(
    deployment: Deployment, probes: Sequence[StreamQuery]
) -> Tuple[List[list], int]:
    """The probes' answers on the live deployment, and how many miss
    their ground truth."""
    answers = []
    failed = 0
    for probe in probes:
        result = deployment.system.query(probe.text)
        if len(result) < probe.min_rows:
            failed += 1
        answers.append(answer_digest(result))
    return answers, failed


def config_used(deployment: Deployment) -> Dict[str, object]:
    """The configuration actually deployed, for the stamp."""
    config = deployment.config
    return {
        "backend": config.backend,
        "columnar": config.columnar,
        "scan_cache": config.scan_cache,
        "wal_sync": config.wal_sync,
        "stream_batch_size": deployment.session.batch_size,
        "durable": deployment.system.durable,
        "shards": config.shards,
        "retention_days": config.retention_days,
        "cold_cache_segments": config.cold_cache_segments,
        "standing_queries": len(deployment.workload.standing),
        "serve": deployment.workload.serve,
        "concurrent_ingest": deployment.workload.concurrent_ingest,
    }
