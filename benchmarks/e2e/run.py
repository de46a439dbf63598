"""Run one workload of the lifecycle benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload investigate_hot \\
        [--seed 20170101] [--seconds 20] [--trace 0|1]

``--trace 0`` (the default) prints the ten end-to-end metrics; ``--trace
1`` installs the harness-side wrappers and prints the per-layer metrics
instead (end-to-end metrics are never taken from a traced run).  Names,
units and bounds are ``BENCHMARK.json``'s.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a readable table goes to standard error, and the stamp
(sizes, box, commit, configuration), the values as measured, every round's
own statistics and — traced — the spans to ``.bench_e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import (  # noqa: E402
    DEFAULT_SEED,
    REPO_ROOT,
    ensure_program_on_path,
    load_contract,
    processes,
)

# Everything the benchmark writes stays under this directory of the
# checkout (data directories, crash copies, results, spans).
WORK_ROOT = REPO_ROOT / ".bench_e2e"


def end_to_end_metrics(
    setup_s, measured, commits, alerts, recovery
) -> Dict[str, float]:
    """The ten end-to-end metrics of one untraced run as measured, by the
    names ``BENCHMARK.json`` gives them.

    Timings and rates are medians across rounds of the round's statistic;
    commit and alert samples belong to the round whose interval they end in.
    """
    from benchmarks.e2e.stats import round_median

    rounds = measured.rounds
    return {
        "setup_s": setup_s,
        "query_ms_p50": round_median([r.query_ms for r in rounds], 0.5),
        "query_ms_p90": round_median([r.query_ms for r in rounds], 0.9),
        "queries_per_s": median(len(r.query_ms) / r.query_wall_s for r in rounds),
        "ingest_events_per_s": median(
            r.ingest_events / r.ingest_wall_s for r in rounds
        ),
        "commit_ms_p50": round_median(_by_round(rounds, commits), 0.5),
        "alert_ms_p50": round_median(_by_round(rounds, alerts), 0.5),
        "recovery_s": median(recovery.recovery_s),
        "disk_bytes_per_event": measured.crash.disk_bytes
        / measured.crash.acked_events,
        "peak_rss_mb": measured.crash.peak_rss_mb,
    }


ONCE_A_RUN = ("setup_s", "recovery_s")
READ_SIDE = ("query_ms_p50", "query_ms_p90", "queries_per_s")
WRITE_SIDE = ("ingest_events_per_s", "commit_ms_p50", "alert_ms_p50")


def at_reference_speed(
    measured: Dict[str, float], slowness: float, paced_writes: bool
) -> Dict[str, float]:
    """The timings and rates as a box of the reference speed would show them.

    ``slowness`` is the run's median canary pass over the reference pass:
    the canary is timed between the rounds whose statistics these are, so
    whatever slowed the box for this run slowed both, and dividing it out
    leaves the program's share.  On this shared sandbox the box's speed
    wanders by +-10% from one minute to the next and by 30-60% for minutes
    at a time when a neighbour is loud, and a run lasts half a minute:
    unscaled, ten runs of one commit spread 7-10% between their quartiles
    and their median moves by 10-50% from one set of runs to the next;
    scaled, 2-5% and 0-5% (README, "Measured spreads").  Set-up and
    recovery run just outside the rounds and are scaled by the same
    factor: it does not narrow their spread within a set, but it takes
    the box's longer swings out of their median.  Left as measured: the
    two counts, and - when the writer follows a schedule - the write
    side, which the clock sets and the box's speed does not.
    """
    out = dict(measured)
    for name in ONCE_A_RUN + READ_SIDE + (() if paced_writes else WRITE_SIDE):
        if name.endswith("_per_s"):
            out[name] = measured[name] * slowness
        else:
            out[name] = measured[name] / slowness
    return out


def _by_round(rounds, samples) -> List[List[float]]:
    """Slice ``(clock, value)`` samples by the rounds' intervals."""
    out: List[List[float]] = [[] for _ in rounds]
    index = 0
    for clock, value in sorted(samples):
        while index < len(rounds) and clock >= rounds[index].end:
            index += 1
        if index == len(rounds):
            break
        if clock >= rounds[index].start:
            out[index].append(value)
    return out


def _round_record(round_) -> dict:
    """One round's own statistics, for reading a run after the fact."""
    from benchmarks.e2e.stats import percentile

    return {
        "query_ms_p50": percentile(round_.query_ms, 0.5),
        "query_ms_p90": percentile(round_.query_ms, 0.9),
        "queries_per_s": len(round_.query_ms) / round_.query_wall_s,
        "ingest_events_per_s": round_.ingest_events / round_.ingest_wall_s,
        "canary_ms": round_.canary_ms,
        "traced": round_.traced,
    }


def stamp(args, why, deployment_config, extra) -> dict:
    """What a result needs to be read later: sizes, box, commit, config."""
    from benchmarks.e2e import workloads as wl

    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
        "config": deployment_config,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        **extra,
    }


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(args, contract: dict) -> Tuple[dict, dict]:
    """One run; returns (the result line, the detailed record)."""
    from benchmarks.e2e import layers, lifecycle
    from benchmarks.e2e import workloads as wl
    from benchmarks.e2e.spans import Tracer
    from benchmarks.e2e.stats import round_median

    started = time.perf_counter()
    workload = wl.BY_NAME[args.workload]
    traced = bool(args.trace)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    out_dir = WORK_ROOT / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    generator = lifecycle.Generator() if workload.serve else None
    deployment: Optional[lifecycle.Deployment] = None
    tracer = Tracer() if traced else None
    try:
        inputs = lifecycle.make_inputs(args.seed)
        canary = lifecycle.Canary()
        setup = lifecycle.set_up(workload, inputs, work / "data", generator)
        deployment = setup.deployment
        failed, attempted = setup.failed, setup.attempted

        state = layers.TraceState()
        measured = lifecycle.measure(
            deployment, inputs, args.seconds, work / "crash", canary, tracer,
            lambda dep, tr: layers.install(dep, tr, state),
        )
        failed += measured.failed
        attempted += measured.attempted
        slowness = (
            median(r.canary_ms for r in measured.rounds) / wl.REFERENCE_CANARY_MS
        )

        values: Dict[str, float] = {}
        as_measured: Dict[str, float] = {}
        if tracer is not None:
            last = lifecycle.tape.round_queries(args.seed, len(measured.rounds) - 1)
            baseline = [r.query_ms for r in measured.rounds if not r.traced]
            under = [r.query_ms for r in measured.rounds if r.traced]
            extras = layers.after_rounds(
                deployment, last, round_median(baseline), round_median(under)
            )
            tracer.uninstall()
            values = layers.derive(
                deployment, tracer, state, setup, measured, extras
            )
        config = lifecycle.config_used(deployment)
        counts = {
            "rounds": len(measured.rounds),
            "phase_s": measured.phase_s,
            "events_ingested": measured.events_ingested,
            "alerts_emitted": measured.alerts_emitted,
            "events_at_crash": measured.crash.acked_events,
            "alerts_at_crash": measured.crash.alerts_emitted,
            "disk_bytes_at_crash": measured.crash.disk_bytes,
            "box_slowness": slowness,
        }
        # Everything that needs the live deployment is done; stop it before
        # the recoveries so they have the box to themselves.
        deployment.close()
        stopped, deployment = deployment, None

        recovery = lifecycle.recover_crash_copy(
            workload, measured.crash, inputs.probes,
            repeats=1 if traced else wl.RECOVERY_REPEATS, trace=traced,
        )
        failed += recovery.failed
        attempted += recovery.attempted

        if tracer is not None:
            values.update(layers.recovery_layers(recovery))
        else:
            as_measured = end_to_end_metrics(
                setup.setup_s, measured, stopped.commits, stopped.alerts, recovery
            )
            values = at_reference_speed(
                as_measured, slowness, workload.concurrent_ingest
            )
    finally:
        if deployment is not None:
            deployment.close()
        if generator is not None:
            generator.close()
        shutil.rmtree(work, ignore_errors=True)
    declared = contract["per_layer" if traced else "end_to_end"]
    stray = set(values) ^ {m["name"] for m in declared}
    if stray:
        raise RuntimeError(
            f"not both measured and named in BENCHMARK.json: {sorted(stray)}"
        )
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    why = next(w["why"] for w in contract["workloads"] if w["name"] == workload.name)
    record = {
        "stamp": stamp(args, why, config, counts),
        "recovery_s": recovery.recovery_s,
        "as_measured": as_measured,
        "rounds": [_round_record(r) for r in measured.rounds],
        "result": result,
    }
    record["stamp"]["wall_s"] = time.perf_counter() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        tracer.dump(out_dir / "spans.jsonl")
    return result, record


def print_table(record: dict) -> None:
    """The readable form, on standard error (standard output ends with
    the result line)."""
    info = record["stamp"]
    err = sys.stderr
    print(
        f"# {info['workload']} seed={info['seed']} trace={info['trace']} "
        f"rounds={info['rounds']} phase={info['phase_s']:.1f}s "
        f"events={info['events_ingested']} alerts={info['alerts_emitted']} "
        f"box_slowness={info['box_slowness']:.3f} "
        f"wall={info['wall_s']:.1f}s cpus={info['cpu_count']} "
        f"python={info['python']} commit={info['commit'][:12]}",
        file=err,
    )
    print(f"# config: {json.dumps(info['config'])}", file=err)
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}", file=err)
    result = record["result"]
    print(
        f"# attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}",
        file=err,
    )


def parse_args(contract: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in contract["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    ensure_program_on_path()
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"the program under test is not in this checkout: {exc}",
              file=sys.stderr)
        return 2
    contract = load_contract()
    args = parse_args(contract, argv)
    processes.adopt_orphans()
    processes.terminate_on_signals()
    try:
        result, record = run(args, contract)
    finally:
        # Whatever happened above, this run's processes end with it.
        killed = processes.stop_and_reap()
        if killed:
            print(f"# killed {killed} process(es) still running at the end",
                  file=sys.stderr)
    print_table(record)
    print(json.dumps(result))
    return 0


def fix_hash_seed() -> None:
    """Re-execute with ``PYTHONHASHSEED=0`` unless it is already set so.

    String hashes are randomised per process by default, and with them the
    layout of every dict and set keyed by a path or an executable name —
    a few percent of run-to-run difference that is nobody's change.  The
    children (generator, recoveries, shard workers) inherit the setting.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    fix_hash_seed()
    sys.exit(main())
