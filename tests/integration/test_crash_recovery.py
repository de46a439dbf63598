"""Recovery smoke test: SIGKILL a live streaming ingest, recover cleanly.

The real crash (the CI recovery-smoke job): a child process streams
batches into a durable data dir and acknowledges every committed
watermark; the parent kills it with SIGKILL mid-run — no atexit hooks, no
flushes, no goodbye — then recovers the data dir in-process and asserts
that no acknowledged batch was lost and the recovered stream is
internally consistent.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.core.system import AIQLSystem
from repro.storage.filters import EventFilter
from tests.oracle import rows

REPO_ROOT = Path(__file__).resolve().parents[2]
CHILD = REPO_ROOT / "tests" / "integration" / "crash_ingest_child.py"
MIN_ACKED_BATCHES = 5
TIMEOUT_S = 60.0


def _wait_for_acks(acks_path: Path, child: subprocess.Popen) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        if child.poll() is not None:
            raise AssertionError(
                f"ingest child exited early with {child.returncode}"
            )
        if acks_path.exists():
            lines = acks_path.read_text().splitlines()
            if len(lines) >= MIN_ACKED_BATCHES:
                return
        time.sleep(0.05)
    raise AssertionError("ingest child never acknowledged enough batches")


def test_sigkill_mid_ingest_loses_no_acknowledged_batch(tmp_path):
    data_dir = tmp_path / "data"
    acks_path = tmp_path / "acks.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    child = subprocess.Popen(
        [sys.executable, str(CHILD), str(data_dir), str(acks_path)],
        env=env,
        cwd=str(REPO_ROOT),
    )
    try:
        _wait_for_acks(acks_path, child)
    finally:
        if child.poll() is None:
            os.kill(child.pid, signal.SIGKILL)
        child.wait()

    # Only complete ack lines count: the kill may tear the last write.
    lines = acks_path.read_text().split("\n")
    lines.pop()  # "" after a trailing newline, or a torn final line
    acked = [int(line) for line in lines]
    assert acked, "no complete acknowledgements recorded"
    last_acked = max(acked)

    with AIQLSystem.recover(str(data_dir)) as recovered:
        total = recovered.ingestor.events_ingested
        # every acknowledged batch survived ...
        assert total >= last_acked, (
            f"recovery lost acknowledged events: {total} < {last_acked}"
        )
        # ... and what survived is a consistent stream prefix: contiguous
        # event ids, contiguous per-agent seqs, scan == watermark.
        events = rows(recovered.store, EventFilter())
        assert len(events) == total == len(recovered.store)
        assert [e.event_id for e in events] == list(range(1, total + 1))
        assert [e.seq for e in events] == list(range(1, total + 1))
        # and the deployment keeps ingesting where the stream left off
        proc = recovered.ingestor.process(1, 101, "streamer.exe")
        fobj = recovered.ingestor.file(1, "/var/log/stream.log")
        fresh = recovered.ingestor.emit(
            1, events[-1].start_time + 60.0, "write", proc, fobj
        )
        assert fresh.event_id == total + 1
