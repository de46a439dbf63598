"""No process of a run outlives it: orphans come back and are ended."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from benchmarks.e2e import REPO_ROOT

# Runs in a process of its own: ``stop_and_reap`` waits for *every* child
# of its caller, which must not be the test runner.
SCRIPT = """
import json, subprocess, sys, multiprocessing
from benchmarks.e2e import processes

processes.adopt_orphans()
processes.terminate_on_signals()
# a child that leaves a grandchild behind and exits
parent = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys;"
     "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],"
     " stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL);"
     "print(p.pid)"],
    capture_output=True, text=True,
)
orphan = int(parent.stdout)
# the resource tracker a spawn-started worker brings with it
worker = multiprocessing.get_context("spawn").Process(target=print, args=("",))
worker.start()
worker.join()
from multiprocessing import resource_tracker
tracker = resource_tracker._resource_tracker._pid
before = processes.children()
killed = processes.stop_and_reap(grace_s=0.2)
print(json.dumps({"orphan": orphan, "tracker": tracker, "before": before,
                  "killed": killed, "after": processes.children()}))
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_orphans_and_the_resource_tracker_end_with_the_run():
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=REPO_ROOT, capture_output=True,
        text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT)},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    # the orphan was adopted, the tracker was still up: both were children
    assert report["orphan"] in report["before"]
    assert report["tracker"] in report["before"]
    assert report["killed"] == 1  # the sleeper; the tracker ends by itself
    assert report["after"] == []
    assert not _alive(report["orphan"])
    assert not _alive(report["tracker"])
    assert time.perf_counter() - started < 30
