"""No process of the benchmark outlives the run that started it.

The harness starts a generator child, recovery children and — through
the program — ``spawn``-started shard workers, and ``multiprocessing``
starts a resource-tracker process beside those that only exits once its
parent has (so, left alone, *after* the run).  Each is stopped and waited
for where it is used; this module is the net under that, on every way out
of a run:

* ``adopt_orphans`` makes this process the reaper of its descendants, so
  a grandchild whose parent has exited (a recovery child's tracker, a
  worker of a deployment that failed half-way) comes back here instead of
  leaving the run's process tree;
* ``terminate_on_signals`` turns SIGTERM/SIGHUP into ``SystemExit`` so
  that the ``finally`` blocks run;
* ``stop_and_reap`` stops the resource tracker, gives whatever is still
  running a moment to end, kills what does not, and waits for every child.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import List

PR_SET_CHILD_SUBREAPER = 36
GRACE_S = 5.0


def adopt_orphans() -> None:
    """Become the subreaper of this process's descendants (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it orphans go to init; the direct children still end


def terminate_on_signals() -> None:
    def leave(signum, frame):
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, leave)


def children() -> List[int]:
    """Live and unreaped children of this process, from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                # "pid (comm) state ppid ...": comm may hold spaces
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return  # never started (or an interpreter that keeps it elsewhere)
    # The tracker ends when the last writer of its pipe has closed it
    # (the workers hold it too); ``stop_and_reap`` waits for it.
    os.close(fd)
    tracker._fd = tracker._pid = None


def _reap() -> None:
    """Collect every child that has already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_and_reap(grace_s: float = GRACE_S) -> int:
    """End every child and wait for it; how many had to be killed.

    Call last: it takes the exit status of any child still held by a
    ``Popen`` or a ``multiprocessing.Process``.
    """
    _stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    _reap()
    while children() and time.monotonic() < deadline:
        time.sleep(0.02)
        _reap()
    # Adopted orphans can have children of their own, which arrive here
    # once their parent is gone: kill until nothing is left.
    killed = 0
    while True:
        _reap()
        left = children()
        if not left:
            return killed
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                killed += 1
            except (ProcessLookupError, ChildProcessError):
                pass
