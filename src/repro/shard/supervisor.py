"""Shard supervision: liveness, quarantine, respawn, re-admission (ISSUE 9).

The :class:`ShardSupervisor` keeps a sharded deployment serving through
worker failures.  Detection is two-pronged:

* **process sentinels** — ``Process.is_alive()`` catches a worker the
  OS already reaped (SIGKILL, OOM, segfault);
* **deadlines** — every command waits on its shard's
  :class:`~repro.shard.channel.Channel` under a deadline that runs from
  the head of the queue, so a *wedged* worker (alive but stuck) surfaces
  as a ``"timeout"`` reply instead of hanging the investigation; a
  periodic heartbeat ping sweeps for both between queries.

Recovery of a dead or wedged shard is one supervised cycle:

1. **quarantine** — the process is SIGKILLed and the shard's channel
   failed: every request in flight on it answers ``"dead"``, and the pipe
   is closed once no thread reads it (a timed-out pipe may still carry a
   late reply; only a fresh pipe to a fresh process is trustworthy again);
2. **respawn** — a new worker starts from the same :class:`ShardSpec`
   (chaos faults cleared: plans target the first incarnation) on a fresh
   channel, and a durable shard replays its own WAL + snapshot + cold
   manifest on the way up, restoring every acknowledged batch; its hello
   is the channel's first reply, awaited under the longer of the command
   and scan deadlines;
3. **replay state** — the coordinator re-broadcasts its full entity
   registry so the new worker's dictionaries are id-identical again
   (the hello's event count is checked against the acked routing count
   to estimate rows a *non-durable* restart lost);
4. **re-admit** — the shard rejoins scatter rounds; restarts, retries,
   timeouts and time-to-recovery are all metered through the metrics
   registry and surface in ``stats()['shard_health']``.

Restarts are bounded (``SystemConfig(shard_max_restarts=...)``): a
crash-looping shard is eventually marked *failed* and left quarantined,
where degraded reads annotate it and fail-fast reads raise.  A shard left
quarantined by a failed respawn is retried by the next sweep while its
budget lasts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.retry import RetryPolicy
from repro.obs import REGISTRY
from repro.storage.persist import entity_record

_M_RESTARTS = REGISTRY.counter(
    "aiql_shard_restarts_total",
    "Supervised worker restarts",
    labelnames=("shard",),
)
_M_TIMEOUTS = REGISTRY.counter(
    "aiql_shard_timeouts_total",
    "Coordinator commands that hit their deadline",
    labelnames=("shard",),
)
_M_RETRIES = REGISTRY.counter(
    "aiql_shard_retries_total",
    "Idempotent command retries after a recovery",
    labelnames=("shard",),
)
_M_RECOVERY_SECONDS = REGISTRY.histogram(
    "aiql_shard_recovery_seconds",
    "Quarantine-to-readmission time of one supervised recovery",
)
_M_FAILED = REGISTRY.counter(
    "aiql_shard_failed_total",
    "Shards marked permanently failed (restart budget exhausted)",
)


@dataclass
class ShardHealth:
    """Mutable supervision record for one shard."""

    shard: int
    restarts: int = 0
    timeouts: int = 0
    retries: int = 0
    quarantined: bool = False
    failed: bool = False
    lost_events: int = 0
    last_recovery_s: Optional[float] = None
    last_error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "restarts": self.restarts,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "failed": self.failed,
            "lost_events": self.lost_events,
            "last_recovery_s": self.last_recovery_s,
            "last_error": self.last_error,
        }


class ShardSupervisor:
    """Watches a :class:`~repro.shard.coordinator.ShardedStore`'s workers.

    A shard's recovery runs under that shard's channel lock — on the
    thread of the command that detected the failure
    (:meth:`~repro.shard.coordinator.ShardedStore._heal`), or on the
    supervisor's own heartbeat thread — so it never races another
    recovery or a send to the same shard, and other shards keep serving.
    It reaches a worker only through the shard's channel
    (:mod:`repro.shard.channel`) and the coordinator's ``_spawn_worker``,
    ``_issue`` and ``_wait``.
    """

    def __init__(self, store, config) -> None:
        self._store = store
        self.max_restarts = config.shard_max_restarts
        self.heartbeat_interval_s = config.shard_heartbeat_interval_s
        self.retry_policy = RetryPolicy(attempts=config.shard_retry_attempts)
        self.health: List[ShardHealth] = [
            ShardHealth(shard=index) for index in range(store.shards)
        ]
        self.leaked_workers = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        if self.heartbeat_interval_s > 0 and self._thread is None:
            self._thread = threading.Thread(
                target=self._heartbeat_loop,
                name="aiql-shard-supervisor",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # -- liveness ----------------------------------------------------------

    def available(self, shard: int) -> bool:
        health = self.health[shard]
        return (
            not health.quarantined
            and not health.failed
            and self._store._channels[shard] is not None
        )

    def note_timeout(self, shard: int) -> None:
        self.health[shard].timeouts += 1
        _M_TIMEOUTS.inc(shard=str(shard))

    def note_retry(self, shard: int) -> None:
        self.health[shard].retries += 1
        _M_RETRIES.inc(shard=str(shard))

    def _heartbeat_loop(self) -> None:  # pragma: no cover - thread timing
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                self.check()
            except Exception:
                # Supervision must never take the deployment down; the
                # next sweep (or the next command) sees the same state.
                pass

    def check(self) -> List[int]:
        """One liveness sweep: sentinel check + heartbeat ping per shard.

        The ping travels the shard's channel like any command, so the
        sweep takes no lock while it waits.  A shard that a failed
        respawn left quarantined is re-attempted while its restart budget
        lasts.  Returns the shards that needed (and got) a recovery
        attempt.
        """
        store = self._store
        recovered = []
        for shard in range(store.shards):
            health = self.health[shard]
            with store._channel_locks[shard]:
                if store._closed:
                    return recovered
                if health.failed:
                    continue
                proc = store._procs[shard]
                if health.quarantined:
                    reason = "sweep: retry after a failed respawn"
                elif proc is None or not proc.is_alive():
                    reason = "sentinel: worker process dead"
                else:
                    reason = None
                if reason is not None:
                    self.recover(shard, reason)
                    recovered.append(shard)
                    continue
            channel, ping = store._issue(
                shard, ("ping",), store.command_timeout_s
            )
            status, _ = store._wait(shard, channel, ping)
            if status != "ok":
                store._heal(shard, channel, f"heartbeat {status}")
                recovered.append(shard)
        return recovered

    # -- recovery ----------------------------------------------------------

    def recover(self, shard: int, reason: str) -> bool:
        """Quarantine → respawn → replay → re-admit one shard.

        Caller must hold the shard's channel lock.  Returns ``True``
        when the shard is serving again; ``False`` leaves it quarantined
        (respawn failed; the next sweep retries it) or failed (restart
        budget exhausted).
        """
        store = self._store
        health = self.health[shard]
        health.last_error = reason
        if health.failed:
            return False
        started = time.perf_counter()
        health.quarantined = True
        self._quarantine(shard)
        if health.restarts >= self.max_restarts:
            health.failed = True
            _M_FAILED.inc()
            return False
        health.restarts += 1
        _M_RESTARTS.inc(shard=str(shard))
        try:
            channel, waiter = store._spawn_worker(shard, faults=())
            status, hello = store._wait(shard, channel, waiter)
            if status != "ok":
                raise OSError(f"respawn hello {status}")
            # Replay coordinator state the worker cannot recover alone:
            # the full entity registry (durable shards re-intern it as a
            # no-op; RAM-only shards need it to resolve entity filters).
            # Records still pending for the next commit are sent again
            # then, which re-interns them as a no-op.  It is sent only
            # once the hello is in: a durable worker's hello carries the
            # registry too, and two writes larger than the pipe's buffer,
            # each waiting for the other side to read, never finish.
            records = [
                entity_record(e)
                for e in sorted(store.registry, key=lambda e: e.id)
            ]
            replay = channel.send(("entities", records), store.command_timeout_s)
            status, _ = store._wait(shard, channel, replay)
            if status != "ok":
                raise OSError(f"entity replay {status}")
        except (OSError, EOFError, BrokenPipeError) as exc:
            health.last_error = f"{reason}; respawn failed: {exc}"
            self._quarantine(shard)
            return False
        recovered_events = hello.get("events", 0)
        health.lost_events = max(
            0, store._shard_acked[shard] - recovered_events
        )
        elapsed = time.perf_counter() - started
        health.last_recovery_s = elapsed
        health.quarantined = False
        _M_RECOVERY_SECONDS.observe(elapsed)
        return True

    def _quarantine(self, shard: int) -> None:
        """SIGKILL the shard's process, then fail its channel (idempotent).

        The kill comes first: a thread still reading the pipe sees EOF and
        closes it, so a pipe is never closed under its reader.
        """
        store = self._store
        proc = store._procs[shard]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - unkillable worker
                    self.leaked_workers += 1
            store._procs[shard] = None
        channel = store._channels[shard]
        if channel is not None:
            channel.fail()
            store._channels[shard] = None

    # -- introspection -----------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """The ``stats()['shard_health']`` view."""
        store = self._store
        per_shard = []
        for shard, health in enumerate(self.health):
            entry = health.to_dict()
            proc = store._procs[shard]
            entry["alive"] = proc is not None and proc.is_alive()
            per_shard.append(entry)
        return {
            "read_policy": store.read_policy,
            "restarts": sum(h.restarts for h in self.health),
            "timeouts": sum(h.timeouts for h in self.health),
            "retries": sum(h.retries for h in self.health),
            "failed_shards": [h.shard for h in self.health if h.failed],
            "lost_events": sum(h.lost_events for h in self.health),
            "leaked_workers": self.leaked_workers,
            "degraded_scans": store._degraded_total,
            "per_shard": per_shard,
        }
