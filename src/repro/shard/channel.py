"""The request/reply channel to one shard worker.

A worker answers the requests on its pipe strictly in order, each with
one ``(status, payload)`` reply; its first reply, the *hello*, answers a
waiter pushed when it was spawned.  :class:`Channel` is the coordinator's
end.  It works over any ``conn`` with ``send``/``poll``/``recv``/``close``
(a :class:`multiprocessing.connection.Connection` in production) and an
injected ``clock``, so it is checked against a fake pipe and a virtual
clock (``tests/shard/test_channel_model.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Optional, Tuple

Reply = Tuple[str, object]


class Waiter:
    """One request in flight on a channel; ``reply`` is set exactly once.

    ``budget`` is the request's deadline in seconds (``None``: none);
    ``since`` is when it reached the head of its channel's queue, from
    which that budget runs.
    """

    __slots__ = ("reply", "budget", "since")

    def __init__(self, budget: Optional[float], since: Optional[float]) -> None:
        self.reply: Optional[Reply] = None
        self.budget = budget
        self.since = since


class Channel:
    """One worker incarnation's pipe, shared by every thread that asks it.

    ``waiters`` — the requests in flight, in send order — matches each
    reply to its request, so requests from different threads pipeline on
    the pipe.  Callers serialize :meth:`send` (the coordinator holds the
    shard's channel lock), so the deque order is the byte order on the
    pipe.

    Deadlines: the worker works on one request at a time, so a request's
    budget runs from when it reaches the head of the queue — when the
    reply ahead of it arrives, or when it is sent to an idle worker — and
    time spent queued behind a long scan never counts against a ping or a
    commit.  A wait times out only once the request at the head has
    overrun its own budget: the worker is then wedged, and every request
    behind it is stuck too.

    Reading is leader/follower: a waiting thread whose reply has not
    arrived becomes the channel's one reader while nobody else reads; it
    hands every reply to the head waiter and stops at its own, so a lone
    request reads its own reply with no thread hop.  The others wait on
    ``cond`` until their reply is handed over or the reader leaves.  EOF
    (or a closed pipe) fails every waiter with ``"dead"``; the pipe is
    closed only once no thread reads it.
    """

    __slots__ = ("shard", "conn", "clock", "waiters", "open", "reading", "cond")

    def __init__(
        self, shard: int, conn, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.shard = shard
        self.conn = conn
        self.clock = clock
        self.waiters: Deque[Waiter] = deque()
        self.open = True
        self.reading = False
        self.cond = threading.Condition(threading.Lock())

    def push(self, budget: Optional[float]) -> Optional[Waiter]:
        """A waiter for the next reply, ``None`` on a failed pipe."""
        with self.cond:
            if not self.open:
                return None
            since = None if self.waiters else self.clock()
            waiter = Waiter(budget, since)
            self.waiters.append(waiter)
            return waiter

    def send(self, message: tuple, budget: Optional[float]) -> Optional[Waiter]:
        """Queue a waiter and write ``message``; ``None`` when the pipe is
        gone, which fails the channel.

        A message that cannot be pickled writes nothing: its waiter is
        withdrawn and the error raised.
        """
        waiter = self.push(budget)
        if waiter is None:
            return None
        try:
            self.conn.send(message)
        except (OSError, ValueError):
            self._withdraw(waiter)
            self.fail()
            return None
        except BaseException:
            self._withdraw(waiter)
            raise
        return waiter

    def _withdraw(self, waiter: Waiter) -> None:
        """Forget ``waiter``, whose request never reached the pipe."""
        with self.cond:
            if self.waiters and self.waiters[-1] is waiter:
                self.waiters.pop()

    def fail(self) -> None:
        """The pipe is gone: every request in flight answers ``"dead"``."""
        dead = ("dead", f"shard {self.shard} died mid-command")
        with self.cond:
            self.open = False
            while self.waiters:
                self.waiters.popleft().reply = dead
            if not self.reading:
                self._close()
            self.cond.notify_all()

    def _close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _head_left(self) -> Optional[float]:
        """Seconds before the head request overruns its budget (``None``:
        it has none).  Caller holds ``cond``; the queue is not empty."""
        head = self.waiters[0]
        if head.budget is None:
            return None
        return head.since + head.budget - self.clock()

    def wait(self, waiter: Waiter) -> Reply:
        """``waiter``'s reply: the worker's ``"ok"``/``"err"``, ``"dead"``
        once the pipe broke, or ``"timeout"`` once the head request has
        overrun its budget (the worker may be wedged).

        A timed-out waiter stays queued, so a late reply still lands on it
        and the replies behind it stay matched.
        """
        reply = self._reply(waiter)
        if reply is None:
            return "timeout", f"shard {self.shard} blew its deadline"
        return reply

    def _reply(self, waiter: Waiter) -> Optional[Reply]:
        cond = self.cond
        with cond:
            while waiter.reply is None and self.reading:
                left = self._head_left()
                if left is not None and left <= 0:
                    return None
                cond.wait(left)
            if waiter.reply is not None:
                return waiter.reply
            self.reading = True
        try:
            return self._lead(waiter)
        finally:
            with cond:
                self.reading = False
                if not self.open:
                    self._close()
                cond.notify_all()

    def _lead(self, waiter: Waiter) -> Optional[Reply]:
        """Read replies, in order, until ``waiter``'s arrives."""
        conn = self.conn
        cond = self.cond
        while True:
            with cond:
                left = self._head_left()
            try:
                if left is not None and not conn.poll(max(0.0, left)):
                    with cond:
                        if waiter.reply is not None:
                            return waiter.reply
                        left = self._head_left()
                    if left <= 0:
                        return None
                    continue
                reply = conn.recv()
            except (EOFError, OSError):
                self.fail()
                return waiter.reply
            except BaseException:
                # A reply that cannot be unpickled is lost to its waiter:
                # fail the channel rather than hand later replies to the
                # wrong requests.
                self.fail()
                raise
            with cond:
                if self.waiters:
                    self.waiters.popleft().reply = reply
                    if self.waiters:
                        self.waiters[0].since = self.clock()
                if waiter.reply is not None:
                    return waiter.reply
                cond.notify_all()
