"""The shard channel protocol, checked against a model.

:class:`~repro.shard.channel.Channel` runs over a fake pipe and a virtual
clock.  The fake plays a worker that answers its requests strictly in
order, echoing each request's id; its ``poll`` advances the clock to the
next arrival (or by the whole timeout) instead of sleeping, so deadlines
are exact and nothing waits on wall time.  Hypothesis draws the order of
sends, replies, EOFs, unpicklable messages and replies, and clock steps;
threads appear only where a property is about concurrent waiters.

Properties:

* every reply reaches the waiter that sent its request, in FIFO order;
* no wait times out while the head request is within its own budget,
  and a queued request's budget starts when the reply ahead of it
  arrives;
* EOF or a bad pickle answers every in-flight waiter ``"dead"`` exactly
  once, and the pipe is closed only after the reader leaves;
* a withdrawn waiter (its message could not be pickled) never receives a
  reply.

The cross-process layer, with real workers, is ``test_channels.py``.
"""

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.shard import channel as channel_module
from repro.shard.channel import Channel, Waiter

EOF = object()  # the worker died: recv raises EOFError from here on
BAD = object()  # a reply that cannot be unpickled


class Clock:
    """Virtual time; only the fake pipe moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class CountingWaiter(Waiter):
    """A waiter that records every reply handed to it."""

    __slots__ = ("answers", "_reply")
    created: List["CountingWaiter"] = []

    def __init__(self, budget, since) -> None:
        self.answers = []
        super().__init__(budget, since)
        CountingWaiter.created.append(self)

    @property
    def reply(self):
        return self._reply

    @reply.setter
    def reply(self, value) -> None:
        if value is not None:
            self.answers.append(value)
        self._reply = value


class WatchedCondition(threading.Condition):
    """The channel's condition, counting the threads asleep on it."""

    def __init__(self) -> None:
        super().__init__(threading.Lock())
        self.sleepers = 0

    def wait(self, timeout=None):
        self.sleepers += 1
        try:
            return super().wait(timeout)
        finally:
            self.sleepers -= 1


class FakeConn:
    """The coordinator's end of a pipe to a scripted worker.

    ``requests`` is what the worker received, in order; ``inbox`` holds
    ``(arrival time, item)`` for what is on its way back; ``delivered``
    the arrival time of every reply the channel has read.  With
    ``blocking`` off, a ``recv`` on an empty pipe is a test error (the
    single-threaded model gives every request a finite budget, so the
    channel polls first); with it on, ``recv`` blocks until
    :meth:`arrive`.
    """

    def __init__(self, clock: Clock, blocking: bool = False) -> None:
        self.clock = clock
        self.blocking = blocking
        self.channel: Optional[Channel] = None
        self.requests: List[tuple] = []
        self.inbox = deque()
        self.delivered: List[float] = []
        self.closes: List[bool] = []  # channel.reading at each close()
        self.closed = False
        self.dead_at: Optional[float] = None
        self.ready = threading.Condition()
        self.recv_blocked = threading.Event()

    def arrive(self, item, at: float = 0.0) -> None:
        with self.ready:
            self.inbox.append((at, item))
            if item is EOF:
                self.dead_at = at
            self.ready.notify_all()

    def send(self, message) -> None:
        if self.closed:
            raise OSError("handle is closed")
        pickle.dumps(message)
        if self.dead_at is not None and self.clock.now >= self.dead_at:
            raise BrokenPipeError(32, "Broken pipe")
        self.requests.append(message)

    def poll(self, timeout: float) -> bool:
        if self.closed:
            raise OSError("handle is closed")
        with self.ready:
            if self.inbox and self.inbox[0][0] <= self.clock.now + timeout:
                self.clock.now = max(self.clock.now, self.inbox[0][0])
                return True
        self.clock.now += timeout
        return False

    def recv(self):
        if self.closed:
            raise OSError("handle is closed")
        with self.ready:
            if not self.inbox:
                assert self.blocking, "recv on an empty pipe would block"
                self.recv_blocked.set()
                self.ready.wait_for(lambda: self.inbox)
            at, item = self.inbox[0]
            self.clock.now = max(self.clock.now, at)
            if item is EOF:
                raise EOFError
            self.inbox.popleft()
            self.delivered.append(at)
        if item is BAD:
            raise pickle.UnpicklingError("truncated reply")
        return item

    def close(self) -> None:
        self.closes.append(self.channel.reading)
        self.closed = True


def open_channel(blocking: bool = False):
    CountingWaiter.created = []
    clock = Clock()
    conn = FakeConn(clock, blocking=blocking)
    channel = Channel(0, conn, clock=clock)
    conn.channel = channel
    return channel, conn, clock


def counting():
    """Channels build :class:`CountingWaiter` while this is active."""
    return mock.patch.object(channel_module, "Waiter", CountingWaiter)


def reply_to(conn: FakeConn, index: int, at: float = 0.0) -> None:
    """The worker answers its ``index``-th request, echoing the id."""
    conn.arrive(("ok", conn.requests[index][1]), at)


def assert_closed_only_unread(conn: FakeConn) -> None:
    assert not any(conn.closes), "the pipe was closed under its reader"


# -- single-threaded examples ------------------------------------------------


def test_replies_reach_their_waiters_in_fifo_order():
    channel, conn, _ = open_channel()
    with counting():
        waiters = [channel.send(("req", k), 1.0) for k in range(3)]
    for k in range(3):
        reply_to(conn, k, 0.25 * k)
    for k in reversed(range(3)):  # the last waiter reads every reply
        assert channel.wait(waiters[k]) == ("ok", k)
    assert [w.answers for w in waiters] == [[("ok", k)] for k in range(3)]
    assert not channel.waiters and not channel.reading and channel.open


def test_a_queued_budget_starts_when_the_reply_ahead_arrives():
    """B is sent at 0 with a 1 s budget behind A, whose reply comes at
    0.75; B's own budget runs from then, so its reply at 1.5 is in time."""
    channel, conn, clock = open_channel()
    a = channel.send(("req", "a"), 1.0)
    b = channel.send(("req", "b"), 1.0)
    reply_to(conn, 0, 0.75)
    reply_to(conn, 1, 1.5)
    assert channel.wait(b) == ("ok", "b")
    assert channel.wait(a) == ("ok", "a")
    assert clock.now == 1.5


def test_a_wait_times_out_only_when_the_head_overruns_its_budget():
    channel, conn, clock = open_channel()
    a = channel.send(("req", "a"), 2.0)
    b = channel.send(("req", "b"), 0.5)
    reply_to(conn, 0, 1.5)  # A in time; B's budget then runs to 2.0
    status, _ = channel.wait(b)
    assert status == "timeout" and clock.now == 2.0
    assert channel.wait(a) == ("ok", "a")
    reply_to(conn, 1, 3.0)  # late: it still lands on B, which stayed queued
    clock.now = 3.0
    assert channel.wait(b) == ("ok", "b")


def test_eof_answers_every_in_flight_waiter_dead_once():
    channel, conn, _ = open_channel()
    with counting():
        waiters = [channel.send(("req", k), 1.0) for k in range(3)]
    reply_to(conn, 0, 0.25)
    conn.arrive(EOF, 0.5)
    assert channel.wait(waiters[2])[0] == "dead"
    assert waiters[0].answers == [("ok", 0)]
    for waiter in waiters[1:]:
        assert [status for status, _ in waiter.answers] == ["dead"]
    assert channel.wait(waiters[1])[0] == "dead"
    assert not channel.open and conn.closed and not channel.waiters
    assert channel.send(("req", 3), 1.0) is None
    assert_closed_only_unread(conn)


def test_a_bad_pickle_fails_the_channel_and_raises_to_its_reader():
    channel, conn, _ = open_channel()
    with counting():
        waiters = [channel.send(("req", k), 1.0) for k in range(3)]
    conn.arrive(BAD, 0.25)
    try:
        channel.wait(waiters[1])
    except pickle.UnpicklingError:
        pass
    else:
        raise AssertionError("the reader did not see the bad reply")
    for waiter in waiters:
        assert [status for status, _ in waiter.answers] == ["dead"]
    assert not channel.open and conn.closed
    assert_closed_only_unread(conn)


def test_a_withdrawn_waiter_never_receives_a_reply():
    channel, conn, _ = open_channel()
    with counting():
        a = channel.send(("req", "a"), 1.0)
        try:
            channel.send(("req", lambda: None), 1.0)
        except Exception:
            pass
        else:
            raise AssertionError("an unpicklable message was sent")
        withdrawn = CountingWaiter.created[-1]
        c = channel.send(("req", "c"), 1.0)
    assert [m[1] for m in conn.requests] == ["a", "c"]
    reply_to(conn, 0, 0.25)
    reply_to(conn, 1, 0.5)
    assert channel.wait(c) == ("ok", "c")
    assert channel.wait(a) == ("ok", "a")
    assert withdrawn.answers == [] and channel.open


def test_a_broken_pipe_fails_the_channel():
    channel, conn, _ = open_channel()
    with counting():
        a = channel.send(("req", "a"), 1.0)
    conn.dead_at = 0.0
    assert channel.send(("req", "b"), 1.0) is None
    assert not channel.open and conn.closed
    assert [status for status, _ in a.answers] == ["dead"]
    assert channel.wait(a)[0] == "dead"


def test_a_hello_is_the_first_reply():
    """A worker's hello answers a waiter pushed before any request."""
    channel, conn, _ = open_channel()
    hello = channel.push(4.0)
    ping = channel.send(("ping",), 0.25)
    conn.arrive(("ok", "hello"), 3.0)  # slow start: within the hello's budget
    conn.arrive(("ok", "pong"), 3.25)
    assert channel.wait(ping) == ("ok", "pong")
    assert channel.wait(hello) == ("ok", "hello")


# -- the model -----------------------------------------------------------------

QUARTERS = st.integers(0, 12).map(lambda n: n / 4)  # exact binary fractions
BUDGETS = st.integers(1, 12).map(lambda n: n / 4)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), BUDGETS, st.booleans()),
        st.tuples(st.just("reply"), QUARTERS),
        st.tuples(st.just("reply"), QUARTERS),
        st.tuples(st.just("eof"), QUARTERS),
        st.tuples(st.just("bad"), QUARTERS),
        st.tuples(st.just("wait"), st.integers(0, 30)),
        st.tuples(st.just("wait"), st.integers(0, 30)),
        st.tuples(st.just("tick"), QUARTERS),
    ),
    max_size=40,
)


@dataclass
class Request:
    waiter: CountingWaiter
    budget: float
    sent_at: float
    ident: object


class Model:
    """Drives one channel through drawn operations, checking as it goes."""

    def __init__(self, hello: Optional[float]) -> None:
        self.channel, self.conn, self.clock = open_channel()
        self.sent: List[Request] = []  # written requests, in pipe order
        self.withdrawn: List[CountingWaiter] = []
        self.answered = 0  # requests the worker has answered
        self.last_at = 0.0
        self.worker_alive = True
        self.raised = False
        if hello is not None:
            waiter = self.channel.push(hello)
            self.sent.append(Request(waiter, hello, 0.0, "hello"))
            self.conn.requests.append(("hello", "hello"))

    def schedule(self, item, delay: float) -> None:
        self.last_at = max(self.clock.now, self.last_at) + delay
        self.conn.arrive(item, self.last_at)

    def step(self, op) -> None:
        kind = op[0]
        if kind == "send":
            _, budget, picklable = op
            ident = len(self.sent)
            message = ("req", ident if picklable else (lambda: None))
            try:
                waiter = self.channel.send(message, budget)
            except Exception:
                assert not picklable and self.channel.open
                self.withdrawn.append(CountingWaiter.created[-1])
                return
            if waiter is None:
                assert not self.channel.open
            else:
                assert picklable
                self.sent.append(Request(waiter, budget, self.clock.now, ident))
        elif kind in ("reply", "bad"):
            if self.worker_alive and self.answered < len(self.conn.requests):
                if kind == "reply":
                    ident = self.conn.requests[self.answered][1]
                    self.schedule(("ok", ident), op[1])
                else:
                    self.schedule(BAD, op[1])
                    self.worker_alive = False
                self.answered += 1
        elif kind == "eof":
            if self.worker_alive:
                self.schedule(EOF, op[1])
                self.worker_alive = False
        elif kind == "wait":
            if self.sent:
                self.wait(self.sent[op[1] % len(self.sent)])
        else:
            self.clock.now += op[1]
        self.check()

    def wait(self, request: Request) -> None:
        try:
            status, payload = self.channel.wait(request.waiter)
        except pickle.UnpicklingError:
            assert not self.raised
            self.raised = True
            assert not self.channel.open
            return
        if status == "ok":
            assert payload == request.ident, "a reply reached another waiter"
        elif status == "timeout":
            # The head is the first request whose reply has not been read;
            # its budget runs from its send or the reply ahead of it.
            delivered = self.conn.delivered
            head = self.sent[len(delivered)]
            started = max(head.sent_at, delivered[-1] if delivered else 0.0)
            assert self.clock.now >= started + head.budget - 1e-9, (
                "timed out while the head was within its budget"
            )
            assert request.waiter.reply is None
            assert request.waiter in self.channel.waiters
        else:
            assert status == "dead" and not self.channel.open

    def check(self) -> None:
        channel = self.channel
        assert not channel.reading
        assert_closed_only_unread(self.conn)
        for waiter in self.withdrawn:
            assert waiter.answers == [] and waiter not in channel.waiters
        statuses = []
        for request in self.sent:
            answers = request.waiter.answers
            assert len(answers) <= 1, "a waiter was answered twice"
            statuses.append(answers[0][0] if answers else None)
            if answers and answers[0][0] == "ok":
                assert answers[0][1] == request.ident
        # FIFO: answered requests form a prefix — "ok"s, then "dead"s.
        order = {"ok": 0, "dead": 1, None: 2}
        assert statuses == sorted(statuses, key=order.__getitem__)
        assert [r.waiter for r in self.sent if r.waiter.reply is None] == list(
            channel.waiters
        )
        if not channel.open:
            assert None not in statuses, "a failed channel left a waiter"
            assert self.conn.closed

    def drain(self) -> None:
        """Wait on every request still unanswered, in send order; after a
        timeout the worker answers late (or its EOF arrives)."""
        for request in self.sent:
            while request.waiter.reply is None and not self.raised:
                self.wait(request)
                self.check()
                if request.waiter.reply is not None or self.raised:
                    break
                if self.worker_alive and self.answered < len(self.conn.requests):
                    self.step(("reply", 0.25))
                assert self.conn.inbox, "an unanswered request has no reply"
                self.clock.now = max(self.clock.now, self.conn.inbox[0][0])


@settings(max_examples=300, deadline=None)
@given(hello=st.one_of(st.none(), BUDGETS), ops=OPS)
def test_model(hello, ops):
    with counting():
        model = Model(hello)
        for op in ops:
            model.step(op)
        model.drain()


# -- concurrent waiters ------------------------------------------------------


def until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "gave up waiting"
        time.sleep(0.001)


def wait_in_threads(channel, conn, waiters, order):
    """Each waiter waits on its own thread, started in ``order``: the
    first becomes the reader and blocks in ``recv``; every later one is
    asleep as a follower before the next starts.  Returns the replies
    and whether any thread outlived its join."""
    replies = [None] * len(waiters)
    errors = []

    def body(index):
        try:
            replies[index] = channel.wait(waiters[index])
        except BaseException as exc:  # reported to the test
            errors.append(exc)

    threads = []
    for rank, index in enumerate(order):
        thread = threading.Thread(target=body, args=(index,), daemon=True)
        threads.append(thread)
        thread.start()
        if rank == 0:
            until(conn.recv_blocked.is_set)
        else:
            until(lambda: channel.cond.sleepers == rank)
    return threads, replies, errors


def join_all(channel, conn, threads, timeout_s: float = 5.0) -> bool:
    """Join every thread; on a hang, free the stragglers and say so."""
    deadline = time.monotonic() + timeout_s
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    hung = any(thread.is_alive() for thread in threads)
    if hung:
        conn.arrive(EOF)
        channel.fail()
        for thread in threads:
            thread.join(timeout_s)
    return hung


def test_a_reader_that_leaves_wakes_its_followers():
    """The reader's own reply comes first; the follower behind it must be
    woken to read its own."""
    channel, conn, _ = open_channel(blocking=True)
    channel.cond = WatchedCondition()
    waiters = [channel.send(("req", k), None) for k in range(2)]
    threads, replies, errors = wait_in_threads(channel, conn, waiters, [0, 1])
    reply_to(conn, 0)
    reply_to(conn, 1)
    assert not join_all(channel, conn, threads), "a follower was stranded"
    assert not errors
    assert replies == [("ok", 0), ("ok", 1)]
    assert not channel.waiters and not channel.reading


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(2, 4).flatmap(
        lambda k: st.permutations(list(range(k)))
    ),
    eof_after=st.one_of(st.none(), st.integers(0, 4)),
)
def test_concurrent_waiters_each_get_their_own_reply(order, eof_after):
    """k threads wait on their own requests at once, started in a drawn
    order; the worker answers in order and may die after ``eof_after``
    replies.  Each thread gets its own reply or ``"dead"``, each waiter
    is answered once, and the pipe closes only once nobody reads it."""
    with counting():
        channel, conn, _ = open_channel(blocking=True)
        channel.cond = WatchedCondition()
        waiters = [channel.send(("req", k), None) for k in range(len(order))]
    threads, replies, errors = wait_in_threads(channel, conn, waiters, order)
    answered = len(order) if eof_after is None else min(eof_after, len(order))
    for k in range(answered):
        reply_to(conn, k)
    if eof_after is not None:
        conn.arrive(EOF)
    assert not join_all(channel, conn, threads), "a waiter was stranded"
    assert not errors
    for k, waiter in enumerate(waiters):
        expected = "ok" if k < answered else "dead"
        assert [status for status, _ in waiter.answers] == [expected]
        assert replies[k][0] == expected
        if expected == "ok":
            assert replies[k] == ("ok", k)
    assert not channel.waiters and not channel.reading
    failed = answered < len(order)  # some waiter read the EOF
    assert channel.open != failed and conn.closed == failed
    assert_closed_only_unread(conn)
