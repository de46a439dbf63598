"""Seeded inputs: the recorded event tape and the per-round query stream.

**Event tape.**  The workload generators (``BackgroundGenerator`` + the
five attack injectors) spend their time in RNG draws and string
formatting.  Recording them once per ``--seed`` against a scratch entity
registry and replaying the recording into the deployment under test
keeps that cost out of every timed ingest
segment: what a replay pays is the program's own path — entity
observation (registry dedup), ``build_event`` and the batch commits.

A tape is a list of records.  ``(EMIT, agent, t, op, subject_slot,
object_slot, duration, amount, failure_code)`` is one event;
``(OBSERVE, method, slot, args, kwargs)`` is one entity observation whose
result lands in ``slots[slot]``.  Every observation the generator made is
kept (agents re-observe entities constantly and the ingestor's dedup of
that is part of the path), and a slot is always observed before an event
refers to it, so any prefix of a tape replays on its own.

**Query stream.**  Round ``r`` of seed ``s`` is a deterministic shuffle
of ``POINTS_PER_ROUND`` point queries (the corpus, verbatim),
``HUNTS_PER_ROUND`` hunts (corpus multievent queries made enterprise-wide
over a widened window) and ``SWEEPS_PER_ROUND`` sweeps (a two-pattern
file-flow join with no entity predicate over a multi-day window).  The
composition of a round is fixed — the same point queries, the same hunts,
every sweep window length equally often — and only windows, thresholds
and the order of issue are drawn per ``(seed, round)``, so the rounds of
a run are samples of one quantity.
"""

from __future__ import annotations

import datetime as _dt
import functools
import random
import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.model.entities import EntityRegistry
from repro.model.time import DAY
from repro.workload.attacks import inject_apt2, inject_apt_case_study
from repro.workload.behaviors import (
    inject_abnormal_behaviors,
    inject_dependency_behaviors,
    inject_malware_behaviors,
)
from repro.workload.corpus import ALL_QUERIES, CorpusQuery
from repro.workload.generator import BackgroundGenerator, GeneratorConfig
from repro.workload.topology import BASE_DAY, HOSTS, SIMULATION_DAYS

EMIT = 0
OBSERVE = 1


class TapeRecorder:
    """The ``Ingestor`` surface the generators use, recording every call."""

    def __init__(self) -> None:
        # Entities come from a scratch registry, so the generators get real
        # entity objects; the events themselves are only written down (the
        # deployment under test validates them when the tape is replayed).
        self.registry = EntityRegistry()
        self._slot_of: dict = {}
        self.records: List[tuple] = []
        self.events = 0

    @property
    def events_ingested(self) -> int:
        return self.events

    def _observe(self, method: str, args: tuple, kwargs: dict):
        entity = getattr(self.registry, method)(*args, **kwargs)
        slot = self._slot_of.setdefault(entity.id, len(self._slot_of))
        self.records.append((OBSERVE, method, slot, args, kwargs))
        return entity

    def process(self, *args, **kwargs):
        return self._observe("process", args, kwargs)

    def file(self, *args, **kwargs):
        return self._observe("file", args, kwargs)

    def connection(self, *args, **kwargs):
        return self._observe("connection", args, kwargs)

    def registry_value(self, *args, **kwargs):
        return self._observe("registry_value", args, kwargs)

    def pipe(self, *args, **kwargs):
        return self._observe("pipe", args, kwargs)

    def emit(
        self,
        agent_id,
        timestamp,
        operation,
        subject,
        obj,
        duration=0.0,
        amount=0,
        failure_code=0,
    ):
        self.records.append(
            (
                EMIT, agent_id, timestamp, operation,
                self._slot_of[subject.id], self._slot_of[obj.id],
                duration, amount, failure_code,
            )
        )
        self.events += 1


@dataclass(frozen=True)
class Tape:
    """A finite recording: replayable as a whole or in order of its cuts."""

    records: Tuple[tuple, ...]
    events: int


def record_base(seed: int, events_per_host_day: int, days: int) -> Tape:
    """The historical corpus: ``days`` of background plus the five attacks.

    Same content as ``build_enterprise(seed=..., events_per_host_day=...)``
    — background first, then the scenario injections on their fixed days.
    """
    recorder = TapeRecorder()
    BackgroundGenerator(
        recorder,
        GeneratorConfig(
            seed=seed, hosts=HOSTS, days=days,
            events_per_host_day=events_per_host_day,
        ),
    ).run()
    inject_apt_case_study(recorder)
    inject_apt2(recorder)
    inject_dependency_behaviors(recorder)
    inject_malware_behaviors(recorder)
    inject_abnormal_behaviors(recorder)
    return Tape(tuple(recorder.records), recorder.events)


class LiveTape:
    """The stream that never stops: day ``SIMULATION_DAYS + 1`` onwards.

    Days are generated on demand (as :class:`repro.workload.live.LiveReplay`
    does) and handed out in cuts of an exact event count, so a time-bound
    run can keep asking for segments without knowing its length up front.
    The sequence of records depends on the seed alone, not on how it is cut.
    """

    def __init__(self, seed: int, events_per_host_day: int) -> None:
        self._recorder = TapeRecorder()
        self._generator = BackgroundGenerator(
            self._recorder,
            GeneratorConfig(
                # A different stream from the base tape's background.
                seed=seed ^ 0x5EED17,
                hosts=HOSTS,
                events_per_host_day=events_per_host_day,
            ),
        )
        self._next_day = BASE_DAY + SIMULATION_DAYS * DAY
        self._cursor = 0

    def take(self, events: int) -> List[tuple]:
        """The next cut holding exactly ``events`` events."""
        records = self._recorder.records
        cut: List[tuple] = []
        remaining = events
        while remaining:
            if self._cursor == len(records):
                self._generator.run_day(self._next_day)
                self._next_day += DAY
            record = records[self._cursor]
            self._cursor += 1
            cut.append(record)
            if record[0] == EMIT:
                remaining -= 1
        # Cuts are consumed once; drop what was handed out so a long run
        # does not hold every generated day.
        del records[: self._cursor]
        self._cursor = 0
        return cut


class Replayer:
    """Feeds tape records into a session; owns the slot table of one tape."""

    def __init__(self) -> None:
        self._slots: dict = {}

    def feed(self, records: Sequence[tuple], session) -> int:
        """Replay ``records`` in order; returns the events appended.

        ``session`` is a :class:`~repro.service.stream.StreamSession` (or
        anything with its observation helpers and ``append``).  Commits
        happen inside ``append`` whenever the session's batch fills; the
        caller commits the tail.
        """
        slots = self._slots
        append = session.append
        events = 0
        for record in records:
            if record[0] == EMIT:
                _, agent, ts, op, subject, obj, duration, amount, failure = record
                append(
                    agent, ts, op, slots[subject], slots[obj],
                    duration=duration, amount=amount, failure_code=failure,
                )
                events += 1
            else:
                _, method, slot, args, kwargs = record
                slots[slot] = getattr(session, method)(*args, **kwargs)
        return events


# ---------------------------------------------------------------------------
# query stream
# ---------------------------------------------------------------------------

POINTS_PER_ROUND = 60
HUNTS_PER_ROUND = 20
SWEEPS_PER_ROUND = 20
QUERIES_PER_ROUND = POINTS_PER_ROUND + HUNTS_PER_ROUND + SWEEPS_PER_ROUND

SWEEP_WINDOW_DAYS = (3, 4, 5, 6, 7)
# The two-pattern file-flow join of bench_concurrent_service.py: no entity
# predicate for the attribute indexes to narrow, so every partition of the
# window is scanned.
SWEEP_TEMPLATE = """
    (from "{start}" to "{end}")
    proc p1 write file f1 as evt1[amount > {amount}]
    proc p2 read file f1 as evt2[amount > {amount}]
    with evt1 before evt2
    return distinct p1, f1, p2 top 100
"""
# Background file amounts top out at 2**20 (database pages), so thresholds
# in this band keep a sweep's survivors few while its scans stay complete.
SWEEP_AMOUNT_RANGE = (600_000, 1_000_000)

_HEADER = re.compile(r'agentid\s*=\s*\d+\s*\(at\s+"(\d\d)/(\d\d)/(\d{4})"\)')


@dataclass(frozen=True)
class StreamQuery:
    """One query of a round: its class, text and row-count ground truth."""

    kind: str  # 'point' | 'hunt' | 'sweep'
    qid: str
    text: str
    min_rows: int


def _date(day_index: int) -> str:
    """``MM/DD/YYYY`` of the ``day_index``-th simulation day (0-based)."""
    stamp = _dt.datetime.fromtimestamp(
        BASE_DAY + day_index * DAY, tz=_dt.timezone.utc
    )
    return stamp.strftime("%m/%d/%Y")


def _day_index(month: str, day: str, year: str) -> int:
    stamp = _dt.datetime(int(year), int(month), int(day), tzinfo=_dt.timezone.utc)
    return int((stamp.timestamp() - BASE_DAY) // DAY)


@functools.lru_cache(maxsize=None)
def hunt_candidates() -> Tuple[CorpusQuery, ...]:
    """Corpus queries a hunt can be made from.

    Plain multievent queries whose header is ``agentid = N (at day)`` and
    that do not aggregate: dropping the host constraint and widening the
    window can then only add rows, so ``min_rows`` stays a valid ground
    truth for the hunt.
    """
    out = []
    for query in ALL_QUERIES:
        if query.kind != "multievent" or "group by" in query.text:
            continue
        if _HEADER.search(query.text) is None:
            continue
        out.append(query)
    return tuple(out)


def hunt_text(query: CorpusQuery, before: int, after: int) -> str:
    """``query`` enterprise-wide over ``[day - before, day + after]``."""
    match = _HEADER.search(query.text)
    if match is None:
        raise ValueError(f"{query.qid} has no 'agentid = N (at day)' header")
    day = _day_index(*match.groups())
    start = max(0, day - before)
    # The range end is exclusive of nothing the parser documents, so name
    # the day after the last one wanted.
    end = min(SIMULATION_DAYS, day + after + 1)
    window = f'(from "{_date(start)}" to "{_date(end)}")'
    return query.text[: match.start()] + window + query.text[match.end():]


def round_queries(seed: int, round_index: int) -> List[StreamQuery]:
    """The ``QUERIES_PER_ROUND`` queries of one round, in issue order.

    Every round of every seed holds the same point queries (the whole
    corpus once, plus the analyst re-issuing its first steps) and the same
    hunts (every second candidate), and every sweep length equally often.
    What ``(seed, round)`` draws is the hunts' and sweeps' windows, the
    sweeps' thresholds and the order of issue.  Rounds are then samples of
    one quantity — which taking a median across them assumes — and a seed
    changes the data and the windows, not which queries are asked: one
    hunt (``v2`` enterprise-wide) costs as much as ten others, so drawing
    the composition per seed moved ``queries_per_s`` by 40% between seeds.
    """
    rng = random.Random(f"{seed}:{round_index}")
    queries: List[StreamQuery] = []

    repeats = ALL_QUERIES[: POINTS_PER_ROUND - len(ALL_QUERIES)]
    for query in (*ALL_QUERIES, *repeats):
        queries.append(StreamQuery("point", query.qid, query.text, query.min_rows))

    for query in hunt_candidates()[::2][:HUNTS_PER_ROUND]:
        before, after = rng.randint(1, 3), rng.randint(1, 3)
        queries.append(
            StreamQuery(
                "hunt",
                f"hunt:{query.qid}:-{before}+{after}",
                hunt_text(query, before, after),
                query.min_rows,
            )
        )

    per_length = SWEEPS_PER_ROUND // len(SWEEP_WINDOW_DAYS)
    for length in SWEEP_WINDOW_DAYS:
        for _ in range(per_length):
            start = rng.randint(1, SIMULATION_DAYS - length)
            amount = rng.randrange(*SWEEP_AMOUNT_RANGE)
            queries.append(
                StreamQuery(
                    "sweep",
                    f"sweep:{length}d@{start}>{amount}",
                    SWEEP_TEMPLATE.format(
                        start=_date(start), end=_date(start + length),
                        amount=amount,
                    ),
                    0,
                )
            )

    rng.shuffle(queries)
    return queries


def probe_queries(seed: int, count: int = 10) -> List[StreamQuery]:
    """Fixed probes whose answers must survive a crash + recovery."""
    rng = random.Random(f"{seed}:probe")
    points = rng.sample(
        [q for q in ALL_QUERIES if q.kind == "multievent"], count - 2
    )
    probes = [
        StreamQuery("point", q.qid, q.text, q.min_rows) for q in points
    ]
    hunts = rng.sample(hunt_candidates(), 2)
    probes.extend(
        StreamQuery("hunt", f"hunt:{q.qid}", hunt_text(q, 2, 2), q.min_rows)
        for q in hunts
    )
    return probes
