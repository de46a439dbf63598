"""Seeded inputs: tape determinism, replay, cuts, the query stream."""

from __future__ import annotations

from collections import Counter

from repro import AIQLSystem
from repro.engine import compile_query

from benchmarks.e2e import tape

SEED = 20170101
RATE = 8  # events per host-day: a tape of ~2k events, recorded in a blink


def replayed_events(recording: tape.Tape) -> int:
    system = AIQLSystem()
    try:
        session = system.stream()
        appended = tape.Replayer().feed(recording.records, session)
        session.commit()
        assert appended == recording.events
        return system.ingestor.events_ingested
    finally:
        system.close()


def test_same_seed_gives_the_identical_tape_and_event_count():
    first = tape.record_base(SEED, RATE, 16)
    second = tape.record_base(SEED, RATE, 16)
    assert first.records == second.records
    assert first.events == second.events == sum(
        1 for r in first.records if r[0] == tape.EMIT
    )
    assert replayed_events(first) == replayed_events(second) == first.events


def test_another_seed_gives_another_tape():
    assert (
        tape.record_base(SEED, RATE, 16).records
        != tape.record_base(SEED + 1, RATE, 16).records
    )


def test_every_slot_is_observed_before_an_event_uses_it():
    seen = set()
    for record in tape.record_base(SEED, RATE, 16).records:
        if record[0] == tape.OBSERVE:
            seen.add(record[2])
        else:
            assert record[4] in seen and record[5] in seen


def test_live_tape_does_not_depend_on_how_it_is_cut():
    whole = tape.LiveTape(SEED, RATE).take(300)
    pieces = tape.LiveTape(SEED, RATE)
    cut = pieces.take(100) + pieces.take(50) + pieces.take(150)
    assert cut == whole
    assert sum(1 for r in whole if r[0] == tape.EMIT) == 300


def test_live_cuts_replay_after_the_base_tape():
    system = AIQLSystem()
    try:
        session = system.stream()
        base = tape.record_base(SEED, RATE, 16)
        tape.Replayer().feed(base.records, session)
        live = tape.LiveTape(SEED, RATE)
        replayer = tape.Replayer()
        for _ in range(3):
            assert replayer.feed(live.take(64), session) == 64
        assert session.commit() == base.events + 192
    finally:
        system.close()


def test_a_round_is_stratified_and_deterministic():
    first = tape.round_queries(SEED, 3)
    assert first == tape.round_queries(SEED, 3)
    assert first != tape.round_queries(SEED, 4)
    assert first != tape.round_queries(SEED + 1, 3)
    kinds = Counter(q.kind for q in first)
    assert kinds == {
        "point": tape.POINTS_PER_ROUND,
        "hunt": tape.HUNTS_PER_ROUND,
        "sweep": tape.SWEEPS_PER_ROUND,
    }
    assert len(first) == tape.QUERIES_PER_ROUND == 100
    lengths = Counter(q.qid.split(":")[1].split("@")[0] for q in first if q.kind == "sweep")
    assert set(lengths.values()) == {
        tape.SWEEPS_PER_ROUND // len(tape.SWEEP_WINDOW_DAYS)
    }
    corpus = {q.qid for q in tape.ALL_QUERIES}
    assert corpus <= {q.qid for q in first if q.kind == "point"}


def test_every_hunt_and_sweep_compiles():
    for query in tape.hunt_candidates():
        for before, after in ((1, 1), (3, 3)):
            ctx = compile_query(tape.hunt_text(query, before, after))
            assert ctx.kind == "multievent"
    for item in tape.round_queries(SEED, 0):
        if item.kind == "sweep":
            assert compile_query(item.text).kind == "multievent"
    assert len(tape.hunt_candidates()) >= tape.HUNTS_PER_ROUND


def test_probes_are_fixed_per_seed():
    probes = tape.probe_queries(SEED, 10)
    assert probes == tape.probe_queries(SEED, 10)
    assert len(probes) == 10
    assert sum(1 for p in probes if p.kind == "hunt") == 2
