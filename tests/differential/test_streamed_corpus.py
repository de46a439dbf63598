"""Differential: a live deployment answers like the interpreter at every commit.

One production :class:`~repro.core.system.AIQLSystem` (default config: the
partitioned ``EventStore``, compiled kernels, the plan cache) takes the
whole evaluation workload through a live stream session.  After each of
four commit checkpoints — half the background, the two APT attacks, the
rest of the background, the remaining behaviours — every corpus query is
answered twice over the same committed prefix: by the live deployment and
by the ``use_kernels(False)`` interpreter over a fresh store holding
exactly the events committed so far.  The answers must be equal.

Later batches land in partitions earlier checkpoints already scanned (the
APT day lies inside the first half of the background), so any memo on the
read path that outlives a commit — a result cache, a memoised selection,
an extended index answer — shows up here as a stale answer.  The oracle's
store is built anew at every checkpoint, so such a memo cannot answer it
too.

Run standalone (the CI differential job):

    PYTHONPATH=src python -m pytest -q tests/differential
"""

from __future__ import annotations

import pytest

from repro.core.system import AIQLSystem
from repro.model.time import DAY
from repro.storage.blocks import ColumnBlock
from repro.storage.database import EventStore
from repro.storage.kernels import use_kernels
from repro.workload.attacks import inject_apt2, inject_apt_case_study
from repro.workload.behaviors import (
    inject_abnormal_behaviors,
    inject_dependency_behaviors,
    inject_malware_behaviors,
)
from repro.workload.corpus import ALL_QUERIES
from repro.workload.generator import BackgroundGenerator, GeneratorConfig

RATE = 40
HALF = 8  # days of background before the attacks land


def interpreter_over(system, committed):
    """A fresh store holding ``committed``, queried by the interpreter."""
    registry = system.ingestor.registry
    store = EventStore(registry=registry)
    for entity in registry:
        store.register_entity(entity)
    store.add_block(ColumnBlock.from_events(committed))
    return AIQLSystem.over(store)


@pytest.fixture(scope="module")
def answers():
    """``{checkpoint: {qid: (production rows, interpreted rows)}}``."""
    system = AIQLSystem()
    session = system.stream(batch_size=97)
    committed = []
    session.on_commit(lambda batch, started: committed.extend(batch))
    generator = BackgroundGenerator(
        session, GeneratorConfig(events_per_host_day=RATE)
    )
    base = generator.config.base_day

    def background(days):
        for day in days:
            generator.run_day(base + day * DAY)

    def apt():
        inject_apt_case_study(session)
        inject_apt2(session)

    def behaviours():
        inject_dependency_behaviors(session)
        inject_malware_behaviors(session)
        inject_abnormal_behaviors(session)

    phases = (
        ("background-1", lambda: background(range(HALF))),
        ("apt", apt),
        ("background-2", lambda: background(range(HALF, generator.config.days))),
        ("behaviours", behaviours),
    )
    out = {}
    for name, phase in phases:
        phase()
        session.commit()
        oracle = interpreter_over(system, committed)
        answered = {}
        for query in ALL_QUERIES:
            production = system.query(query.text).rows
            with use_kernels(False):
                interpreted = oracle.query(query.text).rows
            answered[query.qid] = (production, interpreted)
        out[name] = answered
    system.close()
    return out


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
def test_every_commit_prefix_answers_like_the_interpreter(answers, query):
    for checkpoint, answered in answers.items():
        production, interpreted = answered[query.qid]
        assert production == interpreted, (
            f"{query.qid} diverged from the interpreter after the "
            f"{checkpoint!r} commit"
        )
    final, _ = answers["behaviours"][query.qid]
    assert len(final) >= query.min_rows, f"{query.qid} matched nothing"
