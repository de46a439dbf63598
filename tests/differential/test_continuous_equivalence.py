"""Differential: continuous alerts == batch results over the same prefix.

The continuous engine's core invariant: with an unbounded horizon, the
set of tuples a standing query has alerted on after a committed stream
prefix is exactly the tuple set the batch scheduler produces for the same
query over the same prefix.  Here the whole evaluation workload (16 days
of background noise + every attack scenario) streams through one session
feeding four storage backends and a continuous engine; at the end — and
at an intermediate prefix — every standing query's alert keys are
compared against a fresh batch execution on every backend.

Every corpus query a standing query can express stands over the same
stream and is checked against the interpreted ``EventFilter.matches``
path: its alert keys against an interpreted batch run, and each pattern's
window against the events the interpreter accepts.  A push selects its
matches with ``kernel.select`` over one column block of the batch, so
this is the corpus-wide evidence that the block path changes nothing.
"""

from __future__ import annotations

import pytest

from repro.engine import compile_query, make_scheduler
from repro.model.entities import EntityRegistry
from repro.service.continuous import ContinuousError, ContinuousQueryEngine
from repro.service.stream import StreamSession
from repro.storage.database import EventStore
from repro.storage.flat import FlatStore
from repro.storage.ingest import Ingestor
from repro.storage.kernels import use_kernels
from repro.storage.partition import PartitionScheme
from repro.storage.segments import SegmentedStore
from repro.workload.attacks import inject_apt2, inject_apt_case_study
from repro.workload.behaviors import (
    inject_abnormal_behaviors,
    inject_dependency_behaviors,
    inject_malware_behaviors,
)
from repro.workload.corpus import ALL_QUERIES
from repro.workload.generator import BackgroundGenerator, GeneratorConfig
from repro.workload.topology import HOSTS

BACKENDS = ("partitioned", "flat", "segmented_domain", "segmented_arrival")

# Standing queries covering the shapes the engine evaluates: unwindowed
# and windowed, one to three patterns, temporal + entity-join
# relationships, LIKE/IN predicates.
STANDING = {
    "single-like": """
        proc p1["gsecdump.exe"] read file f1["%SAM"] as evt1
        return p1, f1
    """,
    "single-windowed": """
        (at "01/05/2017")
        proc p1 connect ip i1[dstip = "203.0.113.129"] as evt1
        return p1, i1
    """,
    "pair-join": """
        proc p1["%excel%"] write file f1["%payload.exe"] as evt1
        proc p1 start proc p2["%payload%"] as evt2
        with evt1 before evt2
        return p1, f1, p2
    """,
    "triple-chain": """
        proc p1["%cmd%"] write file f1["%.vbs"] as evt1
        proc p2["%wscript%"] read file f1 as evt2
        proc p2 start proc p3 as evt3
        with evt1 before evt2, evt2 before evt3
        return p1, f1, p2, p3
    """,
    "cross-host": """
        proc p1["%implant%" || "%.updater%"] send ip i1 as evt1
        proc p2["%apache%"] recv ip i2 as evt2
        with i1.dstip = i2.dstip, evt1 before evt2
        return p1, p2
    """,
}


def _can_stand(text):
    """Whether the continuous engine accepts ``text`` as a standing query."""
    try:
        ContinuousQueryEngine(EntityRegistry()).subscribe(text)
    except ContinuousError:
        return False
    return True


# The corpus queries that can stand: multievent, no aggregation.
CORPUS = {q.qid: q.text for q in ALL_QUERIES if _can_stand(q.text)}


def batch_keys(store, text):
    """Tuple keys the batch scheduler produces for ``text`` on ``store``."""
    ctx = compile_query(text)
    tuples = make_scheduler("relationship", store).run(ctx)
    return {
        tuple(
            row[tuples.column_of(i)].event_id
            for i in sorted(tuples.patterns)
        )
        for row in tuples.rows
    }


def interpreted_keys(store, text):
    """:func:`batch_keys` with every scan on the interpreted path."""
    with use_kernels(False):
        return batch_keys(store, text)


@pytest.fixture(scope="module")
def streamed():
    """Stream the whole workload into four backends + standing queries.

    Returns the stores, the subscriptions by name, their alert keys and
    the batch keys after the background-only prefix, and every pushed
    event in push order.
    """
    ingestor = Ingestor()
    stores = {
        "partitioned": EventStore(
            registry=ingestor.registry, scheme=PartitionScheme()
        ),
        "flat": FlatStore(registry=ingestor.registry),
        "segmented_domain": SegmentedStore(
            registry=ingestor.registry, segments=5, policy="domain"
        ),
        "segmented_arrival": SegmentedStore(
            registry=ingestor.registry, segments=5, policy="arrival"
        ),
    }
    for store in stores.values():
        ingestor.attach(store)

    engine = ContinuousQueryEngine(ingestor.registry)
    subs = {
        name: engine.subscribe(text, window_s=float("inf"), name=name)
        for name, text in {**STANDING, **CORPUS}.items()
    }
    pushed = []
    session = StreamSession(ingestor, batch_size=97)

    def on_commit(batch, started):
        pushed.extend(batch)
        engine.push(batch, started)

    session.on_commit(on_commit)

    BackgroundGenerator(
        session,
        GeneratorConfig(seed=20170101, hosts=HOSTS, events_per_host_day=40),
    ).run()
    session.commit()
    # Mid-stream checkpoint: alert keys after the background-only prefix.
    prefix_keys = {
        name: {alert_key for alert_key in sub.seen}
        for name, sub in subs.items()
    }
    prefix_batch = {
        name: batch_keys(stores["partitioned"], text)
        for name, text in STANDING.items()
    }
    prefix_batch.update(
        (qid, interpreted_keys(stores["partitioned"], text))
        for qid, text in CORPUS.items()
    )

    inject_apt_case_study(session)
    inject_apt2(session)
    inject_dependency_behaviors(session)
    inject_malware_behaviors(session)
    inject_abnormal_behaviors(session)
    session.commit()
    return stores, subs, prefix_keys, prefix_batch, pushed


class TestContinuousEqualsBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("query", sorted(STANDING))
    def test_final_prefix_equivalence(self, streamed, backend, query):
        stores, subs, _, _, _ = streamed
        expected = batch_keys(stores[backend], STANDING[query])
        assert subs[query].seen == expected
        # the attack scenarios make every standing query non-vacuous
        assert expected, f"standing query {query} matched nothing"

    @pytest.mark.parametrize("query", sorted(STANDING))
    def test_intermediate_prefix_equivalence(self, streamed, query):
        _, _, prefix_keys, prefix_batch, _ = streamed
        assert prefix_keys[query] == prefix_batch[query]

    def test_alert_events_carry_matched_tuples(self, streamed):
        stores, subs, _, _, _ = streamed
        sub = subs["pair-join"]
        assert sub.alerts_emitted == len(sub.seen)


class TestCorpusStandingEqualsInterpreter:
    @pytest.mark.parametrize("qid", sorted(CORPUS))
    def test_alerts_equal_interpreted_batch(self, streamed, qid):
        stores, subs, _, _, _ = streamed
        expected = interpreted_keys(stores["partitioned"], CORPUS[qid])
        assert subs[qid].seen == expected
        assert expected, f"corpus query {qid} matched nothing"

    @pytest.mark.parametrize("qid", sorted(CORPUS))
    def test_intermediate_prefix_equals_interpreted_batch(self, streamed, qid):
        _, _, prefix_keys, prefix_batch, _ = streamed
        assert prefix_keys[qid] == prefix_batch[qid]

    @pytest.mark.parametrize("qid", sorted(CORPUS))
    def test_windows_hold_exactly_the_interpreted_matches(self, streamed, qid):
        stores, subs, _, _, pushed = streamed
        entity = stores["partitioned"].registry.get
        sub = subs[qid]
        for i, pattern in enumerate(sub.ctx.patterns):
            matches = pattern.filter.matches
            expected = {
                e.event_id
                for e in pushed
                if matches(e, entity(e.subject_id), entity(e.object_id))
            }
            assert set(sub.window_snapshot()[i]) == expected, (
                f"pattern {i} of {qid}: window differs from the interpreter"
            )
