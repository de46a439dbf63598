"""Property: narrowing a cold scan through the entity index drops no match.

``TieredStore.scan_columns`` resolves a pattern's index-servable entity
predicates to id sets through the hot store's entity attribute index and
scans the cold tier with that narrowed filter: zone maps prune segments
by id, and the kernel cuts rows by id before the predicates run.  Over
random events (several processes and files per agent, late arrivals on
days already cold) compacted into random segments by two compaction
passes, and random equality, IN and LIKE entity predicates — alone, ANDed
with a predicate the index cannot serve, or under an OR it cannot see
through — the narrowed cold scan selects exactly what the raw one does
on every segment (what lets the selection memo key on the raw filter),
and the tiered scan answers the same with and without the index.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.model.entities import EntityType
from repro.storage.blocks import BlockScanResult
from repro.storage.database import EventStore, narrow_with_index
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateOr,
)
from repro.storage.ingest import Ingestor
from repro.tier.cold import ColdTier
from repro.tier.store import TieredStore

from tests.tier.conftest import day_ts
from tests.oracle import rows

AGENTS = (1, 2, 25)  # two agent groups
EXES = ("sshd", "bash", "cmd.exe", "Word.EXE", "svchost.exe")
FILES = ("/etc/passwd", "/var/log/auth.log", "C:/Windows/a.dll", "/tmp/x.sh")

EVENT = st.tuples(
    st.sampled_from(AGENTS),
    st.integers(min_value=0, max_value=4),  # day
    st.integers(min_value=0, max_value=300),  # minute
    st.integers(min_value=0, max_value=len(EXES) - 1),
    st.integers(min_value=0, max_value=len(FILES) - 1),
    st.sampled_from(("read", "write", "execute")),
)

EXE_VALUE = st.sampled_from(EXES + ("%.exe", "s%", "%SH%", "%", "nosuch"))
FILE_VALUE = st.sampled_from(FILES + ("%.log", "/etc/%", "%.DLL", "nowhere"))


def servable(attr, values):
    """An equality, IN or LIKE leaf the attribute index can answer."""
    single = values.map(lambda v: PredicateLeaf(AttrPredicate(attr, "=", v)))
    listed = st.lists(values, min_size=1, max_size=3).map(
        lambda vs: PredicateLeaf(AttrPredicate(attr, "in", tuple(vs)))
    )
    return st.one_of(single, listed)


def entity_pred(attr, values, unservable):
    leaf = servable(attr, values)
    return st.one_of(
        st.none(),
        leaf,
        st.tuples(leaf, unservable).map(lambda p: PredicateAnd(p)),
        st.tuples(leaf, unservable).map(lambda p: PredicateOr(p)),
    )


FILTER = st.builds(
    lambda subject, obj, typed: EventFilter(
        subject_pred=subject,
        object_pred=obj,
        object_type=EntityType.FILE if typed or obj is not None else None,
    ),
    entity_pred(
        "exe_name", EXE_VALUE,
        st.just(PredicateLeaf(AttrPredicate("pid", ">", 103))),
    ),
    entity_pred(
        "name", FILE_VALUE,
        st.just(PredicateLeaf(AttrPredicate("owner", "=", "root"))),
    ),
    st.booleans(),
)


def build(directory, events, split, retentions):
    ingestor = Ingestor()
    store = TieredStore(
        EventStore(registry=ingestor.registry),
        ColdTier(directory, ingestor.registry.get, scan_cache_entries=0),
    )
    ingestor.attach(store)
    procs = {
        (agent, i): ingestor.process(agent, 100 + i, exe)
        for agent in AGENTS
        for i, exe in enumerate(EXES)
    }
    files = {
        (agent, i): ingestor.file(agent, name)
        for agent in AGENTS
        for i, name in enumerate(FILES)
    }
    # Two passes: the second half's events on days the first pass already
    # moved cold become further segments under the same partition keys.
    for half, retention in zip((events[:split], events[split:]), retentions):
        for agent, day, minute, proc, fobj, op in sorted(
            half, key=lambda e: (e[1], e[2])
        ):
            ingestor.emit(
                agent, day_ts(day, 60.0 * minute), op,
                procs[agent, proc], files[agent, fobj],
            )
        if len(store):
            store.compact(retention_days=retention)
    return store


def per_segment(selections):
    return {
        id(s.block): list(s.positions) for s in selections if len(s)
    }


@given(
    events=st.lists(EVENT, min_size=1, max_size=40),
    cut=st.floats(min_value=0.0, max_value=1.0),
    retentions=st.tuples(
        st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
    ),
    filters=st.lists(FILTER, min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_narrowed_cold_scan_equals_raw(events, cut, retentions, filters):
    with tempfile.TemporaryDirectory() as root:
        store = build(root, events, int(cut * len(events)), retentions)
        for flt in filters:
            narrowed = narrow_with_index(flt, store.entity_index)
            raw_parts = store.cold.scan_selections(flt)
            narrowed_parts = store.cold.scan_selections(
                flt, None, narrowed, store.hot.committed
            )
            # Segment by segment (one decoded block per segment file):
            # a pruned segment is one the raw scan selects nothing from.
            assert per_segment(narrowed_parts) == per_segment(raw_parts)
            raw = BlockScanResult(raw_parts).events()
            # The resolved sets are supersets of what the raw scan matched.
            if narrowed.subject_ids is not None:
                assert {e.subject_id for e in raw} <= narrowed.subject_ids
            if narrowed.object_ids is not None:
                assert {e.object_id for e in raw} <= narrowed.object_ids
            assert rows(store, flt) == rows(store, flt, use_entity_index=False)
