"""Differential harness: compiled scan kernels == the interpreted filter path.

Two layers of evidence that kernel compilation changes *nothing* about what
a scan matches:

* **Corpus equivalence** — every corpus query answers identically with
  kernels on vs. the interpreted ``EventFilter.matches`` path, on all four
  storage backends *and* on a compacted tiered store (hot block slices
  merged with decoded cold segments through the sorted-run merge).
* **Property equivalence** — hypothesis generates random filters (every
  comparison operator, LIKE patterns, IN lists, cross-type literals,
  NOT/OR/AND trees, windows, id sets) against blocks of random events,
  time-sorted and shuffled, and asserts ``kernel.select(block)`` keeps
  exactly the positions ``flt.matches(event, subject, obj)`` accepts.

Run standalone (the CI differential job):

    PYTHONPATH=src python -m pytest -q tests/differential
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.engine.anomaly import AnomalyExecutor
from repro.engine.executor import MultieventExecutor
from repro.model.entities import EntityRegistry, EntityType
from repro.model.events import Operation, SystemEvent
from repro.model.time import TimeWindow
from repro.storage.blocks import ColumnBlock
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateNot,
    PredicateOr,
)
from repro.storage.kernels import compile_filter, use_kernels
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise
from tests.conftest import compile_text

BACKENDS = ("partitioned", "flat", "segmented_domain", "segmented_arrival")


@pytest.fixture(scope="module")
def enterprise():
    return build_enterprise(stores=BACKENDS, events_per_host_day=40)


@pytest.fixture(scope="module")
def tiered(tmp_path_factory):
    """A durable deployment with most of its corpus compacted cold."""
    system = AIQLSystem(
        SystemConfig(
            data_dir=str(tmp_path_factory.mktemp("kernel-tiered")),
            retention_days=2,
            compact_interval_s=3600,
            wal_sync=False,
        )
    )
    build_enterprise(stores=(), ingestor=system.ingestor, events_per_host_day=40)
    report = system.compact()
    assert report.moved  # the corpus spans 16 days: most of it went cold
    yield system.store
    system.close()


def run_query(store, ctx):
    if ctx.kind == "anomaly":
        return AnomalyExecutor(store).run(ctx)
    return MultieventExecutor(store).run(ctx)


class TestCorpusEquivalence:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_all_backends_agree_with_interpreter(self, enterprise, query):
        ctx = compile_text(query.text)
        for name in BACKENDS:
            store = enterprise.store(name)
            with use_kernels(False):
                interpreted = set(run_query(store, ctx).rows)
            with use_kernels(True):
                compiled = set(run_query(store, ctx).rows)
            assert compiled == interpreted, (
                f"kernels change {query.qid} on {name}"
            )

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_compacted_tiered_store_agrees(self, tiered, query):
        ctx = compile_text(query.text)
        with use_kernels(False):
            interpreted = set(run_query(tiered, ctx).rows)
        with use_kernels(True):
            compiled = set(run_query(tiered, ctx).rows)
        assert compiled == interpreted, (
            f"kernels change {query.qid} on the compacted tiered store"
        )


# ---------------------------------------------------------------------------
# property-based equivalence
# ---------------------------------------------------------------------------

_registry = EntityRegistry()
_ENTITIES = [
    _registry.process(1, 100, "sshd", user="root", cmd="/usr/sbin/sshd -D"),
    _registry.process(2, 200, "nginx", user="www", cmd="nginx -g daemon"),
    _registry.file(1, "/etc/passwd", owner="root"),
    _registry.file(2, "/var/log/auth.log", owner="syslog"),
    _registry.connection(1, "10.0.0.5", 51000, "166.213.1.129", 4444),
    _registry.connection(2, "10.0.0.9", 33000, "10.1.1.1", 80),
]
_PROCESSES = [e for e in _ENTITIES if e.entity_type is EntityType.PROCESS]

_ATTRS = (
    "exe_name", "user", "cmd", "pid", "name", "owner",
    "dst_ip", "dst_port", "src_port", "agent_id", "id",
    "amount", "operation", "start_time", "seq", "bogus_attr",
)

_literals = st.one_of(
    st.integers(min_value=-5, max_value=5000),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.sampled_from(
        ["sshd", "SSHD", "4444", "4.5", "%ssh%", "%a%g%", "root", "", "%"]
    ),
)

_predicates = st.builds(
    AttrPredicate,
    attr=st.sampled_from(_ATTRS),
    op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    value=_literals,
) | st.builds(
    AttrPredicate,
    attr=st.sampled_from(_ATTRS),
    op=st.sampled_from(("in", "not in")),
    value=st.lists(_literals, min_size=0, max_size=4).map(tuple),
)


def _trees(children):
    return st.one_of(
        st.builds(PredicateNot, children),
        st.builds(lambda a, b: PredicateAnd((a, b)), children, children),
        st.builds(lambda a, b: PredicateOr((a, b)), children, children),
    )


_predicate_trees = st.recursive(
    st.builds(PredicateLeaf, _predicates), _trees, max_leaves=6
)

_windows = st.builds(
    lambda start, length: TimeWindow(
        start=start, end=None if length is None else start + length
    ),
    start=st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
    length=st.none() | st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
) | st.just(TimeWindow())

_maybe_ids = st.none() | st.frozensets(
    st.integers(min_value=0, max_value=8), max_size=4
)

_filters = st.builds(
    EventFilter,
    agent_ids=st.none() | st.frozensets(st.integers(1, 3), max_size=3),
    window=_windows,
    operations=st.none()
    | st.frozensets(st.sampled_from(list(Operation)), max_size=3),
    object_type=st.none() | st.sampled_from(list(EntityType)),
    subject_pred=st.none() | _predicate_trees,
    object_pred=st.none() | _predicate_trees,
    event_pred=st.none() | _predicate_trees,
    subject_ids=_maybe_ids,
    object_ids=_maybe_ids,
)

_events = st.builds(
    lambda eid, agent, start, op, subject, obj, amount: SystemEvent(
        event_id=eid,
        agent_id=agent,
        seq=eid,
        start_time=start,
        end_time=start + 1.0,
        operation=op,
        subject_id=subject.id,
        object_id=obj.id,
        object_type=obj.entity_type,
        amount=amount,
    ),
    eid=st.integers(min_value=1, max_value=100),
    agent=st.integers(min_value=1, max_value=3),
    start=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    op=st.sampled_from(list(Operation)),
    subject=st.sampled_from(_PROCESSES),
    obj=st.sampled_from(_ENTITIES),
    amount=st.integers(min_value=0, max_value=10000),
)


class TestPropertyEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(
        flt=_filters,
        events=st.lists(_events, max_size=8),
        data=st.data(),
    )
    def test_kernel_agrees_with_interpreter(self, flt, events, data):
        kernel = compile_filter(flt)
        lookup = _registry.get
        shuffled = data.draw(st.permutations(events))
        for ordering in (sorted(events, key=lambda e: e.start_time), shuffled):
            expected = [
                i
                for i, ev in enumerate(ordering)
                if flt.matches(ev, lookup(ev.subject_id), lookup(ev.object_id))
            ]
            block = ColumnBlock.from_events(ordering)
            got = kernel.select(block, range(len(ordering)), lookup)
            assert list(got) == expected
            if kernel.always_false:
                assert not expected
