"""Compiled scan kernels: specialization, equivalence, memoization."""

import pytest

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
from repro.storage.kernels import (
    KernelCache,
    compile_filter,
    compile_predicate,
    compile_value_test,
    constant_false,
    kernel_cache_stats,
    kernel_for,
    kernels_enabled,
    use_kernels,
)


@pytest.fixture(scope="module")
def world():
    registry = EntityRegistry()
    proc = registry.process(1, 4242, "sshd", user="root", cmd="/usr/sbin/sshd -D")
    fobj = registry.file(1, "/etc/passwd", owner="root")
    conn = registry.connection(1, "10.0.0.5", 51000, "166.213.1.129", 4444)
    event = SystemEvent(
        event_id=7,
        agent_id=1,
        seq=3,
        start_time=1000.0,
        end_time=1001.0,
        operation=Operation.READ,
        subject_id=proc.id,
        object_id=fobj.id,
        object_type=EntityType.FILE,
        amount=512,
    )
    net_event = SystemEvent(
        event_id=8,
        agent_id=2,
        seq=4,
        start_time=2000.0,
        end_time=2001.0,
        operation=Operation.CONNECT,
        subject_id=proc.id,
        object_id=conn.id,
        object_type=EntityType.NETWORK,
    )
    return registry, proc, fobj, conn, event, net_event


def leaf(attr, op, value):
    return PredicateLeaf(AttrPredicate(attr=attr, op=op, value=value))


class TestValueTests:
    """compile_value_test must agree with AttrPredicate.matches."""

    CASES = [
        # (op, predicate value, actual value)
        ("=", "sshd", "SSHD"),
        ("=", "sshd", "nginx"),
        ("=", "4444", 4444),
        ("=", "4444", 4444.0),
        ("=", "4.5", 4),  # int('4.5') raises: never equal
        ("=", 4444, "4444"),
        ("=", 21.5, 21.5),
        ("=", "x", 3),
        ("!=", "sshd", "sshd"),
        ("!=", 80, 81),
        ("<", "100", 99),
        ("<", 100, "099"),  # string ordering against str(100)
        ("<=", "abc", "abd"),
        (">", "nope", 5),  # uncoercible literal: TypeError -> False
        (">=", 10, 10),
        (">", "10.5", 11.0),
        ("in", ("a", "B", 3), "b"),
        ("in", ("a", "B", 3), 3),
        ("in", ("4444", 80), 4444),  # cross-type fallback
        ("not in", ("a", "b"), "C"),
        ("not in", (1, 2), 2),
        ("in", (1, 2), "zz"),
    ]

    @pytest.mark.parametrize("op,value,actual", CASES)
    def test_matches_interpreter(self, op, value, actual):
        pred = AttrPredicate(attr="x", op=op, value=value)
        assert compile_value_test(pred)(actual) == pred.matches(actual)

    def test_like_patterns(self):
        pred = AttrPredicate(attr="name", op="=", value="%telnet%")
        test = compile_value_test(pred)
        assert test("/usr/bin/telnetd")
        assert not test("/bin/sh")
        negated = AttrPredicate(attr="name", op="!=", value="%telnet%")
        assert not compile_value_test(negated)("/usr/bin/telnetd")

    def test_exotic_types_fall_back_to_interpreter(self):
        pred = AttrPredicate(attr="x", op="=", value="1")
        test = compile_value_test(pred)
        assert test(True) == pred.matches(True)  # bool is not int here
        none_pred = AttrPredicate(attr="x", op="=", value=None)
        assert compile_value_test(none_pred)(None) == none_pred.matches(None)
        ordered = AttrPredicate(attr="x", op="<", value="5")
        assert ordered.matches(None) == compile_value_test(ordered)(None)

    def test_bool_predicate_value_uses_interpreter(self):
        pred = AttrPredicate(attr="x", op="=", value=True)
        assert compile_value_test(pred).__func__ is AttrPredicate.matches
        ordered = AttrPredicate(attr="x", op=">", value=True)
        assert compile_value_test(ordered).__func__ is AttrPredicate.matches


class TestPredicateTrees:
    def test_and_or_not(self, world):
        _, proc, *_ = world
        node = PredicateAnd(
            (
                leaf("exe_name", "=", "%ssh%"),
                PredicateOr(
                    (leaf("user", "=", "root"), leaf("pid", ">", 100000))
                ),
            )
        )
        compiled = compile_predicate(node)
        assert compiled(proc) == node.evaluate(proc.attribute)
        negated = PredicateNot(node)
        assert compile_predicate(negated)(proc) == negated.evaluate(
            proc.attribute
        )

    def test_wide_and_or(self, world):
        _, proc, *_ = world
        wide_and = PredicateAnd(
            tuple(leaf("pid", ">", i) for i in (0, 1, 2))
        )
        wide_or = PredicateOr(
            tuple(leaf("pid", "=", i) for i in (1, 2, 4242))
        )
        assert compile_predicate(wide_and)(proc)
        assert compile_predicate(wide_or)(proc)

    def test_unknown_attribute_is_false(self, world):
        _, proc, *_ = world
        node = leaf("no_such_attr", "=", 1)
        assert compile_predicate(node)(proc) is False
        assert node.evaluate(proc.attribute) is False

    def test_attribute_aliases_resolve(self, world):
        _, _, _, conn, *_ = world
        node = leaf("dstport", "=", 4444)  # alias of dst_port
        assert compile_predicate(node)(conn)
        assert node.evaluate(conn.attribute)

    def test_other_entity_types_attribute_is_false(self, world):
        _, proc, *_ = world
        node = leaf("dst_port", "=", 4444)  # valid attr, wrong entity type
        assert compile_predicate(node)(proc) is False
        assert node.evaluate(proc.attribute) is False


class TestCompileFilter:
    def matches_both_ways(self, flt, event, registry):
        kernel = compile_filter(flt)
        subject = registry.get(event.subject_id)
        obj = registry.get(event.object_id)
        interpreted = flt.matches(event, subject, obj)
        block = ColumnBlock.from_events([event])
        selected = list(kernel.select(block, range(1), registry.get))
        assert selected == ([0] if interpreted else [])
        return interpreted

    def test_unconstrained_filter_matches_everything(self, world):
        registry, _, _, _, event, net_event = world
        flt = EventFilter()
        assert self.matches_both_ways(flt, event, registry)
        assert self.matches_both_ways(flt, net_event, registry)

    def test_every_structural_constraint(self, world):
        registry, proc, fobj, conn, event, net_event = world
        cases = [
            EventFilter(agent_ids=frozenset({1})),
            EventFilter(agent_ids=frozenset({9})),
            EventFilter(window=TimeWindow(start=999.0, end=1000.5)),
            EventFilter(window=TimeWindow(start=1000.5)),
            EventFilter(window=TimeWindow(end=1000.0)),
            EventFilter(operations=frozenset({Operation.READ})),
            EventFilter(operations=frozenset({Operation.WRITE})),
            EventFilter(object_type=EntityType.FILE),
            EventFilter(object_type=EntityType.NETWORK),
            EventFilter(subject_ids=frozenset({proc.id})),
            EventFilter(subject_ids=frozenset({proc.id + 99})),
            EventFilter(object_ids=frozenset({fobj.id})),
        ]
        for flt in cases:
            self.matches_both_ways(flt, event, registry)
            self.matches_both_ways(flt, net_event, registry)

    def test_entity_and_event_predicates(self, world):
        registry, proc, fobj, conn, event, net_event = world
        flt = EventFilter(
            subject_pred=leaf("exe_name", "=", "%ssh%"),
            object_pred=leaf("name", "=", "/etc/%"),
            event_pred=leaf("amount", ">", 100),
        )
        assert self.matches_both_ways(flt, event, registry)
        # object predicate invalid for the network entity: filter rejects
        assert not self.matches_both_ways(flt, net_event, registry)

    def test_entities_resolved_lazily(self, world):
        registry, _, _, _, event, _ = world
        flt = EventFilter(operations=frozenset({Operation.READ}))
        kernel = compile_filter(flt)

        def exploding_lookup(_entity_id):
            raise AssertionError("no predicates: lookup must not be called")

        block = ColumnBlock.from_events([event])
        assert list(kernel.select(block, range(1), exploding_lookup)) == [0]


class TestConstantFalse:
    def test_empty_window(self):
        flt = EventFilter(window=TimeWindow(start=5.0, end=5.0))
        assert constant_false(flt)
        assert compile_filter(flt).always_false

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"agent_ids": frozenset()},
            {"operations": frozenset()},
            {"subject_ids": frozenset()},
            {"object_ids": frozenset()},
        ],
    )
    def test_empty_sets(self, kwargs):
        flt = EventFilter(**kwargs)
        assert constant_false(flt)
        kernel = compile_filter(flt)
        assert kernel.always_false
        # never inspects its arguments
        assert kernel.select(None, range(3), None) == []

    def test_satisfiable_filter_is_not_constant_false(self):
        assert not constant_false(EventFilter(agent_ids=frozenset({1})))
        assert not compile_filter(EventFilter()).always_false


class TestKernelCache:
    def test_fingerprint_sharing(self):
        cache = KernelCache(max_entries=8)
        a = EventFilter(agent_ids=frozenset({1, 2}))
        b = EventFilter(agent_ids=frozenset({2, 1}))
        assert cache.kernel_for(a) is cache.kernel_for(b)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_lru_bound(self):
        cache = KernelCache(max_entries=2)
        for agent in range(4):
            cache.kernel_for(EventFilter(agent_ids=frozenset({agent})))
        assert len(cache) == 2
        assert cache.stats()["misses"] == 4

    def test_giant_id_sets_compile_uncached(self):
        from repro.service.cache import CACHEABLE_ID_SET_LIMIT

        cache = KernelCache(max_entries=8)
        ids = frozenset(range(CACHEABLE_ID_SET_LIMIT + 1))
        flt = EventFilter(subject_ids=ids)
        first = cache.kernel_for(flt)
        second = cache.kernel_for(flt)
        assert first is not second
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelCache(max_entries=0)

    def test_clear(self):
        cache = KernelCache(max_entries=4)
        cache.kernel_for(EventFilter(agent_ids=frozenset({1})))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_shared_cache_helpers(self):
        before = kernel_cache_stats()
        kernel_for(EventFilter(agent_ids=frozenset({123456})))
        after = kernel_cache_stats()
        assert after["hits"] + after["misses"] >= before["hits"] + before["misses"]


class TestToggle:
    def test_use_kernels_restores(self):
        assert kernels_enabled()
        with use_kernels(False):
            assert not kernels_enabled()
            with use_kernels(True):
                assert kernels_enabled()
            assert not kernels_enabled()
        assert kernels_enabled()

    def test_toggle_switches_scan_paths(self, world):
        registry, proc, fobj, _, event, _ = world
        from repro.storage.table import EventTable

        table = EventTable(registry.get)
        table.append(event)
        flt = EventFilter(subject_pred=leaf("exe_name", "=", "%ssh%"))
        with use_kernels(False):
            interpreted = table.scan(flt)
        with use_kernels(True):
            compiled = table.scan(flt)
        assert interpreted == compiled == [event]


# ---------------------------------------------------------------------------
# block selection against the interpreter
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402



def _block_of(events):
    block = ColumnBlock()
    for event in events:
        block.append(event)
    return block


def interpreted_positions(flt, events, lookup):
    """The positions of ``events`` the interpreter (the oracle) accepts."""
    return [
        i
        for i, ev in enumerate(events)
        if flt.matches(ev, lookup(ev.subject_id), lookup(ev.object_id))
    ]


class TestSelect:
    """kernel.select(block, candidates) == the rows flt.matches accepts."""

    def _events(self, world):
        registry, proc, fobj, conn, event, net_event = world
        return [event, net_event]

    def assert_equivalent(self, flt, events, lookup):
        kernel = compile_filter(flt)
        block = _block_of(events)
        expected = interpreted_positions(flt, events, lookup)
        assert list(kernel.select(block, range(len(events)), lookup)) == expected

    def test_unconstrained_select_passes_candidates_through(self, world):
        registry = world[0]
        kernel = compile_filter(EventFilter())
        block = _block_of(self._events(world))
        candidates = range(2)
        assert kernel.select(block, candidates, registry.get) is candidates

    def test_constant_false_selects_nothing(self, world):
        registry = world[0]
        flt = EventFilter(subject_ids=frozenset())
        kernel = compile_filter(flt)
        block = _block_of(self._events(world))
        assert kernel.select(block, range(2), registry.get) == []

    def test_window_bisects_sorted_blocks(self, world):
        registry = world[0]
        flt = EventFilter(window=TimeWindow(start=1500.0, end=2500.0))
        self.assert_equivalent(flt, self._events(world), registry.get)

    def test_structural_and_predicate_passes(self, world):
        registry, proc, fobj, conn, event, net_event = world
        events = [event, net_event]
        cases = [
            EventFilter(agent_ids=frozenset({2})),
            EventFilter(operations=frozenset({Operation.READ})),
            EventFilter(object_type=EntityType.NETWORK),
            EventFilter(subject_ids=frozenset({proc.id})),
            EventFilter(object_ids=frozenset({conn.id})),
            EventFilter(subject_pred=leaf("user", "=", "root")),
            EventFilter(object_pred=leaf("dst_port", "=", 4444)),
            EventFilter(event_pred=leaf("amount", ">", 100)),
        ]
        for flt in cases:
            self.assert_equivalent(flt, events, registry.get)

    def test_vacuous_passes_are_hoisted(self, world):
        registry, proc, fobj, conn, event, net_event = world
        # every row is READ/FILE: the op/otype passes must not narrow
        events = [event]
        flt = EventFilter(
            operations=frozenset({Operation.READ}),
            object_type=EntityType.FILE,
        )
        kernel = compile_filter(flt)
        block = _block_of(events)
        candidates = range(1)
        assert kernel.select(block, candidates, registry.get) is candidates

    def test_entity_memo_consistent_across_blocks(self, world):
        registry, proc, fobj, conn, event, net_event = world
        flt = EventFilter(subject_pred=leaf("exe_name", "=", "sshd"))
        kernel = compile_filter(flt)
        for _ in range(2):  # second round hits the kernel-lifetime memo
            for events in ([event], [event, net_event]):
                block = _block_of(events)
                got = kernel.select(block, range(len(events)), registry.get)
                assert list(got) == list(range(len(events)))


# -- property equivalence ----------------------------------------------------

_prop_registry = EntityRegistry()
_PROP_ENTITIES = [
    _prop_registry.process(1, 100, "sshd", user="root", cmd="/usr/sbin/sshd -D"),
    _prop_registry.process(2, 200, "nginx", user="www", cmd="nginx -g daemon"),
    _prop_registry.file(1, "/etc/passwd", owner="root"),
    _prop_registry.file(2, "/var/log/auth.log", owner="syslog"),
    _prop_registry.connection(1, "10.0.0.5", 51000, "166.213.1.129", 4444),
]
_PROP_PROCESSES = _PROP_ENTITIES[:2]

_prop_attrs = st.sampled_from(
    ("exe_name", "user", "cmd", "name", "owner", "dst_port", "amount", "id")
)
_prop_scalars = st.one_of(
    st.integers(min_value=-5, max_value=5000),
    st.sampled_from(["sshd", "root", "%ssh%", "%a%", ""]),
)
_prop_preds = st.one_of(
    st.builds(
        AttrPredicate,
        attr=_prop_attrs,
        op=st.sampled_from(("=", "!=", "<", ">")),
        value=_prop_scalars,
    ),
    st.builds(
        AttrPredicate,
        attr=_prop_attrs,
        op=st.sampled_from(("in", "not in")),
        value=st.lists(_prop_scalars, max_size=3).map(tuple),
    ),
)

_prop_trees = st.recursive(
    st.builds(PredicateLeaf, _prop_preds),
    lambda children: st.one_of(
        st.builds(PredicateNot, children),
        st.builds(lambda a, b: PredicateAnd((a, b)), children, children),
        st.builds(lambda a, b: PredicateOr((a, b)), children, children),
    ),
    max_leaves=4,
)

_prop_filters = st.builds(
    EventFilter,
    agent_ids=st.none() | st.frozensets(st.integers(1, 3), max_size=2),
    window=st.just(TimeWindow())
    | st.builds(
        lambda start, length: TimeWindow(start=start, end=start + length),
        start=st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
        length=st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
    ),
    operations=st.none()
    | st.frozensets(st.sampled_from(list(Operation)), max_size=3),
    object_type=st.none() | st.sampled_from(list(EntityType)),
    subject_pred=st.none() | _prop_trees,
    object_pred=st.none() | _prop_trees,
    event_pred=st.none() | _prop_trees,
    subject_ids=st.none()
    | st.frozensets(st.integers(min_value=0, max_value=8), max_size=4),
    object_ids=st.none()
    | st.frozensets(st.integers(min_value=0, max_value=8), max_size=4),
)

_prop_events = st.builds(
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
    subject=st.sampled_from(_PROP_PROCESSES),
    obj=st.sampled_from(_PROP_ENTITIES),
    amount=st.integers(min_value=0, max_value=10_000),
)


class TestSelectProperties:
    @settings(max_examples=120, deadline=None)
    @given(flt=_prop_filters, events=st.lists(_prop_events, max_size=12))
    def test_select_equals_interpreter(self, flt, events):
        # sorted + unsorted blocks exercise both window pass shapes
        for ordering in (events, sorted(events, key=lambda e: e.start_time)):
            block = _block_of(ordering)
            kernel = compile_filter(flt)
            lookup = _prop_registry.get
            expected = interpreted_positions(flt, ordering, lookup)
            got = kernel.select(block, range(len(ordering)), lookup)
            assert list(got) == expected


# -- numeric column passes (ISSUE 20) -----------------------------------------

from repro.storage.kernels import _split_event_predicate  # noqa: E402

_NUMERIC_ATTRS = (
    "amount", "seq", "failure_code", "id", "starttime", "endtime",
    "event_id", "start_time", "subject_id",
)
def _event_trees(events):
    """Event predicate trees over the columns of ``events``.

    A numeric leaf's literal sits on or next to a value its own column
    holds, as int and as float, so every operator meets its boundary: an
    int column against a float literal, a float column against an int.
    """

    def literals_for(attr):
        held = sorted({ev.attribute(attr) for ev in events})
        return st.sampled_from(held).flatmap(
            lambda v: st.sampled_from(
                [v, float(v), int(v), v + 0.5, int(v) - 1, -v]
            )
        )

    numeric_leaves = st.sampled_from(_NUMERIC_ATTRS).flatmap(
        lambda attr: st.builds(
            leaf,
            st.just(attr),
            st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
            literals_for(attr),
        )
    )
    # Leaves the column passes must leave to the per-row path: a string
    # literal (coerced per runtime type), a decoded attribute, an IN list.
    fallback_leaves = st.one_of(
        st.builds(
            leaf,
            st.sampled_from(_NUMERIC_ATTRS),
            st.sampled_from(("=", "!=", "<", ">")),
            st.sampled_from(["512", "5.5", "abc", "%1%", ""]),
        ),
        st.builds(
            leaf, st.just("optype"), st.just("="), st.sampled_from(["read", 3])
        ),
        st.builds(
            leaf, st.just("agentid"), st.sampled_from(("=", ">")), st.integers(0, 3)
        ),
        st.builds(
            leaf,
            st.just("amount"),
            st.sampled_from(("in", "not in")),
            st.lists(st.integers(0, 20), max_size=3).map(tuple),
        ),
    )
    conjunctions = lambda children: st.lists(  # noqa: E731
        children, min_size=2, max_size=3
    ).map(lambda cs: PredicateAnd(tuple(cs)))
    return st.recursive(
        st.one_of(numeric_leaves, numeric_leaves, fallback_leaves),
        lambda children: st.one_of(
            conjunctions(children),
            conjunctions(children),
            st.builds(PredicateNot, children),
            st.builds(lambda a, b: PredicateOr((a, b)), children, children),
        ),
        max_leaves=5,
    )


_numeric_events = st.builds(
    lambda eid, start, length, amount, failure: SystemEvent(
        event_id=eid,
        agent_id=1 + eid % 3,
        seq=eid * 7 % 50,
        start_time=start,
        end_time=start + length,
        operation=Operation.WRITE if eid % 2 else Operation.READ,
        subject_id=_PROP_PROCESSES[eid % 2].id,
        object_id=_PROP_ENTITIES[2].id,
        object_type=EntityType.FILE,
        amount=amount,
        failure_code=failure,
    ),
    eid=st.integers(min_value=1, max_value=200),
    start=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False)
    | st.sampled_from([512.0, 1000.5, 0.0]),
    length=st.sampled_from([0.0, 0.5, 1.0]),
    amount=st.integers(min_value=-50, max_value=6000) | st.sampled_from([512, 0]),
    failure=st.integers(min_value=-2, max_value=2),
)


class TestColumnPasses:
    """Numeric event-predicate leaves run over the raw column, with exactly
    the answer the interpreter gives row by row."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), structural=st.booleans())
    def test_select_equals_per_row_predicate(self, data, structural):
        events = data.draw(st.lists(_numeric_events, min_size=1, max_size=12))
        tree = data.draw(_event_trees(events))
        flt = EventFilter(
            event_pred=tree,
            # With an operation constraint the passes see a position list,
            # without one a range.
            operations=frozenset({Operation.WRITE}) if structural else None,
        )
        block = _block_of(events)
        lookup = _prop_registry.get
        kernel = compile_filter(flt)
        expected = interpreted_positions(flt, events, lookup)
        assert list(kernel.select(block, range(len(events)), lookup)) == expected

    def test_every_operator_at_every_boundary(self):
        # Exhaustive where the property is random: each column, each
        # operator, each literal on, beside and of the other numeric type
        # than a value the column holds.
        events = [
            SystemEvent(
                event_id=eid,
                agent_id=1,
                seq=seq,
                start_time=start,
                end_time=start + 0.5,
                operation=Operation.READ,
                subject_id=_PROP_PROCESSES[0].id,
                object_id=_PROP_ENTITIES[2].id,
                object_type=EntityType.FILE,
                amount=amount,
                failure_code=failure,
            )
            for eid, seq, start, amount, failure in [
                (1, 0, 0.0, -5, 0),
                (2, 7, 511.5, 512, -1),
                (3, 7, 512.0, 513, 2),
                (4, 9, 1000.5, 0, 0),
            ]
        ]
        block = _block_of(events)
        lookup = _prop_registry.get
        checked = 0
        for attr in _NUMERIC_ATTRS:
            held = {ev.attribute(attr) for ev in events}
            literals = {
                variant
                for v in held
                for variant in (v, float(v), int(v), v + 0.5, v - 1)
            }
            for op in ("=", "!=", "<", "<=", ">", ">="):
                for value in literals:
                    test = compile_value_test(AttrPredicate(attr, op, value))
                    expected = [
                        i for i, ev in enumerate(events) if test(ev.attribute(attr))
                    ]
                    kernel = compile_filter(
                        EventFilter(event_pred=leaf(attr, op, value))
                    )
                    got = kernel.select(block, range(len(events)), lookup)
                    assert list(got) == expected, (attr, op, value)
                    checked += 1
        assert checked > 500

    def test_numeric_leaves_become_passes(self):
        passes, rest = _split_event_predicate(leaf("amount", ">", 100))
        assert len(passes) == 1 and rest is None
        passes, rest = _split_event_predicate(leaf("starttime", "<=", 10.5))
        assert len(passes) == 1 and rest is None
        tree = PredicateAnd(
            (
                leaf("amount", ">", 100),
                PredicateAnd((leaf("seq", "!=", 3), leaf("optype", "=", "read"))),
            )
        )
        passes, rest = _split_event_predicate(tree)
        assert len(passes) == 2
        assert rest == leaf("optype", "=", "read")

    @pytest.mark.parametrize(
        "tree",
        [
            leaf("amount", ">", "100"),  # string literal: coerced per type
            leaf("amount", "=", True),  # bool is not a numeric literal
            leaf("amount", "in", (1, 2)),
            leaf("optype", "=", "read"),  # decoded, not a raw column
            leaf("no_such_attribute", ">", 1),
            PredicateNot(leaf("amount", ">", 100)),
            PredicateOr((leaf("amount", ">", 100), leaf("seq", "<", 3))),
        ],
        ids=repr,
    )
    def test_everything_else_stays_per_row(self, tree):
        passes, rest = _split_event_predicate(tree)
        assert passes == [] and rest == tree


class TestWindowVacuity:
    """A window that holds a whole block costs no pass and no index walk."""

    def _event(self, eid, start):
        return SystemEvent(
            event_id=eid,
            agent_id=1,
            seq=eid,
            start_time=start,
            end_time=start + 1.0,
            operation=Operation.READ,
            subject_id=_PROP_PROCESSES[0].id,
            object_id=_PROP_ENTITIES[2].id,
            object_type=EntityType.FILE,
        )

    def _table(self, starts):
        from repro.storage.table import EventTable

        table = EventTable(_prop_registry.get)
        for eid, start in enumerate(starts, start=1):
            table.append(self._event(eid, start))
        return table

    def test_exclusive_end_at_max_time_is_not_vacuous(self):
        block = _block_of([self._event(1, 1000.0), self._event(2, 2000.0)])
        assert block.within(1000.0, None)
        assert block.within(None, 2000.5)
        assert not block.within(None, 2000.0)  # [.., 2000) drops t=2000
        assert not block.within(1000.5, None)
        flt = EventFilter(window=TimeWindow(start=1000.0, end=2000.0))
        kernel = compile_filter(flt)
        assert list(kernel.select(block, range(2), _prop_registry.get)) == [0]

    def test_covering_window_passes_candidates_through(self):
        block = _block_of([self._event(1, 1000.0), self._event(2, 2000.0)])
        kernel = compile_filter(
            EventFilter(window=TimeWindow(start=0.0, end=86400.0))
        )
        candidates = range(2)
        assert kernel.select(block, candidates, _prop_registry.get) is candidates

    def test_empty_block(self):
        table = self._table([])
        assert ColumnBlock().within(5.0, 6.0)
        flt = EventFilter(window=TimeWindow(start=0.0, end=10.0))
        assert table._candidate_positions(flt, None) == range(0)
        assert table.scan(flt) == []

    def test_unsorted_block_skips_the_time_index_only_when_covered(self):
        table = self._table([3000.0, 1000.0, 2000.0])
        assert not table.block.time_sorted
        covering = EventFilter(window=TimeWindow(start=1000.0, end=3000.5))
        assert table._candidate_positions(covering, None) == range(3)
        cutting = EventFilter(window=TimeWindow(start=1000.0, end=3000.0))
        assert sorted(table._candidate_positions(cutting, None)) == [1, 2]
        for flt in (covering, cutting):
            assert table.scan(flt) == table.full_scan(flt)

    def test_staged_rows_beyond_visible_stay_invisible(self):
        table = self._table([1000.0, 2000.0])
        # A writer mid-commit: rows are in the columns (and have widened
        # min/max) but the visibility bump has not happened.
        staged = ColumnBlock.from_events(
            [self._event(3, 500.0), self._event(4, 9000.0)]
        )
        table.block.extend_rows(staged)
        assert len(table.block) == 4 and len(table) == 2
        inside = EventFilter(window=TimeWindow(start=0.0, end=10_000.0))
        assert table._candidate_positions(inside, None) == range(2)
        assert [e.event_id for e in table.scan(inside)] == [1, 2]
        # [1000, 2000.5) held the visible rows but no longer the block:
        # the pass runs, and still only over the visible prefix.
        visible_only = EventFilter(window=TimeWindow(start=1000.0, end=2000.5))
        assert [e.event_id for e in table.scan(visible_only)] == [1, 2]
