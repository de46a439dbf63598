"""Filter fingerprints: the key of the cold tier's per-segment selection cache."""

from repro.model.time import DAY, TimeWindow
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateNot,
    PredicateOr,
    canonical_predicate,
    filter_fingerprint,
)


def leaf(attr, op, value):
    return PredicateLeaf(AttrPredicate(attr, op, value))


class TestFilterFingerprint:
    def test_equal_filters_equal_fingerprints(self):
        a = EventFilter(agent_ids=frozenset({1, 2}))
        b = EventFilter(agent_ids=frozenset({2, 1}))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_and_children_order_insensitive(self):
        x, y = leaf("exe_name", "=", "bash"), leaf("user", "=", "root")
        a = EventFilter(subject_pred=PredicateAnd((x, y)))
        b = EventFilter(subject_pred=PredicateAnd((y, x)))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_or_children_order_insensitive(self):
        x, y = leaf("name", "=", "%.sh"), leaf("name", "=", "%.py")
        a = EventFilter(object_pred=PredicateOr((x, y)))
        b = EventFilter(object_pred=PredicateOr((y, x)))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_case_insensitive_values_share_fingerprint(self):
        # String matching is case-insensitive throughout, so the
        # fingerprint must fold case or equal filters would miss.
        a = EventFilter(subject_pred=leaf("exe_name", "=", "BASH"))
        b = EventFilter(subject_pred=leaf("exe_name", "=", "bash"))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_in_list_order_and_container_insensitive(self):
        a = EventFilter(event_pred=leaf("amount", "in", (1, 2, 3)))
        b = EventFilter(event_pred=leaf("amount", "in", [3, 1, 2]))
        assert filter_fingerprint(a) == filter_fingerprint(b)

    def test_ordered_comparisons_do_not_fold_case(self):
        # Regression: < <= > >= compare raw strings at match time
        # (case-sensitive), so "ABC" and "abc" thresholds must NOT share a
        # fingerprint or the cache would serve one query the other's rows.
        a = EventFilter(subject_pred=leaf("exe_name", ">", "ABC"))
        b = EventFilter(subject_pred=leaf("exe_name", ">", "abc"))
        assert filter_fingerprint(a) != filter_fingerprint(b)

    def test_different_windows_differ(self):
        a = EventFilter(window=TimeWindow(start=0.0, end=DAY))
        b = EventFilter(window=TimeWindow(start=0.0, end=2 * DAY))
        assert filter_fingerprint(a) != filter_fingerprint(b)

    def test_not_is_preserved(self):
        a = EventFilter(subject_pred=PredicateNot(leaf("user", "=", "root")))
        b = EventFilter(subject_pred=leaf("user", "=", "root"))
        assert filter_fingerprint(a) != filter_fingerprint(b)

    def test_fingerprint_is_hashable(self):
        flt = EventFilter(
            agent_ids=frozenset({3}),
            subject_pred=PredicateAnd(
                (leaf("exe_name", "=", "a"), leaf("user", "in", ["x", "y"]))
            ),
            subject_ids=frozenset({10, 11}),
        )
        hash(filter_fingerprint(flt))
        assert canonical_predicate(None) is None
