"""Stateful property: the incremental HashIndex against a memo-free one.

The index keeps equality and LIKE answers across inserts (the keyspace is
append-only); the reference below keeps nothing and recomputes every
answer from its buckets, which is how the index behaved when every insert
cleared its memo.  Any interleaving of adds and lookups must agree, and a
set handed out earlier must still hold what it held.
"""

from collections import defaultdict

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage.filters import like_to_regex
from repro.storage.index import HashIndex

# Few keys and few patterns, so the same pattern is looked up again after
# adds under keys it had matched, keys differ only in case, and every
# pattern hits some keys and misses others; '_' is a literal in this dialect.
STRING_KEYS = st.sampled_from(
    ["a", "A", "ab", "aB", "a_b", "a.b", "/a", "/a/b", "/A/b", "b", "b_", ""]
)
KEYS = st.one_of(STRING_KEYS, st.integers(min_value=0, max_value=3))
IDS = st.integers(min_value=0, max_value=30)
PATTERNS = st.sampled_from(
    ["%", "a%", "A%", "%b", "%/%", "a_%", "%.%", "/a%", "%_", "a%b", "%%"]
)


class ReferenceIndex:
    """Value -> ids with no memo at all."""

    def __init__(self):
        self.buckets = defaultdict(set)

    @staticmethod
    def norm(value):
        return value.lower() if isinstance(value, str) else value

    def add(self, value, item_id):
        self.buckets[self.norm(value)].add(item_id)

    def lookup(self, value):
        return frozenset(self.buckets.get(self.norm(value), ()))

    def lookup_in(self, values):
        out = set()
        for value in values:
            out |= self.buckets.get(self.norm(value), set())
        return frozenset(out)

    def lookup_like(self, pattern):
        regex = like_to_regex(pattern)
        out = set()
        for key, ids in self.buckets.items():
            if isinstance(key, str) and regex.match(key):
                out |= ids
        return frozenset(out)


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = HashIndex()
        self.reference = ReferenceIndex()
        self.handed_out = []  # (answer, its contents when handed out)

    def _check(self, answer, expected):
        assert isinstance(answer, frozenset)
        assert answer == expected
        self.handed_out.append((answer, set(answer)))

    @rule(key=KEYS, item_id=IDS)
    def add(self, key, item_id):
        self.index.add(key, item_id)
        self.reference.add(key, item_id)

    @rule(key=KEYS)
    def lookup(self, key):
        self._check(self.index.lookup(key), self.reference.lookup(key))

    @rule(keys=st.lists(KEYS, max_size=4))
    def lookup_in(self, keys):
        self._check(self.index.lookup_in(keys), self.reference.lookup_in(keys))

    @rule(pattern=PATTERNS)
    def lookup_like(self, pattern):
        self._check(
            self.index.lookup_like(pattern), self.reference.lookup_like(pattern)
        )

    @invariant()
    def handed_out_sets_are_unchanged(self):
        for answer, contents in self.handed_out:
            assert answer == contents

    @invariant()
    def same_keyspace(self):
        assert len(self.index) == len(self.reference.buckets)


IndexMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestIncrementalIndex = IndexMachine.TestCase
