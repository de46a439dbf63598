"""Unit tests for repro.storage.index."""

import repro.storage.index as index_module
from repro.model.entities import EntityRegistry, EntityType
from repro.obs import REGISTRY
from repro.storage.filters import AttrPredicate
from repro.storage.index import (
    EntityAttributeIndex,
    HashIndex,
    SortedTimeIndex,
)


def keys_tested() -> float:
    return REGISTRY.get("aiql_index_like_keys_tested_total").value()


class TestHashIndex:
    def test_exact_lookup(self):
        idx = HashIndex()
        idx.add("bash", 1)
        idx.add("bash", 2)
        idx.add("zsh", 3)
        assert idx.lookup("bash") == frozenset({1, 2})
        assert idx.lookup("fish") == frozenset()

    def test_case_insensitive_keys(self):
        idx = HashIndex()
        idx.add("CMD.EXE", 1)
        assert idx.lookup("cmd.exe") == frozenset({1})

    def test_lookup_in(self):
        idx = HashIndex()
        idx.add("a", 1)
        idx.add("b", 2)
        assert idx.lookup_in(["a", "b", "c"]) == frozenset({1, 2})

    def test_lookup_like(self):
        idx = HashIndex()
        idx.add("/usr/bin/telnetd", 1)
        idx.add("/usr/bin/sshd", 2)
        assert idx.lookup_like("%telnet%") == frozenset({1})
        assert idx.lookup_like("/usr/bin/%") == frozenset({1, 2})

    def test_lookup_predicate(self):
        idx = HashIndex()
        idx.add("x", 1)
        assert idx.lookup_predicate(AttrPredicate("a", "=", "x")) == frozenset({1})
        assert idx.lookup_predicate(AttrPredicate("a", "in", ("x", "y"))) == frozenset({1})
        assert idx.lookup_predicate(AttrPredicate("a", ">", 1)) is None
        assert idx.lookup_predicate(AttrPredicate("a", "!=", "x")) is None

    def test_numeric_keys(self):
        idx = HashIndex()
        idx.add(4444, 1)
        assert idx.lookup(4444) == frozenset({1})


class TestAnswersSurviveInserts:
    """The keyspace only grows, so an answer is extended, not recomputed."""

    def test_like_tests_only_the_keys_added_since(self):
        idx = HashIndex()
        for i in range(50):
            idx.add(f"/usr/bin/tool{i}", i)
        before = keys_tested()
        assert len(idx.lookup_like("/usr/bin/%")) == 50
        assert keys_tested() == before + 50
        idx.lookup_like("/usr/bin/%")
        assert keys_tested() == before + 50  # warm: nothing to test
        idx.add("/usr/bin/new", 50)
        idx.add("/etc/passwd", 51)
        assert idx.lookup_like("/usr/bin/%") == frozenset(range(51))
        assert keys_tested() == before + 52
        idx.add("/usr/bin/tool7", 52)  # no new key: a new id under a match
        grown = idx.lookup_like("/usr/bin/%")
        assert grown == frozenset(range(51)) | {52}
        assert keys_tested() == before + 52
        assert idx.lookup_like("/usr/bin/%") is grown  # caught up: no rebuild
        idx.add("/etc/passwd", 53)  # a bucket the pattern never matched
        assert idx.lookup_like("/usr/bin/%") is grown

    def test_like_picks_up_a_new_id_under_an_already_matched_key(self):
        idx = HashIndex()
        idx.add("cmd.exe", 1)
        assert idx.lookup_like("%.exe") == frozenset({1})
        idx.add("CMD.EXE", 2)
        idx.add("notes.txt", 3)
        assert idx.lookup_like("%.exe") == frozenset({1, 2})

    def test_a_pattern_that_matched_nothing_yet_still_sees_new_keys(self):
        idx = HashIndex()
        idx.add("a", 1)
        assert idx.lookup_like("z%") == frozenset()
        idx.add("zz", 2)
        assert idx.lookup_like("z%") == frozenset({2})

    def test_like_ignores_non_string_keys(self):
        idx = HashIndex()
        idx.add(4444, 1)
        idx.add("4444", 2)
        assert idx.lookup_like("44%") == frozenset({2})
        idx.add(4445, 3)
        assert idx.lookup_like("44%") == frozenset({2})

    def test_like_memos_are_bounded_least_recently_used_first(self, monkeypatch):
        monkeypatch.setattr(index_module, "_LIKE_MEMO_PATTERNS", 2)
        idx = HashIndex()
        idx.add("abc", 1)
        idx.lookup_like("a%")
        idx.lookup_like("b%")
        idx.lookup_like("a%")
        idx.lookup_like("c%")  # drops b%
        before = keys_tested()
        idx.lookup_like("a%")
        assert keys_tested() == before
        idx.lookup_like("b%")
        assert keys_tested() == before + 1

    def test_equality_answers_are_shared_until_the_bucket_grows(self):
        idx = HashIndex()
        idx.add("bash", 1)
        first = idx.lookup("bash")
        assert idx.lookup("BASH") is first
        assert idx.lookup_in(["bash"]) is first
        idx.add("zsh", 2)
        assert idx.lookup("bash") is first  # another bucket grew
        idx.add("bash", 3)
        assert idx.lookup("bash") == frozenset({1, 3})
        assert first == frozenset({1})

    def test_returned_sets_are_never_mutated_after_hand_out(self):
        idx = HashIndex()
        handed = []  # (the set handed out, its contents at hand-out)

        def look():
            for answer in (
                idx.lookup("/tmp/a"),
                idx.lookup_in(["/tmp/a", "/tmp/b", "/nope"]),
                idx.lookup_like("/tmp/%"),
                idx.lookup_like("%"),
                idx.lookup_predicate(AttrPredicate("name", "=", "/TMP/B")),
            ):
                assert isinstance(answer, frozenset)
                handed.append((answer, set(answer)))

        look()
        for i in range(40):
            idx.add(f"/tmp/{'abc'[i % 3]}", i)
            if i % 5 == 0:
                idx.add(f"/var/{i}", 1000 + i)
            look()
        assert all(answer == contents for answer, contents in handed)
        assert idx.lookup_like("/tmp/%") == frozenset(range(40))

    def test_candidates_hand_the_index_the_callers_predicate(self, monkeypatch):
        """No per-scan AttrPredicate rebuild: the alias is resolved for
        picking the index, and the lookup reads only op and value."""
        built = []
        real_init = AttrPredicate.__post_init__

        def counting(self):
            built.append(self)
            real_init(self)

        reg = EntityRegistry()
        idx = EntityAttributeIndex()
        idx.add(reg.process(1, 10, "cmd.exe"))
        preds = [AttrPredicate("exename", "=", "%cmd%")]
        monkeypatch.setattr(AttrPredicate, "__post_init__", counting)
        assert len(idx.candidates(EntityType.PROCESS, preds)) == 1
        assert built == []


class TestEntityAttributeIndex:
    def setup_method(self):
        self.reg = EntityRegistry()
        self.idx = EntityAttributeIndex()
        self.p1 = self.reg.process(1, 10, "cmd.exe")
        self.p2 = self.reg.process(1, 11, "osql.exe")
        self.f1 = self.reg.file(1, "/var/www/a.html")
        self.n1 = self.reg.connection(1, "10.0.0.1", 1, "8.8.8.8", 443)
        for entity in (self.p1, self.p2, self.f1, self.n1):
            self.idx.add(entity)

    def test_default_coverage(self):
        assert self.idx.covers(EntityType.PROCESS, "exe_name")
        assert self.idx.covers(EntityType.FILE, "name")
        assert self.idx.covers(EntityType.NETWORK, "dst_ip")
        assert not self.idx.covers(EntityType.PROCESS, "user")

    def test_candidates_exact(self):
        preds = [AttrPredicate("exe_name", "=", "cmd.exe")]
        assert self.idx.candidates(EntityType.PROCESS, preds) == frozenset(
            {self.p1.id}
        )

    def test_candidates_like(self):
        preds = [AttrPredicate("exe_name", "=", "%sql%")]
        assert self.idx.candidates(EntityType.PROCESS, preds) == frozenset(
            {self.p2.id}
        )

    def test_candidates_unservable_returns_none(self):
        preds = [AttrPredicate("user", "=", "root")]
        assert self.idx.candidates(EntityType.PROCESS, preds) is None

    def test_candidates_intersection(self):
        preds = [
            AttrPredicate("exe_name", "=", "%exe%"),
            AttrPredicate("exe_name", "=", "cmd.exe"),
        ]
        assert self.idx.candidates(EntityType.PROCESS, preds) == frozenset(
            {self.p1.id}
        )

    def test_all_ids(self):
        assert self.idx.all_ids(EntityType.PROCESS) == frozenset(
            {self.p1.id, self.p2.id}
        )


class TestSortedTimeIndex:
    def test_in_order_append_and_range(self):
        idx = SortedTimeIndex()
        for pos, t in enumerate([1.0, 2.0, 3.0, 4.0]):
            idx.add(t, pos)
        assert idx.range(2.0, 4.0) == [1, 2]
        assert idx.range(None, 2.0) == [0]
        assert idx.range(3.0, None) == [2, 3]
        assert idx.range(None, None) == [0, 1, 2, 3]

    def test_out_of_order_insertion(self):
        idx = SortedTimeIndex()
        idx.add(5.0, 0)
        idx.add(1.0, 1)
        idx.add(3.0, 2)
        assert idx.range(None, None) == [1, 2, 0]
        assert idx.range(2.0, 4.0) == [2]

    def test_half_open_semantics(self):
        idx = SortedTimeIndex()
        idx.add(10.0, 0)
        assert idx.range(10.0, 11.0) == [0]
        assert idx.range(9.0, 10.0) == []

    def test_len(self):
        idx = SortedTimeIndex()
        idx.add(1.0, 0)
        assert len(idx) == 1


class TestConcurrentReads:
    def test_lookup_like_during_concurrent_add(self):
        """Regression: the concurrent query service reads indexes while an
        ingest thread registers entities; lookup_like used to crash with
        'dictionary changed size during iteration'."""
        import threading

        index = HashIndex()
        for i in range(100):
            index.add(f"/tmp/seed{i}", i)
        stop = threading.Event()
        errors = []

        def writer():
            i = 1000
            while not stop.is_set():
                index.add(f"/tmp/new{i}", i)
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    index.lookup_like("/tmp/%")
                    index.lookup_in([f"/tmp/seed{i}" for i in range(0, 100, 7)])
            except RuntimeError as exc:  # pragma: no cover - the old bug
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert index.lookup_like("/tmp/seed1").issuperset({1})
