"""The tiered scan narrows once, for both tiers.

``TieredStore.scan_columns`` resolves index-servable entity predicates to
id sets through the hot store's entity attribute index and hands the
narrowed filter to the cold tier too, so zone maps prune by id and the
kernel cuts a surviving segment's rows by id.  These tests pin:

* every corpus pattern over an all-cold and a mixed hot+cold store equals
  an oracle built from the pre-compaction hot blocks and
  ``EventFilter.matches``, with ``use_entity_index`` on and off;
* a segment whose zone-map subjects miss the resolved ids is never
  fetched;
* the index still covers entities only cold segments reference after a
  full restart (snapshot + WAL + cold);
* a batch that commits while a scan runs (and stays hot, is compacted
  cold, or is split across the tiers) is seen whole or not at all, and
  the selection memo keys on the filter before resolution.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.model.entities import EntityType
from repro.model.time import DAY
from repro.storage.database import EventStore, narrow_with_index
from repro.storage.filters import AttrPredicate, EventFilter, PredicateLeaf
from repro.storage.ingest import Ingestor
from repro.tier import store as tier_store
from repro.tier.cold import CACHEABLE_ID_SET_LIMIT, ColdTier
from repro.tier.store import TieredStore
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise
from tests.conftest import compile_text
from tests.tier.conftest import EventFeed, day_ts
from tests.oracle import rows


def corpus_filters():
    """Every distinct pattern filter of the query corpus."""
    seen = {}
    for query in ALL_QUERIES:
        for pattern in getattr(compile_text(query.text), "patterns", ()):
            seen.setdefault(repr(pattern.filter), (query.qid, pattern.filter))
    return list(seen.values())


CORPUS_FILTERS = corpus_filters()


def exe_is(name: str) -> EventFilter:
    return EventFilter(
        subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", name))
    )


def resolve_exe(store, name: str):
    """The process ids the store's entity index resolves ``name`` to."""
    return store.entity_index.candidates(
        EntityType.PROCESS, (AttrPredicate("exe_name", "=", name),)
    )


def ids(events):
    return [e.event_id for e in events]


def build_tiered(tmp_path, all_cold: bool):
    """A durable system holding an enterprise corpus compacted cold (all
    of it, or all but the newest two days), and the pre-compaction rows
    read off the hot store's column blocks: the oracle's input."""
    system = AIQLSystem(
        SystemConfig(
            data_dir=str(tmp_path),
            retention_days=2,
            compact_interval_s=3600,
            wal_sync=False,
        )
    )
    build_enterprise(stores=(), ingestor=system.ingestor, events_per_host_day=40)
    store = system.store
    rows = [
        block.event_at(p)
        for block, visible in store.hot.column_blocks()
        for p in range(visible)
    ]
    if all_cold:
        # A horizon a month past the newest event: every day goes cold.
        newest = store.time_range()[1]
        report = store.compact(retention_days=1, now=newest + 30 * DAY)
        assert len(store.hot) == 0
    else:
        report = store.compact()
        assert len(store.hot) > 0
    assert report.moved and store.cold.event_count > 0
    return system, rows


@pytest.fixture(scope="module", params=["all_cold", "mixed"])
def corpus_store(request, tmp_path_factory):
    system, rows = build_tiered(
        tmp_path_factory.mktemp(f"narrow-{request.param}"),
        all_cold=request.param == "all_cold",
    )
    yield system.store, rows
    system.close()


class TestCorpusOracle:
    @pytest.mark.parametrize(
        "qid,flt",
        CORPUS_FILTERS,
        ids=[f"{qid}-{i}" for i, (qid, _) in enumerate(CORPUS_FILTERS)],
    )
    @pytest.mark.parametrize("use_entity_index", [True, False], ids=["index", "raw"])
    def test_scan_equals_oracle(self, corpus_store, qid, flt, use_entity_index):
        store, stored = corpus_store
        get = store.registry.get
        expected = sorted(
            (
                e
                for e in stored
                if flt.matches(e, get(e.subject_id), get(e.object_id))
            ),
            key=lambda e: (e.start_time, e.event_id),
        )
        got = rows(store, flt, use_entity_index=use_entity_index)
        assert ids(got) == ids(expected), qid

    def test_corpus_reaches_the_cold_tier(self, corpus_store):
        # The oracle comparison means something only if corpus patterns
        # select cold rows through the narrowed path.
        store, _ = corpus_store
        cold_hits = sum(
            len(s)
            for _, flt in CORPUS_FILTERS
            for s in store.cold.scan_selections(
                narrow_with_index(flt, store.entity_index)
            )
        )
        assert cold_hits > 0


@pytest.fixture
def small_tiered(tmp_path):
    """Three agents in two agent groups, each with its own process, six
    days, the oldest four compacted cold; no selection memo, so every
    surviving segment is fetched."""
    ingestor = Ingestor()
    hot = EventStore(registry=ingestor.registry)
    cold = ColdTier(
        tmp_path / "cold", ingestor.registry.get, scan_cache_entries=0
    )
    store = TieredStore(hot, cold, retention_days=2)
    ingestor.attach(store)
    feed = EventFeed(ingestor)
    for day in range(6):
        for agent in (1, 2, 25):
            for i in range(3):
                feed.emit(agent, day_ts(day, 300.0 * i))
    store.compact()
    return store


def spy_fetches(monkeypatch):
    fetched = []
    fetch = ColdTier._fetch

    def spy(self, zone):
        fetched.append(zone.filename)
        return fetch(self, zone)

    monkeypatch.setattr(ColdTier, "_fetch", spy)
    return fetched


class TestZonePruningById:
    def test_segment_missing_resolved_ids_is_never_fetched(
        self, small_tiered, monkeypatch
    ):
        store = small_tiered
        flt = exe_is("worker25.exe")
        wanted = resolve_exe(store, "worker25.exe")
        assert len(wanted) == 1
        missing = {
            z.filename
            for z in store.cold.zones
            if z.subjects.isdisjoint(wanted)
        }
        holding = {z.filename for z in store.cold.zones} - missing
        assert missing and holding  # agents 1, 2 and 25 are in two groups

        fetched = spy_fetches(monkeypatch)
        got = rows(store, flt)
        assert {e.agent_id for e in got} == {25}
        assert len(got) == 6 * 3
        assert set(fetched) == holding

    def test_raw_filter_fetches_every_segment(self, small_tiered, monkeypatch):
        # The use_entity_index=False baseline keeps the raw filter on the
        # cold tier too: the zone maps cannot prune by entity.
        store = small_tiered
        fetched = spy_fetches(monkeypatch)
        narrowed = rows(store, exe_is("worker25.exe"))
        raw = rows(store, exe_is("worker25.exe"), use_entity_index=False)
        assert ids(raw) == ids(narrowed)
        assert set(fetched) >= {z.filename for z in store.cold.zones}

    def test_unknown_entity_prunes_everything(self, small_tiered, monkeypatch):
        store = small_tiered
        fetched = spy_fetches(monkeypatch)
        assert rows(store, exe_is("nosuch.exe")) == []
        assert fetched == []


def exe_like(pattern: str) -> EventFilter:
    return EventFilter(
        subject_pred=PredicateLeaf(AttrPredicate("exe_name", "=", pattern))
    )


def memo_tiered(tmp_path, retention_days=1):
    """An empty tiered store with the selection memo on, and its feed."""
    ingestor = Ingestor()
    hot = EventStore(registry=ingestor.registry)
    cold = ColdTier(tmp_path / "cold", ingestor.registry.get)
    store = TieredStore(hot, cold, retention_days=retention_days)
    ingestor.attach(store)
    return store, EventFeed(ingestor)


class TestSelectionMemo:
    def test_new_matching_entity_keeps_the_memo(self, tmp_path):
        # A LIKE pattern's resolution grows when a newly registered entity
        # matches it.  The memo keys on the filter before resolution, so
        # the old segments' entries keep answering, and the new entity's
        # events, in a segment published since, are found as well.
        store, feed = memo_tiered(tmp_path)
        cold, ingestor = store.cold, feed.ingestor
        like = exe_like("%.exe")
        for day in range(3):
            feed.emit(1, day_ts(day))
        store.compact()
        first = rows(store, like)
        assert len(first) == 3 and cold.event_count == 2
        # A second process on agent 1 writes on day 0 (which is cold by
        # the next compaction) — its events join the pattern's matches.
        other = ingestor.process(1, 999, "other.exe")
        fobj = ingestor.file(1, "/tmp/other.log")
        ingestor.emit(1, day_ts(0, 7200.0), "write", other, fobj)
        store.compact(now=day_ts(2))
        assert len(store.hot) == 1
        hits = cold.scan_cache_hits
        again = rows(store, like)
        assert cold.scan_cache_hits - hits == 2  # the two older segments
        assert len(again) == 4
        assert ids(again) == ids(rows(store, like, use_entity_index=False))

    def test_broad_resolution_still_caches(self, tmp_path):
        # A pattern resolving to more ids than a scheduler join set may
        # carry into the memo key still caches: the key holds no ids.
        store, feed = memo_tiered(tmp_path)
        ingestor = feed.ingestor
        fobj = ingestor.file(1, "/tmp/many.log")
        for pid in range(CACHEABLE_ID_SET_LIMIT + 10):
            proc = ingestor.process(1, 1000 + pid, f"tool{pid}.exe")
            ingestor.emit(1, day_ts(0, 10.0 * pid), "write", proc, fobj)
        feed.emit(1, day_ts(2))
        store.compact()
        like = exe_like("tool%")
        resolved = narrow_with_index(like, store.entity_index).subject_ids
        assert len(resolved) > CACHEABLE_ID_SET_LIMIT
        first = rows(store, like)
        assert len(first) == len(resolved)
        hits = store.cold.scan_cache_hits
        assert rows(store, like) == first
        assert store.cold.scan_cache_hits > hits


def run_once(during):
    """A wrapper for ``inner`` that calls ``during()`` once, right after
    the first call of ``inner`` returns."""
    pending = [during]

    def wrap(inner):
        def racing(*args, **kwargs):
            result = inner(*args, **kwargs)
            while pending:
                pending.pop()()
            return result

        return racing

    return wrap


class TestResolutionRaces:
    """A batch that commits while a tiered scan runs is seen whole or not
    at all, wherever the scan is when it lands."""

    def commit_with_newcomer(self, feed, days):
        """Commit one batch: a row of the known ``worker1.exe`` and one of
        a ``worker9.exe`` registered just now, on two agents of one agent
        group (rows of one day land in one partition, one segment)."""
        ingestor = feed.ingestor
        proc, fobj = feed.entities(1)
        newcomer = ingestor.process(2, 909, "worker9.exe")
        nfile = ingestor.file(2, "/tmp/new.log")
        events = [
            ingestor.build_event(1, day_ts(days[0], 600.0), "write", proc, fobj),
            ingestor.build_event(2, day_ts(days[1], 900.0), "write", newcomer, nfile),
        ]
        ingestor.commit(events)
        return {e.event_id for e in events}

    def scan_racing(self, store, monkeypatch, target, attr, during):
        """The ids a ``worker%`` scan sees when ``during()`` runs right
        after its first call of ``target.attr``."""
        monkeypatch.setattr(target, attr, run_once(during)(getattr(target, attr)))
        return {e.event_id for e in rows(store, exe_like("worker%"))}

    @pytest.mark.parametrize("compact", [False, True], ids=["hot", "compacted"])
    def test_batch_committed_after_resolving(self, tmp_path, monkeypatch, compact):
        # Right after the ids resolve: the newcomer's rows would be lost
        # to the narrowed filter, in the hot store or, once compacted, in
        # a segment the scan meets.
        store, feed = memo_tiered(tmp_path)
        for day in (0, 2):
            feed.emit(1, day_ts(day))
        store.compact()
        batch = set()
        segments = len(store.cold.zones)

        def commit():
            batch.update(self.commit_with_newcomer(feed, (0, 0)))
            if compact:
                store.compact()

        first = self.scan_racing(
            store, monkeypatch, tier_store, "narrow_with_index", commit
        )
        assert len(batch) == 2
        assert len(store.cold.zones) == segments + compact
        assert first & batch in (set(), batch)
        hits = store.cold.scan_cache_hits
        assert batch <= {e.event_id for e in rows(store, exe_like("worker%"))}
        if compact:
            # The young segment was memoized under the raw filter, whole.
            assert store.cold.scan_cache_hits > hits

    def test_batch_split_across_tiers_mid_scan(self, tmp_path, monkeypatch):
        # After the hot scan and before the cold one, a batch on an old
        # and a new day commits and its old-day row is compacted cold: the
        # hot scan never saw the new-day row, so the cold one must not
        # show the old-day row.
        store, feed = memo_tiered(tmp_path)
        for day in (0, 3):
            feed.emit(1, day_ts(day))
        store.compact()
        batch = set()

        def commit_and_compact():
            batch.update(self.commit_with_newcomer(feed, (0, 3)))
            store.compact()

        first = self.scan_racing(
            store, monkeypatch, store.hot, "scan_columns", commit_and_compact
        )
        assert len(batch) == 2 and len(store.hot) == 2  # one row moved cold
        assert first & batch in (set(), batch)
        assert batch <= {e.event_id for e in rows(store, exe_like("worker%"))}


class TestRestartCoverage:
    @pytest.mark.parametrize("checkpointed", [True, False], ids=["snapshot", "wal"])
    def test_cold_only_entity_found_after_restart(self, tmp_path, checkpointed):
        data = tmp_path / "data"
        config = SystemConfig(
            data_dir=str(data), compact_interval_s=3600, wal_sync=False
        )
        system = AIQLSystem(config)
        feed = EventFeed(system.ingestor)
        # Agent 25's process appears on day 0 only; later days are agent 1.
        feed.emit(25, day_ts(0))
        feed.emit(25, day_ts(0, 7200.0))
        for day in range(1, 4):
            feed.emit(1, day_ts(day))
        system.compact(retention_days=2)
        assert system.store.cold.event_count == 3
        if checkpointed:
            system.checkpoint()  # the snapshot carries the whole registry
        feed.emit(1, day_ts(3, 7200.0))  # a WAL record after it
        expected = ids(rows(system.store, exe_is("worker25.exe")))
        assert len(expected) == 2
        del system  # crash: no close

        with AIQLSystem.recover(str(data)) as recovered:
            store = recovered.store
            assert not any(
                e.agent_id == 25 for e in rows(store.hot, EventFilter())
            )
            wanted = resolve_exe(store, "worker25.exe")
            assert wanted  # the index covers the cold-only entity
            assert ids(rows(store, exe_is("worker25.exe"))) == expected
            assert ids(
                rows(store, exe_is("worker25.exe"), use_entity_index=False)
            ) == expected
