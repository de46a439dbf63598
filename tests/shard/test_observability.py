"""Shard observability: per-shard scatter/gather stats and worker metrics."""

import pytest

from repro.core.config import SystemConfig
from repro.model.time import DAY
from repro.shard import ShardedStore
from repro.shard.wire import encode_result, payload_nbytes
from repro.storage.filters import EventFilter
from repro.storage.ingest import Ingestor
from tests.oracle import rows


def populate(ingestor, agents=(1, 2, 3), days=3, per_day=2):
    for agent in agents:
        shell = ingestor.process(agent, 100, "bash")
        log = ingestor.file(agent, f"/var/log/{agent}.log")
        for day in range(days):
            base = day * DAY + 60.0 * agent
            for i in range(per_day):
                ingestor.emit(agent, base + 10 * (i + 1), "write", shell, log)


@pytest.fixture(scope="module")
def sharded():
    ingestor = Ingestor()
    store = ShardedStore(ingestor, SystemConfig(shards=2))
    ingestor.attach(store)
    populate(ingestor)
    yield store
    store.close()


class TestPayloadNbytes:
    def test_counts_column_buffers_only(self, sharded):
        result = sharded.scan_columns(EventFilter())
        payload = encode_result(result)
        expected = sum(
            len(v) for v in payload.values()
            if isinstance(v, (bytes, bytearray))
        )
        assert payload_nbytes(payload) == expected
        assert payload_nbytes(payload) > 0


class TestPerShardStats:
    def test_merged_keys_preserved(self, sharded):
        rows(sharded, EventFilter())
        stats = sharded.stats()
        assert stats["shards"] == 2
        assert stats["events"] == len(sharded)
        assert sum(stats["shard_events"]) == len(sharded)
        assert len(stats["per_shard"]) == 2

    def test_per_shard_scatter_gather_detail(self, sharded):
        gathered_rows = len(rows(sharded, EventFilter()))
        stats = sharded.stats()
        for shard, entry in enumerate(stats["per_shard"]):
            sg = entry["scatter_gather"]
            assert entry["shard"] == shard
            assert sg["shard"] == shard
            assert sg["recv_seconds"] >= 0.0
            # Every event routed in was gathered back at least once by
            # the full scans above.
            assert sg["rows_gathered"] >= sg["events_routed"]
        routed = [e["scatter_gather"]["events_routed"]
                  for e in stats["per_shard"]]
        assert sum(routed) == len(sharded)
        assert all(n > 0 for n in routed)  # both shards own partitions
        gathered = [e["scatter_gather"]["bytes_gathered"]
                    for e in stats["per_shard"]]
        assert all(b > 0 for b in gathered)
        assert gathered_rows > 0

    def test_merged_scatter_gather_is_sum_of_per_shard(self, sharded):
        rows(sharded, EventFilter())
        stats = sharded.stats()
        merged = stats["scatter_gather"]
        per = [e["scatter_gather"] for e in stats["per_shard"]]
        for key in ("events_routed", "bytes_gathered", "rows_gathered"):
            assert merged[key] == sum(p[key] for p in per)
        assert merged["scan_rounds"] > 0
        assert merged["recv_seconds"] == pytest.approx(
            sum(p["recv_seconds"] for p in per)
        )

    def test_gather_accounting_accumulates_per_round(self, sharded):
        before = sharded.stats()["scatter_gather"]
        rows(sharded, EventFilter(agent_ids=frozenset({1})))
        after = sharded.stats()["scatter_gather"]
        assert after["scan_rounds"] == before["scan_rounds"] + 1
        assert after["rows_gathered"] > before["rows_gathered"]


class TestWorkerMetrics:
    def test_metrics_returns_one_snapshot_per_shard(self, sharded):
        rows(sharded, EventFilter())
        snapshots = sharded.metrics()
        assert len(snapshots) == 2
        for snap in snapshots:
            assert snap["aiql_scan_total"]["kind"] == "counter"
            # Workers executed scatter scans, so the counter moved.
            assert sum(snap["aiql_scan_total"]["values"].values()) > 0

    def test_metrics_disabled_workers_record_nothing(self):
        ingestor = Ingestor()
        store = ShardedStore(
            ingestor, SystemConfig(shards=2, metrics=False)
        )
        try:
            ingestor.attach(store)
            populate(ingestor, agents=(1,), days=1, per_day=1)
            rows(store, EventFilter())
            for snap in store.metrics():
                assert snap["aiql_scan_total"]["values"] == {}
        finally:
            store.close()
