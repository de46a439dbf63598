"""build_enterprise: a burst load commits batches and stores what a
streamed load stores."""

import math

from repro.storage.ingest import Ingestor
from repro.workload.loader import BURST_BATCH_SIZE, build_enterprise
from tests.oracle import stored_rows

STORES = ("partitioned", "segmented_arrival")


def placement(store):
    return {
        key: list(table.block.event_ids) for key, table in store._partitions.items()
    }


def test_burst_load_matches_a_streamed_load():
    burst = build_enterprise(stores=STORES, events_per_host_day=10)
    streamed = build_enterprise(
        stores=STORES, events_per_host_day=10, stream_batch_size=64
    )
    assert burst.session is None and streamed.session is not None
    assert burst.total_events == streamed.total_events
    for name in STORES:
        assert placement(burst.store(name)) == placement(streamed.store(name))
        assert stored_rows(burst.store(name)) == stored_rows(streamed.store(name))


def test_burst_load_commits_full_batches():
    ingestor = Ingestor()
    sizes = []

    class Sink:
        registry = ingestor.registry

        def register_entity(self, entity):
            pass

        def add_batch(self, block):
            sizes.append(len(block))

    ingestor.attach(Sink())
    enterprise = build_enterprise(stores=(), ingestor=ingestor)
    total = enterprise.total_events
    assert total > BURST_BATCH_SIZE
    assert sum(sizes) == total
    assert len(sizes) == math.ceil(total / BURST_BATCH_SIZE)
    assert set(sizes[:-1]) == {BURST_BATCH_SIZE}
