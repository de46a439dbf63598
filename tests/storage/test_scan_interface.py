"""One scan interface: every store scans with the same arguments.

Scans run serially in process (the parallel path is process shards), so
no store takes a ``parallel`` flag and the configuration has none.
"""

import dataclasses
import inspect

import pytest

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.core.config import SystemConfig
from repro.shard.coordinator import ShardedStore
from repro.shard.worker import CappedStore
from repro.storage.database import EventStore
from repro.tier.store import TieredStore

# CappedStore (a shard worker's view for routed queries) only serves a
# scheduler, which reads columns, so it has no materializing ``scan``.
SCAN_STORES = [EventStore, TieredStore, FlatStore, SegmentedStore, ShardedStore]
STORES = SCAN_STORES + [CappedStore]
EMPTY = inspect.Parameter.empty


def parameters(method):
    params = list(inspect.signature(method).parameters.values())
    assert params[0].name == "self"
    return [(p.name, p.default) for p in params[1:]]


@pytest.mark.parametrize("store", STORES, ids=lambda s: s.__name__)
def test_scan_columns_signature(store):
    assert parameters(store.scan_columns) == [
        ("flt", EMPTY),
        ("use_entity_index", True),
        ("kernel", None),
    ]


@pytest.mark.parametrize("store", SCAN_STORES, ids=lambda s: s.__name__)
def test_scan_signature(store):
    assert parameters(store.scan) == [("flt", EMPTY), ("use_entity_index", True)]


def test_config_has_no_parallel_flag():
    assert "parallel" not in {f.name for f in dataclasses.fields(SystemConfig)}
    with pytest.raises(TypeError):
        SystemConfig(parallel=True)  # type: ignore[call-arg]
