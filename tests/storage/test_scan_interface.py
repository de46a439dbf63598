"""One scan interface: every store scans with the same arguments, and
``scan_columns`` is the only read.

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
from repro.shard.worker import CappedStore, ShardSpec
from repro.storage.database import EventStore
from repro.tier.cold import ColdTier
from repro.tier.store import TieredStore

STORES = [EventStore, TieredStore, FlatStore, SegmentedStore, ShardedStore, CappedStore]
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


@pytest.mark.parametrize("store", STORES, ids=lambda s: s.__name__)
def test_scan_columns_is_the_only_read(store):
    """No row wrapper, oracle, row iterator or attribute forwarding: a
    caller that wants rows writes ``scan_columns(flt).events()``."""
    for name in ("scan", "full_scan", "__iter__", "__getattr__"):
        assert not hasattr(store, name), name


def test_every_scan_source_declares_its_capabilities(tmp_path):
    """``entity_index``, ``route`` and ``completeness_mark`` are plain
    attributes, ``None`` where the store lacks the capability."""
    hot = EventStore()
    assert hot.entity_index is not None
    assert hot.route is None and hot.completeness_mark is None
    tiered = TieredStore(hot, ColdTier(tmp_path, hot.registry.get))
    assert tiered.entity_index is hot.entity_index
    assert tiered.route is None and tiered.completeness_mark is None
    capped = CappedStore(hot, ShardSpec(index=0), watermark=0, exclude=None)
    assert capped.entity_index is None
    assert capped.route is None and capped.completeness_mark is None
    assert ShardedStore.entity_index is None
    assert callable(ShardedStore.route) and callable(ShardedStore.completeness_mark)


def test_config_has_no_parallel_flag():
    assert "parallel" not in {f.name for f in dataclasses.fields(SystemConfig)}
    with pytest.raises(TypeError):
        SystemConfig(parallel=True)  # type: ignore[call-arg]
