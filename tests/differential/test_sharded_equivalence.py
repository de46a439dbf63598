"""Differential harness: sharded deployments answer like one process.

The whole corpus runs against sharded deployments — the partitioned
backend at 1, 2 and 4 shards, every baseline backend at 2 shards, and a
durable 2-shard deployment after compaction has pushed most days into
cold segments — asserting every answer identical, row for row, to the
single-process reference.  This is the end-to-end soundness gate of both
sharded read paths: single-owner queries run whole on their shard
(routed), the rest scatter their scans; partition routing, the wire codec,
watermark capping and the recovery-independent merge all have to be exact
for the rows to agree.

Run standalone (the CI shard-smoke job):

    PYTHONPATH=src python -m pytest -q tests/differential/test_sharded_equivalence.py
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import AIQLSystem
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise

RATE = 30

SHARDED_CONFIGS = (
    pytest.param(SystemConfig(shards=1), id="partitioned-1shard"),
    pytest.param(SystemConfig(shards=2), id="partitioned-2shards"),
    pytest.param(SystemConfig(shards=4), id="partitioned-4shards"),
    pytest.param(SystemConfig(shards=2, backend="flat"), id="flat-2shards"),
    pytest.param(
        SystemConfig(shards=2, backend="segmented", distribution="domain"),
        id="segmented-domain-2shards",
    ),
    pytest.param(
        SystemConfig(shards=2, backend="segmented", distribution="arrival"),
        id="segmented-arrival-2shards",
    ),
)


@pytest.fixture(scope="module")
def reference():
    """Single-process answers for every corpus query."""
    enterprise = build_enterprise(
        stores=("partitioned",), events_per_host_day=RATE
    )
    system = AIQLSystem.over(
        enterprise.store("partitioned"), ingestor=enterprise.ingestor
    )
    return {
        query.qid: system.query(query.text) for query in ALL_QUERIES
    }, enterprise.total_events


def build_sharded(config):
    system = AIQLSystem(config)
    build_enterprise(
        stores=(), ingestor=system.ingestor, events_per_host_day=RATE,
        stream_batch_size=128,
    )
    return system


def assert_full_corpus_agrees(system, reference, label):
    """Every corpus answer equals the reference row for row — routed
    (single-owner) queries and scattered ones alike — and routing ran for
    exactly the single-owner queries."""
    answers, total = reference
    assert len(system.store) == total, f"{label} lost events"
    routed_before = system.stats()["scatter_gather"]["routed_queries"]
    single_owner = 0
    for query in ALL_QUERIES:
        single_owner += system.store.route(system.compile(query.text)) is not None
        got = system.query(query.text)
        expected = answers[query.qid]
        assert (got.columns, got.rows, got.meta) == (
            expected.columns,
            expected.rows,
            expected.meta,
        ), (
            f"{label} disagrees with the single-process reference on "
            f"{query.qid}"
        )
    routed = system.stats()["scatter_gather"]["routed_queries"] - routed_before
    assert single_owner > 0, "no corpus query is single-owner: routing untested"
    assert routed == single_owner


@pytest.mark.parametrize("config", SHARDED_CONFIGS)
def test_sharded_matches_single_process(config, reference):
    system = build_sharded(config)
    try:
        assert_full_corpus_agrees(
            system, reference, f"{config.backend} x{config.shards}"
        )
    finally:
        system.close()


def test_compacted_durable_sharded_matches_single_process(reference, tmp_path):
    """Scatter scans stay exact when most days live in cold segments."""
    config = SystemConfig(shards=2, data_dir=str(tmp_path), retention_days=4)
    system = build_sharded(config)
    try:
        report = system.store.compact(retention_days=4)
        assert report.moved, "compaction moved nothing; gate is vacuous"
        assert_full_corpus_agrees(system, reference, "compacted durable x2")
    finally:
        system.close()
