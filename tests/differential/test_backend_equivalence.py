"""Differential harness: every backend answers every corpus query identically.

The paper's Sec. 6.2.2 fairness requirement — all storage backends hold the
same copies of the data — as an executable invariant, over a *live-streamed*
ingest: the whole enterprise (background + attack scenarios) is appended
through a ``StreamSession`` and committed in batches, then every corpus
query runs against the optimized partitioned store, the flat (PostgreSQL-
like) baseline, and both MPP segment distributions, asserting identical
result sets.

Run standalone (the CI differential job):

    PYTHONPATH=src python -m pytest -q tests/differential
"""

import pytest

from repro.engine.anomaly import AnomalyExecutor
from repro.engine.executor import MultieventExecutor
from repro.workload.corpus import ALL_QUERIES
from repro.workload.loader import build_enterprise
from tests.conftest import compile_text
from tests.oracle import stored_rows

BACKENDS = ("partitioned", "flat", "segmented_domain", "segmented_arrival")
BASELINES = BACKENDS[1:]


@pytest.fixture(scope="module")
def streamed():
    """Every backend fed the identical event stream through a StreamSession."""
    return build_enterprise(
        stores=BACKENDS,
        events_per_host_day=40,
        stream_batch_size=64,
    )


def run_query(store, ctx):
    if ctx.kind == "anomaly":
        return AnomalyExecutor(store).run(ctx)
    return MultieventExecutor(store).run(ctx)


class TestStreamedBackendEquivalence:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.qid)
    def test_all_backends_agree(self, streamed, query):
        ctx = compile_text(query.text)
        reference = set(run_query(streamed.store("partitioned"), ctx).rows)
        for name in BASELINES:
            got = set(run_query(streamed.store(name), ctx).rows)
            assert got == reference, (
                f"{name} disagrees with partitioned on {query.qid} over the "
                f"live-streamed corpus"
            )

    def test_every_backend_holds_the_full_stream(self, streamed):
        total = streamed.total_events
        assert total > 0
        for name in BACKENDS:
            assert len(streamed.store(name)) == total, name
        assert streamed.session is not None
        assert streamed.session.watermark == total
        assert streamed.session.pending == 0


class TestStreamedMatchesBurst:
    """Streaming through batched commits must be byte-equivalent to the
    seed's exclusive burst load — same events, same order, same partitions."""

    def test_partitioned_store_content_identical(self, streamed):
        burst = build_enterprise(
            stores=("partitioned",), events_per_host_day=40
        )
        streamed_events = [
            (e.agent_id, e.seq, e.start_time, e.operation, e.amount)
            for e in stored_rows(streamed.store("partitioned"))
        ]
        burst_events = [
            (e.agent_id, e.seq, e.start_time, e.operation, e.amount)
            for e in stored_rows(burst.store("partitioned"))
        ]
        assert streamed_events == burst_events
        assert (
            streamed.store("partitioned").partition_keys
            == burst.store("partitioned").partition_keys
        )
