"""One-call construction of the evaluation deployment.

``build_enterprise`` assembles the whole Sec. 6 setup: a shared entity
registry, every requested storage backend attached to one ingestor (so all
stores hold byte-identical data, the paper's fairness requirement), the
seeded background workload, and all attack scenario injections.  Tests,
examples and benchmarks all start from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.baselines.flat import FlatStore
from repro.baselines.segmented import SegmentedStore
from repro.model.entities import EntityRegistry
from repro.service.stream import StreamSession
from repro.storage.database import EventStore
from repro.storage.ingest import Ingestor
from repro.storage.partition import PartitionScheme
from repro.workload.attacks import inject_apt2, inject_apt_case_study
from repro.workload.behaviors import (
    inject_abnormal_behaviors,
    inject_dependency_behaviors,
    inject_malware_behaviors,
)
from repro.workload.generator import BackgroundGenerator, GeneratorConfig
from repro.workload.topology import HOSTS

DEFAULT_STORES = ("partitioned",)
# Events per commit of a burst load: one-row commits cost far more per event.
BURST_BATCH_SIZE = 4096
ALL_STORES = ("partitioned", "flat", "segmented_domain", "segmented_arrival")


@dataclass
class Enterprise:
    """The deployed evaluation environment."""

    ingestor: Ingestor
    stores: Dict[str, object]
    truths: Dict[str, object] = field(default_factory=dict)
    background_events: int = 0
    # The live StreamSession, set only when the caller asked to stream
    # (build_enterprise(stream_batch_size=...)), not for a burst load.
    session: Optional[StreamSession] = None

    @property
    def registry(self) -> EntityRegistry:
        return self.ingestor.registry

    def store(self, name: str = "partitioned"):
        return self.stores[name]

    @property
    def total_events(self) -> int:
        return self.ingestor.events_ingested


def build_enterprise(
    stores: Sequence[str] = DEFAULT_STORES,
    events_per_host_day: int = 120,
    days: int = 16,
    seed: int = 20170101,
    hosts=HOSTS,
    segments: int = 5,
    inject_attacks: bool = True,
    stream_batch_size: Optional[int] = None,
    ingestor: Optional[Ingestor] = None,
) -> Enterprise:
    """Build and populate the evaluation environment.

    ``events_per_host_day`` scales the background noise; the scenario
    injections are fixed-size.  The default (120 ev/host/day x 15 hosts x
    16 days ~ 30k background events) keeps the test suite fast; benchmarks
    raise it.

    The whole workload (background and attacks) is appended through a
    :class:`StreamSession`, the write path a production deployment uses.
    A burst load (``stream_batch_size=None``) commits it in batches of
    :data:`BURST_BATCH_SIZE`; ``stream_batch_size`` asks for live
    streaming in batches of that size, and the session is returned on
    :attr:`Enterprise.session` for further live appends.  Either way every
    attached store ingests the identical event sequence (the Sec. 6.2.2
    fairness requirement).

    ``ingestor`` feeds the workload into an externally wired deployment
    (e.g. a durable :class:`~repro.core.system.AIQLSystem` whose tiered
    store and write-ahead log are already attached); pass ``stores=()``
    with it, since its stores already exist.
    """
    if ingestor is not None and stores:
        raise ValueError(
            "pass stores=() with an external ingestor: its stores are "
            "already attached"
        )
    if ingestor is None:
        ingestor = Ingestor()
    built: Dict[str, object] = {}
    for name in stores:
        if name == "partitioned":
            built[name] = EventStore(
                registry=ingestor.registry, scheme=PartitionScheme()
            )
        elif name == "flat":
            built[name] = FlatStore(registry=ingestor.registry)
        elif name == "segmented_domain":
            built[name] = SegmentedStore(
                registry=ingestor.registry, segments=segments, policy="domain"
            )
        elif name == "segmented_arrival":
            built[name] = SegmentedStore(
                registry=ingestor.registry, segments=segments, policy="arrival"
            )
        else:
            raise ValueError(
                f"unknown store {name!r}; expected one of {ALL_STORES}"
            )
        ingestor.attach(built[name])

    config = GeneratorConfig(
        seed=seed,
        hosts=hosts,
        days=days,
        events_per_host_day=events_per_host_day,
    )
    session: Optional[StreamSession] = None
    if stream_batch_size is not None:
        session = StreamSession(ingestor, batch_size=stream_batch_size)
    feed = session or StreamSession(ingestor, batch_size=BURST_BATCH_SIZE)
    background = BackgroundGenerator(feed, config).run()

    truths: Dict[str, object] = {}
    if inject_attacks:
        truths["apt"] = inject_apt_case_study(feed)
        truths["apt2"] = inject_apt2(feed)
        truths["dependency"] = inject_dependency_behaviors(feed)
        truths["malware"] = inject_malware_behaviors(feed)
        truths["abnormal"] = inject_abnormal_behaviors(feed)

    feed.commit()

    return Enterprise(
        ingestor=ingestor,
        stores=built,
        truths=truths,
        background_events=background,
        session=session,
    )
