"""Alert replay: score standing-query detection against ground truth.

The continuous query engine (:mod:`repro.service.continuous`) turns the
batch investigation corpus inside out — the query stands, the stream
moves.  This driver measures how well that works end to end: it registers
detection queries for the paper's APT case study
(:func:`repro.workload.attacks.inject_apt_case_study`), replays a day of
background enterprise noise with the attack injected on top of it through
a live :class:`~repro.service.stream.StreamSession`, and scores

* **detection** — for every watch query, the first alert whose matched
  events reference all of the step's ground-truth entities (a step with
  no such alert is *missed*);
* **latency** — the commit-to-alert wall latency of every alert (the
  stream session stamps each commit's entry time; the engine stamps each
  alert at emission), reported as p50/p99.

``benchmarks/bench_continuous.py`` gates its floors on this driver; the
tests assert zero missed detections on the default workload.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.model.time import DAY
from repro.service.continuous import Alert
from repro.workload.attacks import inject_apt_case_study
from repro.workload.generator import BackgroundGenerator, GeneratorConfig
from repro.workload.live import _PacedFeed
from repro.workload.topology import (
    ATTACKER_IP,
    BASE_DAY,
    HOSTS,
    SIMULATION_DAYS,
)


@dataclass(frozen=True)
class WatchQuery:
    """One standing detection query plus its ground-truth extractor."""

    name: str
    step: str  # ground-truth step key in the APT truth dict
    text: str
    truth_entities: Callable[[Dict[str, object]], Set[int]]


WATCH_QUERIES: Tuple[WatchQuery, ...] = (
    # c2: the phishing macro host drops the payload and launches it — a
    # two-pattern join riding the delta evaluation path.
    WatchQuery(
        name="payload-drop",
        step="c2",
        text="""
            proc p1["%excel%"] write file f1["%payload.exe"] as evt1
            proc p1 start proc p2["%payload%"] as evt2
            with evt1 before evt2
            return p1, f1, p2
        """,
        truth_entities=lambda truth: {
            truth["c2"]["excel"].id,  # type: ignore[index]
            truth["c2"]["payload_file"].id,  # type: ignore[index]
            truth["c2"]["payload"].id,  # type: ignore[index]
        },
    ),
    # c3: credential dumping — gsecdump reads the SAM hive.
    WatchQuery(
        name="credential-dump",
        step="c3",
        text="""
            proc p1["gsecdump.exe"] read file f1["%SAM"] as evt1
            return p1, f1
        """,
        truth_entities=lambda truth: {
            truth["c3"]["gsecdump"].id,  # type: ignore[index]
            truth["c3"]["sam"].id,  # type: ignore[index]
        },
    ),
    # c5: exfiltration — the dropped implant writes to the attacker address.
    WatchQuery(
        name="exfiltration",
        step="c5",
        text=f"""
            proc p1["sbblv.exe"] write ip i1[dstip = "{ATTACKER_IP}"] as evt1
            return p1, i1
        """,
        truth_entities=lambda truth: {
            truth["c5"]["sbblv"].id,  # type: ignore[index]
            truth["c5"]["exfil_conn"].id,  # type: ignore[index]
        },
    ),
)


@dataclass(frozen=True)
class Detection:
    """The first alert that covered a step's ground-truth entities."""

    query: str
    step: str
    alert: Alert


@dataclass
class AlertScore:
    """Outcome of one replay run."""

    events: int
    batches: int
    wall_s: float
    alerts: int
    detections: Dict[str, Detection]
    missed: Tuple[str, ...]
    latencies_ms: List[float]

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile_ms(self, pct: float) -> Optional[float]:
        """Nearest-rank percentile over the commit-to-alert latencies."""
        if not self.latencies_ms:
            return None
        ordered = sorted(self.latencies_ms)
        rank = max(0, min(len(ordered) - 1, int(round(pct * len(ordered))) - 1))
        return ordered[rank]

    @property
    def p50_ms(self) -> Optional[float]:
        return self.latency_percentile_ms(0.50)

    @property
    def p99_ms(self) -> Optional[float]:
        return self.latency_percentile_ms(0.99)

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "batches": self.batches,
            "wall_s": round(self.wall_s, 3),
            "events_per_s": round(self.events_per_s),
            "alerts": self.alerts,
            "detections": {
                name: {
                    "step": d.step,
                    "key": list(d.alert.key),
                    "latency_ms": (
                        round(d.alert.latency_s * 1000, 3)
                        if d.alert.latency_s is not None
                        else None
                    ),
                }
                for name, d in self.detections.items()
            },
            "missed": list(self.missed),
            "latency_p50_ms": self.p50_ms,
            "latency_p99_ms": self.p99_ms,
        }


class AlertReplay:
    """Replays background noise + the APT through standing queries."""

    def __init__(
        self,
        system,
        queries: Sequence[WatchQuery] = WATCH_QUERIES,
        day: Optional[float] = None,
        rate: float = 0.0,
        events_per_host_day: int = 120,
        seed: int = 20170117,
        hosts=HOSTS,
        batch_size: Optional[int] = None,
        window_s: float = DAY,
    ) -> None:
        """``rate`` paces emissions in events/second (0 = unthrottled);
        ``day`` defaults to the first day after the pre-loaded simulation
        window; ``window_s`` is the standing queries' sliding horizon —
        the default of one day keeps a whole attack day joinable.
        """
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.system = system
        self.queries = tuple(queries)
        self.day = (
            day if day is not None else BASE_DAY + SIMULATION_DAYS * DAY
        )
        self.rate = rate
        self.events_per_host_day = events_per_host_day
        self.seed = seed
        self.hosts = hosts
        self.batch_size = batch_size
        self.window_s = window_s

    def run(self) -> AlertScore:
        """Stream one day (noise + attack); returns the detection score."""
        alerts: List[Alert] = []
        collect = _collector(alerts, threading.Lock())
        subs = [
            self.system.subscribe(
                query.text,
                callback=collect,
                window_s=self.window_s,
                name=query.name,
            )
            for query in self.queries
        ]

        session = self.system.stream(batch_size=self.batch_size)
        feed = _PacedFeed(session, self.rate, None, None) if self.rate else session
        generator = BackgroundGenerator(
            feed,
            GeneratorConfig(
                seed=self.seed,
                hosts=self.hosts,
                events_per_host_day=self.events_per_host_day,
            ),
        )
        batches_before = session.batches_committed
        events_before = session.appended
        started = time.monotonic()
        try:
            generator.run_day(self.day)
            truth = inject_apt_case_study(feed, day_start=self.day)
        finally:
            session.commit()
        wall = time.monotonic() - started

        detections: Dict[str, Detection] = {}
        for query in self.queries:
            expected = query.truth_entities(truth)
            for alert in alerts:
                if alert.query != query.name:
                    continue
                touched = set()
                for event in alert.events:
                    touched.add(event.subject_id)
                    touched.add(event.object_id)
                if expected <= touched:
                    detections[query.name] = Detection(
                        query=query.name, step=query.step, alert=alert
                    )
                    break
        missed = tuple(
            query.name
            for query in self.queries
            if query.name not in detections
        )
        latencies = [
            alert.latency_s * 1000
            for alert in alerts
            if alert.latency_s is not None
        ]
        for sub in subs:
            self.system.unsubscribe(sub)
        return AlertScore(
            events=session.appended - events_before,
            batches=session.batches_committed - batches_before,
            wall_s=wall,
            alerts=len(alerts),
            detections=detections,
            missed=missed,
            latencies_ms=latencies,
        )


def _collector(alerts: List[Alert], lock: threading.Lock):
    def collect(alert: Alert) -> None:
        with lock:
            alerts.append(alert)

    return collect
