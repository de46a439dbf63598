"""The plan cache: canonical query text -> compiled :class:`QueryContext`.

An analyst re-issues the same event patterns over and over (paper
Sec. 6.2.1), and a compiled query is a pure function of its text: the
:class:`~repro.lang.context.QueryContext` is a frozen dataclass tree that
holds filters and relationships, never data, so one instance can be
executed from any number of threads against any store, before and after
any ingest.  :class:`PlanCache` is the bounded, thread-safe LRU behind
:func:`repro.engine.compile_query`; nothing invalidates an entry — it
only ages out.

Hit, miss and eviction counts live in the metrics registry
(``aiql_plan_cache_*_total``) and nowhere else: :meth:`PlanCache.stats` is
a view over those counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.lang.context import QueryContext
from repro.obs.metrics import REGISTRY

_M_HITS = REGISTRY.counter(
    "aiql_plan_cache_hits_total", "Queries whose plan came from the plan cache"
)
_M_MISSES = REGISTRY.counter(
    "aiql_plan_cache_misses_total", "Queries that were parsed and compiled"
)
_M_EVICTIONS = REGISTRY.counter(
    "aiql_plan_cache_evictions_total", "Plans dropped as least recently used"
)

# ~5.4 KB a plan on the paper's corpus (tracemalloc): 256 plans are ~1.4 MB
# and five times the corpus.  Resident memory is what bounds it: a plan
# lives long among short-lived allocations, and 256 of them measured +2-3 MB
# of peak RSS under live ingest, 1,024 +5-7 MB.
PLAN_CACHE_PLANS = 256


def canonical_text(text: str) -> str:
    """Whitespace-insensitive form of a query text.

    One string serves as plan-cache key, in-flight dedup key and slow-log
    text.  Whitespace between tokens collapses to single spaces.  A text
    where that could change the meaning is only stripped, so it shares a
    plan with exact repeats alone: a ``//`` comment (its newline ends it),
    a string literal that collapsing would rewrite (it holds a tab, a
    newline or a run of spaces), and anything with an escape, a single
    quote or an odd number of double quotes (splitting on ``"`` does not
    find those literals).
    """
    if "//" in text or "\\" in text or "'" in text or text.count('"') % 2:
        return text.strip()
    collapsed = " ".join(text.split())
    if collapsed.split('"')[1::2] != text.split('"')[1::2]:
        return text.strip()
    return collapsed


class PlanCache:
    """Thread-safe LRU of compiled plans, at most ``max_plans`` of them."""

    def __init__(self, max_plans: int = PLAN_CACHE_PLANS) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.max_plans = max_plans
        self._lock = threading.Lock()
        self._plans: "OrderedDict[str, QueryContext]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: str) -> Optional[QueryContext]:
        """The plan cached under ``key`` (now the most recently used)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
        if plan is None:
            _M_MISSES.inc()
        else:
            _M_HITS.inc()
        return plan

    def put(self, key: str, plan: QueryContext) -> None:
        with self._lock:
            self._plans[key] = plan
            evict = len(self._plans) > self.max_plans
            if evict:
                self._plans.popitem(last=False)
        if evict:
            _M_EVICTIONS.inc()

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def stats(self) -> Dict[str, object]:
        """Occupancy plus the registry's counters (process-wide totals)."""
        hits, misses = int(_M_HITS.value()), int(_M_MISSES.value())
        return {
            "plans": len(self._plans),
            "max_plans": self.max_plans,
            "hits": hits,
            "misses": misses,
            "evictions": int(_M_EVICTIONS.value()),
            "hit_ratio": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        }
