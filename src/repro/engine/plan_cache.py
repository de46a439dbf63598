"""The plan cache: canonical query text -> compiled :class:`QueryContext`.

An analyst re-issues the same event patterns over and over (paper
Sec. 6.2.1), and a compiled query is a pure function of its text: the
:class:`~repro.lang.context.QueryContext` is a frozen dataclass tree that
holds filters and relationships, never data, so one instance can be
executed from any number of threads against any store, before and after
any ingest.  :class:`PlanCache` is the bounded, thread-safe LRU behind
:func:`repro.engine.compile_query`; nothing invalidates an entry — it
only ages out.

The key has two parts.  The exact canonical text finds the plan of a
text compiled before.  On a miss, the text's *skeleton* — its canonical
text cut at the slot literals, window dates and bracketed numeric
thresholds (:mod:`repro.lang.slots`) — finds the template a text that
differed only in those literals left behind, and the template binds the
new literals: no lexing, parsing or compiling.  A bound plan is not
cached under its own text (re-asks with fresh literals would churn the
LRU); its template's entry is touched instead.  Only a full compile adds
an entry, so one bound of 256 covers plans and templates alike.

Hit, bind, miss and eviction counts live in the metrics registry
(``aiql_plan_cache_*_total``) and nowhere else: :meth:`PlanCache.stats` is
a view over those counters.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.lang.context import QueryContext
from repro.lang.slots import PlanTemplate, SlotScan, scan_slots
from repro.obs.metrics import REGISTRY

_M_HITS = REGISTRY.counter(
    "aiql_plan_cache_hits_total", "Queries whose plan came from the plan cache"
)
_M_MISSES = REGISTRY.counter(
    "aiql_plan_cache_misses_total", "Queries that were parsed and compiled"
)
_M_BINDS = REGISTRY.counter(
    "aiql_plan_cache_binds_total",
    "Queries whose plan was bound from a cached template of their skeleton",
)
_M_EVICTIONS = REGISTRY.counter(
    "aiql_plan_cache_evictions_total", "Plans dropped as least recently used"
)

# ~5.4 KB a plan on the paper's corpus (tracemalloc): 256 plans are ~1.4 MB
# and five times the corpus.  Resident memory is what bounds it: a plan
# lives long among short-lived allocations, and 256 of them measured +2-3 MB
# of peak RSS under live ingest, 1,024 +5-7 MB.
PLAN_CACHE_PLANS = 256


_LEXER_SPACE = " \t\r\n"
_NOT_LEXER_SPACE = re.compile(r"[^\S \t\r\n]")


def _has_foreign_space(text: str) -> bool:
    """Whether ``text`` holds whitespace ``str.split`` splits on but the
    lexer rejects (ASCII texts, the common case, skip the regex)."""
    if text.isascii():
        return (
            "\x0b" in text or "\x0c" in text or "\x1c" in text
            or "\x1d" in text or "\x1e" in text or "\x1f" in text
        )
    return _NOT_LEXER_SPACE.search(text) is not None


def canonical_text(text: str) -> str:
    """Whitespace-insensitive form of a query text.

    One string serves as plan-cache key, in-flight dedup key and slow-log
    text.  Whitespace between tokens collapses to single spaces.  A text
    where that could change the meaning is only stripped, so it shares a
    plan with exact repeats alone: a ``//`` comment (its newline ends it),
    a string literal that collapsing would rewrite (it holds a tab, a
    newline or a run of spaces), anything with an escape, a single quote
    or an odd number of double quotes (splitting on ``"`` does not find
    those literals), and whitespace the lexer rejects (``str.split`` would
    make a vertical tab a separator).
    """
    if (
        "//" in text
        or "\\" in text
        or "'" in text
        or text.count('"') % 2
        or _has_foreign_space(text)
    ):
        return text.strip(_LEXER_SPACE)
    collapsed = " ".join(text.split())
    if collapsed.split('"')[1::2] != text.split('"')[1::2]:
        return text.strip(_LEXER_SPACE)
    return collapsed


HIT, BIND, MISS = "hit", "bind", "miss"

#: Compiles a text on a miss: its plan and, when ``scan`` is given and the
#: parse accounts for its slots, the template of its skeleton.
Compiler = Callable[[Optional[SlotScan]], Tuple[QueryContext, Optional[PlanTemplate]]]


class _Entry(NamedTuple):
    plan: QueryContext
    skeleton: Optional[Tuple[str, ...]]
    template: Optional[PlanTemplate]


class PlanCache:
    """Thread-safe LRU of compiled plans, at most ``max_plans`` of them.

    One entry per compiled text: its plan, plus the template of its
    skeleton when it has slots.  Binding from a template touches the entry
    that owns it, so a skeleton in use stays as fresh as an exact repeat.
    """

    def __init__(self, max_plans: int = PLAN_CACHE_PLANS) -> None:
        if max_plans < 1:
            raise ValueError("max_plans must be >= 1")
        self.max_plans = max_plans
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._owners: Dict[Tuple[str, ...], str] = {}  # skeleton -> entry key

    def __len__(self) -> int:
        return len(self._entries)

    def plan(self, key: str, compile_text: Compiler) -> Tuple[QueryContext, str]:
        """The plan of canonical text ``key`` and how it was had.

        ``HIT``: ``key`` was compiled before.  ``BIND``: a text with the
        same skeleton was, and its template bound ``key``'s slot literals.
        ``MISS``: ``compile_text`` ran and its result is cached.  What any
        of them raises propagates, and nothing is cached for it.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            _M_HITS.inc()
            return entry.plan, HIT
        scan = scan_slots(key)
        if scan is not None:
            template = None
            with self._lock:
                owner = self._owners.get(scan.skeleton)
                if owner is not None:
                    self._entries.move_to_end(owner)
                    template = self._entries[owner].template
            if template is not None:
                _M_BINDS.inc()
                return template.bind(scan.literals), BIND
        _M_MISSES.inc()
        plan, template = compile_text(scan)
        skeleton = scan.skeleton if scan is not None and template is not None else None
        self._put(key, _Entry(plan, skeleton, template))
        return plan, MISS

    def _put(self, key: str, entry: _Entry) -> None:
        with self._lock:
            self._entries[key] = entry
            if entry.skeleton is not None:
                self._owners[entry.skeleton] = key
            evict = len(self._entries) > self.max_plans
            if evict:
                old_key, old = self._entries.popitem(last=False)
                skeleton = old.skeleton
                if skeleton is not None and self._owners.get(skeleton) == old_key:
                    del self._owners[skeleton]
        if evict:
            _M_EVICTIONS.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._owners.clear()

    def stats(self) -> Dict[str, object]:
        """Occupancy plus the registry's counters (process-wide totals)."""
        hits, misses = int(_M_HITS.value()), int(_M_MISSES.value())
        binds = int(_M_BINDS.value())
        lookups = hits + binds + misses
        return {
            "plans": len(self._entries),
            "templates": len(self._owners),
            "max_plans": self.max_plans,
            "hits": hits,
            "binds": binds,
            "misses": misses,
            "evictions": int(_M_EVICTIONS.value()),
            "hit_ratio": round(hits / lookups, 4) if lookups else 0.0,
        }
