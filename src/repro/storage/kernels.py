"""Compiled scan kernels: an ``EventFilter``'s static part -> block selection.

Every scan in the system funnels per-candidate events through
:meth:`EventFilter.matches`, which re-interprets up to nine constraint
branches plus a recursive predicate tree per event, re-coerces literal
types per comparison and (before memoization) recompiled LIKE regexes per
row.  On the paper's workload — interactive investigation over hundreds of
millions of events — that per-event interpretation is the dominant query
cost once storage is in place.

This module compiles the **static** part of a filter — agents,
operations, object type and the three predicate trees — into specialized
code with everything loop-invariant hoisted out of the per-event path:

* absent constraints cost one ``None`` check per block, not per event;
* LIKE patterns carry their precompiled regex; IN lists their normalized
  frozenset; literals are pre-coerced against every runtime type an
  attribute can take, so no ``_coerce`` runs per row;
* entities are resolved lazily — a filter without subject/object
  predicates never touches the registry;
* a filter whose agent or operation set is empty compiles to a kernel
  that selects nothing.

The rest of a filter — its window and its subject/object id sets — is
what the paper's constrained execution (Algorithm 1) changes from scan to
scan, so it is an argument, not part of the compiled code:
``select(block, candidates, lookup, window, subject_ids, object_ids)``.
Each plan pattern owns one kernel
(:attr:`~repro.lang.context.PatternContext.kernel`), compiled once for the
life of the plan and run by every scan of the pattern, narrowed or not,
and by every plan bound from it whose thresholds did not move.  A caller
without a plan (a shard worker answering a wire filter, a direct
``store.scan_columns(flt)``) compiles per call.

``select`` runs passes over the raw columns of a
:class:`~repro.storage.blocks.ColumnBlock`, cheapest first, each shrinking
the selection for the next — window (bisected on a time-sorted block,
skipped when the window holds the block's whole ``[min_time, max_time]``),
agent / operation / object-type codes (on a range, one ``translate`` 0/1
mask per byte column, ANDed, and one ``compress``; skipped when the
block's code universe is inside the wanted set), id-set
membership, entity predicates (one evaluation per distinct entity), then
the event predicate: leaves that compare a fixed-width numeric column with
a numeric literal run as one comprehension each over the raw ``array``
(the conjuncts of an AND tree chain), every other tree per row.  A hot
table hands ``select`` candidates its time index and postings already cut
to the window and id sets, so it passes neither.  Every caller evaluates
blocks: partition and cold-segment scans select over their stored
columns, and the standing-query engine over the block of a pushed batch.
The interpreter (:meth:`EventFilter.matches`, behind
``use_kernels(False)``) is the one differential oracle; every scan site
takes its kernel from :func:`scan_kernel`, the one place that chooses.

Semantics are bit-for-bit those of the interpreted path (differential- and
property-tested); exotic runtime value types fall back to
:meth:`AttrPredicate.matches` leaf-by-leaf.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from itertools import compress
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.model.entities import ATTRIBUTES_BY_TYPE, normalize_attribute
from repro.model.time import TimeWindow
from repro.obs.metrics import REGISTRY
from repro.obs.trace import trace_add
from repro.storage.blocks import (
    OP_CODE,
    OTYPE_CODE,
    ColumnBlock,
    Positions,
    block_attribute_getter,
    block_numeric_column,
)
from repro.storage.filters import (
    AttrPredicate,
    EventFilter,
    PredicateAnd,
    PredicateLeaf,
    PredicateNot,
    PredicateOr,
    _equals,
    like_to_regex,
)

# An attribute-value test specialized for one predicate; receives the
# runtime value and returns whether the predicate holds.
ValueTest = Callable[[object], bool]

# A compiled subject/object predicate tree; receives the Entity itself —
# attribute resolution is hoisted to compile time, unlike
# PredicateNode.evaluate.
PredicateFn = Callable[[object], bool]

# Every canonical attribute any entity type exposes.  For these names,
# ``getattr(entity, name)`` raising AttributeError is exactly equivalent to
# ``Entity.attribute(name)`` raising it (each entity dataclass declares
# precisely its type's Table-1 attributes); names outside this set raise
# for every entity, i.e. the leaf is constant-false.
_ENTITY_DATA_ATTRS = frozenset(
    attr for attrs in ATTRIBUTES_BY_TYPE.values() for attr in attrs
)

_ORDERED_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _numeric_coercions(text: str) -> Dict[type, object]:
    """Pre-coerce a string literal toward every numeric runtime type.

    Mirrors ``filters._coerce`` (``type(actual)(expected)``) hoisted out of
    the loop: a missing entry means the coercion raised ``ValueError`` at
    compile time, exactly when it would have per event.
    """
    coerced: Dict[type, object] = {}
    try:
        coerced[int] = int(text)
    except ValueError:
        pass
    try:
        coerced[float] = float(text)
    except ValueError:
        pass
    return coerced


def compile_value_test(pred: AttrPredicate) -> ValueTest:
    """Specialize one ``attr <op> value`` comparison into a closure.

    The closure dispatches on the *exact* runtime type of the actual value
    (str/int/float cover every attribute in the data model); anything else
    falls back to the interpreted :meth:`AttrPredicate.matches`, keeping
    equivalence even for exotic values.
    """
    op = pred.op
    value = pred.value
    interpreted = pred.matches  # exact fallback for unexpected types

    if op in ("in", "not in"):
        raw = tuple(value)  # type: ignore[arg-type]
        normalized = frozenset(
            v.lower() if isinstance(v, str) else v for v in raw
        )
        norm_types = frozenset(type(v) for v in normalized)
        negate = op == "not in"

        def test_membership(actual: object) -> bool:
            key = actual.lower() if isinstance(actual, str) else actual
            if key in normalized:
                member = True
            elif type(key) in norm_types:
                member = False
            else:
                # cross-type literals ('4444' vs 4444): linear fallback
                member = any(_equals(actual, v) for v in raw)
            return member != negate

        return test_membership

    if pred.is_like:
        match = like_to_regex(str(value)).match
        negate = op == "!="

        def test_like(actual: object) -> bool:
            return bool(match(str(actual))) != negate

        return test_like

    if op in ("=", "!="):
        negate = op == "!="
        if isinstance(value, str):
            lowered = value.lower()
            numeric = _numeric_coercions(value)

            def test_eq_str(actual: object) -> bool:
                t = type(actual)
                if t is str:
                    return (actual.lower() == lowered) != negate
                if t is int or t is float:
                    expected = numeric.get(t)
                    # uncoercible literal compares str vs number: never equal
                    return (expected is not None and actual == expected) != negate
                return interpreted(actual)

            return test_eq_str
        if type(value) in (int, float):
            as_str = str(value).lower()

            def test_eq_num(actual: object) -> bool:
                t = type(actual)
                if t is str:
                    return (actual.lower() == as_str) != negate
                if t is int or t is float:
                    return (actual == value) != negate
                return interpreted(actual)

            return test_eq_num
        return interpreted

    compare = _ORDERED_OPS[op]
    if isinstance(value, str):
        numeric = _numeric_coercions(value)

        def test_ordered_str(actual: object) -> bool:
            t = type(actual)
            if t is str:
                return compare(actual, value)
            if t is int or t is float:
                expected = numeric.get(t)
                if expected is None:
                    return False  # interpreted path: TypeError -> False
                return compare(actual, expected)
            return interpreted(actual)

        return test_ordered_str
    if type(value) in (int, float):
        as_str = str(value)

        def test_ordered_num(actual: object) -> bool:
            t = type(actual)
            if t is str:
                return compare(actual, as_str)  # raw string ordering
            if t is int or t is float:
                return compare(actual, value)
            return interpreted(actual)

        return test_ordered_num
    return interpreted


def _compile_leaf(pred: AttrPredicate) -> PredicateFn:
    """One entity leaf with its attribute getter resolved at compile time.

    The interpreted path pays alias normalization, a validity check and a
    dict dispatch *per row per leaf* (``Entity.attribute``); here the
    getter binds once and an attribute no entity can have compiles to
    constant-false (the interpreter's ``AttributeError -> False``).
    """
    test = compile_value_test(pred)
    canonical = normalize_attribute(None, pred.attr)
    if canonical not in _ENTITY_DATA_ATTRS:
        return lambda entity: False
    attr_of = operator.attrgetter(canonical)

    def run_leaf(entity: object) -> bool:
        try:
            actual = attr_of(entity)
        except AttributeError:
            # valid attribute of a *different* entity type (e.g. a file
            # predicate evaluated against a network object)
            return False
        return test(actual)

    return run_leaf


def compile_predicate(node) -> PredicateFn:
    """Compile a subject/object predicate tree into a closure over an
    :class:`~repro.model.entities.Entity` (event trees compile against
    columns, :func:`_compile_block_event_predicate`)."""
    if isinstance(node, PredicateLeaf):
        return _compile_leaf(node.pred)
    if isinstance(node, PredicateNot):
        child = compile_predicate(node.child)
        return lambda target: not child(target)
    if isinstance(node, (PredicateAnd, PredicateOr)):
        children = tuple(compile_predicate(c) for c in node.children)
        if isinstance(node, PredicateAnd):
            if len(children) == 2:
                first, second = children
                return lambda target: first(target) and second(target)
            return lambda target: all(c(target) for c in children)
        if len(children) == 2:
            first, second = children
            return lambda target: first(target) or second(target)
        return lambda target: any(c(target) for c in children)
    raise AssertionError(node)


def constant_false(flt: EventFilter) -> bool:
    """True when no event can ever satisfy ``flt``.

    Catches the scheduler's empty narrowings (``subject_ids=frozenset()``
    after a join produced no values) and empty window intersections, so a
    whole scan short-circuits instead of walking candidates per partition.
    """
    if flt.window.is_empty():
        return True
    for ids in (flt.agent_ids, flt.operations, flt.subject_ids, flt.object_ids):
        if ids is not None and not ids:
            return True
    return False


# The compilation target: evaluate a whole column block per call and
# return the surviving positions (a subset of ``candidates``), narrowed by
# the scan's window and subject/object id sets (``None``: no narrowing).
SelectFn = Callable[..., Positions]


def _never_select(
    block: ColumnBlock,
    candidates: Positions,
    lookup,
    window: Optional[TimeWindow] = None,
    subject_ids: Optional[FrozenSet[int]] = None,
    object_ids: Optional[FrozenSet[int]] = None,
) -> List[int]:
    return []


def _code_table(codes: FrozenSet[int]) -> bytes:
    """A ``bytes.translate`` table mapping each byte in ``codes`` to 1 and
    every other byte to 0.  (A code past 255 cannot sit in a byte column,
    so it has no entry.)"""
    table = bytearray(256)
    for code in codes:
        if code < 256:
            table[code] = 1
    return bytes(table)


def _code_mask_positions(
    candidates: range, passes: List[Tuple[bytearray, bytes]]
) -> List[int]:
    """Positions in ``candidates`` whose byte in every column maps to 1.

    Each ``(column, table)`` pass is one ``translate`` over the range's
    slice of its column, a 0/1 mask; the masks AND as integers (0/1 bytes
    AND bytewise), and one ``compress`` yields the survivors — C per row,
    no Python step per hit.  Each column is read once, up to the range's
    ``stop`` (the caller's visibility snapshot): rows a writer has staged
    past it never reach a mask.
    """
    lo, hi = candidates.start, candidates.stop
    (column, table), *rest = passes
    mask = column[lo:hi].translate(table)
    if rest:
        bits = int.from_bytes(mask, "little")
        for column, table in rest:
            bits &= int.from_bytes(column[lo:hi].translate(table), "little")
        mask = bits.to_bytes(len(mask), "little")
    return list(compress(candidates, mask))


def _entity_pass(
    candidates: Positions,
    ids: Sequence[int],
    pred: PredicateFn,
    lookup: Callable[[int], object],
    id_memo: Dict[int, bool],
    entity_memo: Dict[object, bool],
) -> List[int]:
    """Filter by an entity predicate, evaluated once per distinct entity.

    Equivalent to evaluating every row (the predicate is a pure function of
    the registry's frozen entities), but survivors sharing a subject/object
    pay one dict probe instead of one evaluation per row.  Two memo levels,
    both kernel-lifetime: ``id_memo`` is valid for one registry (the
    caller resets it when the lookup's owner changes — registries intern
    ids and never rebind them, so id -> verdict is stable), and
    ``entity_memo`` — keyed by the entity *object* (frozen dataclasses
    hash by value, so equal entities from different registries share an
    answer) — survives registry switches.  Ids never resolve through
    ``lookup`` unless a surviving row references them, so an unregistered
    entity raises :class:`KeyError` only when such a row reaches this pass.
    """
    out: List[int] = []
    append = out.append
    get = id_memo.get
    entity_get = entity_memo.get
    for i in candidates:
        entity_id = ids[i]
        ok = get(entity_id)
        if ok is None:
            entity = lookup(entity_id)
            ok = entity_get(entity)
            if ok is None:
                ok = entity_memo[entity] = pred(entity)
            id_memo[entity_id] = ok
        if ok:
            append(i)
    return out


def _compile_block_event_predicate(
    node,
) -> Callable[[ColumnBlock, int], bool]:
    """An event predicate tree compiled against columns instead of rows."""
    if isinstance(node, PredicateLeaf):
        pred = node.pred
        getter = block_attribute_getter(pred.attr)
        if getter is None:
            return lambda block, i: False
        test = compile_value_test(pred)
        return lambda block, i: test(getter(block, i))
    if isinstance(node, PredicateNot):
        child = _compile_block_event_predicate(node.child)
        return lambda block, i: not child(block, i)
    if isinstance(node, (PredicateAnd, PredicateOr)):
        children = tuple(
            _compile_block_event_predicate(c) for c in node.children
        )
        if isinstance(node, PredicateAnd):
            return lambda block, i: all(c(block, i) for c in children)
        return lambda block, i: any(c(block, i) for c in children)
    raise AssertionError(node)


# One pass over a raw numeric column per comparison operator: the column
# read and the comparison run inline in the comprehension, with no call per
# row.  ``array('q')``/``array('d')`` items are exact ``int``/``float``, for
# which :func:`compile_value_test` with a numeric literal is this very
# comparison.
ColumnPass = Callable[[Sequence[object], object, Positions], List[int]]

_COLUMN_PASSES: Dict[str, ColumnPass] = {
    "=": lambda col, value, candidates: [
        i for i in candidates if col[i] == value
    ],
    "!=": lambda col, value, candidates: [
        i for i in candidates if col[i] != value
    ],
    "<": lambda col, value, candidates: [
        i for i in candidates if col[i] < value
    ],
    "<=": lambda col, value, candidates: [
        i for i in candidates if col[i] <= value
    ],
    ">": lambda col, value, candidates: [
        i for i in candidates if col[i] > value
    ],
    ">=": lambda col, value, candidates: [
        i for i in candidates if col[i] >= value
    ],
}

# (column of the block, pass for the operator, literal)
_EventPass = Tuple[Callable[[ColumnBlock], Sequence[object]], ColumnPass, object]


def _split_event_predicate(node) -> Tuple[List[_EventPass], Optional[object]]:
    """Split an event predicate tree into column passes and a per-row rest.

    A leaf comparing a fixed-width numeric column with an ``int``/``float``
    literal becomes one pass over the raw array; the conjuncts of an AND
    tree split independently (a conjunction of pure tests holds in any
    order).  Everything else — string literals, IN lists, decoded
    attributes, NOT/OR trees — is returned as the residual tree, evaluated
    per row as before.
    """
    passes: List[_EventPass] = []
    residual: List[object] = []

    def visit(child) -> None:
        if isinstance(child, PredicateAnd):
            for grandchild in child.children:
                visit(grandchild)
            return
        if isinstance(child, PredicateLeaf):
            pred = child.pred
            column = block_numeric_column(pred.attr)
            run = _COLUMN_PASSES.get(pred.op)
            if (
                column is not None
                and run is not None
                and type(pred.value) in (int, float)
            ):
                passes.append((operator.attrgetter(column), run, pred.value))
                return
        residual.append(child)

    visit(node)
    if not residual:
        return passes, None
    if len(residual) == 1:
        return passes, residual[0]
    return passes, PredicateAnd(tuple(residual))


def _compile_select(
    flt: EventFilter,
    subject_pred: Optional[PredicateFn],
    object_pred: Optional[PredicateFn],
) -> SelectFn:
    """Compile the whole-block evaluation order for ``flt``'s static part.

    Structural passes run cheapest-first over the columns (bisected
    window, dictionary-coded agents/ops/object types, id-set membership),
    each shrinking the selection before the next; predicate trees — the
    only passes that touch entities or strings — see only the surviving
    tail, and the numeric leaves of the event predicate run as column
    passes (:func:`_split_event_predicate`) ahead of whatever is left of
    it.  The window and id sets are ``select``'s arguments; ``flt``'s own
    are ignored.  Per-block vacuity (a window holding the block's time
    range, code universes, agent dictionary coverage) hoists whole passes,
    generalizing the cold tier's zone-map shortcuts to every block.
    Results are exactly the rows the interpreter accepts.
    """
    agent_ids = flt.agent_ids
    op_codes: Optional[FrozenSet[int]] = (
        frozenset(OP_CODE[op] for op in flt.operations)
        if flt.operations is not None
        else None
    )
    otype_set: Optional[FrozenSet[int]] = (
        frozenset((OTYPE_CODE[flt.object_type],))
        if flt.object_type is not None
        else None
    )
    # 256-byte translate tables, built once per kernel (the agent table
    # depends on the block's dictionary, so it is built per call).
    op_table = _code_table(op_codes) if op_codes is not None else b""
    otype_table = _code_table(otype_set) if otype_set is not None else b""
    event_passes: List[_EventPass] = []
    event_pred = None
    if flt.event_pred is not None:
        event_passes, rest = _split_event_predicate(flt.event_pred)
        if rest is not None:
            event_pred = _compile_block_event_predicate(rest)
    # Kernel-lifetime predicate memos: a kernel lives as long as its plan
    # pattern, so these amortize entity evaluation across every scan of
    # the pattern, and each is tied to the one predicate it was compiled
    # from.  The id-keyed level is valid for exactly one registry: a
    # single slot holds an (owner, subject-memo, object-memo) triple keyed
    # by the lookup's owner (every partition of a store shares one
    # registry, so iterative scans stay warm; switching stores resets).
    # The triple is read and swapped whole, so concurrent scans against
    # different stores can never write one registry's verdicts into
    # another's memo — a racing swap only loses warm entries.
    subject_memo: Dict[object, bool] = {}
    object_memo: Dict[object, bool] = {}
    memo_slot: List[Tuple[object, Dict[int, bool], Dict[int, bool]]] = [
        (None, {}, {})
    ]

    def select(
        block: ColumnBlock,
        candidates: Positions,
        lookup,
        window: Optional[TimeWindow] = None,
        subject_ids: Optional[FrozenSet[int]] = None,
        object_ids: Optional[FrozenSet[int]] = None,
    ) -> Positions:
        window_start = window.start if window is not None else None
        window_end = window.end if window is not None else None
        if (
            window_start is not None or window_end is not None
        ) and not block.within(window_start, window_end):
            if type(candidates) is range and block.time_sorted:
                lo, hi = block.window_bounds(
                    window_start, window_end, candidates.stop
                )
                candidates = range(max(lo, candidates.start), hi)
            else:
                t0 = block.t0
                if window_start is None:
                    candidates = [
                        i for i in candidates if t0[i] < window_end
                    ]
                elif window_end is None:
                    candidates = [
                        i for i in candidates if t0[i] >= window_start
                    ]
                else:
                    candidates = [
                        i
                        for i in candidates
                        if window_start <= t0[i] < window_end
                    ]
        # The dictionary-code passes: over a range, one translate mask per
        # byte column and one compress for all of them; over a position
        # list (or the wide agent column), a comprehension each.
        code_passes: List[Tuple[bytearray, bytes]] = []
        if agent_ids is not None:
            wanted = block.agent_code_set(agent_ids)
            if wanted is not None:
                if not wanted:
                    return []
                codes = block.agent_codes
                if type(candidates) is range and isinstance(codes, bytearray):
                    code_passes.append((codes, _code_table(wanted)))
                else:
                    candidates = [i for i in candidates if codes[i] in wanted]
        if op_codes is not None and not block.op_universe <= op_codes:
            if type(candidates) is range:
                code_passes.append((block.op_codes, op_table))
            else:
                ops = block.op_codes
                candidates = [i for i in candidates if ops[i] in op_codes]
        if otype_set is not None and not block.otype_universe <= otype_set:
            if type(candidates) is range:
                code_passes.append((block.otype_codes, otype_table))
            else:
                otypes = block.otype_codes
                candidates = [i for i in candidates if otypes[i] in otype_set]
        if code_passes:
            candidates = _code_mask_positions(candidates, code_passes)
        if subject_ids is not None:
            col = block.subject_ids
            candidates = [i for i in candidates if col[i] in subject_ids]
        if object_ids is not None:
            col = block.object_ids
            candidates = [i for i in candidates if col[i] in object_ids]
        if subject_pred is not None or object_pred is not None:
            owner = getattr(lookup, "__self__", lookup)
            state = memo_slot[0]
            if state[0] is not owner:
                state = (owner, {}, {})
                memo_slot[0] = state
            if subject_pred is not None:
                candidates = _entity_pass(
                    candidates, block.subject_ids, subject_pred, lookup,
                    state[1], subject_memo,
                )
            if object_pred is not None:
                candidates = _entity_pass(
                    candidates, block.object_ids, object_pred, lookup,
                    state[2], object_memo,
                )
        for column_of, run, value in event_passes:
            candidates = run(column_of(block), value, candidates)
        if event_pred is not None:
            candidates = [i for i in candidates if event_pred(block, i)]
        return candidates

    return select


class ScanKernel:
    """The static part of one filter, compiled for every evaluation outside
    the oracle.

    ``select(block, candidates, lookup, window=None, subject_ids=None,
    object_ids=None)`` evaluates a whole
    :class:`~repro.storage.blocks.ColumnBlock` and returns the surviving
    positions: exactly the ``candidates`` whose row matches the compiled
    filter with its window and id sets replaced by the arguments (``None``
    leaves that dimension open), both entities resolved through
    ``lookup``.  Entities resolve only for rows that survive the
    structural passes, so a filter without subject/object predicates
    never touches the registry.  ``always_false``: the agent or operation
    set is empty, and ``select`` returns ``[]`` without reading anything.
    ``interpreted``: the ``use_kernels(False)`` oracle (:func:`scan_kernel`),
    whose selections no cache may keep.
    """

    __slots__ = ("always_false", "select", "interpreted")

    def __init__(
        self, always_false: bool, select: SelectFn, interpreted: bool = False
    ) -> None:
        self.always_false = always_false
        self.select = select
        self.interpreted = interpreted


_M_KERNEL_COMPILED = REGISTRY.counter(
    "aiql_kernel_compiled_total",
    "Scan kernels compiled (once per plan pattern, or per plan-less scan)",
)


def compile_filter(flt: EventFilter) -> ScanKernel:
    """Compile the static part of ``flt`` into a :class:`ScanKernel`.

    ``flt``'s window and id sets are not compiled in: pass them (or a
    scan's narrower ones) to ``select``.
    """
    _M_KERNEL_COMPILED.inc()
    trace_add("kernel_compiled")
    if (flt.agent_ids is not None and not flt.agent_ids) or (
        flt.operations is not None and not flt.operations
    ):
        return ScanKernel(True, _never_select)
    subject_pred: Optional[PredicateFn] = (
        compile_predicate(flt.subject_pred)
        if flt.subject_pred is not None
        else None
    )
    object_pred: Optional[PredicateFn] = (
        compile_predicate(flt.object_pred)
        if flt.object_pred is not None
        else None
    )
    return ScanKernel(False, _compile_select(flt, subject_pred, object_pred))


_enabled = True


def kernels_enabled() -> bool:
    """Whether scans compile filters (True outside ``use_kernels(False)``)."""
    return _enabled


def scan_kernel(
    flt: EventFilter, kernel: Optional[ScanKernel] = None
) -> ScanKernel:
    """The kernel a scan of ``flt`` runs: ``kernel`` (a plan pattern's) or a
    fresh :func:`compile_filter`.

    Under ``use_kernels(False)`` it is the interpreter oracle instead, built
    for this scan from ``flt`` itself: its ``select`` runs
    :meth:`EventFilter.matches` (window and id sets included, so the
    scan-time arguments are ignored) on each candidate, the entities
    resolved through ``lookup``.
    """
    if _enabled:
        return kernel if kernel is not None else compile_filter(flt)
    matches = flt.matches

    def select(
        block: ColumnBlock,
        candidates: Positions,
        lookup,
        window: Optional[TimeWindow] = None,
        subject_ids: Optional[FrozenSet[int]] = None,
        object_ids: Optional[FrozenSet[int]] = None,
    ) -> List[int]:
        event_at = block.event_at
        selected = []
        for position in candidates:
            event = event_at(position)
            if matches(event, lookup(event.subject_id), lookup(event.object_id)):
                selected.append(position)
        return selected

    return ScanKernel(False, select, interpreted=True)


@contextmanager
def use_kernels(enabled: bool):
    """Force-compile or force-interpret scans within the block.

    The interpreted path is kept as the differential oracle; benchmarks and
    equivalence tests flip this toggle.  Not safe to flip concurrently with
    scans on other threads (tests and benches are single-threaded at the
    point of use).
    """
    global _enabled
    previous = _enabled
    _enabled = enabled
    try:
        yield
    finally:
        _enabled = previous
