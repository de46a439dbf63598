"""Slot literals and plan templates: re-asking a query with new values.

An analyst keeps re-issuing one question with a new time window or a new
threshold.  The literals that change between those re-asks — the *slots*
— are ones the compiler only converts and stores, never ones that change
the plan's shape.  There are exactly two kinds:

* a time-window string: ``(at "D")`` or ``(from "A" to "B")``, global or
  per pattern;
* a number on the right of a comparison inside constraint brackets
  (``evt1[amount > 600000]``), except on ``agentid``, which the compiler
  turns into the plan's ``agent_ids``.

Every other literal — entity strings (a ``%`` makes them LIKE), ``IN``
lists, ``top N``, durations, history indexes, global comparisons — stays
verbatim in the query's *skeleton*: its canonical text cut at the slots.

:func:`scan_slots` finds the skeleton in one compiled-regex pass, far
cheaper than the lexer.  A :class:`PlanTemplate` is built once per
skeleton from a parse; :meth:`PlanTemplate.bind` then turns the slot
literals of any text with that skeleton into the plan a cold compile of
the text would produce (``==``), raising the same typed error for a bad
literal.  Binding runs the compiler's own conversions — the lexer's
int/float rule and :func:`repro.lang.context.time_window` — and rebuilds
only the filters, patterns and context those values reach.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.lang import ast
from repro.lang.context import QueryContext, time_window
from repro.model.entities import normalize_attribute
from repro.model.time import TimeWindow
from repro.storage.filters import (
    AttrPredicate,
    PredicateLeaf,
    PredicateNot,
)

# Slot kinds, in the order a slot scan reports them.
AT = "at"  # the day of (at "D")
FROM = "from"  # the start of (from "A" to "B"); its end follows as TO
TO = "to"
NUMBER = "number"
NEGATIVE = "-number"  # a number written after a minus sign

# One pass over a canonical text.  Groups: 1 = (at "D") day; 2, 3 =
# (from "A" to "B") bounds; 4 / 5 = a bracket opening / closing; 6, 7, 8 =
# attribute, minus sign and digits of ``attr <op> [-]number``.  Any other
# string literal is matched whole, so nothing inside one is a slot and no
# match starts within one.  Quantifiers are possessive and the attribute
# must start a word, so hostile input cannot make the scan backtrack; a
# number of more than 64 digits is no slot (``int`` refuses ~4300).
_SLOT_TOKENS = re.compile(
    r'\( ?(?i:at) "([^"]*+)" ?\)'
    r'|\( ?(?i:from) "([^"]*+)" (?i:to) "([^"]*+)" ?\)'
    r'|"[^"]*+"'
    r"|(\[)|(\])"
    r"|(?<![\w.])([A-Za-z_]\w*+) ?(?:[<>!]?=|[<>]) ?(-?)"
    r"([0-9]{1,64}+(?:\.[0-9]{1,64}+)?+)(?![\w.])"
)



@dataclass(frozen=True)
class SlotScan:
    """A canonical text cut at its slots.

    ``skeleton`` holds the fixed text around the slots (one piece more than
    there are slots), ``literals`` the slot texts in order, ``kinds`` what
    each slot is.
    """

    skeleton: Tuple[str, ...]
    literals: Tuple[str, ...]
    kinds: Tuple[str, ...]


def scan_slots(key: str) -> Optional[SlotScan]:
    """The slots of canonical text ``key``; ``None`` if it has none.

    ``None`` too for a text ``canonical_text`` did not collapse: its
    literals may hold what the scan's string rule cannot see.
    """
    # What ``canonical_text`` only strips instead of collapsing — a comment,
    # an escape, a single quote, whitespace other than single spaces — is
    # never templated.
    if (
        "//" in key
        or "\\" in key
        or "'" in key
        or key.count('"') % 2
        or " ".join(key.split()) != key
    ):
        return None
    pieces: List[str] = []
    literals: List[str] = []
    kinds: List[str] = []
    depth = 0
    last = 0
    for match in _SLOT_TOKENS.finditer(key):
        if match.group(4):
            depth += 1
            continue
        if match.group(5):
            depth -= 1
            continue
        if match.start(1) >= 0:
            groups: Tuple[Tuple[int, str], ...] = ((1, AT),)
        elif match.start(2) >= 0:
            groups = ((2, FROM), (3, TO))
        elif match.start(8) >= 0:
            if depth <= 0 or normalize_attribute(None, match.group(6)) == "agent_id":
                continue
            groups = ((8, NEGATIVE if match.group(7) else NUMBER),)
        else:
            continue  # a string literal: never a slot
        for group, kind in groups:
            start, end = match.span(group)
            pieces.append(key[last:start])
            literals.append(key[start:end])
            kinds.append(kind)
            last = end
    if not literals:
        return None
    pieces.append(key[last:])
    return SlotScan(tuple(pieces), tuple(literals), tuple(kinds))


def number_value(literal: str, kind: str) -> object:
    """A number slot's value: the lexer's int/float rule, then the
    parser's negation of a number written after a minus sign."""
    value = float(literal) if "." in literal else int(literal)
    return -value if kind == NEGATIVE else value


class _Slot:
    """Stands in for a number slot's value while a template is compiled."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


# ---------------------------------------------------------------------------
# finding the slots in a parse
# ---------------------------------------------------------------------------


def _is_number_slot(leaf: ast.CstrLeaf) -> bool:
    comparison = leaf.comparison
    return (
        comparison.attr is not None
        and comparison.op in ("=", "!=", "<", "<=", ">", ">=")
        and type(comparison.value) in (int, float)
        and normalize_attribute(None, comparison.attr) != "agent_id"
    )


def _mark_cstr(
    node: Optional[ast.CstrNode], take: Callable[[str, object], int]
) -> Optional[ast.CstrNode]:
    """``node`` with each number slot's value replaced by a :class:`_Slot`
    whose index ``take`` hands out, in text order."""
    if node is None:
        return None
    if isinstance(node, ast.CstrLeaf):
        if not _is_number_slot(node):
            return node
        index = take("n", node.comparison.value)
        return ast.CstrLeaf(replace(node.comparison, value=_Slot(index)))
    if isinstance(node, ast.CstrNot):
        return ast.CstrNot(_mark_cstr(node.child, take))
    assert isinstance(node, (ast.CstrAnd, ast.CstrOr))
    return type(node)(_mark_cstr(node.left, take), _mark_cstr(node.right, take))


# How a window is bound: its kind ('at' | 'range') and the slot index of
# each of its texts.
_WindowRecipe = Tuple[str, Tuple[int, ...]]


class PlanTemplate:
    """A compiled plan with holes where its slot literals go."""

    __slots__ = (
        "_base", "_numbers", "_global_windows", "_pattern_windows", "_marked"
    )

    def __init__(
        self,
        base: QueryContext,
        kinds: Tuple[str, ...],
        global_windows: Tuple[_WindowRecipe, ...],
        pattern_windows: Tuple[Optional[_WindowRecipe], ...],
    ) -> None:
        self._base = base
        self._numbers = tuple(
            (index, kind)
            for index, kind in enumerate(kinds)
            if kind in (NUMBER, NEGATIVE)
        )
        self._global_windows = global_windows
        self._pattern_windows = pattern_windows
        # Per pattern, the predicate fields of its filter that hold slots.
        self._marked = tuple(
            tuple(
                name
                for name in _PREDICATE_FIELDS
                if _has_slot(getattr(pattern.filter, name))
            )
            for pattern in base.patterns
        )

    @classmethod
    def build(
        cls,
        tree: ast.Query,
        scan: SlotScan,
        compile_tree: Callable[[ast.Query], QueryContext],
    ) -> Optional["PlanTemplate"]:
        """The template of ``tree``, the parse of the text ``scan`` cut.

        ``None`` unless the scan's slots are exactly the parse's window
        literals and number slots, in text order and with equal values.
        Text order is the global windows, then per pattern (or dependency
        path node) its subject, object and event constraints and its
        window.  Raises what compiling ``tree`` raises.
        """
        slots: List[Tuple[str, object]] = []

        def take(which: str, item: object) -> int:
            slots.append((which, item))
            return len(slots) - 1

        def take_window(spec: ast.TimeWindowSpec) -> _WindowRecipe:
            if spec.kind == "at":
                texts = [(AT, spec.start_text)]
            else:
                texts = [(FROM, spec.start_text), (TO, spec.end_text)]
            return spec.kind, tuple(take("w", text) for text in texts)

        global_windows = tuple(
            take_window(item)
            for item in tree.globals
            if isinstance(item, ast.TimeWindowSpec)
        )
        pattern_windows: List[Optional[_WindowRecipe]] = []
        marked: ast.Query
        if isinstance(tree, ast.MultieventQuery):
            patterns = []
            for pattern in tree.patterns:
                subject = pattern.subject
                obj = pattern.object
                patterns.append(
                    replace(
                        pattern,
                        subject=replace(
                            subject, constraints=_mark_cstr(subject.constraints, take)
                        ),
                        object=replace(
                            obj, constraints=_mark_cstr(obj.constraints, take)
                        ),
                        event_constraints=_mark_cstr(pattern.event_constraints, take),
                    )
                )
                window = pattern.window
                pattern_windows.append(take_window(window) if window else None)
            marked = replace(tree, patterns=tuple(patterns))
        else:
            marked = replace(
                tree,
                nodes=tuple(
                    replace(node, constraints=_mark_cstr(node.constraints, take))
                    for node in tree.nodes
                ),
            )

        if len(slots) != len(scan.literals):
            return None
        for (which, item), literal, kind in zip(slots, scan.literals, scan.kinds):
            if which == "w":
                if item != (kind, literal):
                    return None
            elif kind not in (NUMBER, NEGATIVE):
                return None
            else:
                value = number_value(literal, kind)
                if type(value) is not type(item) or value != item:
                    return None

        base = compile_tree(marked)
        if isinstance(tree, ast.DependencyQuery):
            # Its rewritten patterns carry the global window only.
            pattern_windows = [None] * len(base.patterns)
        return cls(base, scan.kinds, global_windows, tuple(pattern_windows))

    def bind(self, literals: Tuple[str, ...]) -> QueryContext:
        """The plan of the text whose slot literals are ``literals``.

        Equal to a cold compile of that text.  A bad window literal raises
        the compiler's :class:`~repro.lang.errors.AIQLSemanticError`, and
        the first one in the compiler's order (global windows, then each
        pattern's) is the one raised.
        """
        window = TimeWindow()
        for kind, indexes in self._global_windows:
            window = window.intersect(_bound_window(kind, indexes, literals))
        unwindowed = window.intersect(TimeWindow())
        values: List[object] = [None] * len(literals)
        for index, kind in self._numbers:
            values[index] = number_value(literals[index], kind)
        patterns = []
        for pattern, recipe, fields in zip(
            self._base.patterns, self._pattern_windows, self._marked
        ):
            flt = replace(
                pattern.filter,
                window=unwindowed
                if recipe is None
                else window.intersect(_bound_window(*recipe, literals)),
                **{
                    name: _substitute(getattr(pattern.filter, name), values)
                    for name in fields
                },
            )
            patterns.append(pattern.with_filter(flt, same_kernel=not fields))
        return replace(self._base, patterns=tuple(patterns), window=window)


def _bound_window(
    kind: str, indexes: Tuple[int, ...], literals: Tuple[str, ...]
) -> TimeWindow:
    texts = [literals[i] for i in indexes]
    return time_window(kind, *texts)


_PREDICATE_FIELDS = ("subject_pred", "object_pred", "event_pred")


def _has_slot(node) -> bool:
    return node is not None and any(
        isinstance(pred.value, _Slot) for pred in node.leaves()
    )


def _substitute(node, values: List[object]):
    """``node`` with each :class:`_Slot` value replaced from ``values``."""
    if isinstance(node, PredicateLeaf):
        slot = node.pred.value
        if not isinstance(slot, _Slot):
            return node
        pred = node.pred
        return PredicateLeaf(AttrPredicate(pred.attr, pred.op, values[slot.index]))
    if isinstance(node, PredicateNot):
        return PredicateNot(_substitute(node.child, values))
    return type(node)(tuple(_substitute(child, values) for child in node.children))
