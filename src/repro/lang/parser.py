"""Recursive-descent parser for AIQL (paper Grammar 1).

The parser consumes the token stream from :mod:`repro.lang.lexer` and
produces the AST of :mod:`repro.lang.ast`.  It accepts the full surface
syntax used throughout the paper: multievent queries (Queries 1, 2, 6, 7),
dependency queries (Query 3), and anomaly queries with sliding windows and
history states (Queries 4, 5).

Grammar notes
-------------
* Keywords are contextual; entity/event ids may not collide with operation
  names or clause keywords in positions where that would be ambiguous.
* ``(m_query)+`` in the BNF allows several multievent queries in one input;
  like the paper's examples we support one query per input string (a
  sequence can be parsed with :func:`parse_many`).
* A dependency query is recognized by the presence of ``->`` / ``<-`` path
  edges (or an explicit ``forward:`` / ``backward:`` prefix).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang import ast
from repro.lang.errors import AIQLSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.tokens import (
    AGGREGATE_FUNCTIONS,
    ENTITY_TYPE_WORDS,
    KEYWORDS,
    Token,
    TokenType,
)
from repro.model.events import Operation
from repro.model.time import parse_duration

_COMPARISON_TOKENS = {
    TokenType.EQ: "=",
    TokenType.NEQ: "!=",
    TokenType.LT: "<",
    TokenType.LTE: "<=",
    TokenType.GT: ">",
    TokenType.GTE: ">=",
}

_OPERATION_WORDS = frozenset(
    {op.value for op in Operation}
    | {"exec", "fork", "spawn", "unlink", "remove", "mv", "receive"}
)

_FILTER_KEYWORDS = frozenset({"group", "having", "sort", "top"})


class _ParserState:
    def __init__(self, tokens: List[Token], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.pos = 0

    # -- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def check(self, ttype: TokenType, offset: int = 0) -> bool:
        return self.peek(offset).type is ttype

    def check_word(self, word: str, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.type is TokenType.IDENT and token.text.lower() == word

    def match(self, ttype: TokenType) -> Optional[Token]:
        if self.check(ttype):
            return self.advance()
        return None

    def match_word(self, word: str) -> Optional[Token]:
        if self.check_word(word):
            return self.advance()
        return None

    def expect(self, ttype: TokenType, what: str) -> Token:
        if self.check(ttype):
            return self.advance()
        return self._unexpected(what)

    def expect_word(self, word: str) -> Token:
        if self.check_word(word):
            return self.advance()
        return self._unexpected(f"keyword {word!r}")

    def _unexpected(self, what: str):
        token = self.peek()
        got = token.text or "end of input"
        raise AIQLSyntaxError(
            f"expected {what}, got {got!r}",
            line=token.line,
            column=token.column,
            source=self.source,
        )

    def error(self, message: str) -> AIQLSyntaxError:
        token = self.peek()
        return AIQLSyntaxError(
            message, line=token.line, column=token.column, source=self.source
        )


def parse(source: str) -> ast.Query:
    """Parse one AIQL query; raises :class:`AIQLSyntaxError`."""
    state = _ParserState(tokenize(source), source)
    try:
        query = _parse_query(state)
    except RecursionError:
        raise state.error("query nests too deeply") from None
    if not state.check(TokenType.EOF):
        state._unexpected("end of query")
    return query


def parse_many(source: str, separator: str = ";") -> List[ast.Query]:
    """Parse a ``;``-separated sequence of queries."""
    return [parse(part) for part in source.split(separator) if part.strip()]


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def _parse_query(state: _ParserState) -> ast.Query:
    globals_ = _parse_globals(state)
    if _looks_like_dependency(state):
        return _parse_dependency(state, globals_)
    return _parse_multievent(state, globals_)


def _looks_like_dependency(state: _ParserState) -> bool:
    if state.check_word("forward") or state.check_word("backward"):
        return True
    offset = 0
    while True:
        token = state.peek(offset)
        if token.type is TokenType.EOF:
            return False
        if token.type is TokenType.IDENT and token.text.lower() == "return":
            return False
        if token.type in (TokenType.ARROW, TokenType.BACKARROW):
            return True
        offset += 1


def _parse_globals(state: _ParserState) -> Tuple[ast.GlobalItem, ...]:
    items: List[ast.GlobalItem] = []
    window_len: Optional[float] = None
    window_step: Optional[float] = None
    while True:
        if state.check(TokenType.LPAREN) and (
            state.check_word("at", 1) or state.check_word("from", 1)
        ):
            state.advance()
            items.append(_parse_time_window(state))
            state.expect(TokenType.RPAREN, "')'")
        elif state.check_word("window") and state.check(TokenType.EQ, 1):
            state.advance()
            state.advance()
            window_len = _parse_duration_literal(state)
        elif state.check_word("step") and state.check(TokenType.EQ, 1):
            state.advance()
            state.advance()
            window_step = _parse_duration_literal(state)
        elif (
            state.check(TokenType.IDENT)
            and state.peek().text.lower() not in ENTITY_TYPE_WORDS
            and not state.check_word("forward")
            and not state.check_word("backward")
            and (
                state.peek(1).type in _COMPARISON_TOKENS
                or state.check_word("in", 1)
                or (state.check_word("not", 1) and state.check_word("in", 2))
            )
        ):
            comparison = _parse_comparison(state)
            items.append(ast.GlobalConstraint(comparison))
        else:
            break
        state.match(TokenType.COMMA)
    if window_len is not None or window_step is not None:
        if window_len is None or window_step is None:
            raise state.error(
                "sliding window requires both 'window = ...' and 'step = ...'"
            )
        items.append(
            ast.SlidingWindowSpec(
                window_seconds=window_len, step_seconds=window_step
            )
        )
    return tuple(items)


def _parse_duration_literal(state: _ParserState) -> float:
    number = state.expect(TokenType.NUMBER, "a duration (e.g. '1 min')")
    unit = state.expect(TokenType.IDENT, "a time unit (sec/min/hour/day)")
    try:
        return parse_duration(float(number.value), unit.text)
    except ValueError as exc:
        raise state.error(str(exc))


def _parse_time_window(state: _ParserState) -> ast.TimeWindowSpec:
    if state.match_word("at"):
        start = state.expect(TokenType.STRING, "a quoted datetime")
        return ast.TimeWindowSpec(kind="at", start_text=str(start.value))
    state.expect_word("from")
    start = state.expect(TokenType.STRING, "a quoted datetime")
    state.expect_word("to")
    end = state.expect(TokenType.STRING, "a quoted datetime")
    return ast.TimeWindowSpec(
        kind="range", start_text=str(start.value), end_text=str(end.value)
    )


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


def _parse_value(state: _ParserState) -> object:
    token = state.peek()
    if token.type is TokenType.STRING:
        state.advance()
        return token.value
    if token.type is TokenType.NUMBER:
        state.advance()
        return token.value
    if token.type is TokenType.MINUS and state.check(TokenType.NUMBER, 1):
        state.advance()
        number = state.advance()
        return -number.value  # type: ignore[operator]
    if token.type is TokenType.IDENT:
        state.advance()
        return token.text
    return state._unexpected("a value")


def _parse_comparison(state: _ParserState) -> ast.Comparison:
    """``attr <bop> value`` or ``attr [not] in (...)`` (attr consumed here)."""
    attr = state.expect(TokenType.IDENT, "an attribute name").text
    negated_in = False
    if state.check_word("not") and state.check_word("in", 1):
        state.advance()
        negated_in = True
    if state.match_word("in"):
        state.expect(TokenType.LPAREN, "'('")
        values = [_parse_value(state)]
        while state.match(TokenType.COMMA):
            values.append(_parse_value(state))
        state.expect(TokenType.RPAREN, "')'")
        op = "not in" if negated_in else "in"
        return ast.Comparison(attr=attr, op=op, value=tuple(values))
    token = state.peek()
    if token.type not in _COMPARISON_TOKENS:
        return state._unexpected("a comparison operator")
    state.advance()
    value = _parse_value(state)
    return ast.Comparison(attr=attr, op=_COMPARISON_TOKENS[token.type], value=value)


def _parse_cstr_or(state: _ParserState) -> ast.CstrNode:
    node = _parse_cstr_and(state)
    while state.match(TokenType.OR):
        node = ast.CstrOr(node, _parse_cstr_and(state))
    return node


def _parse_cstr_and(state: _ParserState) -> ast.CstrNode:
    node = _parse_cstr_unary(state)
    while True:
        if state.match(TokenType.AND):
            node = ast.CstrAnd(node, _parse_cstr_unary(state))
        elif state.check(TokenType.COMMA) and not state.check(
            TokenType.RBRACKET, 1
        ):
            # Comma inside entity brackets means AND (Query 3 in the paper:
            # ``p1["%/bin/cp%", agentid = 2]``).
            state.advance()
            node = ast.CstrAnd(node, _parse_cstr_unary(state))
        else:
            return node


def _parse_cstr_unary(state: _ParserState) -> ast.CstrNode:
    if state.match(TokenType.BANG):
        return ast.CstrNot(_parse_cstr_unary(state))
    if state.check(TokenType.LPAREN):
        state.advance()
        node = _parse_cstr_or(state)
        state.expect(TokenType.RPAREN, "')'")
        return node
    # attribute comparison?
    if state.check(TokenType.IDENT) and (
        state.peek(1).type in _COMPARISON_TOKENS
        or state.check_word("in", 1)
        or (state.check_word("not", 1) and state.check_word("in", 2))
    ):
        return ast.CstrLeaf(_parse_comparison(state))
    # bare value with the default attribute inferred later
    value = _parse_value(state)
    return ast.CstrLeaf(ast.Comparison(attr=None, op="=", value=value))


def _parse_bracketed_constraints(state: _ParserState) -> Optional[ast.CstrNode]:
    if not state.match(TokenType.LBRACKET):
        return None
    node = _parse_cstr_or(state)
    state.expect(TokenType.RBRACKET, "']'")
    return node


# ---------------------------------------------------------------------------
# operation expressions
# ---------------------------------------------------------------------------


def _parse_op_or(state: _ParserState) -> ast.OpNode:
    node = _parse_op_and(state)
    while state.match(TokenType.OR):
        node = ast.OpOr(node, _parse_op_and(state))
    return node


def _parse_op_and(state: _ParserState) -> ast.OpNode:
    node = _parse_op_unary(state)
    while state.match(TokenType.AND):
        node = ast.OpAnd(node, _parse_op_unary(state))
    return node


def _parse_op_unary(state: _ParserState) -> ast.OpNode:
    if state.match(TokenType.BANG):
        return ast.OpNot(_parse_op_unary(state))
    if state.check(TokenType.LPAREN):
        state.advance()
        node = _parse_op_or(state)
        state.expect(TokenType.RPAREN, "')'")
        return node
    token = state.expect(TokenType.IDENT, "an operation name")
    name = token.text.lower()
    if name not in _OPERATION_WORDS:
        raise AIQLSyntaxError(
            f"unknown operation {token.text!r}",
            line=token.line,
            column=token.column,
            source=state.source,
        )
    return ast.OpLeaf(name)


# ---------------------------------------------------------------------------
# entities and event patterns
# ---------------------------------------------------------------------------


def _parse_entity(state: _ParserState, allow_id: bool = True) -> ast.EntityPattern:
    token = state.expect(TokenType.IDENT, "an entity type (proc/file/ip)")
    type_name = token.text.lower()
    if type_name not in ENTITY_TYPE_WORDS:
        raise AIQLSyntaxError(
            f"unknown entity type {token.text!r}",
            line=token.line,
            column=token.column,
            source=state.source,
        )
    entity_id: Optional[str] = None
    if allow_id and state.check(TokenType.IDENT):
        word = state.peek().text.lower()
        if (
            word not in KEYWORDS
            and word not in _OPERATION_WORDS
            and word not in ENTITY_TYPE_WORDS
        ):
            entity_id = state.advance().text
    constraints = _parse_bracketed_constraints(state)
    return ast.EntityPattern(
        type_name="proc" if type_name == "process" else type_name,
        entity_id=entity_id,
        constraints=constraints,
    )


def _parse_event_pattern(state: _ParserState) -> ast.EventPattern:
    subject = _parse_entity(state)
    operation = _parse_op_or(state)
    obj = _parse_entity(state)
    event_id: Optional[str] = None
    event_constraints: Optional[ast.CstrNode] = None
    window: Optional[ast.TimeWindowSpec] = None
    if state.match_word("as"):
        event_id = state.expect(TokenType.IDENT, "an event id").text
        event_constraints = _parse_bracketed_constraints(state)
    if state.check(TokenType.LPAREN) and (
        state.check_word("at", 1) or state.check_word("from", 1)
    ):
        state.advance()
        window = _parse_time_window(state)
        state.expect(TokenType.RPAREN, "')'")
    return ast.EventPattern(
        subject=subject,
        operation=operation,
        object=obj,
        event_id=event_id,
        event_constraints=event_constraints,
        window=window,
    )


# ---------------------------------------------------------------------------
# relationships
# ---------------------------------------------------------------------------

_TEMPORAL_KINDS = ("before", "after", "within")


def _parse_relationship(state: _ParserState) -> ast.Relationship:
    left = state.expect(TokenType.IDENT, "an entity or event id").text
    # temporal relationship?
    for kind in _TEMPORAL_KINDS:
        if state.check_word(kind):
            state.advance()
            low: Optional[float] = None
            high: Optional[float] = None
            if state.match(TokenType.LBRACKET):
                low_token = state.expect(TokenType.NUMBER, "a number")
                state.expect(TokenType.MINUS, "'-'")
                high_token = state.expect(TokenType.NUMBER, "a number")
                unit = state.expect(TokenType.IDENT, "a time unit")
                state.expect(TokenType.RBRACKET, "']'")
                try:
                    low = parse_duration(float(low_token.value), unit.text)
                    high = parse_duration(float(high_token.value), unit.text)
                except ValueError as exc:
                    raise state.error(str(exc))
                if low > high:
                    raise state.error("temporal range low bound exceeds high bound")
            right = state.expect(TokenType.IDENT, "an event id").text
            return ast.TempRel(
                left_event=left, kind=kind, right_event=right, low=low, high=high
            )
    # attribute relationship
    left_attr: Optional[str] = None
    if state.match(TokenType.DOT):
        left_attr = state.expect(TokenType.IDENT, "an attribute name").text
    token = state.peek()
    if token.type not in _COMPARISON_TOKENS:
        return state._unexpected("a comparison operator or before/after/within")
    state.advance()
    right = state.expect(TokenType.IDENT, "an entity id").text
    right_attr: Optional[str] = None
    if state.match(TokenType.DOT):
        right_attr = state.expect(TokenType.IDENT, "an attribute name").text
    return ast.AttrRel(
        left_id=left,
        left_attr=left_attr,
        op=_COMPARISON_TOKENS[token.type],
        right_id=right,
        right_attr=right_attr,
    )


# ---------------------------------------------------------------------------
# return clause, filters, having expressions
# ---------------------------------------------------------------------------


def _parse_res_attr(state: _ParserState) -> ast.ResAttr:
    ref = state.expect(TokenType.IDENT, "an entity or event id").text
    attr: Optional[str] = None
    if state.match(TokenType.DOT):
        attr = state.expect(TokenType.IDENT, "an attribute name").text
    return ast.ResAttr(ref=ref, attr=attr)


def _parse_res_expr(state: _ParserState) -> ast.ResExpr:
    if (
        state.check(TokenType.IDENT)
        and state.peek().text.lower() in AGGREGATE_FUNCTIONS
        and state.check(TokenType.LPAREN, 1)
    ):
        func = state.advance().text.lower()
        state.advance()  # '('
        distinct = bool(state.match_word("distinct"))
        arg = _parse_res_attr(state)
        state.expect(TokenType.RPAREN, "')'")
        return ast.ResAgg(func=func, arg=arg, distinct=distinct)
    return _parse_res_attr(state)


def _parse_return(state: _ParserState) -> ast.ReturnClause:
    state.expect_word("return")
    count = False
    distinct = False
    if state.check_word("count") and not state.check(TokenType.LPAREN, 1):
        state.advance()
        count = True
    if state.match_word("distinct"):
        distinct = True
    items: List[ast.ReturnItem] = []
    while True:
        expr = _parse_res_expr(state)
        rename: Optional[str] = None
        if state.match_word("as"):
            rename = state.expect(TokenType.IDENT, "a result name").text
        items.append(ast.ReturnItem(expr=expr, rename=rename))
        if not state.match(TokenType.COMMA):
            break
    return ast.ReturnClause(items=tuple(items), count=count, distinct=distinct)


def _parse_filters(state: _ParserState) -> ast.Filters:
    group_by: Tuple[ast.ResExpr, ...] = ()
    having: Optional[ast.ExprNode] = None
    sort: Optional[ast.SortSpec] = None
    top: Optional[int] = None
    while state.check(TokenType.IDENT) and state.peek().text.lower() in _FILTER_KEYWORDS:
        word = state.advance().text.lower()
        if word == "group":
            state.expect_word("by")
            items = [_parse_res_expr(state)]
            while state.match(TokenType.COMMA):
                items.append(_parse_res_expr(state))
            group_by = tuple(items)
        elif word == "having":
            having = _parse_expr(state)
        elif word == "sort":
            state.expect_word("by")
            attrs = [state.expect(TokenType.IDENT, "an attribute").text]
            while state.match(TokenType.COMMA):
                attrs.append(state.expect(TokenType.IDENT, "an attribute").text)
            descending = False
            if state.match_word("desc"):
                descending = True
            elif state.match_word("asc"):
                descending = False
            sort = ast.SortSpec(attrs=tuple(attrs), descending=descending)
        elif word == "top":
            top = int(state.expect(TokenType.NUMBER, "an integer").value)  # type: ignore[arg-type]
    return ast.Filters(group_by=group_by, having=having, sort=sort, top=top)


# having expressions: || < && < comparison < additive < multiplicative < unary


def _parse_expr(state: _ParserState) -> ast.ExprNode:
    node = _parse_expr_and(state)
    while state.match(TokenType.OR):
        node = ast.BinOp("||", node, _parse_expr_and(state))
    return node


def _parse_expr_and(state: _ParserState) -> ast.ExprNode:
    node = _parse_expr_cmp(state)
    while state.match(TokenType.AND):
        node = ast.BinOp("&&", node, _parse_expr_cmp(state))
    return node


def _parse_expr_cmp(state: _ParserState) -> ast.ExprNode:
    node = _parse_expr_add(state)
    while state.peek().type in _COMPARISON_TOKENS:
        op = _COMPARISON_TOKENS[state.advance().type]
        node = ast.BinOp(op, node, _parse_expr_add(state))
    return node


def _parse_expr_add(state: _ParserState) -> ast.ExprNode:
    node = _parse_expr_mul(state)
    while state.check(TokenType.PLUS) or state.check(TokenType.MINUS):
        op = "+" if state.advance().type is TokenType.PLUS else "-"
        node = ast.BinOp(op, node, _parse_expr_mul(state))
    return node


def _parse_expr_mul(state: _ParserState) -> ast.ExprNode:
    node = _parse_expr_unary(state)
    while state.check(TokenType.STAR) or state.check(TokenType.SLASH):
        op = "*" if state.advance().type is TokenType.STAR else "/"
        node = ast.BinOp(op, node, _parse_expr_unary(state))
    return node


def _parse_expr_unary(state: _ParserState) -> ast.ExprNode:
    if state.match(TokenType.MINUS):
        return ast.BinOp("-", ast.Num(0.0), _parse_expr_unary(state))
    if state.check(TokenType.LPAREN):
        state.advance()
        node = _parse_expr(state)
        state.expect(TokenType.RPAREN, "')'")
        return node
    if state.check(TokenType.NUMBER):
        return ast.Num(float(state.advance().value))  # type: ignore[arg-type]
    token = state.expect(TokenType.IDENT, "a name or number")
    name = token.text
    # function call
    if state.check(TokenType.LPAREN):
        state.advance()
        args: List[ast.ExprNode] = []
        if not state.check(TokenType.RPAREN):
            args.append(_parse_expr(state))
            while state.match(TokenType.COMMA):
                args.append(_parse_expr(state))
        state.expect(TokenType.RPAREN, "')'")
        return ast.FuncCall(name=name.lower(), args=tuple(args))
    # history state: name[k]
    if state.check(TokenType.LBRACKET):
        state.advance()
        k = state.expect(TokenType.NUMBER, "a history index")
        state.expect(TokenType.RBRACKET, "']'")
        return ast.Name(name=name, history=int(k.value))  # type: ignore[arg-type]
    return ast.Name(name=name)


# ---------------------------------------------------------------------------
# multievent and dependency queries
# ---------------------------------------------------------------------------


def _parse_multievent(
    state: _ParserState, globals_: Tuple[ast.GlobalItem, ...]
) -> ast.MultieventQuery:
    patterns: List[ast.EventPattern] = []
    while state.check(TokenType.IDENT) and state.peek().text.lower() in ENTITY_TYPE_WORDS:
        patterns.append(_parse_event_pattern(state))
    if not patterns:
        state._unexpected("an event pattern")
    relationships: List[ast.Relationship] = []
    if state.match_word("with"):
        relationships.append(_parse_relationship(state))
        while state.match(TokenType.COMMA):
            relationships.append(_parse_relationship(state))
    returns = _parse_return(state)
    filters = _parse_filters(state)
    return ast.MultieventQuery(
        globals=globals_,
        patterns=tuple(patterns),
        relationships=tuple(relationships),
        returns=returns,
        filters=filters,
    )


def _parse_dependency(
    state: _ParserState, globals_: Tuple[ast.GlobalItem, ...]
) -> ast.DependencyQuery:
    direction: Optional[str] = None
    if state.check_word("forward") or state.check_word("backward"):
        direction = state.advance().text.lower()
        state.expect(TokenType.COLON, "':'")
    nodes: List[ast.EntityPattern] = [_parse_entity(state)]
    edges: List[ast.DependencyEdge] = []
    while state.check(TokenType.ARROW) or state.check(TokenType.BACKARROW):
        arrow = state.advance()
        edge_dir = "->" if arrow.type is TokenType.ARROW else "<-"
        state.expect(TokenType.LBRACKET, "'['")
        operation = _parse_op_or(state)
        state.expect(TokenType.RBRACKET, "']'")
        edges.append(ast.DependencyEdge(direction=edge_dir, operation=operation))
        nodes.append(_parse_entity(state))
    if not edges:
        raise state.error("dependency query requires at least one '->' or '<-' edge")
    returns = _parse_return(state)
    filters = _parse_filters(state)
    return ast.DependencyQuery(
        globals=globals_,
        direction=direction,
        nodes=tuple(nodes),
        edges=tuple(edges),
        returns=returns,
        filters=filters,
    )
