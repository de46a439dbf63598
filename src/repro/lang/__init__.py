"""The AIQL language front-end (paper Sec. 4 and Fig. 2's parser box).

Pipeline: source text -> :func:`~repro.lang.lexer.tokenize` ->
:func:`~repro.lang.parser.parse` (AST) ->
:func:`~repro.lang.context.compile_multievent` /
:func:`~repro.engine.dependency.compile_dependency` (QueryContext).
:mod:`repro.lang.slots` binds a text that differs from a compiled one only
in window dates or bracketed numeric thresholds without that pipeline.
"""

from repro.lang.ast import DependencyQuery, MultieventQuery, Query
from repro.lang.context import (
    FieldRef,
    PatternContext,
    QueryContext,
    ResolvedAttrRel,
    ResolvedReturnItem,
    ResolvedTempRel,
    compile_multievent,
)
from repro.lang.errors import AIQLError, AIQLSemanticError, AIQLSyntaxError
from repro.lang.formatter import format_query
from repro.lang.inference import infer_multievent
from repro.lang.lexer import tokenize
from repro.lang.parser import parse, parse_many

__all__ = [
    "AIQLError",
    "AIQLSemanticError",
    "AIQLSyntaxError",
    "DependencyQuery",
    "FieldRef",
    "MultieventQuery",
    "PatternContext",
    "Query",
    "QueryContext",
    "ResolvedAttrRel",
    "ResolvedReturnItem",
    "ResolvedTempRel",
    "compile_multievent",
    "format_query",
    "infer_multievent",
    "parse",
    "parse_many",
    "tokenize",
]
