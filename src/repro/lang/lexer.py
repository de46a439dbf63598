"""Hand-written lexer for AIQL.

Produces a flat token stream with line/column positions for error
reporting.  ``//`` line comments are skipped (the paper's example queries
are annotated with them).  Strings may use double or single quotes.
"""

from __future__ import annotations

from typing import List

from repro.lang.errors import AIQLSyntaxError
from repro.lang.tokens import Token, TokenType

_SIMPLE_TOKENS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    ":": TokenType.COLON,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
}

_DIGITS = frozenset("0123456789")


def tokenize(source: str) -> List[Token]:
    """Tokenize AIQL source text; raises :class:`AIQLSyntaxError`."""
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def error(message: str) -> AIQLSyntaxError:
        return AIQLSyntaxError(message, line=line, column=col, source=source)

    while i < n:
        ch = source[i]

        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        # line comments
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue

        start_line, start_col = line, col

        # two-character operators (check before single-character ones)
        two = source[i : i + 2]
        if two == "->":
            tokens.append(Token(TokenType.ARROW, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two == "<-":
            # Disambiguate from a comparison like ``a <- 1`` is not legal
            # AIQL; ``<-`` always means a dependency edge.
            tokens.append(Token(TokenType.BACKARROW, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two == "&&":
            tokens.append(Token(TokenType.AND, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two == "||":
            tokens.append(Token(TokenType.OR, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two == "!=":
            tokens.append(Token(TokenType.NEQ, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two == "<=":
            tokens.append(Token(TokenType.LTE, two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two == ">=":
            tokens.append(Token(TokenType.GTE, two, two, start_line, start_col))
            i += 2
            col += 2
            continue

        if ch == "=":
            tokens.append(Token(TokenType.EQ, ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "<":
            tokens.append(Token(TokenType.LT, ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == ">":
            tokens.append(Token(TokenType.GT, ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "!":
            tokens.append(Token(TokenType.BANG, ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "-":
            tokens.append(Token(TokenType.MINUS, ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in _SIMPLE_TOKENS:
            tokens.append(Token(_SIMPLE_TOKENS[ch], ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue

        # string literals
        if ch in ('"', "'"):
            quote = ch
            j = i + 1
            chunks: List[str] = []
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise error("unterminated string literal")
                if source[j] == "\\" and j + 1 < n:
                    chunks.append(source[j + 1])
                    j += 2
                    continue
                chunks.append(source[j])
                j += 1
            if j >= n:
                raise error("unterminated string literal")
            text = source[i : j + 1]
            value = "".join(chunks)
            tokens.append(Token(TokenType.STRING, text, value, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue

        # numbers (int or float; ASCII digits only, which int() accepts)
        if ch in _DIGITS:
            j = i
            seen_dot = False
            while j < n and (source[j] in _DIGITS or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # Do not absorb a trailing dot that belongs to attribute
                    # access after a number-like identifier (rare; be safe).
                    if j + 1 >= n or source[j + 1] not in _DIGITS:
                        break
                    seen_dot = True
                j += 1
            text = source[i:j]
            try:
                value: object = float(text) if "." in text else int(text)
            except ValueError:  # more digits than int() converts
                raise error("number literal too long") from None
            tokens.append(Token(TokenType.NUMBER, text, value, start_line, start_col))
            col += j - i
            i = j
            continue

        # identifiers (allow embedded digits and underscores)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            tokens.append(Token(TokenType.IDENT, text, text, start_line, start_col))
            col += j - i
            i = j
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenType.EOF, "", None, line, col))
    return tokens
