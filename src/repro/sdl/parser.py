"""Parser for the SDL text syntax.

The paper writes SDL queries like::

    (date : [1550,1650], tonnage :, type : {'jacht', 'fluit'})

This module turns that textual form back into :class:`~repro.sdl.query.SDLQuery`
objects.  The grammar, in EBNF-ish form::

    query      = "(" [ predicate { "," predicate } ] ")"
               | predicate { "," predicate }
    predicate  = IDENT ":" [ range | set | exclusion ]
    range      = ("[" | "]") literal "," literal ("]" | "[")
    set        = "{" literal { "," literal } "}"
    exclusion  = "!" set
    literal    = NUMBER | STRING | BAREWORD

Numbers are parsed as ``int`` when possible, otherwise ``float``.  Strings
may be single- or double-quoted; barewords (unquoted identifiers inside a
set) are taken verbatim.  Whitespace is insignificant.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional

from repro.errors import SDLSyntaxError
from repro.sdl.predicates import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SetPredicate,
)
from repro.sdl.query import SDLQuery

__all__ = ["parse_query"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<punct>[()\[\]{}:,])
  | (?P<bareword>[^\s()\[\]{}:,]+)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: str, position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.value!r}, at {self.position})"


def _tokenise(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SDLSyntaxError(
                f"unexpected character {text[position]!r}", text=text, position=position
            )
        position = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        tokens.append(_Token(kind, match.group(), match.start()))
    return tokens


def _literal_value(token: _Token) -> Any:
    if token.kind == "number":
        if re.fullmatch(r"-?\d+", token.value):
            return int(token.value)
        return float(token.value)
    if token.kind == "string":
        body = token.value[1:-1]
        return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")
    if token.kind == "bareword":
        return token.value
    raise SDLSyntaxError(f"expected a literal, got {token.value!r}", position=token.position)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenise(text)
        self.index = 0

    # -- token-stream helpers ------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SDLSyntaxError("unexpected end of input", text=self.text)
        self.index += 1
        return token

    def _expect_punct(self, value: str) -> _Token:
        token = self._next()
        if token.kind != "punct" or token.value != value:
            raise SDLSyntaxError(
                f"expected {value!r}, got {token.value!r}",
                text=self.text,
                position=token.position,
            )
        return token

    def _at_punct(self, value: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "punct" and token.value == value

    # -- grammar -------------------------------------------------------------

    def parse_query(self) -> SDLQuery:
        wrapped = self._at_punct("(")
        if wrapped:
            self._next()
        predicates: List[Predicate] = []
        if not (wrapped and self._at_punct(")")) and self._peek() is not None:
            predicates.append(self.parse_predicate())
            while self._at_punct(","):
                self._next()
                predicates.append(self.parse_predicate())
        if wrapped:
            self._expect_punct(")")
        trailing = self._peek()
        if trailing is not None:
            raise SDLSyntaxError(
                f"unexpected trailing input {trailing.value!r}",
                text=self.text,
                position=trailing.position,
            )
        return SDLQuery(predicates)

    def parse_predicate(self) -> Predicate:
        name_token = self._next()
        if name_token.kind not in ("bareword", "string"):
            raise SDLSyntaxError(
                f"expected an attribute name, got {name_token.value!r}",
                text=self.text,
                position=name_token.position,
            )
        attribute = (
            _literal_value(name_token)
            if name_token.kind == "string"
            else name_token.value
        )
        self._expect_punct(":")
        token = self._peek()
        if token is None or (token.kind == "punct" and token.value in (",", ")")):
            return NoConstraint(str(attribute))
        if token.kind == "punct" and token.value in ("[", "]"):
            return self._parse_range(str(attribute))
        if token.kind == "punct" and token.value == "{":
            return self._parse_set(str(attribute))
        if token.kind == "bareword" and token.value == "!":
            self._next()
            inner = self._parse_set(str(attribute))
            return ExclusionPredicate(inner.attribute, inner.values)
        raise SDLSyntaxError(
            f"expected a range, a set, an exclusion, or nothing after ':', "
            f"got {token.value!r}",
            text=self.text,
            position=token.position,
        )

    def _parse_range(self, attribute: str) -> RangePredicate:
        open_token = self._next()
        include_low = open_token.value == "["
        low = _literal_value(self._next())
        self._expect_punct(",")
        high = _literal_value(self._next())
        close_token = self._next()
        if close_token.kind != "punct" or close_token.value not in ("]", "["):
            raise SDLSyntaxError(
                f"expected ']' or '[' to close a range, got {close_token.value!r}",
                text=self.text,
                position=close_token.position,
            )
        include_high = close_token.value == "]"
        return RangePredicate(
            attribute,
            low=low,
            high=high,
            include_low=include_low,
            include_high=include_high,
        )

    def _parse_set(self, attribute: str) -> SetPredicate:
        self._expect_punct("{")
        values = [_literal_value(self._next())]
        while self._at_punct(","):
            self._next()
            values.append(_literal_value(self._next()))
        self._expect_punct("}")
        return SetPredicate(attribute, frozenset(values))


def parse_query(text: str) -> SDLQuery:
    """Parse an SDL query from its text form.

    Examples
    --------
    >>> parse_query("(date: [1550, 1650], tonnage:, type: {'jacht', 'fluit'})")
    SDLQuery(date: [1550, 1650], tonnage:, type: {'fluit', 'jacht'})
    """
    if not text or not text.strip():
        raise SDLSyntaxError("empty SDL query", text=text)
    return _Parser(text).parse_query()


def parse_predicate(text: str) -> Predicate:
    """Parse a single SDL predicate such as ``tonnage: [1000, 5000]``."""
    if not text or not text.strip():
        raise SDLSyntaxError("empty SDL predicate", text=text)
    parser = _Parser(text)
    predicate = parser.parse_predicate()
    trailing = parser._peek()
    if trailing is not None:
        raise SDLSyntaxError(
            f"unexpected trailing input {trailing.value!r}",
            text=text,
            position=trailing.position,
        )
    return predicate
