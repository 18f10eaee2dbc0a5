"""SDL to SQL translation and back.

Charles is "implemented as a front-end for SQL systems" (paper, Section 1)
and the original prototype ran on MonetDB.  The substitute engine is
in-memory, but the SQL surface is preserved:

* :func:`predicate_to_sql` / :func:`query_to_where` / :func:`query_to_sql`
  render SDL objects as SQL, so any external SQL database could execute
  Charles' segments;
* :func:`parse_where` parses a conjunctive WHERE clause (comparisons,
  ``BETWEEN``, ``IN``, ``NOT IN``, quoted identifiers) back into an
  :class:`~repro.sdl.query.SDLQuery`, so users can state their context in
  familiar SQL.  Disjunctions raise a clear :class:`~repro.errors.SQLParseError`
  — the conjunctive SDL cannot express ``OR``.

This glue is no longer decorative: :class:`repro.backends.sqlite.SQLiteBackend`
executes Charles' segments by rendering them through
:func:`count_query_sql` against a real ``sqlite3`` database.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional

from repro.errors import SQLGenerationError, SQLParseError
from repro.sdl.predicates import (
    ExclusionPredicate,
    NoConstraint,
    Predicate,
    RangePredicate,
    SetPredicate,
    intersect_predicates,
)
from repro.sdl.query import SDLQuery
from repro.storage.types import is_missing

__all__ = ["query_to_where", "query_to_sql", "count_query_sql", "parse_where"]


def sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal (strings are quote-escaped)."""
    if value is None:
        raise SQLGenerationError("cannot render NULL as a comparison literal")
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def _is_unbounded(value: Any) -> bool:
    return isinstance(value, float) and math.isinf(value)


def predicate_to_sql(predicate: Predicate) -> str:
    """Render a single SDL predicate as a SQL boolean expression.

    Infinite range bounds (produced by ``parse_where`` for one-sided
    comparisons such as ``x < 5``) render only the bounded side, so the
    emitted SQL is executable by a real database.
    """
    if isinstance(predicate, NoConstraint):
        return "TRUE"
    attribute = f'"{predicate.attribute}"'
    if isinstance(predicate, RangePredicate):
        conditions = []
        if not _is_unbounded(predicate.low):
            low_op = ">=" if predicate.include_low else ">"
            conditions.append(f"{attribute} {low_op} {sql_literal(predicate.low)}")
        if not _is_unbounded(predicate.high):
            high_op = "<=" if predicate.include_high else "<"
            conditions.append(f"{attribute} {high_op} {sql_literal(predicate.high)}")
        if not conditions:
            # Both bounds infinite: any non-NULL value qualifies.
            return f"{attribute} IS NOT NULL"
        return " AND ".join(conditions)
    if isinstance(predicate, (SetPredicate, ExclusionPredicate)):
        # A missing literal matches no row, as in the column store: a set
        # left empty selects nothing, an exclusion left empty every non-NULL.
        rendered = ", ".join(
            sql_literal(v) for v in predicate.sorted_values if not is_missing(v)
        )
        if isinstance(predicate, SetPredicate):
            return f"{attribute} IN ({rendered})" if rendered else "FALSE"
        return f"{attribute} NOT IN ({rendered})" if rendered else f"{attribute} IS NOT NULL"
    raise SQLGenerationError(
        f"unsupported predicate type: {type(predicate).__name__}"
    )  # pragma: no cover - exhaustive over the SDL grammar


def query_to_where(query: SDLQuery) -> str:
    """Render an SDL query as the body of a WHERE clause."""
    constrained = [p for p in query.predicates if p.is_constrained]
    if not constrained:
        return "TRUE"
    return " AND ".join(f"({predicate_to_sql(p)})" for p in constrained)


def query_to_sql(query: SDLQuery, table_name: str, columns: str = "*") -> str:
    """Render an SDL query as a full SELECT statement."""
    return f'SELECT {columns} FROM "{table_name}" WHERE {query_to_where(query)}'


def count_query_sql(query: SDLQuery, table_name: str) -> str:
    """The COUNT(*) statement Charles would send to a SQL back-end."""
    return query_to_sql(query, table_name, columns="COUNT(*)")


# ---------------------------------------------------------------------------
# WHERE-clause parsing
# ---------------------------------------------------------------------------

_WHERE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),])
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*|"[^"]+")
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "between", "in", "not"}


class _WhereToken:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: str, position: int):
        self.kind = kind
        self.value = value
        self.position = position


def _tokenise_where(text: str) -> List[_WhereToken]:
    tokens: List[_WhereToken] = []
    position = 0
    while position < len(text):
        match = _WHERE_TOKEN_RE.match(text, position)
        if match is None:
            raise SQLParseError(f"unexpected character {text[position]!r} at {position}")
        position = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        tokens.append(_WhereToken(kind, match.group(), match.start()))
    return tokens


def _where_literal(token: _WhereToken) -> Any:
    if token.kind == "number":
        if re.fullmatch(r"-?\d+", token.value):
            return int(token.value)
        return float(token.value)
    if token.kind == "string":
        return token.value[1:-1].replace("''", "'")
    if token.kind == "word":
        lowered = token.value.lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        return token.value.strip('"')
    raise SQLParseError(f"expected a literal, got {token.value!r}")


class _WhereParser:
    """Parses a conjunction of simple comparisons into SDL predicates."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenise_where(text)
        self.index = 0

    def _peek(self) -> Optional[_WhereToken]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _WhereToken:
        token = self._peek()
        if token is None:
            raise SQLParseError("unexpected end of WHERE clause")
        self.index += 1
        return token

    def _expect_word(self, word: str) -> None:
        token = self._next()
        if token.kind != "word" or token.value.lower() != word:
            raise SQLParseError(f"expected {word.upper()}, got {token.value!r}")

    def _expect_punct(self, value: str) -> None:
        token = self._next()
        if token.kind != "punct" or token.value != value:
            raise SQLParseError(f"expected {value!r}, got {token.value!r}")

    def parse(self) -> SDLQuery:
        constraints: Dict[str, Predicate] = {}
        order: List[str] = []
        for predicate in self._parse_conjunction(inside_parentheses=False):
            attribute = predicate.attribute
            if attribute in constraints:
                merged = intersect_predicates(constraints[attribute], predicate)
                if merged is None:
                    raise SQLParseError(
                        f"contradictory constraints on {attribute!r} "
                        "(empty intersection)"
                    )
                constraints[attribute] = merged
            else:
                constraints[attribute] = predicate
                order.append(attribute)
        return SDLQuery(constraints[attribute] for attribute in order)

    def _parse_conjunction(self, inside_parentheses: bool) -> List[Predicate]:
        """A conjunction of terms, optionally terminated by a closing parenthesis."""
        predicates = list(self._parse_term())
        while True:
            token = self._peek()
            if token is None:
                if inside_parentheses:
                    raise SQLParseError("unbalanced parentheses in WHERE clause")
                break
            if inside_parentheses and token.kind == "punct" and token.value == ")":
                break
            if token.kind == "word" and token.value.lower() == "and":
                self._next()
                predicates.extend(self._parse_term())
                continue
            if token.kind == "word" and token.value.lower() == "or":
                raise SQLParseError(
                    "OR is not supported: SDL queries are conjunctions of "
                    "per-attribute predicates and cannot express disjunction "
                    "(rewrite the clause with AND / IN / NOT IN)"
                )
            raise SQLParseError(f"expected AND or end of input, got {token.value!r}")
        return predicates

    def _parse_term(self) -> List[Predicate]:
        """A single comparison, or a parenthesised conjunction of comparisons."""
        token = self._peek()
        if token is not None and token.kind == "punct" and token.value == "(":
            self._next()
            inner = self._parse_conjunction(inside_parentheses=True)
            self._expect_punct(")")
            return inner
        return [self._parse_comparison()]

    def _parse_comparison(self) -> Predicate:
        token = self._next()
        if token.kind != "word":
            raise SQLParseError(f"expected a column name, got {token.value!r}")
        quoted = token.value.startswith('"')
        attribute = token.value.strip('"')
        if not quoted and attribute.lower() in _KEYWORDS:
            # Quoted identifiers may shadow keywords ("between" is a valid
            # column name); bare keywords in column position are errors.
            raise SQLParseError(f"unexpected keyword {attribute!r}")
        operator_token = self._next()
        if operator_token.kind == "word":
            keyword = operator_token.value.lower()
            if keyword == "between":
                return self._parse_between(attribute)
            if keyword == "in":
                return SetPredicate(attribute, self._parse_value_list())
            if keyword == "not":
                self._expect_word("in")
                return ExclusionPredicate(attribute, self._parse_value_list())
            raise SQLParseError(f"unsupported operator {operator_token.value!r}")
        if operator_token.kind != "op":
            raise SQLParseError(f"expected an operator, got {operator_token.value!r}")
        literal = _where_literal(self._next())
        return self._comparison_predicate(attribute, operator_token.value, literal)

    def _parse_between(self, attribute: str) -> Predicate:
        low = _where_literal(self._next())
        self._expect_word("and")
        high = _where_literal(self._next())
        return RangePredicate(attribute, low=low, high=high)

    def _parse_value_list(self) -> frozenset:
        """The parenthesised value list of an ``IN`` / ``NOT IN`` clause."""
        self._expect_punct("(")
        values = [_where_literal(self._next())]
        while True:
            token = self._next()
            if token.kind == "punct" and token.value == ")":
                break
            if token.kind == "punct" and token.value == ",":
                values.append(_where_literal(self._next()))
                continue
            raise SQLParseError(f"expected ',' or ')', got {token.value!r}")
        return frozenset(values)

    @staticmethod
    def _comparison_predicate(attribute: str, operator: str, literal: Any) -> Predicate:
        unbounded_low = float("-inf")
        unbounded_high = float("inf")
        if operator == "=":
            if isinstance(literal, (int, float)) and not isinstance(literal, bool):
                return RangePredicate(attribute, low=literal, high=literal)
            return SetPredicate(attribute, frozenset({literal}))
        if operator in ("<>", "!="):
            raise SQLParseError(
                "inequality (<>) is not expressible as a conjunctive SDL predicate"
            )
        if not isinstance(literal, (int, float)) or isinstance(literal, bool):
            raise SQLParseError(
                f"ordered comparison on non-numeric literal {literal!r} is not supported"
            )
        if operator == "<":
            return RangePredicate(
                attribute, low=unbounded_low, high=literal, include_high=False
            )
        if operator == "<=":
            return RangePredicate(attribute, low=unbounded_low, high=literal)
        if operator == ">":
            return RangePredicate(
                attribute, low=literal, high=unbounded_high, include_low=False
            )
        if operator == ">=":
            return RangePredicate(attribute, low=literal, high=unbounded_high)
        raise SQLParseError(f"unsupported operator {operator!r}")  # pragma: no cover


def parse_where(text: str) -> SDLQuery:
    """Parse a conjunctive SQL WHERE clause into an SDL query.

    Supported forms: ``col = value``, ``col < / <= / > / >= value``,
    ``col BETWEEN a AND b``, ``col IN (v1, v2, ...)``,
    ``col NOT IN (v1, v2, ...)``, joined with ``AND``.  Identifiers may be
    double-quoted (``"departure harbour"``), which also allows column
    names that collide with keywords.  ``OR`` raises a clear
    :class:`~repro.errors.SQLParseError`: disjunction is not expressible
    in the conjunctive SDL.

    Examples
    --------
    >>> parse_where("tonnage BETWEEN 1000 AND 5000 AND type_of_boat IN ('jacht', 'fluit')")
    SDLQuery(tonnage: [1000, 5000], type_of_boat: {'fluit', 'jacht'})
    """
    if not text or not text.strip():
        raise SQLParseError("empty WHERE clause")
    return _WhereParser(text).parse()
