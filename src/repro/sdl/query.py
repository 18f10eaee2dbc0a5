"""SDL queries (paper, Definition 2).

An SDL query is a conjunction of predicates over a single relation, with
at most one predicate per attribute.  The attributes named by the query —
constrained or not — define Charles' exploration context: by convention
(paper, Section 2) the advisor is oblivious to every other column.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.sdl.predicates import (
    NoConstraint,
    Predicate,
    intersect_predicates,
)

__all__ = ["SDLQuery"]


class SDLQuery:
    """A conjunction of SDL predicates over one relation.

    Parameters
    ----------
    predicates:
        The predicates forming the conjunction.  Each attribute may appear
        at most once; the order of first appearance is preserved for
        display purposes.

    Examples
    --------
    >>> from repro.sdl import NoConstraint, RangePredicate, SetPredicate
    >>> query = SDLQuery([
    ...     RangePredicate("date", 1550, 1650),
    ...     NoConstraint("tonnage"),
    ...     SetPredicate("type", frozenset({"jacht", "fluit"})),
    ... ])
    >>> query.to_sdl()
    "(date: [1550, 1650], tonnage:, type: {'fluit', 'jacht'})"
    """

    __slots__ = ("_predicates", "_by_attribute", "_hash", "_key", "_bound_schema", "_bound")

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        ordered: list[Predicate] = []
        by_attribute: Dict[str, Predicate] = {}
        for predicate in predicates:
            if not isinstance(predicate, Predicate):
                raise QueryError(
                    f"SDLQuery expects Predicate instances, got {type(predicate).__name__}"
                )
            if predicate.attribute in by_attribute:
                raise QueryError(
                    f"duplicate predicate for attribute {predicate.attribute!r}; "
                    "use refine() to conjoin constraints"
                )
            by_attribute[predicate.attribute] = predicate
            ordered.append(predicate)
        self._predicates: Tuple[Predicate, ...] = tuple(ordered)
        self._by_attribute = by_attribute
        self._hash: Optional[int] = None
        self._key: Optional[str] = None
        # The schema this query was last bound to and the query it bound to
        # (None: itself), kept by repro.storage.expression.bind.
        self._bound_schema: Any = None
        self._bound: Optional[SDLQuery] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def over(cls, attributes: Sequence[str]) -> "SDLQuery":
        """Build an unconstrained context over the given attributes.

        This mirrors the common entry point in the paper's UI: the user
        ticks the columns of interest without providing value constraints.
        """
        return cls(NoConstraint(attr) for attr in attributes)

    # -- basic accessors ---------------------------------------------------

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The predicates of the conjunction, in attribute order of appearance."""
        return self._predicates

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Every attribute named by the query (constrained or not)."""
        return tuple(p.attribute for p in self._predicates)

    @property
    def constrained_attributes(self) -> Tuple[str, ...]:
        """Attributes carrying an actual constraint."""
        return tuple(p.attribute for p in self._predicates if p.is_constrained)

    def predicate_for(self, attribute: str) -> Optional[Predicate]:
        """The predicate constraining ``attribute``, or ``None`` if absent."""
        return self._by_attribute.get(attribute)

    def mentions(self, attribute: str) -> bool:
        """Whether the query names ``attribute`` at all."""
        return attribute in self._by_attribute

    def __len__(self) -> int:
        return len(self._predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self._predicates)

    # -- algebra -----------------------------------------------------------

    def refine(self, predicate: Predicate) -> Optional["SDLQuery"]:
        """Conjoin one more predicate, intersecting any existing constraint.

        Returns ``None`` when the conjunction is unsatisfiable (empty
        intersection), which callers such as the SDL product use to drop
        empty cells.
        """
        existing = self._by_attribute.get(predicate.attribute)
        if existing is None:
            return SDLQuery(self._predicates + (predicate,))
        merged = intersect_predicates(existing, predicate)
        if merged is None:
            return None
        replaced = tuple(
            merged if p.attribute == predicate.attribute else p
            for p in self._predicates
        )
        return SDLQuery(replaced)

    def merge(self, other: "SDLQuery") -> Optional["SDLQuery"]:
        """Conjoin two queries attribute by attribute (the SDL product cell).

        Returns ``None`` when any shared attribute has an empty intersection.
        """
        result: Optional[SDLQuery] = self
        for predicate in other.predicates:
            assert result is not None
            result = result.refine(predicate)
            if result is None:
                return None
        return result

    def without(self, attribute: str) -> "SDLQuery":
        """Drop the predicate on ``attribute`` entirely (context narrowing)."""
        return SDLQuery(p for p in self._predicates if p.attribute != attribute)

    # -- row-at-a-time evaluation (slow path, used in tests) ----------------

    def matches_row(self, row: Mapping[str, Any]) -> bool:
        """Evaluate the conjunction against a single row mapping."""
        for predicate in self._predicates:
            if not predicate.is_constrained:
                continue
            if not predicate.matches_value(row.get(predicate.attribute)):
                return False
        return True

    # -- rendering / equality ----------------------------------------------

    def to_sdl(self) -> str:
        """Render the query in the paper's SDL text syntax."""
        inner = ", ".join(p.text for p in self._predicates)
        return f"({inner})"

    @property
    def key(self) -> str:
        """The query's identity as text, computed once.

        The predicates' SDL texts, sorted and joined by ``&``: independent
        of attribute order, and the suffix of every cache key
        (``mask:<key>``, ``count::<key>``, ``advice:...:<key>``).
        """
        key = self._key
        if key is None:
            key = self._key = "&".join(sorted(p.text for p in self._predicates))
        return key

    def __repr__(self) -> str:
        return f"SDLQuery{self.to_sdl()}"

    def __str__(self) -> str:
        return self.to_sdl()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SDLQuery):
            return NotImplemented
        return frozenset(self._predicates) == frozenset(other._predicates)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._predicates))
        return self._hash
