"""SDL predicates (paper, Definition 1).

An SDL predicate constrains a single attribute of the relation.  The
paper defines three forms:

* a *range constraint* ``Attr : [a0, a1]`` — :class:`RangePredicate`;
* a *set constraint* ``Attr : {a0, a1, ..., aK}`` — :class:`SetPredicate`;
* *no constraint* ``Attr :`` — :class:`NoConstraint`.

The reproduction adds one conjunctive-safe extension so SQL ``NOT IN``
contexts can be expressed:

* an *exclusion constraint* ``Attr : !{a0, ..., aK}`` —
  :class:`ExclusionPredicate`, the complement of a set constraint (missing
  values never match, mirroring SQL's ``NOT IN`` NULL semantics).

The paper's CUT primitive produces half-open ranges ``[min, med[`` and
closed ranges ``[med, max]``; :class:`RangePredicate` therefore carries
explicit inclusivity flags for both bounds.

Predicates are immutable value objects: they compare and hash by value, so
they can be used as dictionary keys and members of frozensets (the query
engine caches selection masks keyed by query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Tuple

from repro.errors import PredicateError

__all__ = [
    "Predicate",
    "NoConstraint",
    "RangePredicate",
    "SetPredicate",
    "ExclusionPredicate",
    "intersect_predicates",
]


def _format_literal(value: Any) -> str:
    """Render a literal the way the paper writes them in SDL text."""
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True)
class Predicate:
    """Base class for SDL predicates.

    Parameters
    ----------
    attribute:
        Name of the column the predicate constrains.
    """

    attribute: str

    def __post_init__(self) -> None:
        if not self.attribute or not isinstance(self.attribute, str):
            raise PredicateError("predicate attribute must be a non-empty string")

    @property
    def is_constrained(self) -> bool:
        """Whether the predicate restricts the attribute at all."""
        raise NotImplementedError

    def to_sdl(self) -> str:
        """Render the predicate in SDL text syntax."""
        raise NotImplementedError

    @property
    def text(self) -> str:
        """The SDL text, rendered on first use and kept (the predicate is frozen).

        Query keys (:attr:`repro.sdl.query.SDLQuery.key`) and query text
        read it, so a predicate is formatted at most once however many
        queries share it.
        """
        try:
            return self.__dict__["_text"]
        except KeyError:
            text = self.to_sdl()
            object.__setattr__(self, "_text", text)
            return text

    def matches_value(self, value: Any) -> bool:
        """Row-at-a-time semantics; the engine uses vectorised evaluation."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegates to to_sdl
        return self.to_sdl()


@dataclass(frozen=True)
class NoConstraint(Predicate):
    """The unconstrained predicate ``Attr :``.

    It names an attribute as part of the exploration context without
    restricting its values.  Charles only explores columns mentioned in the
    context query, so unconstrained predicates matter: they widen the search
    space without filtering any tuple.
    """

    @property
    def is_constrained(self) -> bool:
        return False

    def to_sdl(self) -> str:
        return f"{self.attribute}:"

    def matches_value(self, value: Any) -> bool:
        return True


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """A range constraint ``Attr : [low, high]``.

    Parameters
    ----------
    low, high:
        Bounds of the interval.  ``low`` must not exceed ``high``.
    include_low, include_high:
        Whether each bound belongs to the interval.  The paper's CUT
        operator produces ``[min, med[`` (high bound excluded) and
        ``[med, max]`` (both included).
    """

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.low is None or self.high is None:
            raise PredicateError(
                f"range predicate on {self.attribute!r} requires both bounds"
            )
        try:
            out_of_order = self.low > self.high
        except TypeError as exc:
            raise PredicateError(
                f"range bounds for {self.attribute!r} are not comparable: "
                f"{self.low!r} vs {self.high!r}"
            ) from exc
        if out_of_order:
            raise PredicateError(
                f"range predicate on {self.attribute!r} has low > high "
                f"({self.low!r} > {self.high!r})"
            )

    @property
    def is_constrained(self) -> bool:
        return True

    def to_sdl(self) -> str:
        open_bracket = "[" if self.include_low else "]"
        close_bracket = "]" if self.include_high else "["
        return (
            f"{self.attribute}: {open_bracket}"
            f"{_format_literal(self.low)}, {_format_literal(self.high)}{close_bracket}"
        )

    def matches_value(self, value: Any) -> bool:
        if value is None:
            return False
        if self.include_low:
            if value < self.low:
                return False
        elif value <= self.low:
            return False
        if self.include_high:
            if value > self.high:
                return False
        elif value >= self.high:
            return False
        return True


@dataclass(frozen=True)
class SetPredicate(Predicate):
    """A set constraint ``Attr : {a0, a1, ..., aK}``.

    Parameters
    ----------
    values:
        The admissible values.  Must be non-empty; duplicates are removed.
    """

    values: FrozenSet[Any] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "values", frozenset(self.values))
        if not self.values:
            raise PredicateError(
                f"set predicate on {self.attribute!r} requires at least one value"
            )

    @property
    def is_constrained(self) -> bool:
        return True

    @property
    def sorted_values(self) -> Tuple[Any, ...]:
        """Values in a deterministic order (used for display and hashing text)."""
        return tuple(sorted(self.values, key=lambda v: (str(type(v)), str(v))))

    def to_sdl(self) -> str:
        inner = ", ".join(_format_literal(v) for v in self.sorted_values)
        return f"{self.attribute}: {{{inner}}}"

    def matches_value(self, value: Any) -> bool:
        return value in self.values


@dataclass(frozen=True)
class ExclusionPredicate(Predicate):
    """An exclusion constraint ``Attr : !{a0, a1, ..., aK}``.

    The complement of a :class:`SetPredicate`: a row matches when the
    attribute holds a *non-missing* value outside ``values`` (missing
    values never match, mirroring SQL's three-valued ``NOT IN``).  This is
    the conjunctive-safe encoding of a SQL ``NOT IN (...)`` context; it is
    produced by :func:`repro.storage.sql.parse_where` and rendered back as
    ``NOT IN`` by :func:`repro.storage.sql.predicate_to_sql`.

    Parameters
    ----------
    values:
        The excluded values.  Must be non-empty; duplicates are removed.
    """

    values: FrozenSet[Any] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "values", frozenset(self.values))
        if not self.values:
            raise PredicateError(
                f"exclusion predicate on {self.attribute!r} requires at least one value"
            )

    @property
    def is_constrained(self) -> bool:
        return True

    @property
    def sorted_values(self) -> Tuple[Any, ...]:
        """Excluded values in a deterministic order (display and signatures)."""
        return tuple(sorted(self.values, key=lambda v: (str(type(v)), str(v))))

    def to_sdl(self) -> str:
        inner = ", ".join(_format_literal(v) for v in self.sorted_values)
        return f"{self.attribute}: !{{{inner}}}"

    def matches_value(self, value: Any) -> bool:
        return value is not None and value not in self.values


def intersect_predicates(first: Predicate, second: Predicate) -> Optional[Predicate]:
    """Return the conjunction of two predicates on the same attribute.

    The CUT primitive refines an existing constraint with a tighter one
    computed from the values actually covered by the query.  Conjunction of
    two constraints on the same attribute is therefore the natural way to
    build the refined query.

    Returns
    -------
    Predicate or None
        ``None`` signals an empty (unsatisfiable) intersection.  An operand
        equal to the conjunction is returned itself, so the text it has
        rendered and the bindings it keeps serve the result too.

    Raises
    ------
    PredicateError
        If the predicates constrain different attributes or mix range and
        set constraints in a way that cannot be reduced.
    """
    conjunction = _conjunction(first, second)
    if conjunction == first:
        return first
    if conjunction == second:
        return second
    return conjunction


def _conjunction(first: Predicate, second: Predicate) -> Optional[Predicate]:
    """The conjunction rules of :func:`intersect_predicates`."""
    if first.attribute != second.attribute:
        raise PredicateError(
            "cannot intersect predicates on different attributes: "
            f"{first.attribute!r} vs {second.attribute!r}"
        )
    if isinstance(first, NoConstraint):
        return second
    if isinstance(second, NoConstraint):
        return first
    if isinstance(first, SetPredicate) and isinstance(second, SetPredicate):
        common = first.values & second.values
        if not common:
            return None
        return SetPredicate(first.attribute, common)
    if isinstance(first, ExclusionPredicate) or isinstance(second, ExclusionPredicate):
        return _intersect_with_exclusion(first, second)
    if isinstance(first, RangePredicate) and isinstance(second, RangePredicate):
        return _intersect_ranges(first, second)
    # Mixed range / set: keep the set values that satisfy the range.
    range_pred, set_pred = (
        (first, second) if isinstance(first, RangePredicate) else (second, first)
    )
    if not isinstance(range_pred, RangePredicate) or not isinstance(
        set_pred, SetPredicate
    ):
        raise PredicateError(
            f"cannot intersect {type(first).__name__} with {type(second).__name__}"
        )
    kept = frozenset(v for v in set_pred.values if range_pred.matches_value(v))
    if not kept:
        return None
    return SetPredicate(set_pred.attribute, kept)


def _intersect_with_exclusion(
    first: Predicate, second: Predicate
) -> Optional[Predicate]:
    """Conjunction rules involving at least one :class:`ExclusionPredicate`.

    * exclusion ∧ exclusion — exclude the union of both value sets;
    * exclusion ∧ set — keep the set values that are not excluded;
    * exclusion ∧ range — drop excluded values outside the range; if any
      excluded value remains *inside* the range the conjunction cannot be
      reduced to a single SDL predicate and a :class:`PredicateError` is
      raised (the CUT primitive treats this as "cannot cut").
    """
    if isinstance(first, ExclusionPredicate) and isinstance(second, ExclusionPredicate):
        return ExclusionPredicate(first.attribute, first.values | second.values)
    exclusion, other = (
        (first, second) if isinstance(first, ExclusionPredicate) else (second, first)
    )
    assert isinstance(exclusion, ExclusionPredicate)
    if isinstance(other, SetPredicate):
        kept = other.values - exclusion.values
        if not kept:
            return None
        return SetPredicate(other.attribute, kept)
    if isinstance(other, RangePredicate):
        def _in_range(value: Any) -> bool:
            try:
                return other.matches_value(value)
            except TypeError:  # not comparable with the bounds: outside
                return False

        inside = frozenset(value for value in exclusion.values if _in_range(value))
        if not inside:
            return other
        raise PredicateError(
            f"cannot reduce the conjunction of {other.to_sdl()!r} and "
            f"{exclusion.to_sdl()!r} to a single SDL predicate"
        )
    raise PredicateError(
        f"cannot intersect {type(first).__name__} with {type(second).__name__}"
    )  # pragma: no cover - exhaustive over the SDL grammar


def _intersect_ranges(
    first: RangePredicate, second: RangePredicate
) -> Optional[RangePredicate]:
    """Intersect two range predicates on the same attribute."""
    if first.low > second.low:
        low, include_low = first.low, first.include_low
    elif second.low > first.low:
        low, include_low = second.low, second.include_low
    else:
        low = first.low
        include_low = first.include_low and second.include_low

    if first.high < second.high:
        high, include_high = first.high, first.include_high
    elif second.high < first.high:
        high, include_high = second.high, second.include_high
    else:
        high = first.high
        include_high = first.include_high and second.include_high

    if low > high:
        return None
    if low == high and not (include_low and include_high):
        return None
    return RangePredicate(
        first.attribute,
        low=low,
        high=high,
        include_low=include_low,
        include_high=include_high,
    )

