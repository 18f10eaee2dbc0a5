"""Unit tests for the typed column implementations."""

from __future__ import annotations

import datetime as dt
import sys
import threading
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.errors import EmptyColumnError, TypeMismatchError
from repro.storage import column as column_module
from repro.sdl import RangePredicate, SDLQuery
from repro.storage.column import (
    BoolColumn,
    DateColumn,
    NumericColumn,
    StringColumn,
    build_column,
)
from repro.storage.expression import bind
from repro.storage.types import DataType, is_missing


def _bound_range(column, low, high):
    """``mask_range`` of bounds bound to the column's type, as a query's are."""
    query = SDLQuery([RangePredicate(column.name, low, high)])
    predicate = bind(query, {column.name: column.dtype}).predicates[0]
    return column.mask_range(predicate.low, predicate.high)


class TestNumericColumn:
    def test_basic_aggregates(self):
        column = NumericColumn("x", [5, 1, 3, 2, 4], DataType.INT)
        assert len(column) == 5
        assert column.minimum() == 1
        assert column.maximum() == 5
        assert column.median() == 3

    def test_even_count_median_is_arithmetic(self):
        column = NumericColumn("x", [1, 2, 3, 4], DataType.INT)
        assert column.median() == pytest.approx(2.5)

    def test_missing_values_excluded(self):
        column = NumericColumn("x", [1, None, 3], DataType.INT)
        assert column.value_counts() == {1: 1, 3: 1}
        assert column.value_at(1) is None
        assert column.minimum() == 1
        assert column.maximum() == 3

    def test_empty_selection_raises(self):
        column = NumericColumn("x", [1, 2], DataType.INT)
        mask = np.zeros(2, dtype=bool)
        with pytest.raises(EmptyColumnError):
            column.minimum(mask)
        with pytest.raises(EmptyColumnError):
            column.median(mask)

    def test_value_counts(self):
        column = NumericColumn("x", [1, 1, 2, None], DataType.INT)
        assert column.value_counts() == {1: 2, 2: 1}
        assert column.distinct_count() == 2

    def test_mask_range_inclusivity(self):
        column = NumericColumn("x", [1, 2, 3, 4, 5], DataType.INT)
        closed = column.mask_range(2, 4)
        assert closed.tolist() == [False, True, True, True, False]
        half_open = column.mask_range(2, 4, include_high=False)
        assert half_open.tolist() == [False, True, True, False, False]

    def test_mask_range_excludes_missing(self):
        column = NumericColumn("x", [1, None, 3], DataType.INT)
        assert column.mask_range(0, 10).tolist() == [True, False, True]

    def test_mask_set(self):
        column = NumericColumn("x", [1, 2, 3], DataType.INT)
        assert column.mask_set([1, 3]).tolist() == [True, False, True]
        assert column.mask_set([]).tolist() == [False, False, False]

    def test_a_non_numeric_bound_raises_at_bind(self):
        column = NumericColumn("x", [1, 2, 3], DataType.INT)
        with pytest.raises(TypeMismatchError):
            _bound_range(column, "abc", "xyz")
        assert _bound_range(column, "2", "3").tolist() == [False, True, True]

    def test_take_and_filter(self):
        column = NumericColumn("x", [10, 20, 30, 40], DataType.INT)
        taken = column.take(np.array([2, 0]))
        assert taken.values_list() == [30, 10]
        filtered = column.filter(np.array([True, False, True, False]))
        assert filtered.values_list() == [10, 30]

    def test_float_column_decoding(self):
        column = NumericColumn("x", [1.5, 2.5], DataType.FLOAT)
        assert column.value_at(0) == pytest.approx(1.5)
        assert isinstance(column.value_at(0), float)

    def test_masked_aggregate(self):
        column = NumericColumn("x", [1, 2, 3, 4], DataType.INT)
        mask = np.array([False, True, True, False])
        assert column.minimum(mask) == 2
        assert column.maximum(mask) == 3

    def test_mask_length_mismatch_rejected(self):
        column = NumericColumn("x", [1, 2, 3], DataType.INT)
        with pytest.raises(TypeMismatchError):
            column.minimum(np.array([True, False]))


class TestDateColumn:
    def test_stores_and_decodes_dates(self):
        column = DateColumn("d", ["2020-01-01", dt.date(2021, 6, 1), None])
        assert column.value_at(0) == dt.date(2020, 1, 1)
        assert column.value_at(1) == dt.date(2021, 6, 1)
        assert column.value_at(2) is None

    def test_aggregates_return_dates(self):
        column = DateColumn("d", ["2020-01-01", "2020-01-03", "2020-01-05"])
        assert column.minimum() == dt.date(2020, 1, 1)
        assert column.maximum() == dt.date(2020, 1, 5)
        assert column.median() == dt.date(2020, 1, 3)

    def test_date_and_text_bounds_bind_to_ordinals(self):
        column = DateColumn("d", ["2020-01-01", "2020-06-01", "2021-01-01"])
        for low, high in [
            ("2020-02-01", "2020-12-31"),
            (dt.date(2020, 2, 1), dt.date(2020, 12, 31)),
            (dt.date(2020, 2, 1).toordinal(), dt.date(2020, 12, 31).toordinal()),
        ]:
            assert _bound_range(column, low, high).tolist() == [False, True, False]
        with pytest.raises(TypeMismatchError):
            _bound_range(column, "not a date", "zzz")

    def test_take_preserves_type(self):
        column = DateColumn("d", ["2020-01-01", "2020-06-01"])
        taken = column.take(np.array([1]))
        assert isinstance(taken, DateColumn)
        assert taken.value_at(0) == dt.date(2020, 6, 1)


class TestStringColumn:
    def test_dictionary_encoding(self):
        column = StringColumn("s", ["a", "b", "a", None])
        assert column.categories == ["a", "b"]
        assert column.value_at(0) == "a"
        assert column.value_at(3) is None
        assert sum(column.value_counts().values()) == 3

    def test_value_counts(self):
        column = StringColumn("s", ["a", "b", "a", None])
        assert column.value_counts() == {"a": 2, "b": 1}

    def test_mask_set_and_unknown_values(self):
        column = StringColumn("s", ["a", "b", "c"])
        assert column.mask_set(["a", "z"]).tolist() == [True, False, False]
        assert column.mask_set(["z"]).tolist() == [False, False, False]

    def test_mask_range_lexicographic(self):
        column = StringColumn("s", ["apple", "banana", "cherry"])
        assert column.mask_range("b", "c").tolist() == [False, True, False]

    def test_median_not_defined(self):
        column = StringColumn("s", ["a", "b"])
        with pytest.raises(TypeMismatchError):
            column.median()

    def test_min_max_lexicographic(self):
        column = StringColumn("s", ["pear", "apple", "cherry"])
        assert column.minimum() == "apple"
        assert column.maximum() == "pear"

    def test_empty_selection_raises(self):
        column = StringColumn("s", ["a"])
        with pytest.raises(EmptyColumnError):
            column.minimum(np.array([False]))

    def test_take_preserves_dictionary(self):
        column = StringColumn("s", ["a", "b", "c"])
        taken = column.take(np.array([2, 1]))
        assert taken.values_list() == ["c", "b"]

    def test_non_string_values_are_stringified(self):
        column = StringColumn("s", [200, 404, 200])
        assert column.value_counts() == {"200": 2, "404": 1}


class TestBoolColumn:
    def test_value_counts(self):
        column = BoolColumn("b", [True, False, True, None])
        assert column.value_counts() == {False: 1, True: 2}

    def test_mask_set(self):
        column = BoolColumn("b", [True, False, None])
        assert column.mask_set([True]).tolist() == [True, False, False]
        assert column.mask_set([True, False]).tolist() == [True, True, False]
        assert column.mask_set([]).tolist() == [False, False, False]

    def test_mask_range(self):
        column = BoolColumn("b", [True, False, True])
        assert column.mask_range(False, False).tolist() == [False, True, False]

    def test_median_not_defined(self):
        with pytest.raises(TypeMismatchError):
            BoolColumn("b", [True]).median()

    def test_min_max(self):
        column = BoolColumn("b", [True, False])
        assert column.minimum() is False
        assert column.maximum() is True

    def test_coercion_from_text(self):
        column = BoolColumn("b", ["true", "false", "1", "no"])
        assert column.values_list() == [True, False, True, False]


class TestBuildColumn:
    @pytest.mark.parametrize(
        ("dtype", "values", "expected_class"),
        [
            (DataType.INT, [1, 2], NumericColumn),
            (DataType.FLOAT, [1.0, 2.0], NumericColumn),
            (DataType.DATE, ["2020-01-01"], DateColumn),
            (DataType.STRING, ["a"], StringColumn),
            (DataType.BOOL, [True], BoolColumn),
        ],
    )
    def test_factory_dispatch(self, dtype, values, expected_class):
        column = build_column("c", values, dtype)
        assert isinstance(column, expected_class)
        assert column.dtype is dtype


def per_value_string_encoding(values, categories, index_of):
    """The per-value dictionary encoding string columns were built with."""
    codes = np.empty(len(values), dtype=np.int32)
    for position, raw in enumerate(values):
        if is_missing(raw):
            codes[position] = StringColumn.MISSING_CODE
            continue
        text = str(raw)
        code = index_of.get(text)
        if code is None:
            code = len(categories)
            categories.append(text)
            index_of[text] = code
        codes[position] = code
    return codes


#: Blank texts (ASCII and Unicode whitespace, which ``str.strip`` removes)
#: are missing; non-ASCII texts order by code point; texts longer than
#: 15 bytes live outside ``StringDType``'s inline slot.
texts = st.sampled_from([
    "a", "b", "ä", "", "  ", " a", "1", "x y", "\x1c", "\u3000", "\x00", "a\x00",
    "é€𝄞", "Ω", "a rather long text of 28 bytes", "ääääääää",
])
raw_values = st.one_of(
    texts, st.text(max_size=18), st.none(), st.integers(-3, 3), st.just(float("nan")),
    st.just(2.5), st.just(True),
)


class TestBulkStringEncoding:
    @given(values=st.lists(texts, max_size=30), batch=st.lists(raw_values, max_size=30))
    def test_bulk_encoding_is_the_per_value_loop(self, values, batch):
        column = StringColumn("s", values)
        categories, index_of = [], {}
        codes = per_value_string_encoding(values, categories, index_of)
        assert column._codes.dtype == codes.dtype and column._codes.tolist() == codes.tolist()
        assert column.categories == categories
        # Appending grows the same dictionary the concatenation would build.
        grown = column.append_values(batch)
        codes = np.concatenate([codes, per_value_string_encoding(batch, categories, index_of)])
        assert grown._codes.tolist() == codes.tolist()
        assert grown.categories == categories
        assert column.categories == StringColumn("s", values).categories  # untouched


def _as_texts(values):
    return [None if is_missing(raw) else str(raw) for raw in values]


def assert_is_the_per_value_column(column, values, literal_sets, bounds):
    """``column`` against the per-value loop over ``values``, query by query."""
    categories, index_of = [], {}
    codes = per_value_string_encoding(values, categories, index_of)
    decoded = _as_texts(values)
    assert column._codes.dtype == np.int32 and column._codes.tolist() == codes.tolist()
    assert column.categories == categories
    assert column.values_list() == decoded
    assert [column.value_at(row) for row in range(len(values))] == decoded
    expected_counts = {}
    for text in decoded:
        if text is not None:
            expected_counts[text] = expected_counts.get(text, 0) + 1
    counts = column.value_counts()
    assert counts == expected_counts and list(counts) == [c for c in categories if c in counts]
    for literals in literal_sets:
        wanted = {index_of[v] for v in literals if isinstance(v, str) and v in index_of}
        assert column.mask_set(literals).tolist() == [c in wanted for c in codes.tolist()]
    for low, high, include_low, include_high in bounds:
        def inside(text):
            if text is None:
                return False
            above = text >= low if include_low else text > low
            return above and (text <= high if include_high else text < high)
        assert column.mask_range(low, high, include_low, include_high).tolist() == [
            inside(text) for text in decoded
        ]


literal_sets = st.lists(st.lists(st.one_of(texts, st.text(max_size=4), st.integers(0, 2))), max_size=3)
bounds = st.lists(st.tuples(texts, texts, st.booleans(), st.booleans()), max_size=3)


class TestArrayBuiltStringColumns:
    @given(
        values=st.lists(raw_values, max_size=30),
        batches=st.lists(st.lists(raw_values, max_size=12), max_size=3),
        literals=literal_sets,
        ranges=bounds,
    )
    def test_array_input_is_the_per_value_loop(self, values, batches, literals, ranges):
        as_text = ["" if text is None else text for text in _as_texts(values)]
        fixed_width = np.array(as_text, dtype=str)  # NumPy drops trailing NULs here
        labels = list(dict.fromkeys(as_text))
        built = [
            (StringColumn("s", values), values),
            (StringColumn("s", np.array(values, dtype=object)), values),
            (StringColumn("s", np.array(as_text, dtype=np.dtypes.StringDType())), as_text),
            (StringColumn("s", fixed_width), fixed_width.tolist()),
            (StringColumn.from_codes(
                "s", np.array([labels.index(t) for t in as_text], dtype=np.int64), labels
            ), as_text),
        ]
        for index, (column, source) in enumerate(built):
            seen = list(source)
            assert_is_the_per_value_column(column, seen, literals, ranges)
            for batch in batches:
                # Alternate list and array batches.
                column = column.append_values(
                    batch if index % 2 else np.array(batch, dtype=object)
                )
                seen += batch
                assert_is_the_per_value_column(column, seen, literals, ranges)

    @given(
        values=st.lists(raw_values, max_size=30),
        batch=st.lists(raw_values, max_size=12),
        literals=literal_sets,
    )
    def test_texts_sharing_a_hash_are_told_apart(self, values, batch, literals):
        # Three hash values for every text: lookups walk runs of equal hashes.
        def coarse(texts, size):
            return np.fromiter((hash(text) % 3 for text in texts), dtype=np.int64, count=size)

        with mock.patch.object(column_module, "_hashes", coarse):
            column = StringColumn("s", values)
            assert_is_the_per_value_column(column, values, literals, [])
            column = column.append_values(batch)
            assert_is_the_per_value_column(column, values + batch, literals, [])

    @given(values=st.lists(raw_values, max_size=30), batch=st.lists(raw_values, max_size=12))
    def test_a_large_dictionary_decodes_per_call(self, values, batch):
        with mock.patch.object(column_module, "_DECODED_KEPT", 2):
            column = StringColumn("s", values).append_values(batch)
            assert_is_the_per_value_column(column, values + batch, [], [])

    def test_a_lone_surrogate_is_a_type_mismatch(self):
        # The dictionary holds UTF-8, which cannot encode one.
        column = StringColumn("s", ["a", "b"])
        with pytest.raises(TypeMismatchError):
            StringColumn("s", ["a", "\ud800"])
        with pytest.raises(TypeMismatchError):
            column.append_values(["\ud800"])
        with pytest.raises(TypeMismatchError):
            column.mask_range("\ud800", "z")
        assert column.mask_set({"\ud800", "b"}).tolist() == [False, True]

    def test_shards_and_versions_look_up_alike(self):
        column = StringColumn("s", [f"id-{i}" for i in range(300)])
        grown = column.append_values(["id-7", "new", None, "id-299", "new"])
        assert grown._codes[-5:].tolist() == [7, 300, -1, 299, 300]
        assert column.mask_set({"new"}).sum() == 0 and grown.mask_set({"new"}).sum() == 2
        part = grown.slice_rows(290, 305)
        assert part.mask_set({"id-295", "new", "id-3"}).tolist() == [
            i in (5, 11, 14) for i in range(15)
        ]


class TestSharedDictionaryUnderThreads:
    def test_threads_resolve_sets_and_append_alike(self):
        # The shards of a generated column share one dictionary, which keeps
        # the small literal sets it resolved: threads racing over it must
        # see what one sees.
        labels = [f"value-{i}" for i in range(60)] + ["  "]
        indices = np.arange(1200) % len(labels)
        column = StringColumn.from_codes("s", indices, labels)
        shards = [column.slice_rows(start, start + 300) for start in range(0, 1200, 300)]
        sets = [frozenset(labels[k:k + 9]) | {"absent", None} for k in range(0, 55, 3)]
        batch = ["value-3", "new", "  ", "value-59", "new-too"]
        reference = StringColumn("s", [labels[i] for i in indices])
        expected = [
            [reference.slice_rows(start, start + 300).mask_set(s).tolist() for s in sets]
            for start in range(0, 1200, 300)
        ]
        grown = reference.append_values(batch)
        failures = []

        def work(offset):
            try:
                for round_ in range(3):
                    for index, shard in enumerate(shards):
                        for number, literals in enumerate(sets):
                            got = shard.mask_set(literals).tolist()
                            if got != expected[index][number]:
                                failures.append((offset, index, number))
                    appended = column.append_values(batch)
                    if appended._codes.tolist() != grown._codes.tolist():
                        failures.append((offset, "append", round_))
            except Exception as exc:  # reported below, with the thread that raised it
                failures.append((offset, repr(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def _columns_with_missing():
    return [
        NumericColumn("i", [3, None, -1, 7], DataType.INT),
        NumericColumn("f", [1.5, float("nan"), None, -0.0], DataType.FLOAT),
        DateColumn("d", ["2020-01-02", None, dt.date(1700, 5, 1), ""]),
        StringColumn("s", ["a", None, "b", "a"]),
        BoolColumn("b", [True, None, False, "yes"]),
    ]


class TestBulkDecoding:
    @pytest.mark.parametrize("column", _columns_with_missing(), ids=lambda c: c.name)
    @pytest.mark.parametrize("mask", [None, [True, True, False, True], [False] * 4])
    def test_values_list_is_value_at_per_row(self, column, mask):
        rows = range(len(column)) if mask is None else np.flatnonzero(mask).tolist()
        expected = [column.value_at(row) for row in rows]
        for decoded in (column.values_list(mask), column.take(np.arange(4)).values_list(mask)):
            assert decoded == expected
            assert [type(v) for v in decoded] == [type(v) for v in expected]

    def test_values_list_of_a_slice(self):
        for column in _columns_with_missing():
            part = column.slice_rows(1, 3)
            assert part.values_list() == [column.value_at(1), column.value_at(2)]

    def test_values_list_rejects_a_mask_of_the_wrong_length(self):
        with pytest.raises(TypeMismatchError):
            StringColumn("s", ["a", "b"]).values_list(np.array([True]))
