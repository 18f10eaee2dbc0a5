"""Unit tests for the Table relation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SchemaError, TypeMismatchError, UnknownColumnError
from repro.storage import DataType, Table
from repro.storage.column import NumericColumn, StringColumn


@pytest.fixture()
def table() -> Table:
    return Table.from_dict(
        {
            "tonnage": [1000, 1100, 1200, 1300],
            "type": ["fluit", "jacht", "fluit", "jacht"],
            "year": [1700, 1710, 1720, 1730],
        },
        name="boats",
    )


class TestConstruction:
    def test_from_dict_infers_types(self, table):
        schema = table.schema()
        assert schema["tonnage"] is DataType.INT
        assert schema["type"] is DataType.STRING

    def test_from_dict_type_override(self):
        table = Table.from_dict({"x": [1, 2]}, types={"x": DataType.FLOAT})
        assert table.dtype("x") is DataType.FLOAT

    def test_from_dict_accepts_numpy_arrays_and_scalars(self):
        table = Table.from_dict(
            {
                "i": np.array([1, 2, 3]),
                "f": np.array([1.5, np.nan, 2.0], dtype=np.float32),
                "b": np.array([True, False, True]),
                "s": np.array(["x", "y", "x"]),
                "scalars": [np.int64(4), None, np.int64(6)],
            }
        )
        assert table.schema() == {
            "i": DataType.INT,
            "f": DataType.FLOAT,
            "b": DataType.BOOL,
            "s": DataType.STRING,
            "scalars": DataType.INT,
        }
        assert table.to_dict() == {
            "i": [1, 2, 3],
            "f": [1.5, None, 2.0],
            "b": [True, False, True],
            "s": ["x", "y", "x"],
            "scalars": [4, None, 6],
        }
        assert all(type(v) is int for v in table.to_dict()["i"])

    def test_from_dict_numpy_array_under_explicit_type(self):
        table = Table.from_dict(
            {"x": np.array([1, 2, 3])}, types={"x": DataType.FLOAT}
        )
        assert table.to_dict() == {"x": [1.0, 2.0, 3.0]}

    def test_from_dict_does_not_alias_the_input_array(self):
        source = np.array([1, 2, 3])
        table = Table.from_dict({"x": source})
        source[0] = 99
        assert table.to_dict() == {"x": [1, 2, 3]}

    def test_from_dict_reads_a_one_shot_iterable_once(self):
        # Regression: inference used to consume the iterator, leaving an
        # empty column and a misleading "inconsistent lengths: [0, 3]".
        table = Table.from_dict(
            {"x": (value for value in ["1", "2", "3"]), "y": iter([0.5, None, 1.5])}
        )
        assert table.to_dict() == {"x": [1, 2, 3], "y": [0.5, None, 1.5]}

    def test_bulk_and_per_value_encoding_agree(self):
        # Homogeneous columns are adopted in one pass; one stray string
        # forces per-value coercion.  Both must store the same arrays.
        for dtype, plain, mixed in [
            (DataType.INT, [3, 0, -7], ["3", 0, -7]),
            (DataType.FLOAT, [1, float("nan"), 2.5], ["1", float("nan"), 2.5]),
            (DataType.BOOL, [True, False, True], ["yes", False, True]),
        ]:
            fast = Table.from_dict({"x": plain}, types={"x": dtype}).column("x")
            slow = Table.from_dict({"x": mixed}, types={"x": dtype}).column("x")
            assert fast._data.dtype == slow._data.dtype
            assert fast._data.tolist() == slow._data.tolist()
            assert fast._valid.tolist() == slow._valid.tolist()

    def test_textual_nan_is_missing_like_float_nan(self):
        table = Table.from_dict({"x": ["1.5", "nan"], "y": [1.5, float("nan")]})
        assert table.dtype("x") is DataType.FLOAT
        assert table.to_dict() == {"x": [1.5, None], "y": [1.5, None]}
        assert table.column("x").valid_mask().tolist() == [True, False]

    def test_textual_booleans_mixed_with_numbers_load_as_one_and_zero(self):
        # BOOL mixed with numbers widens to the numeric type, so the text
        # the inference read as a boolean must load under that type too.
        table = Table.from_dict({"a": ["true", "1", "0"], "b": ["True", "2.5", " FALSE "]})
        assert table.schema() == {"a": DataType.INT, "b": DataType.FLOAT}
        assert table.to_dict() == {"a": [1, 1, 0], "b": [1.0, 2.5, 0.0]}

    def test_appended_textual_booleans_load_under_a_numeric_column(self):
        table = Table.from_dict({"a": [1, 2], "b": [0.5, 1.5]})
        grown = table.append_rows([{"a": "false", "b": "true"}, {"a": "TRUE", "b": "3"}])
        assert grown.to_dict() == {"a": [1, 2, 0, 1], "b": [0.5, 1.5, 1.0, 3.0]}

    @pytest.mark.parametrize("values, types", [
        pytest.param([2**70, 1], None, id="int-above-int64"),
        pytest.param([1, -(2**63) - 1], None, id="int-below-int64"),
        pytest.param(["1", str(2**64)], None, id="text-above-int64"),
        pytest.param([10**400, 1.5], None, id="int-beyond-float"),
        pytest.param([10**400, 1], {"a": DataType.FLOAT}, id="int-beyond-float-by-type"),
    ])
    def test_out_of_range_numbers_are_a_type_mismatch(self, values, types):
        with pytest.raises(TypeMismatchError, match="out of range"):
            Table.from_dict({"a": values}, types=types)

    def test_appending_an_out_of_range_integer_is_a_type_mismatch(self):
        table = Table.from_dict({"a": [1, 2]})
        with pytest.raises(TypeMismatchError, match="out of range"):
            table.append_rows([{"a": 10**30}])
        assert table.to_dict() == {"a": [1, 2]}

    def test_from_rows_preserves_first_seen_order(self):
        table = Table.from_rows([{"a": 1, "b": 2}, {"b": 3, "a": 4, "c": 5}])
        assert table.column_names == ["a", "b", "c"]
        assert table.row(0)["c"] is None

    def test_from_rows_empty_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_rows([])

    def test_requires_at_least_one_column(self):
        with pytest.raises(SchemaError):
            Table("t", [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table(
                "t",
                [
                    NumericColumn("a", [1, 2], DataType.INT),
                    NumericColumn("b", [1], DataType.INT),
                ],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Table(
                "t",
                [
                    NumericColumn("a", [1], DataType.INT),
                    NumericColumn("a", [2], DataType.INT),
                ],
            )


class TestAccess:
    def test_row_access(self, table):
        assert table.row(0) == {"tonnage": 1000, "type": "fluit", "year": 1700}
        assert table.row(-1)["tonnage"] == 1300

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(99)

    def test_unknown_column(self, table):
        with pytest.raises(UnknownColumnError) as excinfo:
            table.column("missing")
        assert "missing" in str(excinfo.value)
        assert "tonnage" in str(excinfo.value)

    def test_iter_rows_and_to_dict(self, table):
        rows = list(table.iter_rows())
        assert len(rows) == 4
        assert table.to_dict()["type"] == ["fluit", "jacht", "fluit", "jacht"]



class TestDerivation:
    def test_filter(self, table):
        mask = np.array([True, False, True, False])
        filtered = table.filter(mask)
        assert filtered.num_rows == 2
        assert filtered.to_dict()["type"] == ["fluit", "fluit"]

    def test_filter_length_mismatch(self, table):
        with pytest.raises(SchemaError):
            table.filter(np.array([True]))

    def test_take(self, table):
        taken = table.take([3, 0])
        assert taken.to_dict()["tonnage"] == [1300, 1000]

    def test_take_out_of_range(self, table):
        with pytest.raises(SchemaError):
            table.take([99])


class TestDisplay:
    def test_repr_and_describe(self, table):
        assert "boats" in repr(table)
        described = table.describe()
        assert "4 rows" in described
        assert "tonnage" in described
