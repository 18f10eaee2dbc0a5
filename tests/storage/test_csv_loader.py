"""Unit tests for CSV loading."""

from __future__ import annotations

import pytest

from builders import write_csv
from repro.errors import CSVFormatError
from repro.storage import DataType, Table, load_csv

_SAMPLE = """tonnage,type,year,note
1000,fluit,1700,first
1100,jacht,1710,
1200,fluit,1720,third
"""


@pytest.fixture()
def load_text(tmp_path):
    """``load_csv`` over a file holding ``text``."""

    def load(text):
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        return load_csv(path)

    return load


class TestLoadCSVText:
    def test_types_are_inferred(self, load_text):
        table = load_text(_SAMPLE)
        assert table.name == "table"  # the file stem
        assert table.num_rows == 3
        schema = table.schema()
        assert schema["tonnage"] is DataType.INT
        assert schema["type"] is DataType.STRING
        assert schema["year"] is DataType.INT

    def test_textual_booleans_mixed_with_numbers_load(self, load_text):
        table = load_text("flag,ratio\ntrue,0.5\nfalse,true\n1,2\n0,\n")
        assert table.schema() == {"flag": DataType.INT, "ratio": DataType.FLOAT}
        assert table.to_dict() == {"flag": [1, 0, 1, 0], "ratio": [0.5, 1.0, 2.0, None]}

    def test_empty_fields_become_missing(self, load_text):
        table = load_text(_SAMPLE)
        assert table.row(1)["note"] is None

    def test_blank_lines_skipped(self, load_text):
        text = "a,b\n1,2\n\n3,4\n"
        assert load_text(text).num_rows == 2

    def test_empty_input_rejected(self, load_text):
        with pytest.raises(CSVFormatError):
            load_text("")

    def test_header_only_rejected(self, load_text):
        with pytest.raises(CSVFormatError):
            load_text("a,b\n")

    def test_ragged_row_rejected(self, load_text):
        with pytest.raises(CSVFormatError):
            load_text("a,b\n1,2,3\n")

    def test_duplicate_header_rejected(self, load_text):
        with pytest.raises(CSVFormatError):
            load_text("a,a\n1,2\n")

    def test_empty_column_name_rejected(self, load_text):
        with pytest.raises(CSVFormatError):
            load_text("a,\n1,2\n")


class TestLoadCSVFile:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "boats.csv"
        path.write_text(_SAMPLE, encoding="utf-8")
        table = load_csv(path)
        assert table.name == "boats"
        assert table.num_rows == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(CSVFormatError):
            load_csv(tmp_path / "does_not_exist.csv")


class TestWriteCSV:
    def test_write_and_reload(self, tmp_path):
        table = Table.from_dict(
            {"x": [1, 2, None], "label": ["a", None, "c"]}, name="data"
        )
        path = tmp_path / "out.csv"
        write_csv(table, path)
        reloaded = load_csv(path)
        assert reloaded.num_rows == 3
        assert reloaded.row(2)["label"] == "c"
        assert reloaded.row(1)["label"] is None
