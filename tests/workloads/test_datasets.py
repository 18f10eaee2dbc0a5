"""Unit tests for the VOC, astronomy, weblog and parametric synthetic tables."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from builders import make_independent_table
from repro.core import cut_query, indep
from repro.errors import WorkloadError
from repro.sdl import SDLQuery
from repro.storage import DataType, QueryEngine
from repro.workloads import (
    FIGURE1_CONTEXT_COLUMNS,
    generate_astronomy,
    generate_voc,
    generate_weblog,
    make_dependent_pair_table,
    make_gaussian_table,
    make_wide_table,
    make_zipf_table,
)

VOC_COLUMNS = (
    "trip",
    "master",
    "tonnage",
    "type_of_boat",
    "built",
    "yard",
    "departure_date",
    "departure_harbour",
    "cape_arrival",
)

ASTRONOMY_COLUMNS = (
    "object_id",
    "object_class",
    "ra",
    "dec",
    "field",
    "magnitude",
    "redshift",
    "colour_index",
)

WEBLOG_COLUMNS = (
    "request_id",
    "url_category",
    "status_code",
    "response_time_ms",
    "bytes_sent",
    "country",
    "device",
    "referrer",
    "hour",
)


class TestVOC:
    def test_schema_matches_figure1(self, voc_table):
        assert tuple(voc_table.column_names) == VOC_COLUMNS
        assert set(FIGURE1_CONTEXT_COLUMNS) <= set(VOC_COLUMNS)
        assert voc_table.dtype("tonnage") is DataType.INT
        assert voc_table.dtype("type_of_boat") is DataType.STRING

    def test_row_count_and_determinism(self):
        first = generate_voc(rows=300, seed=1)
        second = generate_voc(rows=300, seed=1)
        assert first.num_rows == 300
        assert first.to_dict() == second.to_dict()
        different = generate_voc(rows=300, seed=2)
        assert different.to_dict() != first.to_dict()

    @pytest.mark.parametrize(
        "rows, digest",
        [
            (10_000, "826791e296a272c13b0a8e27e5226c0a19d1186f3e438af496898947666c0d19"),
            (5_000, "91654b85f2ad19f3e644c01de0b31f29fc8d5996bfc3108fbb348661132c0dd1"),
        ],
    )
    def test_generated_table_is_pinned(self, rows, digest):
        # Digests recorded at commit 0d4fc05, before table load was changed to
        # infer types per distinct string and adopt homogeneous columns in
        # bulk: schema and every decoded value must stay exactly what they were.
        table = generate_voc(rows, seed=42)
        schema = {name: dtype.value for name, dtype in table.schema().items()}
        text = json.dumps({"schema": schema, "data": table.to_dict()}, default=str, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_tonnage_within_figure1_bounds(self, voc_table):
        tonnage = voc_table.column("tonnage")
        assert tonnage.minimum() >= 1000
        assert tonnage.maximum() <= 5000

    def test_boat_type_drives_tonnage(self, voc_table):
        engine = QueryEngine(voc_table)
        context = SDLQuery.over(["type_of_boat", "tonnage"])
        value = indep(
            engine,
            cut_query(engine, context, "type_of_boat"),
            cut_query(engine, context, "tonnage"),
        )
        assert value < 0.95

    def test_trip_identifiers_are_unique(self, voc_table):
        trips = voc_table.to_dict()["trip"]
        assert len(set(trips)) == len(trips)

    def test_built_precedes_departure(self, voc_table):
        data = voc_table.to_dict()
        assert all(b <= d for b, d in zip(data["built"], data["departure_date"]))

    def test_invalid_rows_rejected(self):
        with pytest.raises(WorkloadError):
            generate_voc(rows=0)


class TestAstronomy:
    def test_schema(self, astronomy_table):
        assert tuple(astronomy_table.column_names) == ASTRONOMY_COLUMNS
        assert astronomy_table.dtype("magnitude") is DataType.FLOAT

    def test_class_drives_redshift(self, astronomy_table):
        engine = QueryEngine(astronomy_table)
        context = SDLQuery.over(["object_class", "redshift"])
        value = indep(
            engine,
            cut_query(engine, context, "object_class"),
            cut_query(engine, context, "redshift"),
        )
        assert value < 0.97

    def test_sky_coordinates_within_bounds(self, astronomy_table):
        ra = astronomy_table.column("ra")
        dec = astronomy_table.column("dec")
        assert 0.0 <= ra.minimum() and ra.maximum() <= 360.0
        assert -30.0 <= dec.minimum() and dec.maximum() <= 60.0

    def test_field_derived_from_ra(self, astronomy_table):
        data = astronomy_table.to_dict()
        for ra, field in zip(data["ra"], data["field"][:200]):
            assert field == f"field-{int(ra // 60):02d}"

    def test_invalid_rows_rejected(self):
        with pytest.raises(WorkloadError):
            generate_astronomy(rows=-5)


class TestWeblog:
    def test_schema(self, weblog_table):
        assert tuple(weblog_table.column_names) == WEBLOG_COLUMNS

    def test_url_popularity_is_skewed(self, weblog_table):
        counts = weblog_table.column("url_category").value_counts()
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] > 2 * ordered[-1]

    def test_category_drives_response_time(self, weblog_table):
        engine = QueryEngine(weblog_table)
        context = SDLQuery.over(["url_category", "response_time_ms"])
        value = indep(
            engine,
            cut_query(engine, context, "url_category"),
            cut_query(engine, context, "response_time_ms"),
        )
        # Binary frequency-ordered cuts blur part of the planted dependence,
        # but the pair must still fall below the paper's 0.99 threshold.
        assert value < 0.99

    def test_status_codes_are_valid(self, weblog_table):
        statuses = set(weblog_table.column("status_code").value_counts())
        assert statuses <= {"200", "302", "304", "400", "401", "404", "500"}

    def test_hours_within_day(self, weblog_table):
        hour = weblog_table.column("hour")
        assert hour.minimum() >= 0
        assert hour.maximum() <= 23

    def test_invalid_rows_rejected(self):
        with pytest.raises(WorkloadError):
            generate_weblog(rows=0)


class TestParametricTables:
    def test_independent_table_columns_and_cardinalities(self):
        table = make_independent_table(rows=500, cardinalities=(3, 5), seed=1)
        assert table.column_names == ["a0", "a1"]
        assert table.column("a0").distinct_count() == 3
        assert table.column("a1").distinct_count() == 5

    def test_independent_table_invalid_cardinality(self):
        with pytest.raises(WorkloadError):
            make_independent_table(rows=10, cardinalities=(1,))

    def test_dependent_pair_strength_one_is_deterministic(self):
        table = make_dependent_pair_table(rows=500, strength=1.0, cardinality=3, seed=2)
        data = table.to_dict()
        assert all(x[1:] == y[1:] for x, y in zip(data["x"], data["y"]))

    def test_dependent_pair_invalid_strength(self):
        with pytest.raises(WorkloadError):
            make_dependent_pair_table(strength=1.5)

    def test_wide_table_shape(self):
        table = make_wide_table(rows=200, attributes=7, dependent_pairs=2, seed=1)
        assert table.num_columns == 7
        assert table.num_rows == 200

    def test_wide_table_too_many_pairs(self):
        with pytest.raises(WorkloadError):
            make_wide_table(attributes=3, dependent_pairs=2)

    def test_gaussian_table_centres_on_mean(self):
        table = make_gaussian_table(rows=4000, mean=50.0, std=5.0, seed=4)
        values = table.to_dict()["value"]
        assert np.mean(values) == pytest.approx(50.0, abs=0.5)

    def test_zipf_table_skew(self):
        table = make_zipf_table(rows=3000, exponent=1.5, categories=10, seed=5)
        counts = sorted(table.column("category").value_counts().values(), reverse=True)
        assert counts[0] > 3 * counts[-1]

    def test_zipf_table_invalid_arguments(self):
        with pytest.raises(WorkloadError):
            make_zipf_table(exponent=0.0)
        with pytest.raises(WorkloadError):
            make_zipf_table(categories=1)
