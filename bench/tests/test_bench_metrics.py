"""The percentile rule, and BENCHMARK.json against the declarations in code."""

import json
import re
from pathlib import Path

import pytest

from bench.metrics import END_TO_END, PER_LAYER, percentile, required_samples
from bench.workloads import WORKLOADS

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestPercentileRule:
    def test_ten_samples_must_lie_beyond_the_percentile(self):
        assert required_samples(0.5) == 20
        assert required_samples(0.95) == 200

    def test_p95_is_withheld_below_200_samples(self):
        assert percentile(list(range(199)), 0.95) is None
        assert percentile(list(range(200)), 0.95) is not None

    def test_p50_is_withheld_below_20_samples(self):
        assert percentile(list(range(19)), 0.5) is None
        assert percentile(list(range(20)), 0.5) == 9.5

    def test_values_interpolate(self):
        samples = [float(value) for value in range(201)]
        assert percentile(samples, 0.95) == 190.0
        assert percentile(samples, 0.5) == 100.0

    def test_smoke_runs_report_whatever_they_have(self):
        assert percentile([3.0, 1.0, 2.0], 0.95, enforce=False) == pytest.approx(2.9)
        assert percentile([], 0.5, enforce=False) is None

    def test_a_withheld_percentile_reads_minus_one_on_the_driver_line(self):
        from bench.run import _driver_line

        result = {"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {"client.drill_p95_ms": None, "setup_s": None}}
        drill = [m for m in PER_LAYER if m.name == "client.drill_p95_ms"]
        line = json.loads(_driver_line(result, drill, traced=True))
        assert line["metrics"]["client.drill_p95_ms"] == {"value": -1.0, "unit": "ms"}
        # An end-to-end metric must be measured: no number, no result line.
        with pytest.raises(SystemExit, match="setup_s could not be measured"):
            _driver_line(result, END_TO_END[:1], traced=False)


class TestContract:
    def test_keys(self):
        assert sorted(CONTRACT) == [
            "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
        ]
        assert CONTRACT["paths"] == ["bench"]
        assert CONTRACT["command"] == ["python3", "bench/run.py"]

    def test_workloads_match_the_code(self):
        assert CONTRACT["workloads"] == [
            {"name": entry.name, "why": entry.why} for entry in WORKLOADS
        ]
        assert len(CONTRACT["workloads"]) == 4
        for entry in CONTRACT["workloads"]:
            assert NAME.match(entry["name"])
            assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    def test_end_to_end_metrics_match_the_code(self):
        assert CONTRACT["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ]
        assert len(END_TO_END) == 2
        setup = CONTRACT["end_to_end"][0]
        assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
        bounds = [entry["bound"] for entry in CONTRACT["end_to_end"]]
        assert setup["bound"] == max(bounds) <= 0.25
        assert all(bound == 0.10 for bound in bounds[1:])

    def test_per_layer_metrics_match_the_code(self):
        assert CONTRACT["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ]
        assert len(PER_LAYER) == 60
        for metric in PER_LAYER:
            assert metric.moves and metric.where, metric.name

    def test_names_and_units_are_well_formed_and_unique(self):
        declared = END_TO_END + PER_LAYER
        names = [metric.name for metric in declared] + [w.name for w in WORKLOADS]
        assert len(set(names)) == len(names)
        for metric in declared:
            assert NAME.match(metric.name), metric.name
            assert UNIT.match(metric.unit), metric.unit
            assert metric.better in ("lower", "higher")

    def test_every_run_fits_the_time_cap(self):
        assert isinstance(CONTRACT["run_seconds"], int)
        assert 1 <= CONTRACT["run_seconds"] <= 60
