"""End to end: ``run.py --smoke`` emits exactly what BENCHMARK.json declares."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

from bench.metrics import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _run(*arguments, timeout=150):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False,
    )


WHERE = {metric.name: metric.where for metric in PER_LAYER}


def _in_script(metric, workload):
    """Whether a ``client.*`` metric's op is in the workload's script."""
    where = WHERE[metric].replace("explore_*", "explore_cold, explore_shared_http")
    return not metric.startswith("client.") or where == "all" or workload in where


def _assert_metrics(metrics, declared, workload):
    assert list(metrics) == [entry["name"] for entry in declared]
    for name, value in metrics.items():
        assert NAME.match(name)
        if name in WHERE and not _in_script(name, workload):
            assert value is None, (name, value)  # the op is not in this script
        else:
            assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def test_smoke_run_of_every_workload_untraced_and_traced(tmp_path):
    out = tmp_path / "result.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(out.read_text(encoding="utf-8"))
    assert list(document["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    for name, entry in document["workloads"].items():
        assert NAME.match(name)
        for part, declared in (("end_to_end", CONTRACT["end_to_end"]),
                               ("per_layer", CONTRACT["per_layer"])):
            result = entry[part]
            assert result["correct"] is True and result["failed"] == 0, result["failures"]
            assert result["attempted"] >= 1
            _assert_metrics(result["metrics"], declared, name)
        assert entry["end_to_end"]["metrics"]["setup_s"] > 0
        assert entry["end_to_end"]["failed_share"] == 0
        assert entry["per_layer"]["missing_targets"] == []
    meta = document["meta"]
    assert meta["smoke"] is True and meta["nproc"] >= 1 and meta["numpy"]
    # Every metric is printed by name with its unit.
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert re.search(rf"{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}\n",
                         done.stdout), entry["name"]


def test_the_last_line_of_one_workload_is_the_driver_object():
    done = _run("--workload", "explore_cold", "--seed", "3", "--seconds", "0.5",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [entry["name"] for entry in CONTRACT["end_to_end"]]
    for entry in CONTRACT["end_to_end"]:
        reported = line["metrics"][entry["name"]]
        assert sorted(reported) == ["unit", "value"] and reported["unit"] == entry["unit"]
        assert reported["value"] > 0


def test_unknown_workload_exits_non_zero_without_a_result():
    done = _run("--workload", "nope", "--seconds", "1", "--smoke")
    assert done.returncode != 0
    assert "unknown workload" in done.stderr and "{" not in done.stdout
