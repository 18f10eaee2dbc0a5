"""The committed probes (``scripts/probe.py``) run small and pin their numbers.

A probe's answer hash and work counters at 2 000 rows are a regression
case: a change that moves one changed what the program computes or how
much work it does for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _probe(*arguments: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "probe.py"), *arguments],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert len(lines) == 1, completed.stdout
    return json.loads(lines[0])


def test_m14_pins_its_answers_and_work():
    result = _probe("m14", "--rows", "2000", "--seed", "1")
    assert result["argv"] == ["scripts/probe.py", "m14", "--rows", "2000", "--seed", "1"]
    assert {key: result[key] for key in (
        "probe", "answer_hash", "evaluations", "count_calls", "batch_calls", "evictions",
        "hit_rate", "entries",
    )} == {
        "probe": "m14",
        "answer_hash": "4d5bb4e4ce8561b1",
        "evaluations": 2597,
        "count_calls": 5543,
        "batch_calls": 0,
        "evictions": 2579,
        "hit_rate": 0.528602,
        "entries": 4096,
    }
    # Bytes depend on the interpreter's object sizes, so only their scale is
    # pinned: a few hundred bytes an entry, keys and masks included.
    assert 300 * result["entries"] <= result["approx_bytes"] <= 1500 * result["entries"]
    assert result["wall_s"] > 0
    assert result["vmhwm_kb"] is None or result["vmhwm_kb"] > 0


def test_m13_pins_its_answers_and_work():
    result = _probe("m13", "--rows", "2000", "--seed", "1")
    assert result["argv"] == ["scripts/probe.py", "m13", "--rows", "2000", "--seed", "1"]
    assert {key: result[key] for key in (
        "probe", "answer_hash", "evaluations", "count_calls", "batch_calls", "evictions",
        "hit_rate", "entries",
    )} == {
        "probe": "m13",
        "answer_hash": "f3c2148861130077",
        "evaluations": 614,
        "count_calls": 1277,
        "batch_calls": 0,
        "evictions": 0,
        "hit_rate": 0.517573,
        "entries": 1606,
    }
    # One peak and one wall time per context, the peak never falling.
    peaks = result["vmhwm_kb_by_context"]
    assert len(peaks) == len(result["context_s"]) == 12
    assert peaks[-1] is None or peaks == sorted(peaks)


def test_m16_pins_the_encoding_of_a_loaded_table():
    result = _probe("m16", "--rows", "2000", "--seed", "1")
    assert result["argv"] == ["scripts/probe.py", "m16", "--rows", "2000", "--seed", "1"]
    assert result["encoding_digest"] == "794a8fd5fd81a999"
    sizes = {
        name: column["dictionary_size"]
        for name, column in result["columns"].items()
        if "dictionary_size" in column
    }
    assert sizes == {
        "trip": 2000, "master": 100, "type_of_boat": 6, "yard": 7, "departure_harbour": 7,
    }
    # Bytes depend on the layout and the interpreter, so only their presence is pinned.
    assert all(column["array_bytes"] > 0 for column in result["columns"].values())
    assert result["load_s"] > 0
    assert result["vmrss_after_load_kb"] is None or result["vmrss_after_load_kb"] > 0


def test_m15_pins_its_answers_and_work():
    result = _probe("m15", "--rows", "2000", "--seed", "1")
    assert result["argv"] == ["scripts/probe.py", "m15", "--rows", "2000", "--seed", "1"]
    assert {key: result[key] for key in (
        "probe", "answer_hash", "evaluations", "count_calls", "median_calls",
        "frequency_calls", "minmax_calls", "crosstab_calls",
    )} == {
        "probe": "m15",
        "answer_hash": "27b88860552bb0bf",
        "evaluations": 64,
        "count_calls": 124,
        "median_calls": 14,
        "frequency_calls": 17,
        "minmax_calls": 14,
        "crosstab_calls": 12,
    }
    # One engine span per aggregate call; seconds depend on the machine.
    spans = result["engine_spans"]
    assert {name: span["calls"] for name, span in spans.items()} == {
        "engine.count": 124, "engine.crosstab": 12, "engine.frequency": 17,
        "engine.median": 14, "engine.minmax": 14,
    }
    assert len(result["advise_s"]) == 2 and all(seconds >= 0 for seconds in result["advise_s"])


def test_m9_pins_its_answers_and_work():
    result = _probe("m9", "--rows", "2000", "--seed", "1")
    assert result["argv"] == ["scripts/probe.py", "m9", "--rows", "2000", "--seed", "1"]
    assert {key: result[key] for key in (
        "probe", "answer_hash", "evaluations", "count_calls", "median_calls",
        "frequency_calls", "minmax_calls", "crosstab_calls",
    )} == {
        "probe": "m9",
        "answer_hash": "a9280f9f58c297d9",
        "evaluations": 67,
        "count_calls": 132,
        "median_calls": 12,
        "frequency_calls": 21,
        "minmax_calls": 12,
        "crosstab_calls": 58,
    }
    # One engine span per aggregate call; seconds depend on the machine.
    spans = result["engine_spans"]
    assert {name: span["calls"] for name, span in spans.items()} == {
        "engine.count": 132, "engine.crosstab": 58, "engine.frequency": 21,
        "engine.median": 12, "engine.minmax": 12,
    }
    assert len(result["advise_s"]) == 1 and result["advise_s"][0] >= 0


def test_m17_pins_the_answers_of_a_cluster_and_a_router_without_openssl():
    result = _probe("m17", "--rows", "2000", "--seed", "1")
    assert result["argv"] == ["scripts/probe.py", "m17", "--rows", "2000", "--seed", "1"]
    assert result["answer_hash"] == "01f792171db5ec54"
    # Bytes are not pinned: only that each process of the group reported.
    assert len(result["node_vmhwm_kb"]) == 2
    if result["router_vmhwm_kb"] is not None:  # /proc is there
        assert result["router_maps_libcrypto"] is False
