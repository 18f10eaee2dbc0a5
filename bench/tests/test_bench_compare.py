"""compare.py: verdicts, the table, the exit code."""

import json

from bench import compare


def _result(failed_share=0.0, drill=None, **metrics):
    return {"workloads": {"w": {
        "end_to_end": {"metrics": metrics, "failed_share": failed_share},
        "per_layer": {"metrics": {"client.drill_p50_ms": drill, "core.hbcuts.self_ms": 1.0}},
    }}}


CONTRACT = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "core.hbcuts.self_ms", "unit": "ms", "better": "lower"},
        {"name": "client.drill_p50_ms", "unit": "ms", "better": "lower"},
    ],
}


def test_verdicts_follow_direction_and_bound():
    assert compare.verdict([10.0], [10.9], 0.1, "lower") == "ok"
    assert compare.verdict([10.0], [11.1], 0.1, "lower") == "regressed"
    assert compare.verdict([10.0], [5.0], 0.1, "lower") == "ok"
    assert compare.verdict([100.0], [91.0], 0.1, "higher") == "ok"
    assert compare.verdict([100.0], [89.0], 0.1, "higher") == "regressed"
    assert compare.verdict([], [1.0], 0.1, "lower") == "missing"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    steady = [10.0, 10.1, 10.2, 9.9, 10.0]
    noisy = [8.0, 12.0, 10.0, 13.0, 7.0]
    assert compare.verdict(steady, steady, 0.1, "lower") == "ok"
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [20.0] * 5, 0.1, "lower") == "unresolved"
    assert compare.spread([10.0]) is None


def test_table_and_exit_code(tmp_path, capsys):
    contract = tmp_path / "BENCHMARK.json"
    contract.write_text(json.dumps(CONTRACT))
    base, good, bad = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    base.write_text(json.dumps(_result(latency_ms=10.0, rate=100.0)))
    good.write_text(json.dumps(_result(latency_ms=10.5, rate=99.0)))
    bad.write_text(json.dumps(_result(latency_ms=12.0, rate=100.0)))

    assert compare.main([str(base), str(good), "--contract", str(contract)]) == 0
    assert compare.main([str(base), str(bad), "--contract", str(contract)]) == 1
    table = capsys.readouterr().out
    assert "| w | latency_ms ↓ |" in table
    assert "1.200× of 10 ms" in table and "regressed" in table

    several = compare.main(
        ["--base", str(base), str(base), str(good), "--new", str(good), str(good),
         str(base), "--contract", str(contract)]
    )
    assert several == 0
    assert "(n=3)" in capsys.readouterr().out


def test_any_failed_request_on_the_new_side_is_a_regression(tmp_path, capsys):
    contract = tmp_path / "BENCHMARK.json"
    contract.write_text(json.dumps(CONTRACT))
    base, failing = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_result(latency_ms=10.0, rate=100.0)))
    failing.write_text(json.dumps(_result(failed_share=0.001, latency_ms=10.0, rate=100.0)))
    assert compare.main([str(base), str(failing), "--contract", str(contract)]) == 1
    assert "| w | failed_share ↓ | 0 | 0.001 | — | 0.00 | regressed |" in capsys.readouterr().out
    assert compare.main([str(failing), str(base), "--contract", str(contract)]) == 0


def test_client_timings_are_shown_but_never_gate(tmp_path, capsys):
    contract = tmp_path / "BENCHMARK.json"
    contract.write_text(json.dumps(CONTRACT))
    base, slower = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_result(drill=4.0, latency_ms=10.0, rate=100.0)))
    slower.write_text(json.dumps(_result(drill=8.0, latency_ms=10.0, rate=100.0)))
    assert compare.main([str(base), str(slower), "--contract", str(contract)]) == 0
    table = capsys.readouterr().out
    assert "| w | client.drill_p50_ms ↓ | 4 | 8 | 2.000× of 4 ms | — | not gated |" in table
    assert "core.hbcuts" not in table
