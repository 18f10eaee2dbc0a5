"""Unit tests for the bounded slow-operation log."""

from repro.obs.slowlog import DEFAULT_PER_OP, SlowOpLog


class TestRecording:
    def test_keeps_only_the_worst_per_op(self):
        log = SlowOpLog()
        for index in range(DEFAULT_PER_OP + 2):
            log.record("advise", seconds=float(index))
        document = log.document()
        entries = document["ops"]["advise"]
        assert [entry["seconds"] for entry in entries] == [
            float(index) for index in range(DEFAULT_PER_OP + 1, 1, -1)
        ]

    def test_fast_requests_do_not_displace_slow_ones(self):
        log = SlowOpLog()
        for _ in range(DEFAULT_PER_OP):
            log.record("count", 5.0)
        log.record("count", 0.001)
        entries = log.document()["ops"]["count"]
        assert [entry["seconds"] for entry in entries] == [5.0] * DEFAULT_PER_OP

    def test_entries_carry_session_request_and_trace(self):
        log = SlowOpLog()
        log.record(
            "advise",
            1.5,
            session="voyages",
            request_id="r-1",
            trace={"name": "service.advise", "trace_id": "t-1"},
        )
        (entry,) = log.document()["ops"]["advise"]
        assert entry["session"] == "voyages"
        assert entry["request_id"] == "r-1"
        assert entry["trace"]["trace_id"] == "t-1"
        assert entry["recorded_at"] > 0

    def test_untraced_entries_omit_optional_fields(self):
        log = SlowOpLog()
        log.record("count", 0.5)
        (entry,) = log.document()["ops"]["count"]
        assert "session" not in entry
        assert "trace" not in entry

    def test_clear_empties_the_log(self):
        log = SlowOpLog()
        log.record("advise", 1.0)
        log.clear()
        assert log.document()["ops"] == {}


class TestDocuments:
    def test_limit_caps_entries_per_op(self):
        log = SlowOpLog()
        for index in range(8):
            log.record("advise", float(index))
        document = log.document(limit=2)
        assert document["per_op"] == 2
        assert [e["seconds"] for e in document["ops"]["advise"]] == [7.0, 6.0]

    def test_default_per_op_applies(self):
        assert SlowOpLog().document()["per_op"] == DEFAULT_PER_OP

    def test_merge_reranks_the_union(self):
        left, right = SlowOpLog(), SlowOpLog()
        left.record("advise", 3.0)
        left.record("advise", 1.0)
        right.record("advise", 2.0)
        right.record("count", 0.5)
        merged = SlowOpLog.merge_documents([left.document(), right.document()])
        assert [e["seconds"] for e in merged["ops"]["advise"]] == [3.0, 2.0, 1.0]
        assert [e["seconds"] for e in merged["ops"]["count"]] == [0.5]

    def test_merge_honours_an_explicit_limit(self):
        left, right = SlowOpLog(), SlowOpLog()
        for index in range(5):
            left.record("advise", float(index))
            right.record("advise", float(index) + 0.5)
        merged = SlowOpLog.merge_documents(
            [left.document(), right.document()], limit=3
        )
        assert merged["per_op"] == 3
        assert [e["seconds"] for e in merged["ops"]["advise"]] == [4.5, 4.0, 3.5]

    def test_merge_of_nothing_is_empty(self):
        merged = SlowOpLog.merge_documents([])
        assert merged["ops"] == {}
        assert merged["per_op"] == DEFAULT_PER_OP
