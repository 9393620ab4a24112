"""The security-event pipeline: records, the ring, files, the global log."""

from __future__ import annotations

import json
import os

import pytest

from repro.observability import (
    EVENT_TYPES,
    EVENTS_SCHEMA,
    EventLog,
    get_event_log,
    install_event_log,
    make_event,
    read_events,
    reset_event_log,
    validate_event,
    write_events,
)


@pytest.fixture(autouse=True)
def _restore_log():
    previous = get_event_log()
    yield
    install_event_log(previous)


class TestMakeEvent:
    def test_stamps_clocks_pid_and_schema(self):
        event = make_event("trap", scheme="pythia")
        assert event["schema"] == EVENTS_SCHEMA
        assert event["type"] == "trap"
        assert event["pid"] == os.getpid()
        assert event["ts_wall"] > 0
        assert isinstance(event["ts_mono_ns"], int)
        assert event["scheme"] == "pythia"

    def test_detail_collects_extra_fields(self):
        event = make_event("worker-crash", shard=3, exitcode=-9)
        assert event["detail"] == {"shard": 3, "exitcode": -9}

    def test_unknown_type_is_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            make_event("meltdown")

    def test_every_declared_type_constructs(self):
        for kind in EVENT_TYPES:
            assert validate_event(make_event(kind)) is None

    def test_records_are_json_serializable(self):
        event = make_event("trap", request_id=7, rid="r1", status="pac_trap")
        assert json.loads(json.dumps(event)) == event


class TestEventLog:
    def test_emit_appends_and_counts(self):
        log = EventLog()
        log.emit("trap", scheme="dfi")
        log.emit("worker-restart", shard=0)
        assert log.emitted == 2
        assert log.dropped == 0
        assert [e["type"] for e in log.snapshot()] == ["trap", "worker-restart"]

    def test_ring_drops_oldest_and_accounts(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.emit("trap", case=index)
        assert log.emitted == 5
        assert log.dropped == 2
        assert [e["detail"]["case"] for e in log.snapshot()] == [2, 3, 4]

    def test_snapshot_limit_returns_newest(self):
        log = EventLog()
        for index in range(4):
            log.emit("trap", case=index)
        assert [e["detail"]["case"] for e in log.snapshot(limit=2)] == [2, 3]
        assert log.snapshot(limit=0) == []
        assert len(log.snapshot(limit=100)) == 4

    def test_adopt_preserves_origin_pid_and_clocks(self):
        worker = EventLog()
        record = worker.emit("trap", rid="r9")
        record["pid"] = 4242  # simulate a record from another process
        parent = EventLog()
        parent.adopt(worker.snapshot())
        adopted = parent.snapshot()[0]
        assert adopted["pid"] == 4242
        assert adopted["rid"] == "r9"
        assert parent.emitted == 1

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            EventLog(capacity=0)


class TestValidate:
    def test_accepts_valid_record(self):
        assert validate_event(make_event("slo-breach", target="p99_latency")) is None

    def test_rejects_non_dict(self):
        assert validate_event([]) is not None

    def test_rejects_wrong_schema(self):
        record = make_event("trap")
        record["schema"] = "nope"
        assert "schema" in validate_event(record)

    def test_rejects_unknown_type(self):
        record = make_event("trap")
        record["type"] = "meltdown"
        assert "unknown event type" in validate_event(record)

    def test_rejects_missing_required_field(self):
        record = make_event("trap")
        del record["ts_mono_ns"]
        assert "ts_mono_ns" in validate_event(record)

    def test_rejects_non_string_rid(self):
        record = make_event("trap")
        record["rid"] = 17
        assert "rid" in validate_event(record)

    def test_rejects_non_object_detail(self):
        record = make_event("trap")
        record["detail"] = "boom"
        assert "detail" in validate_event(record)


class TestFiles:
    def test_write_read_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("trap", request_id=1, rid="r1", scheme="pythia")
        log.emit("fault-injected", kind="cache_corrupt_entry")
        path = str(tmp_path / "events.jsonl")
        assert write_events(path, log.snapshot()) == 2
        assert read_events(path) == log.snapshot()

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record = make_event("trap")
        path.write_text(json.dumps(record) + "\n\n")
        assert read_events(str(path)) == [record]

    def test_read_names_the_offending_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(make_event("trap")) + "\nnot json\n")
        with pytest.raises(ValueError, match=r"events\.jsonl:2"):
            read_events(str(path))

    def test_read_rejects_invalid_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"schema": "nope"}\n')
        with pytest.raises(ValueError, match="schema"):
            read_events(str(path))


class TestGlobalLog:
    def test_reset_installs_fresh(self):
        get_event_log().emit("trap")
        fresh = reset_event_log()
        assert get_event_log() is fresh
        assert fresh.snapshot() == []

    def test_install_swaps_the_log(self):
        mine = EventLog()
        previous = install_event_log(mine)
        try:
            get_event_log().emit("worker-restart", shard=1)
            assert mine.emitted == 1
        finally:
            install_event_log(previous)


class TestTelemetryScope:
    def test_scope_collects_all_three_and_restores(self):
        from repro.observability import (
            current_tracer,
            get_metrics,
            telemetry_scope,
        )

        outer = (get_metrics(), get_event_log(), current_tracer())
        with telemetry_scope("task:demo") as scope:
            assert get_metrics() is scope.metrics
            assert get_event_log() is scope.event_log
            assert current_tracer() is scope.tracer
            get_metrics().inc("demo.count")
            get_event_log().emit("cache-corrupt-recompile", key="k")
            with current_tracer().span("demo", "test"):
                pass
            telemetry = scope.snapshot()
        assert (get_metrics(), get_event_log(), current_tracer()) == outer
        assert telemetry["metrics"]["counters"] == {"demo.count": 1}
        assert [e["type"] for e in telemetry["security_events"]] == [
            "cache-corrupt-recompile"
        ]
        assert [e["name"] for e in telemetry["events"]] == ["demo"]

    def test_untraced_scope_keeps_the_current_tracer(self):
        from repro.observability import current_tracer, telemetry_scope

        outer = current_tracer()
        with telemetry_scope() as scope:
            assert current_tracer() is outer
            assert scope.snapshot()["events"] == []
        assert current_tracer() is outer
