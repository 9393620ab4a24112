"""The parallel measurement harness: fan-out correctness and trajectory file."""

from __future__ import annotations

import json

import pytest

from repro.metrics import measure_program
from repro.perf import (
    append_entry,
    check_block_regression,
    load_entries,
    plan_jobs,
    run_suite,
    summarize_measurement,
    trace_throughput,
)
from repro.workloads import generate_program, get_profile

NAMES = ["505.mcf_r", "519.lbm_r"]

SUMMARY_FIELDS = (
    "scheme",
    "status",
    "cycles",
    "instructions",
    "ipc",
    "steps",
    "interpreter",
    "pa_static",
    "pa_dynamic",
    "binary_bytes",
    "canary_count",
    "isolated_allocations",
)


@pytest.fixture(scope="module")
def serial_suite():
    return run_suite(names=NAMES, jobs=1)


def test_parallel_run_matches_serial(serial_suite):
    parallel = run_suite(names=NAMES, jobs=2)
    assert set(parallel.programs) == set(serial_suite.programs)
    assert parallel.jobs == 2
    for name in NAMES:
        serial_program = serial_suite.programs[name]
        parallel_program = parallel.programs[name]
        assert len(serial_program.schemes) == len(parallel_program.schemes)
        for serial_scheme, parallel_scheme in zip(
            serial_program.schemes, parallel_program.schemes
        ):
            for field in SUMMARY_FIELDS:
                assert getattr(serial_scheme, field) == getattr(
                    parallel_scheme, field
                ), (name, serial_scheme.scheme, field)


def test_summaries_match_direct_measurement(serial_suite):
    program = generate_program(get_profile(NAMES[0]))
    measurement = measure_program(program)
    summary = summarize_measurement(measurement)
    suite_program = serial_suite.programs[NAMES[0]]
    for scheme in ("cpa", "pythia", "dfi"):
        assert summary.scheme(scheme).cycles == suite_program.scheme(scheme).cycles
        assert suite_program.runtime_overhead(scheme) == pytest.approx(
            measurement.runtime_overhead(scheme)
        )
        assert suite_program.binary_increase(scheme) == pytest.approx(
            measurement.binary_increase(scheme)
        )


def test_suite_aggregates(serial_suite):
    assert serial_suite.wall_seconds > 0
    assert serial_suite.total_steps > 0
    assert serial_suite.steps_per_second > 0
    assert serial_suite.decode_seconds >= 0
    assert serial_suite.schemes == ("vanilla", "cpa", "pythia", "dfi")
    with pytest.raises(KeyError):
        serial_suite.programs[NAMES[0]].scheme("nonsense")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_suite(names=NAMES, jobs=0)


def test_trajectory_append_and_load(tmp_path):
    path = str(tmp_path / "BENCH_interp.json")
    assert load_entries(path) == []
    first = append_entry(path, {"label": "a", "steps_per_second": 1.0})
    assert [entry["label"] for entry in first] == ["a"]
    second = append_entry(path, {"label": "b", "steps_per_second": 2.0})
    assert [entry["label"] for entry in second] == ["a", "b"]
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload == {
        "entries": [
            {"label": "a", "steps_per_second": 1.0},
            {"label": "b", "steps_per_second": 2.0},
        ]
    }


def test_trajectory_rejects_bad_envelope(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"entries": 42}')
    with pytest.raises(ValueError, match="entries"):
        load_entries(str(path))


# -- fan-out planning: degrade instead of forking without parallelism ----------


def test_plan_jobs_serial_is_untouched():
    assert plan_jobs(1, 8) == (1, None)


def test_plan_jobs_clamps_to_task_count():
    effective, reason = plan_jobs(4, 1)
    assert effective == 1
    assert "nothing to overlap" in reason


def test_plan_jobs_zero_tasks_keeps_requested_jobs_valid():
    # run_tasks([]) is a no-op either way; the plan must not emit 0.
    effective, reason = plan_jobs(1, 0)
    assert effective == 1
    assert reason is None


def test_plan_jobs_clamps_to_cpu_count(monkeypatch):
    monkeypatch.setattr("repro.perf.runner.os.cpu_count", lambda: 1)
    effective, reason = plan_jobs(2, 8)
    assert effective == 1
    assert "1 CPU(s)" in reason and "degraded to 1" in reason


def test_plan_jobs_keeps_parallelism_when_cpus_allow(monkeypatch):
    monkeypatch.setattr("repro.perf.runner.os.cpu_count", lambda: 16)
    assert plan_jobs(2, 8) == (2, None)


def test_suite_records_degrade_decision(monkeypatch):
    monkeypatch.setattr("repro.perf.runner.os.cpu_count", lambda: 1)
    result = run_suite(names=[NAMES[0]], jobs=2)
    assert result.jobs == 2
    assert result.jobs_effective == 1
    assert result.degraded is not None
    manifest = result.failure_manifest()
    assert manifest["jobs"] == 2
    assert manifest["jobs_effective"] == 1
    assert manifest["degraded"] == result.degraded


def test_suite_without_degrade_records_none(serial_suite):
    assert serial_suite.jobs_effective == 1
    assert serial_suite.degraded is None
    assert serial_suite.failure_manifest()["degraded"] is None


# -- trace-tier regression tracking --------------------------------------------


def _entry(rate):
    return {
        "schemes": {
            "vanilla": {"trace_steps_per_second": rate},
            "pythia": {"trace_steps_per_second": rate * 4},
        }
    }


def test_trace_throughput_is_the_scheme_geomean():
    assert trace_throughput(_entry(1000.0)) == pytest.approx(2000.0)


def test_trace_throughput_none_without_trace_data():
    assert trace_throughput({"schemes": {"vanilla": {"steps_per_second": 5.0}}}) is None
    assert trace_throughput({"label": "other-bench"}) is None


def test_regression_within_tolerance_passes():
    baseline = [_entry(1000.0)]
    assert check_block_regression(baseline, _entry(950.0)) is None
    assert check_block_regression(baseline, _entry(1200.0)) is None


def test_regression_beyond_tolerance_fails():
    message = check_block_regression([_entry(1000.0)], _entry(800.0))
    assert message is not None
    assert "trace tier regressed" in message


def test_regression_skips_entries_without_trace_data():
    # The comparison reaches past legacy (pre-trace) entries to the
    # last one that actually has trace throughput.
    entries = [_entry(1000.0), {"label": "legacy"}]
    assert check_block_regression(entries, _entry(800.0)) is not None
    assert check_block_regression([{"label": "legacy"}], _entry(800.0)) is None
    assert check_block_regression([], _entry(800.0)) is None
