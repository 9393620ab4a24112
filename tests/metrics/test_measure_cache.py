"""``measure_module`` through the compilation cache compiles what
``protect_all`` compiles, whether the cache is cold or warm."""

from __future__ import annotations

import pytest

from repro.core import protect_all
from repro.ir.printer import print_module
from repro.metrics import overhead
from repro.metrics.overhead import measure_module
from repro.workloads import generate_program, get_profile

PROFILES = ("519.lbm_r", "nginx")


def _printed(protections):
    return {
        scheme: (print_module(result.module), result.pass_stats)
        for scheme, result in protections.items()
    }


@pytest.mark.parametrize("profile", PROFILES)
def test_cold_and_warm_cache_match_protect_all(profile, tmp_path, monkeypatch):
    program = generate_program(get_profile(profile))
    expected = _printed(protect_all(program.compile()))
    cache_dir = str(tmp_path / "cache")

    def measure():
        measurement = measure_module(
            program.compile(), profile, inputs=program.inputs, cache_dir=cache_dir
        )
        hits = {run.cache_hit for run in measurement.runs.values()}
        protections = {s: run.protection for s, run in measurement.runs.items()}
        return hits, _printed(protections)

    assert measure() == ({False}, expected)  # cold: compiled and stored
    assert measure() == ({True}, expected)  # warm: the in-process memo
    # warm with an empty memo: every entry parsed back from disk
    monkeypatch.setattr(overhead, "_PARSED_MODULES", {})
    assert measure() == ({True}, expected)
