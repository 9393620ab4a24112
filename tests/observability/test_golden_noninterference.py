"""Golden guarantee: observing a run never changes the run.

Tracing, metrics publication, and the profiler only *read* the
interpreter's architectural counters, so a fully-instrumented execution
must retire bit-identical results to a bare one -- on every interpreter
tier.  Any divergence here means observability leaked into semantics.
"""

from __future__ import annotations

import pytest

from repro.core.framework import protect
from repro.hardware import CPU
from repro.observability import (
    ExecutionProfiler,
    MetricsRegistry,
    current_tracer,
    enable_tracing,
    get_metrics,
    install_metrics,
    install_tracer,
    publish_execution,
)
from repro.workloads import generate_program, get_profile

#: Every architectural field an ExecutionResult exposes; wall-clock and
#: decode timing are measurements of the host, not the machine.
GOLDEN_FIELDS = (
    "status",
    "return_value",
    "cycles",
    "instructions",
    "ipc",
    "steps",
    "output",
    "pac_sign_count",
    "pac_auth_count",
    "pa_dynamic",
    "isolated_allocations",
)

TIERS = ("reference", "decoded", "trace")


@pytest.fixture(scope="module")
def workload():
    program = generate_program(get_profile("519.lbm_r"))
    module = protect(program.compile(), scheme="pythia").module
    return module, program.inputs


@pytest.mark.parametrize("interpreter", TIERS)
def test_traced_run_is_bit_identical_to_untraced(workload, interpreter):
    module, inputs = workload
    bare = CPU(module, interpreter=interpreter).run(inputs=list(inputs))

    previous_tracer = current_tracer()
    previous_metrics = install_metrics(MetricsRegistry())
    try:
        tracer = enable_tracing("golden")
        with tracer.span("execute", "exec"):
            observed = CPU(
                module, interpreter=interpreter, profiler=ExecutionProfiler()
            ).run(inputs=list(inputs))
        publish_execution(get_metrics(), observed, scheme="pythia")
        assert tracer.events  # tracing really was on
    finally:
        install_tracer(previous_tracer)
        install_metrics(previous_metrics)

    for field in GOLDEN_FIELDS:
        assert getattr(observed, field) == getattr(bare, field), field
    assert observed.opcode_counts == bare.opcode_counts


def test_published_counters_mirror_the_result(workload):
    module, inputs = workload
    result = CPU(module, interpreter="trace").run(inputs=list(inputs))
    registry = MetricsRegistry()
    publish_execution(registry, result, scheme="pythia")
    counters = registry.snapshot()["counters"]
    assert counters["exec.steps"] == result.steps
    assert counters["exec.instructions"] == result.instructions
    assert counters["exec.pac_sign"] == result.pac_sign_count
    assert counters["exec.pac_auth"] == result.pac_auth_count
    assert counters["exec.scheme.pythia.steps"] == result.steps
    assert "exec.trap.ok" not in counters  # ok runs record no trap counter
