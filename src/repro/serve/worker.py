"""Persistent worker process for the serve daemon.

One worker = one process forked by :class:`repro.serve.pool.WorkerPool`
before the event loop starts.  It owns a :class:`WarmRegistry` and
loops over its pipe: receive one request dict, handle it, send back
``(response, telemetry)``.  The loop is strictly sequential (the
front-end serializes per worker), so registry state needs no locking.

Telemetry follows the suite runner's convention (``perf/runner.py``):
each request runs in a :class:`~repro.observability.telemetry_scope`
(a fresh local metrics registry, security-event log, and -- when the
daemon traces -- tracer) and returns its snapshot with the response.
The front-end merges it into the process-global registry, event log
and tracer, which is how ``--metrics-out``/``--trace-out`` on ``serve``
see worker-side compile phases and cache events without double
counting, and how the single-flight dedup guarantee becomes testable:
one compilation produces exactly one ``compile.phase.*`` span set no
matter how many requests coalesced onto it.

Failures never leave the loop: every exception flattens into a
structured error response carrying the layered status code
(:func:`repro.serve.protocol.classify_exception`).  Only a hard crash
(``os._exit``, a signal) kills the worker, and the pool contains that
by respawning a cold replacement.
"""

from __future__ import annotations

import signal
from typing import Any, Dict, Optional, Tuple

# ``tracec`` and ``scenarios`` load here, not on first use: forked
# workers inherit them, so no shard pays an import on its first
# ``profile`` (trace tier) or ``attack`` request.
from ..attacks.scenarios import build_scenarios
from ..hardware import tracec  # noqa: F401 - preloaded for the trace tier
from ..hardware.cpu import CPU
from ..observability import (
    ExecutionProfiler,
    current_tracer,
    get_metrics,
    publish_execution,
    telemetry_scope,
)
from ..observability.events import source_digest
from .protocol import classify_exception, error_response, ok_response
from .registry import WarmRegistry


def _parse_inputs(request: Dict[str, Any]) -> list:
    return [item.encode("utf-8") for item in (request.get("inputs") or [])]


def _execution_result(result) -> Dict[str, Any]:
    """The JSON-able digest of one execution, shared by run/attack."""
    return {
        "status": result.status,
        "ok": result.ok,
        "detected": result.detected,
        "return_value": result.return_value,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": round(result.ipc, 6),
        "steps": result.steps,
        "pa_dynamic": result.pa_dynamic,
        "isolated_allocations": result.isolated_allocations,
        "interpreter": result.interpreter,
        "output": result.output.decode("utf-8", "replace"),
    }


class RequestHandler:
    """Dispatches worker ops against one warm registry."""

    def __init__(self, registry: WarmRegistry):
        self.registry = registry
        self._scenarios = None

    # -- ops ---------------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ValueError(f"op {op!r} is not a worker op")
        return handler(request)

    def _op_compile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        scheme = request.get("scheme", "pythia")
        protection, text, text_digest, warm = self.registry.printed_module(
            request["source"],
            request.get("name", "module"),
            scheme,
            bool(request.get("fields", False)),
        )
        result = {
            "digest": source_digest(request["source"]),
            "scheme": scheme,
            "module_digest": text_digest,
            "pa_static": protection.pa_static,
            "binary_bytes": protection.binary_bytes,
            "canary_count": protection.canary_count,
            "pass_stats": protection.pass_stats,
            "timings": protection.timings,
            "registry": "warm" if warm else "cold",
        }
        if request.get("emit_module"):
            result["module"] = text
        return result

    def _op_run(self, request: Dict[str, Any]) -> Dict[str, Any]:
        scheme = request.get("scheme", "pythia")
        protection, warm = self.registry.protection(
            request["source"],
            request.get("name", "module"),
            scheme,
            bool(request.get("fields", False)),
        )
        cpu = CPU(
            protection.module,
            seed=int(request.get("seed", 2024)),
            interpreter=request.get("interpreter"),
        )
        execution = cpu.run(inputs=_parse_inputs(request))
        publish_execution(get_metrics(), execution, scheme=scheme)
        result = _execution_result(execution)
        result["digest"] = source_digest(request["source"])
        result["scheme"] = scheme
        result["registry"] = "warm" if warm else "cold"
        return result

    def _op_attack(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._scenarios is None:
            self._scenarios = build_scenarios()
        name = request["scenario"]
        scenario = self._scenarios.get(name)
        if scenario is None:
            raise KeyError(
                f"unknown scenario {name!r}; try: {', '.join(self._scenarios)}"
            )
        scheme = request.get("scheme", "pythia")
        # The scenario's source routes through the same registry as any
        # other module, so repeated attack replays reuse the warm
        # protection and the module's decoded program.
        protection, warm = self.registry.protection(
            scenario.source, name, scheme, False
        )
        execution = scenario.run_attack(
            protection.module,
            seed=int(request.get("seed", 2024)),
            interpreter=request.get("interpreter"),
        )
        result = _execution_result(execution)
        result["scenario"] = name
        result["scheme"] = scheme
        result["digest"] = source_digest(scenario.source)
        result["outcome"] = scenario.attack_outcome(execution)
        result["registry"] = "warm" if warm else "cold"
        return result

    def _op_profile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        scheme = request.get("scheme", "pythia")
        protection, warm = self.registry.protection(
            request["source"], request.get("name", "module"), scheme, False
        )
        profiler = ExecutionProfiler()
        cpu = CPU(
            protection.module,
            seed=int(request.get("seed", 2024)),
            interpreter=request.get("interpreter") or "trace",
            profiler=profiler,
        )
        execution = cpu.run(inputs=_parse_inputs(request))
        report = profiler.report(execution, top=int(request.get("top", 10)))
        return {
            "digest": source_digest(request["source"]),
            "scheme": scheme,
            "status": execution.status,
            "report": report,
            "registry": "warm" if warm else "cold",
        }


def handle_request(
    handler: RequestHandler, request: Dict[str, Any], trace: bool
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one request under fresh local telemetry; never raises.

    The span (and every security event) is stamped with the caller's
    ``id`` and the daemon-assigned ``rid``; when the request carries a
    ``rid`` the worker also finishes the front-end's trace flow inside
    its span, which is what draws the cross-process arrow in the
    exported Chrome trace.
    """
    request_id = request.get("id")
    rid = request.get("rid")
    trace_name = f"serve-worker:{request.get('op')}" if trace else None
    with telemetry_scope(trace_name) as scope:
        tracer = current_tracer()
        try:
            with tracer.span(
                f"serve:{request['op']}", "serve", rid=rid, request_id=request_id
            ):
                if rid is not None:
                    tracer.flow("serve:request", rid, "f", op=request["op"])
                response = ok_response(request_id, handler.handle(request))
        except Exception as exc:  # noqa: BLE001 - flatten to a status code
            code, error_type = classify_exception(exc)
            response = error_response(
                request_id, code, error_type, str(exc) or error_type
            )
        result = response.get("result")
        if isinstance(result, dict) and result.get("detected"):
            # A defense fired: record the trap with full correlation so
            # the audit can name the request, module, scheme, and tier.
            scope.event_log.emit(
                "trap",
                request_id=request_id,
                rid=rid,
                module_digest=result.get("digest"),
                scheme=result.get("scheme"),
                tier=result.get("interpreter"),
                status=result.get("status"),
                scenario=result.get("scenario"),
                op=request["op"],
            )
        return response, scope.snapshot()


def worker_main(
    conn,
    worker_id: int,
    capacity: int = 32,
    cache_dir: Optional[str] = None,
    trace: bool = False,
) -> None:
    """Process entry point: serve the pipe until the shutdown sentinel.

    Termination signals are ignored -- shutdown is coordinated by the
    parent through the pipe (a ``None`` sentinel), so SIGTERM against
    the daemon never kills a worker mid-request.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    handler = RequestHandler(WarmRegistry(capacity=capacity, cache_dir=cache_dir))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            if isinstance(message, dict) and message.get("op") == "_debug_crash":
                # Test-only hard crash (enabled by the pool's debug flag
                # before it ever reaches a worker): exercises the
                # crash-containment path end to end.
                import os

                os._exit(int(message.get("exit_code", 13)))
            response, telemetry = handle_request(handler, message, trace)
            try:
                conn.send((response, telemetry))
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()
