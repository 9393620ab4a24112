"""Command-line interface: ``python -m repro <command>``.

Each subcommand is one ``cmd_*`` function, registered with its
one-line description in :func:`build_parser` (``python -m repro
--help`` lists them all).  An option several subcommands share --
``--seed``, ``--interpreter``, the serve daemon's endpoint, the
``--trace-out``/``--metrics-out``/``--events-out`` exports of
:mod:`repro.observability`, the ``--profile-out`` report that
``--profile-in`` feeds back into trace-tier region selection -- is
declared once, in an ``_add_*`` helper next to the parser.

Failures exit with a one-line ``repro: error:`` diagnostic and a
distinct code per failure layer (see :data:`EXIT_CODES`) -- never a
traceback: 2 for an undetected attack / broken contract / suite
failure, 3 for I/O (missing file, unreadable plan), 4 for invalid
MiniC, 5 for IR verification and protection-pipeline bugs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import (
    DefenseConfig,
    SCHEMES,
    analyze_module,
    build_security_report,
    protect,
    protect_all,
)
from .frontend import CodegenError, CParseError, LexError, SemaError, compile_source
from .hardware.cpu import CPU, INTERPRETERS
from .hardware.errors import ReproError
from .ir import print_module
from .ir.verifier import VerificationError
from .observability import (
    current_tracer,
    disable_tracing,
    enable_tracing,
    get_event_log,
    get_metrics,
    publish_execution,
    read_events,
    reset_event_log,
    reset_metrics,
    write_events,
    write_metrics,
    write_trace,
)
from .observability.events import source_digest
from .transforms import Mem2Reg
from .workloads.profiles import get_profile, profile_names

# Everything else a subcommand needs is imported inside its ``cmd_*``
# function, so a cold ``python -m repro <cmd>`` loads only the layers
# that command runs (see DESIGN.md, "Cold start").

#: Exit code per failure layer.  :class:`~repro.hardware.errors.ReproError`
#: subclasses carry their own ``exit_code`` and take precedence.
EXIT_CODES = {
    "io": 3,
    "frontend": 4,
    "verify": 5,
}

#: MiniC front-end failures: invalid *input*, not framework bugs.
_FRONTEND_ERRORS = (LexError, CParseError, SemaError, CodegenError)

#: Where ``serve`` listens and its clients connect without ``--socket``.
DEFAULT_SOCKET = ".repro-serve.sock"


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_inputs(items: Optional[List[str]]) -> List[bytes]:
    return [item.encode("utf-8") for item in (items or [])]


def _load_trace_profile(path: Optional[str]) -> Optional[dict]:
    """Read a ``--profile-out`` report back as trace-tier block counts.

    ``None`` (no ``--profile-in``) reads nothing and returns ``None``.
    """
    if path is None:
        return None
    import json

    from .observability.profile import PROFILE_SCHEMA, hot_block_counts

    with open(path, "r", encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid profile JSON in {path}: {exc}") from exc
    counts = hot_block_counts(report)
    if counts is None:
        raise ReproError(
            f"{path} carries no per-block execution counts (expected a "
            f"{PROFILE_SCHEMA} report from --profile-out under the trace "
            f"tier)"
        )
    return counts


def _write_json(path: str, data, what: str, file=None) -> None:
    """Write ``data`` as sorted, indented JSON and say so on ``file``."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    print(f"{what} written to {path}", file=file)


def _print_triage(triage) -> None:
    """The crash buckets of a chaos or campaign run, if it had any."""
    if triage.total_crashes:
        print("triage buckets (uncaught exceptions -- framework bugs):")
        for line in triage.summary_lines():
            print(f"  {line}")


def _endpoint(args: argparse.Namespace) -> dict:
    """The ``socket_path``/``port`` pair of ``--socket``/``--port``."""
    if args.port is not None:
        return {"socket_path": None, "port": args.port}
    return {"socket_path": args.socket or DEFAULT_SOCKET, "port": None}


def _daemon_result(args: argparse.Namespace, op: str) -> dict:
    """Send one ``op`` request to the daemon; its result on success."""
    from .serve.client import ServeClient, ServeClientError

    client = ServeClient(**_endpoint(args))
    try:
        response = client.request(op)
    finally:
        client.close()
    if response.get("status") != "ok":
        raise ServeClientError(f"{op} op failed: {response.get('error')}")
    return response["result"]


# -- subcommands ---------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    module = compile_source(_read_source(args.source), name=args.name)
    if args.mem2reg:
        Mem2Reg().run(module)
    print(print_module(module), end="")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = _read_source(args.source)
    module = compile_source(source, name=args.name)
    config = DefenseConfig(scheme=args.scheme, protect_fields=args.fields)
    protected = protect(module, config=config)
    if args.timings:
        # Read the phases back from the metrics snapshot rather than
        # ``protected.timings``: both views are fed by the same
        # ``phase_span`` clock readings, so stderr and ``--metrics-out``
        # can never disagree.
        prefix = "compile.phase."
        phases = {
            name[len(prefix):]: stats["sum"]
            for name, stats in get_metrics().snapshot()["histograms"].items()
            if name.startswith(prefix)
        }
        total = sum(phases.values())
        for phase, seconds in sorted(phases.items(), key=lambda item: -item[1]):
            print(f"[timing] {phase:24s} {seconds * 1e3:8.2f}ms", file=sys.stderr)
        print(f"[timing] {'total':24s} {total * 1e3:8.2f}ms", file=sys.stderr)
    trace_profile = _load_trace_profile(args.profile_in)
    profiler = None
    if args.profile_out:
        from .observability.profile import ExecutionProfiler

        profiler = ExecutionProfiler()
    cpu = CPU(
        protected.module,
        seed=args.seed,
        interpreter=args.interpreter,
        profiler=profiler,
        trace_profile=trace_profile,
    )
    with current_tracer().span(f"execute:{args.scheme}", "exec"):
        result = cpu.run(inputs=_parse_inputs(args.input))
    publish_execution(get_metrics(), result, scheme=args.scheme)
    if result.detected:
        get_event_log().emit(
            "trap",
            module_digest=source_digest(source),
            scheme=args.scheme,
            tier=result.interpreter,
            status=result.status,
            op="run",
        )
    if profiler is not None:
        _write_json(args.profile_out, profiler.report(result), "profile", sys.stderr)
    sys.stdout.write(result.output.decode("utf-8", "replace"))
    print(
        f"[{args.scheme}] status={result.status} return={result.return_value} "
        f"cycles={result.cycles:.0f} instructions={result.instructions} "
        f"ipc={result.ipc:.2f} pa={result.pa_dynamic}",
        file=sys.stderr,
    )
    return 0 if result.ok else 2


def cmd_analyze(args: argparse.Namespace) -> int:
    module = compile_source(_read_source(args.source), name=args.name)
    Mem2Reg().run(module)
    report = analyze_module(module)
    security = build_security_report(report)
    categories = report.branch_categories()
    print(f"program variables:      {len(report.all_variables)}")
    print(f"conservative (CPA) set: {len(report.cpa_variables)}")
    print(f"refined (Pythia) set:   {len(report.refined_variables)}")
    print(f"  stack vulnerable:     {len(report.stack_vulnerable)}")
    print(f"  heap vulnerable:      {len(report.heap_vulnerable)}")
    print(f"refinement factor:      {report.refinement_factor():.2f}x")
    print(
        f"branches: {security.total_branches} total | "
        f"{categories['direct']} direct, {categories['indirect']} indirect, "
        f"{categories['unaffected']} unaffected"
    )
    print(
        f"secured:  Pythia {100 * security.pythia_secured_fraction:.1f}% | "
        f"DFI {100 * security.dfi_secured_fraction:.1f}%"
    )
    if args.verbose:
        for obj in sorted(report.refined_variables, key=lambda o: o.label):
            print(f"  vulnerable: {obj.label} ({obj.kind})")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from .attacks.scenarios import build_scenarios

    scenarios = build_scenarios()
    if args.scenario not in scenarios:
        print(f"unknown scenario {args.scenario!r}; try: {', '.join(scenarios)}")
        return 1
    scenario = scenarios[args.scenario]
    print(f"{scenario.name}: {scenario.description}")
    failures = 0
    for scheme, protected in protect_all(scenario.compile(), consume=True).items():
        outcome = scenario.attack_outcome(scenario.run_attack(protected.module))
        print(f"  {scheme:8s} -> {outcome}")
        if scheme == "vanilla" and outcome != "success":
            failures += 1
    return 0 if not failures else 2


def cmd_bench(args: argparse.Namespace) -> int:
    from .metrics.overhead import measure_module
    from .workloads.generator import generate_program

    program = generate_program(get_profile(args.benchmark))
    module = program.compile()
    trace_profile = _load_trace_profile(args.profile_in)
    print(f"{args.benchmark}: {module.instruction_count()} IR instructions")
    try:
        measurement = measure_module(
            module,
            name=args.benchmark,
            inputs=program.inputs,
            seed=args.seed,
            interpreter=args.interpreter,
            trace_profile=trace_profile,
        )
    except RuntimeError as exc:  # a scheme's benign run failed
        return _fail(exc, 2)
    for scheme, run in measurement.runs.items():
        line = f"  {scheme:8s} cycles={run.execution.cycles:10.0f}"
        if scheme != "vanilla":
            overhead = 100 * measurement.runtime_overhead(scheme)
            line += f" overhead={overhead:6.1f}% pa={run.execution.pa_dynamic}"
        print(line)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .perf import run_suite

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 1
    known = profile_names()
    for name in args.benchmark:
        if name not in known:
            print(f"unknown benchmark {name!r}; try: {', '.join(known)}")
            return 1
    cache_dir = None if args.no_cache else args.cache_dir
    result = run_suite(
        names=args.benchmark or None,
        seed=args.seed,
        jobs=args.jobs,
        interpreter=args.interpreter,
        cache_dir=cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        keep_going=args.keep_going,
    )
    for name in sorted(result.programs):
        program = result.programs[name]
        overheads = " ".join(
            f"{scheme}={100 * program.runtime_overhead(scheme):+.1f}%"
            for scheme in result.schemes
            if scheme != "vanilla"
        )
        print(f"  {name:18s} {overheads}")
    print(
        f"{len(result.programs)} benchmarks x {len(result.schemes)} schemes "
        f"in {result.wall_seconds:.2f}s "
        f"({result.jobs} job{'s' if result.jobs != 1 else ''}): "
        f"{result.steps_per_second:,.0f} steps/s, "
        f"decode {result.decode_seconds * 1e3:.1f}ms"
    )
    if cache_dir is not None:
        print(
            f"compilation cache [{cache_dir}]: "
            f"{result.cache_hits} hits, {result.cache_misses} misses"
        )
    if args.manifest:
        _write_json(args.manifest, result.failure_manifest(), "failure manifest")
    if result.failures:
        for name in result.quarantined:
            failure = result.failures[name]
            print(
                f"  QUARANTINED {name}: {failure.status} after "
                f"{failure.attempts} attempt(s): {failure.message}",
                file=sys.stderr,
            )
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .robustness import FaultPlan, smoke_plan
    from .robustness.chaos import run_chaos

    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            plan = FaultPlan.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            # Bad JSON (JSONDecodeError is a ValueError), an unknown
            # fault kind (FaultSpec validation), or a wrong schema
            # (missing keys / mis-typed fields): all user input errors.
            detail = str(exc) or type(exc).__name__
            return _fail(
                ValueError(f"invalid fault plan {args.plan}: {detail}"),
                EXIT_CODES["io"],
            )
    else:
        plan = smoke_plan(args.seed)
    report = run_chaos(
        plan, workload=args.workload, seed=args.seed, interpreter=args.interpreter
    )
    print(
        f"chaos: {len(plan.specs)} fault spec(s) against {args.workload!r} "
        f"(plan seed {plan.seed}, run seed {args.seed})"
    )
    for line in report.summary_lines():
        print(line)
    _print_triage(report.triage)
    if args.manifest:
        _write_json(args.manifest, report.to_manifest(), "chaos manifest")
    violations = report.contract_violations()
    if violations:
        print(f"FAIL: {len(violations)} defense-contract violation(s)")
        for case in violations:
            print(f"  [{case.index}] {case.kind}: {case.classification} -- {case.detail}")
        return 2
    print("OK: every injected fault stayed within its defense contract")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .robustness.campaign import (
        run_campaign,
        write_manifest,
        write_matrix,
    )

    families = None
    if args.families:
        families = [name.strip() for name in args.families.split(",") if name.strip()]
    # An unknown family or a budget below 1 raises a ReproError (exit 2).
    with current_tracer().span("campaign", "campaign", seed=args.seed):
        report = run_campaign(
            seed=args.seed,
            budget=args.budget,
            families=families,
            reduce_bypasses=not args.no_reduce,
        )
    print(
        f"campaign: {report.budget} mutants over {len(report.families)} "
        f"families x {len(SCHEMES)} schemes (seed {report.seed})"
    )
    for line in report.render_matrix():
        print(line)
    buckets = report.bypass_buckets()
    if buckets:
        print(f"bypass buckets ({len(buckets)}):")
        for bucket in sorted(buckets):
            records = buckets[bucket]
            exemplar = next(
                (r for r in records if r.reduced_source), records[0]
            )
            shrink = (
                f" (exemplar reduced {exemplar.original_lines}->"
                f"{exemplar.reduced_lines} lines)"
                if exemplar.reduced_lines
                else ""
            )
            print(f"  {bucket}: {len(records)} mutant(s){shrink}")
    _print_triage(report.triage)
    if args.matrix_out:
        write_matrix(report, args.matrix_out)
        print(f"coverage matrix written to {args.matrix_out}")
    if args.manifest:
        write_manifest(report, args.manifest)
        print(f"campaign manifest written to {args.manifest}")
    violations = report.contract_violations()
    if violations or report.crashes:
        print(
            f"FAIL: {len(violations)} contract violation(s), "
            f"{report.triage.total_crashes} crash(es)"
        )
        for violation in violations:
            print(
                f"  {violation['mutant']}/{violation['scheme']}: "
                f"{violation['reason']}"
            )
        return 2
    print("OK: every vanilla bypass of the new families was trapped or detected")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .observability.profile import ExecutionProfiler, format_report

    module = compile_source(_read_source(args.source), name=args.name)
    protected = protect(module, scheme=args.scheme)
    profiler = ExecutionProfiler()
    cpu = CPU(
        protected.module,
        seed=args.seed,
        interpreter=args.interpreter or "trace",
        profiler=profiler,
    )
    result = cpu.run(inputs=_parse_inputs(args.input))
    sys.stdout.write(result.output.decode("utf-8", "replace"))
    report = profiler.report(result, top=args.top)
    for line in format_report(report):
        print(line)
    if args.profile_out:
        _write_json(args.profile_out, report, "profile", sys.stderr)
    return 0 if result.ok else 2


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.pool import WorkerPool
    from .serve.server import ReproServer

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}")
        return 1
    if args.socket and args.port is not None:
        print("pass --socket or --port, not both")
        return 1
    cache_dir = None if args.no_cache else args.cache_dir
    timeout = args.timeout if args.timeout and args.timeout > 0 else None
    slo_policy = None
    if args.slo:
        from .observability import SloPolicy

        try:
            slo_policy = SloPolicy.from_json_file(args.slo)
        except ValueError as exc:
            return _fail(exc, EXIT_CODES["io"])
    pool = WorkerPool(
        workers=args.workers,
        capacity=args.max_modules,
        cache_dir=cache_dir,
        timeout=timeout,
        trace=current_tracer().enabled,
        debug_ops=args.debug_ops,
    )
    server = ReproServer(
        pool,
        **_endpoint(args),
        drain_timeout=args.drain_timeout,
        slo_policy=slo_policy,
    )

    # Fork the workers before any event loop exists, so no loop or
    # executor-thread state is duplicated into them.
    pool.start()
    try:
        print(
            f"repro serve: {pool.size} worker(s) on {server.endpoint} "
            + (f"(timeout {timeout}s" if timeout else "(no timeout")
            + (f", cache {cache_dir})" if cache_dir else ", cache off)"),
            file=sys.stderr,
            flush=True,
        )
        asyncio.run(server.serve_until_stopped())
    finally:
        pool.stop()
    print(
        f"repro serve: drained after {server.requests} request(s), "
        f"{server.coalesced} coalesced, {pool.restarts} worker restart(s)",
        file=sys.stderr,
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve.loadgen import run_load
    from .workloads.nginx import DEFAULT_MIX, build_request_mix, parse_mix

    try:
        mix = parse_mix(args.mix) if args.mix else dict(DEFAULT_MIX)
    except ValueError as exc:
        return _fail(exc, 2)
    requests = build_request_mix(
        count=args.requests,
        seed=args.seed,
        mix=mix,
        duration=args.size,
        variants=args.variants,
        interpreter=args.interpreter,
    )
    report = run_load(
        requests,
        concurrency=args.concurrency,
        **_endpoint(args),
        duration_s=args.duration,
        connect_deadline_s=args.connect_wait,
    )
    for line in report.summary_lines():
        print(line)
    if args.report_out:
        _write_json(args.report_out, report.to_dict(), "load report", sys.stderr)
    if args.events_out:
        # The daemon owns the ring; pull it over the events op and
        # adopt it locally, so the shared --events-out exporter writes
        # a file carrying every worker-side trap this load drew.
        get_event_log().adopt(_daemon_result(args, "events")["events"])
    failed = False
    if report.failures:
        print(f"FAIL: {report.failures} request(s) failed", file=sys.stderr)
        failed = True
    if args.max_p99_ms is not None and report.p99_ms() > args.max_p99_ms:
        print(
            f"FAIL: p99 {report.p99_ms():.1f}ms exceeds the "
            f"--max-p99-ms bound of {args.max_p99_ms:.1f}ms",
            file=sys.stderr,
        )
        failed = True
    return 2 if failed else 0


def cmd_top(args: argparse.Namespace) -> int:
    import time as time_module

    from .observability.aggregate import render_dashboard

    frames = 0
    try:
        while True:
            lines = render_dashboard(_daemon_result(args, "stats"))
            frames += 1
            if not args.once and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print("\n".join(lines), flush=True)
            if args.once or (args.frames is not None and frames >= args.frames):
                return 0
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .observability.audit import audit_events, render_audit

    try:
        events = read_events(args.events)
    except ValueError as exc:
        return _fail(exc, EXIT_CODES["io"])
    report = audit_events(events)
    for line in render_audit(report, path=args.events):
        print(line)
    if args.json_out:
        _write_json(args.json_out, report, "audit report", sys.stderr)
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from .attacks.scenarios import build_scenarios
    from .robustness.campaign import FAMILY_FAULTS, NEW_FAMILIES

    for name, scenario in build_scenarios().items():
        detected = ",".join(scenario.detected_by) or "-"
        prevented = ",".join(scenario.prevented_by) or "-"
        line = f"{name:22s} detected_by={detected:16s} prevented_by={prevented}"
        if name in NEW_FAMILIES:
            fault = FAMILY_FAULTS.get(name)
            extra = f" + {fault} fault" if fault else ""
            line += f"  [campaign family{extra}]"
        print(line)
    print(
        "every scenario doubles as a campaign attack family "
        "(python -m repro campaign); the [campaign family] rows are the "
        "related-work adversaries beyond the paper's listings"
    )
    return 0


# -- parser ---------------------------------------------------------------
#
# Every option more than one subcommand takes is declared once, in an
# ``_add_*`` helper; where its help text or default really differs by
# subcommand, the helper takes it as an argument.  Subcommands call the
# helpers in the order their options list in ``--help``.

#: ``--interpreter`` help wherever the decoded tier is the default.
_DECODED_DEFAULT = "CPU backend (default: pre-decoded dispatch)"


def _command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    return p


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="path to MiniC source, or - for stdin")
    p.add_argument("--name", default="module")


def _add_seed_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=2024)


def _add_interpreter_arg(
    p: argparse.ArgumentParser,
    help: str = _DECODED_DEFAULT,
    default: Optional[str] = None,
) -> None:
    p.add_argument("--interpreter", choices=INTERPRETERS, default=default, help=help)


def _add_program_args(
    p: argparse.ArgumentParser,
    interpreter_help: str = _DECODED_DEFAULT,
    fields: bool = False,
) -> None:
    """A MiniC program to protect and execute: ``run`` and ``profile``."""
    _add_source_args(p)
    p.add_argument("--scheme", choices=SCHEMES, default="pythia")
    if fields:
        p.add_argument("--fields", action="store_true", help="§6.4 field canaries")
    _add_seed_arg(p)
    p.add_argument(
        "--input", action="append", help="queue a benign input line (repeatable)"
    )
    _add_interpreter_arg(p, interpreter_help)


def _add_profile_in_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile-in",
        metavar="FILE",
        help="feed a saved --profile-out report to trace-tier region "
        "selection (only the trace interpreter consumes it)",
    )


def _add_manifest_arg(p: argparse.ArgumentParser, manifest: str) -> None:
    p.add_argument("--manifest", metavar="FILE", help=f"write the {manifest} as JSON")


def _add_cache_args(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help=f"{what} (default: .repro-cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk compilation cache",
    )


def _add_endpoint_args(p: argparse.ArgumentParser) -> None:
    """The daemon's address: ``serve`` listens there, clients connect."""
    p.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help=f"the daemon's Unix-domain socket (default: {DEFAULT_SOCKET})",
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="use loopback TCP on this port instead of a Unix socket",
    )


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome-trace / Perfetto JSON of this command's spans",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the repro-metrics-v1 counters snapshot as JSON",
    )
    p.add_argument(
        "--events-out",
        metavar="FILE",
        help="write the repro-events-v1 security-event log as JSON lines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pythia (ASPLOS 2024) reproduction: compile, protect, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "compile", cmd_compile, "MiniC source to textual IR")
    _add_source_args(p)
    p.add_argument("--mem2reg", action="store_true", help="promote to SSA first")

    p = _command(sub, "run", cmd_run, "compile, protect, and execute")
    _add_program_args(p, fields=True)
    p.add_argument(
        "--timings",
        action="store_true",
        help="print per-phase compile timings to stderr",
    )
    p.add_argument(
        "--profile-out",
        metavar="FILE",
        help="run under the execution profiler and write its report "
        "(per-block counts need --interpreter trace)",
    )
    _add_profile_in_arg(p)
    _add_observability_args(p)

    p = _command(sub, "analyze", cmd_analyze, "print the vulnerability analysis")
    _add_source_args(p)
    p.add_argument("--verbose", action="store_true")

    p = _command(sub, "attack", cmd_attack, "replay a scenario under every scheme")
    p.add_argument("scenario")

    p = _command(sub, "bench", cmd_bench, "run one generated benchmark")
    p.add_argument("benchmark", choices=profile_names(), metavar="BENCHMARK")
    _add_seed_arg(p)
    _add_interpreter_arg(p)
    _add_profile_in_arg(p)
    _add_observability_args(p)

    p = _command(
        sub,
        "suite",
        cmd_suite,
        "measure benchmarks under every scheme, optionally in parallel",
    )
    p.add_argument(
        "benchmark",
        nargs="*",
        metavar="BENCHMARK",
        help="benchmarks to measure (default: all profiles)",
    )
    _add_seed_arg(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the fan-out (default: 1, serial)",
    )
    _add_interpreter_arg(p)
    _add_cache_args(p, "compilation cache directory")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-benchmark attempt timeout in seconds (default: none)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failing benchmark this many times before quarantine",
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="quarantine failing benchmarks and report the rest "
        "instead of aborting the suite",
    )
    _add_manifest_arg(p, "completion/quarantine manifest")
    _add_observability_args(p)

    p = _command(
        sub, "chaos", cmd_chaos, "inject a fault plan and assert the defense contract"
    )
    p.add_argument(
        "--plan",
        metavar="FILE",
        help="fault plan JSON (default: the built-in one-of-every-kind "
        "smoke plan at --seed)",
    )
    p.add_argument(
        "--workload",
        default="nginx",
        choices=profile_names(),
        metavar="BENCHMARK",
        help="workload to run under faults (default: nginx, the "
        "profile with live heap traffic)",
    )
    _add_seed_arg(p)
    _add_interpreter_arg(p)
    _add_manifest_arg(p, "full chaos manifest (cases, violations, triage)")
    _add_observability_args(p)

    p = _command(
        sub,
        "campaign",
        cmd_campaign,
        "fuzz attack families over every scheme and emit the "
        "defense-coverage matrix",
    )
    _add_seed_arg(p)
    p.add_argument(
        "--budget",
        type=int,
        default=200,
        help="total mutants, spread over the families (default: 200)",
    )
    p.add_argument(
        "--families",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated attack families (default: all scenarios, "
        "incl. the related-work families pac_reuse, call_bend, heap_cross)",
    )
    p.add_argument(
        "--matrix-out",
        metavar="FILE",
        help="write the scheme x family coverage matrix as JSON",
    )
    _add_manifest_arg(p, "full campaign manifest (runs, minimized bypasses, triage)")
    p.add_argument(
        "--no-reduce",
        action="store_true",
        help="skip ddmin minimization of bypass exemplars",
    )
    _add_observability_args(p)

    p = _command(
        sub, "profile", cmd_profile, "execute under the profiler and print hot spots"
    )
    _add_program_args(p, "CPU backend (default: trace, with per-block attribution)")
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows per hot-spot table (default: 10)",
    )
    p.add_argument(
        "--profile-out",
        metavar="FILE",
        help="also write the report as JSON (feeds run/bench --profile-in)",
    )

    _command(sub, "scenarios", cmd_scenarios, "list the built-in attack scenarios")

    p = _command(
        sub,
        "serve",
        cmd_serve,
        "persistent compile-and-execute daemon over a local socket",
    )
    _add_endpoint_args(p)
    p.add_argument(
        "--workers",
        type=int,
        default=max(2, min(4, os.cpu_count() or 2)),
        help="persistent worker processes; requests shard across them "
        "by content digest (default: min(4, CPUs), at least 2)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request worker timeout in seconds; 0 disables "
        "(default: 60)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let in-flight requests finish on shutdown "
        "(default: 30)",
    )
    p.add_argument(
        "--max-modules",
        type=int,
        default=32,
        help="warm-registry capacity per worker, in distinct modules "
        "(default: 32)",
    )
    _add_cache_args(p, "shared on-disk compilation cache")
    p.add_argument(
        "--debug-ops",
        action="store_true",
        help="enable the test-only _debug_crash op (crash containment "
        "drills)",
    )
    p.add_argument(
        "--slo",
        metavar="FILE",
        help="SLO policy JSON; enables the background burn-rate "
        "evaluator (emits slo-breach events)",
    )
    _add_observability_args(p)

    p = _command(
        sub,
        "loadgen",
        cmd_loadgen,
        "fire a seeded nginx-style request mix at a serve daemon",
    )
    _add_endpoint_args(p)
    p.add_argument(
        "--requests",
        type=int,
        default=200,
        help="requests in the mix (default: 200)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="concurrent client connections (default: 8)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="keep cycling the mix for this many seconds instead of "
        "sending it once",
    )
    p.add_argument(
        "--mix",
        default=None,
        metavar="OP=W[,OP=W...]",
        help="op weights (default: run=6,compile=3,attack=2,profile=1)",
    )
    p.add_argument(
        "--variants",
        type=int,
        default=3,
        help="distinct generated programs in the working set (default: 3)",
    )
    p.add_argument(
        "--size",
        default="3s",
        choices=("3s", "30s", "300s"),
        help="nginx workload size per request (default: 3s)",
    )
    _add_interpreter_arg(
        p, "interpreter requested for run/profile ops (default: trace)", "trace"
    )
    _add_seed_arg(p)
    p.add_argument(
        "--connect-wait",
        type=float,
        default=10.0,
        help="seconds to wait for the daemon to answer ping (default: 10)",
    )
    p.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail (exit 2) when overall p99 latency exceeds this bound",
    )
    p.add_argument(
        "--report-out",
        metavar="FILE",
        help="write the latency/throughput report as JSON",
    )
    p.add_argument(
        "--events-out",
        metavar="FILE",
        help="pull the daemon's security-event ring (events op) and "
        "write it as repro-events-v1 JSON lines",
    )

    p = _command(
        sub, "top", cmd_top, "live terminal dashboard over a running serve daemon"
    )
    _add_endpoint_args(p)
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    p.add_argument(
        "--frames",
        type=int,
        default=None,
        help="stop after this many refreshes (default: until Ctrl-C)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )

    p = _command(
        sub, "audit", cmd_audit, "offline security summary of a repro-events-v1 file"
    )
    p.add_argument("events", help="path to an --events-out JSON-lines file")
    p.add_argument(
        "--json-out", metavar="FILE", help="also write the full audit digest as JSON"
    )

    return parser


def _fail(exc: BaseException, code: int) -> int:
    """One-line diagnostic to stderr, never a traceback."""
    message = str(exc) or type(exc).__name__
    first = message.splitlines()[0]
    rest = len(message.splitlines()) - 1
    if rest > 0:
        first += f" (+{rest} more)"
    print(f"repro: error: {first}", file=sys.stderr)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except _FRONTEND_ERRORS as exc:
        return _fail(exc, EXIT_CODES["frontend"])
    except VerificationError as exc:
        return _fail(exc, EXIT_CODES["verify"])
    except ReproError as exc:
        return _fail(exc, exc.exit_code)
    except OSError as exc:
        return _fail(exc, EXIT_CODES["io"])


def _export_observability(args: argparse.Namespace) -> int:
    """Write ``--trace-out``/``--metrics-out``/``--events-out``; 0 on success.

    Runs even when the command itself failed, so a crashing suite still
    leaves its partial trace, counters, and events behind for triage.
    A subcommand without one of the flags exports nothing for it.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    events_out = getattr(args, "events_out", None)
    try:
        if trace_out:
            write_trace(trace_out, current_tracer().events)
            print(f"trace written to {trace_out}", file=sys.stderr)
        if metrics_out:
            write_metrics(metrics_out, get_metrics().snapshot())
            print(f"metrics written to {metrics_out}", file=sys.stderr)
        if events_out:
            count = write_events(events_out, get_event_log().snapshot())
            print(f"{count} event(s) written to {events_out}", file=sys.stderr)
    except OSError as exc:
        return _fail(exc, EXIT_CODES["io"])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    reset_metrics()
    reset_event_log()
    if getattr(args, "trace_out", None):
        enable_tracing()
    try:
        code = _dispatch(args)
        export_code = _export_observability(args)
        return code if code != 0 else export_code
    finally:
        disable_tracing()
