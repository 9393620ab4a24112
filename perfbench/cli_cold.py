"""Workload ``cli-cold``: fresh ``python -m repro`` processes, one at a time.

Each job is a new process running the CLI with default flags, so each
pays interpreter start and ``import repro`` before its small piece of
work.  Jobs come in rounds; a round is, in a seeded order:

- ``repro run quickstart.c --scheme S --input NAME`` for each scheme S,
  all with one seeded benign NAME (the victim of
  ``examples/quickstart.py``);
- ``repro attack SCENARIO`` for each of the 9 ``build_scenarios()``.

Only whole rounds are measured, so every run weighs the job kinds
alike.  The oracle replays each run job on the reference interpreter
and checks each attack line against the scenario's declared
``detected_by``/``prevented_by``.
"""

from __future__ import annotations

import json
import os
import random
import re
import string
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common
from common import SCHEMES, BenchError

_SETUP_SAMPLES = 9
_JOB_TIMEOUT_S = 60
#: CPU seed ``repro run`` uses by default.
_RUN_SEED = 2024
#: The cycle count in ``repro run``'s status line.
_CYCLES = re.compile(r"\] status=\S+ return=\S+ cycles=(\d+)")


def _quickstart_source() -> str:
    import importlib.util

    path = os.path.join(common.ROOT, "examples", "quickstart.py")
    spec = importlib.util.spec_from_file_location("perfbench_quickstart", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SOURCE


def _scenario_names() -> List[str]:
    from repro.attacks import build_scenarios

    return list(build_scenarios())


def rounds(seed: int, source_path: str):
    """Endless seeded rounds of ``(kind, argv, detail)`` jobs."""
    rng = random.Random(f"cli-cold:{seed}")
    scenarios = _scenario_names()
    while True:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 15)))
        jobs = [
            ("run", ["-m", "repro", "run", source_path, "--scheme", scheme, "--input", name],
             {"scheme": scheme, "input": name})
            for scheme in SCHEMES
        ]
        jobs += [("attack", ["-m", "repro", "attack", scenario], {"scenario": scenario})
                 for scenario in scenarios]
        rng.shuffle(jobs)
        yield jobs


def _run_job(argv: List[str], prefix: Tuple[str, ...] = ()) -> dict:
    """Spawn one job; wall time from spawn until it is reaped.

    stderr goes to a file so only one pipe needs draining, and the
    child is reaped with ``wait4`` for its own peak RSS.
    """
    with tempfile.TemporaryFile(dir=common.ensure_out("cli")) as err:
        start_ns = time.perf_counter_ns()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *prefix, *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=common.ROOT,
            env=common.child_env(),
        )
        # A hung job is killed, then fails the oracle on its exit code.
        watchdog = threading.Timer(_JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    return {
        "wall_ms": 1e3 * wall,
        "start_ns": start_ns,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout.decode("utf-8", "replace"),
        "stderr": stderr.decode("utf-8", "replace"),
    }


def _measure(
    seed: int, seconds: float, source_path: str, traced: bool
) -> Tuple[List[dict], List[dict], List[dict]]:
    """Whole rounds of jobs until ``seconds`` have passed.

    Traced, each job runs twice back to back, plainly and under
    ``-X importtime`` in alternating order, so slow spells of the
    machine weigh on both alike, and a bare ``python -c pass`` follows
    as the process-start sample.  Returns ``(plain, traced, bare)``.
    """
    modes = [(), ("-X", "importtime")] if traced else [()]
    done: Tuple[List[dict], List[dict], List[dict]] = ([], [], [])
    started = time.perf_counter()
    for jobs in rounds(seed, source_path):
        if done[0] and time.perf_counter() - started >= seconds:
            break
        for kind, argv, detail in jobs:
            order = range(len(modes)) if len(done[0]) % 2 == 0 else reversed(range(len(modes)))
            for mode in order:
                record = _run_job(argv, modes[mode])
                record.update(kind=kind, argv=argv, **detail)
                done[mode].append(record)
            if traced:
                done[2].append(_run_job(["-c", "pass"]))
    return done


def _latency_p(jobs: List[dict], q: float) -> float:
    """Per-job wall-time quantile over every job of the run."""
    return common.percentile([job["wall_ms"] for job in jobs], q)


# -- oracle -----------------------------------------------------------------------


class _Oracle:
    """Expected CLI output per job, from the reference interpreter."""

    def __init__(self, source: str):
        from repro.attacks import build_scenarios
        from repro.core import protect
        from repro.frontend import compile_source

        self.cache = common.OracleCache()
        self.scenarios = build_scenarios()
        module = compile_source(source, name="module")
        self.protected = {scheme: protect(module, scheme=scheme) for scheme in SCHEMES}
        self.memo: Dict[tuple, dict] = {}

    def run_expectation(self, scheme: str, name: str) -> dict:
        key_parts = (scheme, name)
        if key_parts in self.memo:
            return self.memo[key_parts]
        from repro.hardware.cpu import CPU
        from repro.ir.printer import print_module

        text = print_module(self.protected[scheme].module)
        key = self.cache.key("cli-run", text, name, str(_RUN_SEED))
        expected = self.cache.get(key)
        if expected is None:
            cpu = CPU(self.protected[scheme].module, seed=_RUN_SEED, interpreter="reference")
            result = cpu.run(inputs=[name.encode("utf-8")])
            expected = {
                "stdout": result.output.decode("utf-8", "replace"),
                "status_line": (
                    f"[{scheme}] status={result.status} return={result.return_value} "
                    f"cycles={result.cycles:.0f} instructions={result.instructions} "
                    f"ipc={result.ipc:.2f} pa={result.pa_dynamic}"
                ),
                "code": 0 if result.status == "ok" else 2,
                "cycles": result.cycles,
            }
            self.cache.put(key, expected)
        self.memo[key_parts] = expected
        return expected

    def attack_lines(self, name: str) -> List[str]:
        scenario = self.scenarios[name]
        lines = [f"{scenario.name}: {scenario.description}"]
        for scheme in SCHEMES:
            if scheme in scenario.detected_by:
                outcome = "detected"
            elif scheme in scenario.prevented_by:
                outcome = "prevented"
            else:
                outcome = "success"
            lines.append(f"  {scheme:8s} -> {outcome}")
        return lines

    def check(self, job: dict) -> List[str]:
        label = " ".join(job["argv"][2:])
        if job["kind"] == "run":
            expected = self.run_expectation(job["scheme"], job["input"])
            status_lines = [line for line in job["stderr"].splitlines() if line.startswith("[")]
            problems = []
            if job["code"] != expected["code"]:
                problems.append(f"{label}: exit {job['code']}, expected {expected['code']}")
            if job["stdout"] != expected["stdout"]:
                problems.append(f"{label}: output differs from the reference interpreter")
            if not status_lines or status_lines[-1] != expected["status_line"]:
                problems.append(f"{label}: status line differs from the reference interpreter")
            return problems
        expected_lines = self.attack_lines(job["scenario"])
        problems = []
        if job["code"] != 0:
            problems.append(f"{label}: exit {job['code']}, expected 0")
        if job["stdout"].splitlines() != expected_lines:
            problems.append(f"{label}: outcomes differ from the scenario's declared ones")
        return problems


# -- replay (traced run only) ---------------------------------------------------


def replay_main(job: dict) -> None:
    """Replay the public calls ``cmd_run``/``cmd_attack`` make, traced.

    Runs in a fresh process so decode and first-run costs match a real
    job; the import itself is timed separately with ``-X importtime``.
    Prints the spans and the figures derived from them as JSON.
    """
    from repro.attacks import build_scenarios
    from repro.core import DefenseConfig, protect
    from repro.frontend import compile_source
    from repro.hardware.cpu import CPU
    from repro.observability import enable_tracing

    tracer = enable_tracing("cli-cold-replay")
    phases: Dict[str, float] = {}
    steps: Dict[str, int] = {}
    decode_ms = 0.0
    with tracer.span("replay", "bench", argv=" ".join(job["argv"][2:])):
        with tracer.span("frontend", "bench"):
            if job["kind"] == "run":
                with open(job["argv"][3], "r", encoding="utf-8") as handle:
                    module = compile_source(handle.read(), name="module")
                plan = [(job["scheme"], None, [job["input"].encode("utf-8")])]
            else:
                scenario = build_scenarios()[job["scenario"]]
                module = scenario.compile()
                plan = [(scheme, scenario, list(scenario.benign_inputs)) for scheme in SCHEMES]
        for scheme, scenario, inputs in plan:
            with tracer.span("protect", "bench", scheme=scheme):
                protected = protect(module, config=DefenseConfig(scheme=scheme))
            attack = scenario.make_attack() if scenario is not None else None
            with tracer.span("cpu_init", "bench", scheme=scheme):
                cpu = CPU(protected.module, seed=_RUN_SEED, attack=attack)
            with tracer.span(f"execute:{scheme}", "bench"):
                result = cpu.run(inputs=inputs)
            # ``CPU(...)`` decodes the module; ``decode_seconds`` says how long.
            decode_ms += 1e3 * result.decode_seconds
            steps[scheme] = result.steps
            for phase, seconds in protected.timings.items():
                phases[phase] = phases.get(phase, 0.0) + 1e3 * seconds
    layers: Dict[str, float] = {"frontend": 0.0, "protect": 0.0, "cpu_init": 0.0}
    for event in tracer.events:
        name = event["name"].replace("execute:", "execute.")
        if event.get("cat") == "bench" and name != "replay":
            layers[name] = layers.get(name, 0.0) + event["dur"] / 1e6
    layers["cpu_init"] -= decode_ms
    layers["decode"] = decode_ms
    print(json.dumps({"layers": layers, "phases": phases, "steps": steps,
                      "events": tracer.events}))


def _replay(job: dict) -> dict:
    payload = json.dumps({key: job[key] for key in ("kind", "argv", "scheme", "input", "scenario")
                          if key in job})
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--replay", payload],
        capture_output=True,
        cwd=common.ROOT,
        env=common.child_env(),
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"replay failed: {proc.stderr.decode()[-300:]}")
    return json.loads(proc.stdout)


# -- the workload -------------------------------------------------------------------


def _layer_metrics(plain: List[dict], traced: List[dict], bare: List[dict], source: str):
    from repro.core import protect
    from repro.frontend import compile_source

    out: Dict[str, float] = {"process_start_ms": common.median(job["wall_ms"] for job in bare)}
    out.update(common.fold_importtime(job["stderr"] for job in traced))

    # One replay per distinct job of the first round.
    first_round = plain[: len(SCHEMES) + len(_scenario_names())]
    replays = [(job, _replay(job)) for job in first_round]

    def med(values):
        return common.median(values)

    out["frontend_ms"] = med(r["layers"]["frontend"] for _, r in replays)
    out["protect_ms"] = med(r["layers"]["protect"] for _, r in replays)
    out["cpu_init_ms"] = med(r["layers"]["cpu_init"] for _, r in replays)
    out["decode_ms"] = med(r["layers"]["decode"] for _, r in replays)
    for phase in ("verify", "mem2reg", "analysis", "remap"):
        out[f"{phase}_ms"] = med(r["phases"].get(phase, 0.0) for _, r in replays)
    for pass_name in common.PASSES:
        out[f"pass_ms.{pass_name}"] = med(
            r["phases"].get(f"pass:{pass_name}", 0.0) for _, r in replays
        )
    out["protect_unattributed_ms"] = med(
        r["layers"]["protect"] - sum(r["phases"].values()) for _, r in replays
    )
    for scheme in SCHEMES:
        out[f"execute_ms.{scheme}"] = med(
            r["layers"][f"execute.{scheme}"]
            for _, r in replays
            if f"execute.{scheme}" in r["layers"]
        )
    execute_ms = sum(
        v for _, r in replays for k, v in r["layers"].items() if k.startswith("execute.")
    )
    out["steps_per_s"] = 1e3 * sum(sum(r["steps"].values()) for _, r in replays) / execute_ms

    # Wall time per job that no layer above explains.
    attributed = {}
    for job, r in replays:
        attributed[tuple(job["argv"][2:3] + job["argv"][-3:])] = sum(r["layers"].values())
    # Against the traced jobs' walls: the import figure comes from
    # ``-X importtime``, which slows the import it measures.
    leftovers = []
    for job in traced:
        key = tuple(job["argv"][2:3] + job["argv"][-3:])
        if key in attributed:
            leftovers.append(
                job["wall_ms"] - out["process_start_ms"] - out["import_ms"] - attributed[key]
            )
    out["unattributed_ms"] = med(leftovers)
    out["trace_coverage_pct"] = 100.0 * (
        1.0 - out["unattributed_ms"] / med(job["wall_ms"] for job in traced)
    )
    out.update(dict.fromkeys(common.SERVE_LAYERS, 0.0))

    module = compile_source(source, name="module")
    pythia = protect(module, scheme="pythia")
    out["ir_instructions"] = module.instruction_count()
    out["pa_static.pythia"] = pythia.pa_static
    out["steps.pythia"] = next(r["steps"]["pythia"] for job, r in replays if job["kind"] == "run"
                               and job["scheme"] == "pythia")
    out["trace_overhead_pct"] = 100.0 * (_latency_p(traced, 0.5) / _latency_p(plain, 0.5) - 1.0)
    return out, [event for _, r in replays for event in r["events"]]


def _job_spans(jobs: List[dict]) -> List[dict]:
    """One span per measured job, on the benchmark process's track."""
    from repro.observability import Tracer

    tracer = Tracer("cli-cold")
    for job in jobs:
        tracer.add_complete(f"job:{job['kind']}", "bench", job["start_ns"],
                            int(job["wall_ms"] * 1e6), {"argv": " ".join(job["argv"][2:])})
    return tracer.events


def run(seed: int, seconds: float, traced: bool) -> dict:
    common.import_repro()
    source = _quickstart_source()
    source_path = os.path.join(common.ensure_out("cli"), "quickstart.c")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write(source)
    source_arg = os.path.relpath(source_path, common.ROOT)
    # Half the set-up probes go before the timed loop and half after, so
    # a slow spell of the machine at one end does not decide the median.
    if not traced:
        setup_samples = common.spawn_until_import_s(_SETUP_SAMPLES - _SETUP_SAMPLES // 2)
    plain, traced_jobs, bare = _measure(seed, seconds, source_arg, traced)
    if not traced:
        setup_samples += common.spawn_until_import_s(_SETUP_SAMPLES // 2)
    oracle = _Oracle(source)
    problems: List[str] = []
    failed = 0
    for job in plain + traced_jobs:
        job_problems = oracle.check(job)
        problems += job_problems
        failed += bool(job_problems)
    if traced:
        metrics, replay_events = _layer_metrics(plain, traced_jobs, bare, source)
        common.write_chrome_trace(
            os.path.join(common.OUT, "traces", f"cli-cold-seed{seed}.json"),
            _job_spans(plain + traced_jobs) + replay_events,
        )
    else:
        from repro.core import protect
        from repro.frontend import compile_source

        cycles = {}
        for job in plain:
            match = _CYCLES.search(job["stderr"]) if job["kind"] == "run" else None
            if match:
                cycles[(job["scheme"], job["input"])] = float(match.group(1))
        ratios = [cycles[("pythia", name)] / cycles[("vanilla", name)]
                  for scheme, name in cycles if scheme == "pythia"]
        module = compile_source(source, name="module")
        sizes = {
            scheme: protect(module, scheme=scheme).binary_bytes for scheme in ("vanilla", "pythia")
        }
        metrics = {
            "setup_s": common.median(setup_samples),
            "latency_p50_ms": _latency_p(plain, 0.5),
            "latency_p90_ms": _latency_p(plain, 0.9),
            "peak_rss_mb": max(job["rss_mb"] for job in plain),
            "pythia_cycle_overhead_pct": common.geomean_overhead_pct(ratios),
            "pythia_size_overhead_pct": 100.0 * (sizes["pythia"] / sizes["vanilla"] - 1.0),
        }
    return {"attempted": len(plain) + len(traced_jobs), "failed": failed,
            "problems": problems, "metrics": metrics}


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--replay":
        common.import_repro()
        replay_main(json.loads(sys.argv[2]))
    else:
        sys.exit("usage: cli_cold.py --replay JOB_JSON")
