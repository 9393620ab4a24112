"""Workload ``suite-batch``: never-seen generated programs, batch processes.

Jobs come in rounds: each round is a seeded order of all 15 SPEC
profiles, each with its own profile seed, so no two jobs share source
and every run weighs the profiles alike.  Each round runs in its own
fresh ``python`` process (this file run as a script), which imports the
package once and then pushes the round's programs through the public
calls ``measure_program`` makes: ``compile_source`` -> ``protect_all``
-> ``CPU(...).run`` per scheme, on the default tier and with no compile
cache.  Rounds follow one another until their programs add up to
``--seconds``.

A fresh process per round lets a run average over several processes,
as ``cli-cold`` does over its jobs, instead of letting what is fixed at
one process's start (its hash seed, its memory layout) weigh on every
program of the run.

After each round the process hands every protected module back as
text; the parent replays each one on the reference interpreter (the
oracle) outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common
from common import PASSES, SCHEMES, BenchError

#: ``protect_all`` timing phases summed over the scheme results.
_PHASES = ("verify", "mem2reg", "analysis", "remap")
#: Whole rounds every untraced run measures at least; the overhead
#: metrics cover exactly these, so they repeat for a seed.
_MIN_ROUNDS = 2
#: Profile seeds per profile, so rounds per run (see :func:`job_plan`).
SEED_POOL = 16
#: CPU seed of every run, as ``measure_program`` defaults it.
CPU_SEED = 2024


def job_plan(seed: int) -> List[List[Tuple[str, int]]]:
    """``SEED_POOL`` rounds of 15 ``(profile name, profile seed)`` pairs.

    Each profile's seeds come from a fixed pool of ``SEED_POOL``, drawn
    without replacement, so a run never repeats a program while the
    oracle's cache still pays off across runs.
    """
    from repro.workloads.profiles import SPEC_PROFILES

    rng = random.Random(f"suite-batch:{seed}")
    names = sorted(SPEC_PROFILES)
    pools = {name: rng.sample(range(SEED_POOL), SEED_POOL) for name in names}
    rounds = []
    for index in range(SEED_POOL):
        order = list(names)
        rng.shuffle(order)
        rounds.append(
            [(name, SPEC_PROFILES[name].seed * 1000 + pools[name][index]) for name in order]
        )
    return rounds


# -- the batch child ------------------------------------------------------------


def _measure_program(program, name: str, tracer) -> dict:
    """One program through the batch path, timed call by call."""
    from repro.core import protect_all
    from repro.frontend import compile_source
    from repro.hardware.cpu import CPU

    layers: Dict[str, float] = {}
    runs = {}
    t0 = time.perf_counter()
    with tracer.span("program", "bench", profile=name, seed=program.profile.seed):
        with tracer.span("frontend", "bench"):
            module = compile_source(program.source, name=name)
        t1 = time.perf_counter()
        with tracer.span("protect_all", "bench"):
            protections = protect_all(module, schemes=SCHEMES)
        t2 = time.perf_counter()
        cpu_init = 0.0
        for scheme in SCHEMES:
            c0 = time.perf_counter()
            with tracer.span("cpu_init", "bench", scheme=scheme):
                cpu = CPU(protections[scheme].module, seed=CPU_SEED)
            c1 = time.perf_counter()
            with tracer.span(f"execute:{scheme}", "bench"):
                runs[scheme] = cpu.run(inputs=list(program.inputs))
            cpu_init += c1 - c0
            layers[f"execute.{scheme}"] = 1e3 * (time.perf_counter() - c1)
    t3 = time.perf_counter()
    layers["frontend"] = 1e3 * (t1 - t0)
    layers["protect_all"] = 1e3 * (t2 - t1)
    # ``CPU(...)`` decodes the module; ``decode_seconds`` says how long.
    layers["decode"] = 1e3 * sum(r.decode_seconds for r in runs.values())
    layers["cpu_init"] = 1e3 * cpu_init - layers["decode"]
    layers["unattributed"] = 1e3 * (t3 - t0) - sum(layers.values())
    for phase in _PHASES:
        layers[phase] = 1e3 * sum(p.timings.get(phase, 0.0) for p in protections.values())
    for pass_name in PASSES:
        layers[f"pass.{pass_name}"] = 1e3 * sum(
            p.timings.get(f"pass:{pass_name}", 0.0) for p in protections.values()
        )
    attributed = sum(layers[p] for p in _PHASES) + sum(layers[f"pass.{p}"] for p in PASSES)
    layers["protect_unattributed"] = layers["protect_all"] - attributed
    return {
        "latency_ms": 1e3 * (t3 - t0),
        "layers": layers,
        "module": module,
        "protections": protections,
        "runs": runs,
    }


def child_main(seed: int, round_index: int, traced: bool, out_path: str) -> None:
    """One batch process: import, then one round of programs.

    Traced, each program runs twice back to back, untraced and traced in
    alternating order, so the tracing overhead is measured on the same
    programs and the machine's slow spells weigh on both alike.
    """
    import repro  # noqa: F401  (setup ends when this returns)

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    from dataclasses import replace

    from repro.ir.printer import print_module
    from repro.observability import NULL_TRACER, Tracer, install_tracer
    from repro.workloads.generator import generate_program
    from repro.workloads.profiles import SPEC_PROFILES

    tracers = [NULL_TRACER, Tracer("suite-batch")] if traced else [NULL_TRACER]
    out = open(out_path, "w", encoding="utf-8")
    round_jobs = job_plan(seed)[round_index]
    for position, (name, profile_seed) in enumerate(round_jobs):
        program = generate_program(replace(SPEC_PROFILES[name], seed=profile_seed))
        order = tracers if (round_index + position) % 2 == 0 else tracers[::-1]
        for tracer in order:
            install_tracer(tracer)
            measured = _measure_program(program, name, tracer)
            install_tracer(NULL_TRACER)
            record = {
                "profile": name,
                "profile_seed": profile_seed,
                "traced": tracer is not NULL_TRACER,
                "latency_ms": measured["latency_ms"],
                "layers": measured["layers"],
                "inputs": [data.decode("latin-1") for data in program.inputs],
                "ir_instructions": measured["module"].instruction_count(),
                "schemes": {
                    scheme: {
                        "module": print_module(measured["protections"][scheme].module),
                        "binary_bytes": measured["protections"][scheme].binary_bytes,
                        "pa_static": measured["protections"][scheme].pa_static,
                        "result": common.execution_digest(measured["runs"][scheme]),
                    }
                    for scheme in SCHEMES
                },
            }
            del measured
            # Stream each record out so the hand-off never piles up in
            # this process and inflates its peak RSS.
            out.write(json.dumps(record) + "\n")
    tail = {"peak_rss_mb": common.maxrss_mb_self()}
    if traced:
        tail["trace_events"] = tracers[1].events
    out.write(json.dumps(tail) + "\n")
    out.close()


# -- the parent side ------------------------------------------------------------


def _run_child(seed: int, round_index: int, traced: bool) -> dict:
    """One batch process for round ``round_index``; its records and start."""
    out_path = os.path.join(common.ensure_out("batch"), f"records-{os.getpid()}.jsonl")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", str(seed), str(round_index),
         "1" if traced else "0", out_path],
        stdout=subprocess.PIPE,
        cwd=common.ROOT,
        env=common.child_env(),
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        raise BenchError("batch process did not finish") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"batch process exited with {proc.returncode}")
    with open(out_path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    os.unlink(out_path)
    payload = records.pop()
    payload["programs"] = records
    payload["setup_s"] = setup_s
    return payload


def _run_batch(seed: int, seconds: float, min_rounds: int, traced: bool) -> dict:
    """Batch processes, one per round, until their programs fill ``seconds``.

    Only the programs' own time counts towards ``seconds``; process
    starts are ``setup_s``'s business.  Each process's ``spawn -> import
    repro`` is a ``setup_s`` sample and its ``ru_maxrss`` a peak-RSS one.
    """
    programs: List[dict] = []
    setup_samples: List[float] = []
    rss_samples: List[float] = []
    coverage = [0.0, 0.0]
    events: List[dict] = []
    measured_s = 0.0
    for round_index in range(SEED_POOL):
        if round_index >= min_rounds and measured_s >= seconds:
            break
        payload = _run_child(seed, round_index, traced)
        programs += payload["programs"]
        setup_samples.append(payload["setup_s"])
        rss_samples.append(payload["peak_rss_mb"])
        measured_s += sum(p["latency_ms"] for p in payload["programs"]) / 1e3
        if traced:
            events += payload["trace_events"]
            covered, total = _coverage(payload["trace_events"])
            coverage[0] += covered
            coverage[1] += total
    if measured_s < seconds:
        raise BenchError(f"ran out of programs after {SEED_POOL} rounds")
    return {
        "programs": programs,
        "setup_samples": setup_samples,
        "rss_samples": rss_samples,
        "trace_events": events,
        "trace_coverage_pct": 100.0 * coverage[0] / coverage[1] if traced else None,
    }


def _oracle(programs: List[dict]) -> List[str]:
    """Replay every protected module on the reference interpreter."""
    from repro.hardware.cpu import CPU
    from repro.ir.parser import parse_module

    cache = common.OracleCache()
    problems = []
    for program in programs:
        inputs = [item.encode("latin-1") for item in program["inputs"]]
        for scheme, entry in program["schemes"].items():
            label = f"{program['profile']}#{program['profile_seed']}/{scheme}"
            key = cache.key("batch", entry["module"], json.dumps(program["inputs"]), str(CPU_SEED))
            expected = cache.get(key)
            if expected is None:
                module = parse_module(entry["module"])
                cpu = CPU(module, seed=CPU_SEED, interpreter="reference")
                result = cpu.run(inputs=list(inputs))
                expected = {
                    "result": common.execution_digest(result),
                    "binary_bytes": module.instruction_count() * 4,
                }
                cache.put(key, expected)
            if entry["result"] != expected["result"]:
                problems.append(f"{label}: differs from the reference interpreter")
            if entry["binary_bytes"] != expected["binary_bytes"]:
                problems.append(f"{label}: binary_bytes changes over print/parse")
            if entry["result"]["status"] != "ok":
                problems.append(f"{label}: benign run ended {entry['result']['status']}")
    return problems


def _latency_p(programs: List[dict], q: float) -> float:
    """Per-program latency quantile over every program of the run."""
    return common.percentile([p["latency_ms"] for p in programs], q)


def _coverage(events: List[dict]) -> Tuple[float, float]:
    """How much of the ``program`` spans their child spans cover, and of how much."""
    spans = [e for e in events if e.get("ph") == "X"]
    covered = total = 0
    for root in (s for s in spans if s["name"] == "program"):
        end = root["ts"] + root["dur"]
        covered += common.union_length(
            (s["ts"], s["ts"] + s["dur"])
            for s in spans
            if s is not root
            and s["tid"] == root["tid"]
            and root["ts"] <= s["ts"]
            and s["ts"] + s["dur"] <= end
        )
        total += root["dur"]
    return covered, total


def _layer_metrics(programs: List[dict]) -> Dict[str, float]:
    def med(field):
        return common.median(p["layers"][field] for p in programs)

    out = {
        "frontend_ms": med("frontend"),
        "protect_ms": med("protect_all"),
        "cpu_init_ms": med("cpu_init"),
        "decode_ms": med("decode"),
        "unattributed_ms": med("unattributed"),
        "protect_unattributed_ms": med("protect_unattributed"),
    }
    for phase in _PHASES:
        out[f"{phase}_ms"] = med(phase)
    for pass_name in PASSES:
        out[f"pass_ms.{pass_name}"] = med(f"pass.{pass_name}")
    for scheme in SCHEMES:
        out[f"execute_ms.{scheme}"] = med(f"execute.{scheme}")
    steps = sum(p["schemes"][s]["result"]["steps"] for p in programs for s in SCHEMES)
    execute_s = sum(p["layers"][f"execute.{s}"] for p in programs for s in SCHEMES) / 1e3
    out["steps_per_s"] = steps / execute_s
    # Exact counts over the first round: one program per profile.
    first = programs[:15]
    out["ir_instructions"] = sum(p["ir_instructions"] for p in first)
    out["pa_static.pythia"] = sum(p["schemes"]["pythia"]["pa_static"] for p in first)
    out["steps.pythia"] = sum(p["schemes"]["pythia"]["result"]["steps"] for p in first)
    return out


def run(seed: int, seconds: float, traced: bool) -> dict:
    """One measurement; returns ``{"attempted", "failed", "problems", "metrics"}``."""
    common.import_repro()
    payload = _run_batch(seed, seconds, 1 if traced else _MIN_ROUNDS, traced)
    problems = _oracle(payload["programs"])
    programs = [p for p in payload["programs"] if p["traced"] == traced]
    metrics: Dict[str, float] = {}
    if traced:
        plain = [p for p in payload["programs"] if not p["traced"]]
        metrics.update(_layer_metrics(programs))
        metrics["trace_overhead_pct"] = 100.0 * (
            _latency_p(programs, 0.5) / _latency_p(plain, 0.5) - 1.0
        )
        metrics["trace_coverage_pct"] = payload["trace_coverage_pct"]
        metrics.update(dict.fromkeys(common.SERVE_LAYERS, 0.0))
        metrics["process_start_ms"] = common.process_start_ms(9)
        metrics.update(common.import_breakdown([["-c", "import repro"]] * 3))
        common.write_chrome_trace(
            os.path.join(common.OUT, "traces", f"suite-batch-seed{seed}.json"),
            payload["trace_events"],
        )
    else:
        counted = programs[: 15 * _MIN_ROUNDS]
        metrics.update(
            {
                "setup_s": common.median(payload["setup_samples"]),
                "latency_p50_ms": _latency_p(programs, 0.5),
                "latency_p90_ms": _latency_p(programs, 0.9),
                "peak_rss_mb": common.median(payload["rss_samples"]),
                "pythia_cycle_overhead_pct": common.geomean_overhead_pct(
                    [
                        p["schemes"]["pythia"]["result"]["cycles"]
                        / p["schemes"]["vanilla"]["result"]["cycles"]
                        for p in counted
                    ]
                ),
                "pythia_size_overhead_pct": common.geomean_overhead_pct(
                    [
                        p["schemes"]["pythia"]["binary_bytes"]
                        / p["schemes"]["vanilla"]["binary_bytes"]
                        for p in counted
                    ]
                ),
            }
        )
    measured = payload["programs"]
    failed = sum(
        1 for p in measured if any(e["result"]["status"] != "ok" for e in p["schemes"].values())
    )
    return {"attempted": len(measured), "failed": failed, "problems": problems, "metrics": metrics}


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--child":
        child_main(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5])
    else:
        sys.exit("usage: suite_batch.py --child SEED ROUND TRACED OUT")
