"""The nginx-style workload (§6.3) and the serve-daemon request mix.

The paper drives nginx with a 12-thread workload generator creating 400
concurrent connections for 3 s / 30 s / 300 s and reports overhead as
transfer-rate degradation.  The simulated equivalent is an event-loop
server program (generated from :data:`~repro.workloads.profiles.NGINX_PROFILE`,
whose input channels are copy/move-dominated like nginx's ``ngx_*``
functions) executed for increasing request batches; transfer rate is
bytes written to the response stream per simulated cycle.

:func:`build_request_mix` scales the same workload up for
``python -m repro serve``: a seeded, fully deterministic stream of
compile/run/attack/profile protocol requests over a small set of
distinct nginx-shaped programs -- the shape a front-line daemon sees
(hot repeats of few modules, occasional cold variants), which is what
exercises the warm registry, the shard routing, and the single-flight
dedup.  ``python -m repro loadgen`` and
``benchmarks/bench_serve_latency.py`` both consume it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from ..core.config import SCHEMES
from .generator import GeneratedProgram, generate_program
from .profiles import NGINX_PROFILE

#: Request batches standing in for the paper's 3 s / 30 s / 300 s runs.
DURATION_BATCHES: Dict[str, int] = {"3s": 6, "30s": 18, "300s": 54}


@dataclass
class NginxRun:
    """One scheme's measurement at one duration."""

    scheme: str
    duration: str
    cycles: float
    bytes_out: int

    @property
    def transfer_rate(self) -> float:
        """Bytes served per cycle -- the paper's GB/s equivalent."""
        if self.cycles <= 0:
            return 0.0
        return self.bytes_out / self.cycles


def nginx_program(duration: str = "3s") -> GeneratedProgram:
    """The nginx-style program sized for ``duration``."""
    batches = DURATION_BATCHES[duration]
    profile = replace(NGINX_PROFILE, outer_iterations=batches)
    return generate_program(profile)


def run_nginx(
    durations: Sequence[str] = ("3s", "30s", "300s"),
    schemes: Sequence[str] = SCHEMES,
    seed: int = 2024,
) -> List[NginxRun]:
    """Serve the request batches under each scheme; returns all runs."""
    # Imported here, so the request-mix half of this module (loadgen)
    # never loads the measurement layer.
    from ..metrics.overhead import measure_module

    runs: List[NginxRun] = []
    for duration in durations:
        program = nginx_program(duration)
        measurement = measure_module(
            program.compile(),
            name=f"nginx/{duration}",
            inputs=program.inputs,
            schemes=schemes,
            seed=seed,
        )
        for scheme, run in measurement.runs.items():
            runs.append(
                NginxRun(
                    scheme=scheme,
                    duration=duration,
                    cycles=run.execution.cycles,
                    bytes_out=len(run.execution.output),
                )
            )
    return runs


# -- serve-daemon load generation ---------------------------------------------

#: Default op weights of the serve request mix: a front-line daemon
#: mostly executes, sometimes (re)compiles, occasionally replays an
#: attack or profiles a hot module.
DEFAULT_MIX: Dict[str, int] = {"run": 6, "compile": 3, "attack": 2, "profile": 1}

#: Attack scenarios cycled through the mix's ``attack`` requests.
MIX_SCENARIOS = ("privilege_escalation", "heap_overflow", "pac_reuse")


def parse_mix(text: str) -> Dict[str, int]:
    """Parse ``op=weight,op=weight`` (e.g. ``run=6,compile=3``)."""
    mix: Dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad mix component {part!r}; expected op=weight")
        op, _, weight = part.partition("=")
        op = op.strip()
        if op not in DEFAULT_MIX:
            raise ValueError(
                f"unknown mix op {op!r}; try: {', '.join(DEFAULT_MIX)}"
            )
        try:
            mix[op] = int(weight)
        except ValueError as exc:
            raise ValueError(f"bad mix weight {weight!r} for {op!r}") from exc
        if mix[op] < 0:
            raise ValueError(f"mix weight for {op!r} must be >= 0")
    if not any(mix.values()):
        raise ValueError("request mix has zero total weight")
    return mix


def _mix_programs(variants: int, duration: str) -> List[GeneratedProgram]:
    """``variants`` distinct nginx-shaped programs (distinct digests)."""
    batches = DURATION_BATCHES[duration]
    programs = []
    for index in range(variants):
        profile = replace(
            NGINX_PROFILE,
            name=f"nginx.v{index}",
            outer_iterations=batches,
            seed=NGINX_PROFILE.seed + index,
        )
        programs.append(generate_program(profile))
    return programs


def build_request_mix(
    count: int,
    seed: int = 2024,
    mix: Optional[Dict[str, int]] = None,
    duration: str = "3s",
    variants: int = 3,
    schemes: Sequence[str] = SCHEMES,
    interpreter: Optional[str] = "trace",
) -> List[Dict[str, Any]]:
    """A deterministic list of ``count`` serve-protocol request bodies.

    Ops are drawn with ``mix`` weights from a string-seeded RNG, each
    against one of ``variants`` distinct generated nginx programs and
    one of ``schemes`` -- so the same ``(count, seed, mix, duration,
    variants, schemes)`` always produces byte-identical request bodies
    (``id`` is assigned later, by whoever sends them).  The working set
    is deliberately small and hot: most requests repeat a
    (program, scheme) pair the daemon has already warmed, matching the
    few-modules/many-requests shape of real serving traffic.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if variants < 1:
        raise ValueError(f"variants must be >= 1, got {variants}")
    weights = dict(DEFAULT_MIX if mix is None else mix)
    ops = [op for op, weight in sorted(weights.items()) for _ in range(weight)]
    if not ops:
        raise ValueError("request mix has zero total weight")
    rng = random.Random(f"serve-mix:{seed}")
    programs = _mix_programs(variants, duration)
    requests: List[Dict[str, Any]] = []
    for _ in range(count):
        op = rng.choice(ops)
        scheme = rng.choice(list(schemes))
        if op == "attack":
            requests.append(
                {
                    "op": "attack",
                    "scenario": rng.choice(list(MIX_SCENARIOS)),
                    "scheme": scheme,
                    "seed": seed,
                }
            )
            continue
        program = rng.choice(programs)
        request: Dict[str, Any] = {
            "op": op,
            "source": program.source,
            "name": program.profile.name,
            "scheme": scheme,
            "seed": seed,
        }
        if op in ("run", "profile"):
            request["inputs"] = [data.decode("utf-8") for data in program.inputs]
            if interpreter is not None:
                request["interpreter"] = interpreter
        requests.append(request)
    return requests


def transfer_rate_overhead(runs: Sequence[NginxRun], scheme: str) -> float:
    """Average transfer-rate degradation of ``scheme`` vs vanilla."""
    by_duration: Dict[str, Dict[str, NginxRun]] = {}
    for run in runs:
        by_duration.setdefault(run.duration, {})[run.scheme] = run
    degradations = []
    for duration, by_scheme in by_duration.items():
        if "vanilla" not in by_scheme or scheme not in by_scheme:
            continue
        base = by_scheme["vanilla"].transfer_rate
        if base <= 0:
            continue
        degradations.append(1.0 - by_scheme[scheme].transfer_rate / base)
    if not degradations:
        return 0.0
    return sum(degradations) / len(degradations)
