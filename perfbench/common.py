"""Shared helpers for the benchmark workloads.

Everything here is stdlib-only until :func:`import_repro` is called, so
``run.py`` can refuse a tree without the package before it imports it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (``perfbench/`` lives directly under it).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of every run: traces, oracle cache, sockets.  Listed
#: in the root ``.gitignore``.
OUT = os.path.join(ROOT, ".bench_out")

#: The four schemes, in the order the package defines them.
SCHEMES = ("vanilla", "cpa", "pythia", "dfi")
#: Passes ``protect_all`` reports in ``timings`` under default flags.
PASSES = ("cpa", "pythia-stack", "pythia-heap", "dfi")
#: Worker ops of the serve protocol that the request mix sends.
SERVE_OPS = ("run", "compile", "attack", "profile")
#: ``repro.*`` subpackages ``python -m repro`` imports, for the
#: per-subpackage import lines.
SUBPACKAGES = (
    "analysis",
    "attacks",
    "cli",
    "core",
    "frontend",
    "hardware",
    "ir",
    "metrics",
    "observability",
    "perf",
    "robustness",
    "transforms",
    "workloads",
)


#: Per-layer metrics of the serve path.  They read 0 on the workloads
#: that never reach a daemon, so every traced run reports every layer.
SERVE_LAYERS = tuple(
    [f"client_rtt_ms.{op}.{q}" for op in SERVE_OPS for q in ("p50", "p99")]
    + ["serve_frontend_ms", "serve_worker_ms", "queue_transport_ms", "socket_ms",
       "worker_busy_share", "registry_hit_ratio", "coalesced_ratio", "worker_restarts",
       "generator_late_p99_ms", "backlog_end", "registry_lookup_us", "json_encode_us",
       "json_decode_us"]
    + [f"serve_execute_ms.{op}" for op in SERVE_OPS]
)


class BenchError(Exception):
    """A run that cannot produce a valid result (not a slow one)."""


def have_package() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_repro() -> None:
    """Make the checkout's ``src/`` importable in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """The environment every spawned ``python`` gets.

    ``src/`` is on the path and ``REPRO_INTERPRETER`` is removed, so
    children run the package's default tier exactly as a user would.
    """
    env = dict(os.environ)
    env.pop("REPRO_INTERPRETER", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def ensure_out(*parts: str) -> str:
    path = os.path.join(OUT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    items = sorted(values)
    if not items:
        raise BenchError("percentile of no samples")
    position = q * (len(items) - 1)
    low = int(position)
    high = min(low + 1, len(items) - 1)
    return items[low] + (items[high] - items[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    items = list(values)
    if not items:
        raise BenchError("median of no samples")
    return statistics.median(items)


def geomean_overhead_pct(ratios: Sequence[float]) -> float:
    """Geometric mean of ``ratios`` minus one, in percent."""
    if not ratios or min(ratios) <= 0:
        raise BenchError(f"cannot take the geometric mean of {ratios}")
    return 100.0 * (math.exp(sum(math.log(ratio) for ratio in ratios) / len(ratios)) - 1.0)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# -- processes ----------------------------------------------------------------

#: Child that reports the moment ``import repro`` returns on stdout.
_IMPORT_PROBE = "import sys; import repro; sys.stdout.write('ready'); sys.stdout.flush()"


def spawn_until_import_s(samples: int) -> List[float]:
    """Seconds from spawning ``python`` until ``import repro`` returns.

    The clock stops when the child writes its ready marker, so
    interpreter teardown is not counted.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _IMPORT_PROBE],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
        )
        marker = proc.stdout.read(5)
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or marker != b"ready":
            raise BenchError("import probe failed")
    return times


def process_start_ms(samples: int) -> float:
    """Median wall time of ``python -c pass``: the floor of any job."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=child_env())
        times.append(time.perf_counter() - start)
    return 1e3 * median(times)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``import_ms`` plus the cumulative ms of each ``repro.<sub>`` package.

    Values come from ``python -X importtime``.  ``import_ms`` sums the
    top-level ``repro*`` entries (``repro`` and, under ``-m repro``,
    ``repro.cli``).  A subpackage's figure includes the subpackages it
    imports first, so those lines nest rather than add up.
    """
    found: Dict[str, float] = {"import_ms": 0.0}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match or not match.group(4).startswith("repro"):
            continue
        name, ms = match.group(4), int(match.group(2)) / 1e3
        if len(match.group(3)) <= 1:
            found["import_ms"] += ms
        if name.count(".") == 1:
            found.setdefault(f"import.{name.split('.')[1]}_ms", ms)
    return found


def fold_importtime(stderr_texts: Iterable[str]) -> Dict[str, float]:
    """Median ``-X importtime`` figures over the given stderr texts.

    A subpackage the commands never import reads 0.
    """
    per_name: Dict[str, List[float]] = {}
    for text in stderr_texts:
        for name, ms in parse_importtime(text).items():
            per_name.setdefault(name, []).append(ms)
    if not per_name.get("import_ms") or median(per_name["import_ms"]) <= 0:
        raise BenchError("-X importtime reported no repro import")
    out = {"import_ms": median(per_name["import_ms"])}
    for sub in SUBPACKAGES:
        values = per_name.get(f"import.{sub}_ms")
        out[f"import.{sub}_ms"] = median(values) if values else 0.0
    return out


def import_breakdown(argv_runs: Sequence[Sequence[str]]) -> Dict[str, float]:
    """:func:`fold_importtime` over fresh runs of the given commands.

    Each entry of ``argv_runs`` is the argument list after the
    interpreter (e.g. ``["-m", "repro", "run", ...]``).
    """
    return fold_importtime(
        subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        ).stderr
        for argv in argv_runs
    )


def maxrss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- oracle cache -------------------------------------------------------------


class OracleCache:
    """Reference-interpreter results keyed by everything they depend on.

    The key covers the printed protected module, the inputs, the CPU
    seed, any attack, and the package's source (the reference
    interpreter and everything it calls), so a hit is exactly the result
    a fresh reference run would give.
    """

    def __init__(self):
        self.root = ensure_out("oracle")
        self.salt = _package_source_digest()

    def key(self, *parts: str) -> str:
        digest = hashlib.sha256(self.salt.encode())
        for part in parts:
            digest.update(b"\0")
            digest.update(part.encode("utf-8", "surrogateescape"))
        return digest.hexdigest()

    def get(self, key: str) -> Optional[dict]:
        path = os.path.join(self.root, key[:2], key + ".json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                value = json.load(handle)
        except (OSError, ValueError):
            return None
        return value

    def put(self, key: str, value: dict) -> None:
        directory = os.path.join(self.root, key[:2])
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, key + ".json")
        temp = f"{path}.{os.getpid()}.tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(value, handle)
        os.replace(temp, path)


def _package_source_digest() -> str:
    """Digest of every ``.py`` file of the package."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, subdirs, files in os.walk(package):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def execution_digest(result) -> dict:
    """The fields of an ``ExecutionResult`` every tier must agree on."""
    return {
        "status": result.status,
        "return_value": result.return_value,
        "output": result.output.decode("latin-1"),
        "cycles": result.cycles,
        "steps": result.steps,
    }


# -- traces -------------------------------------------------------------------


def write_chrome_trace(path: str, events: list, process_names: Optional[dict] = None) -> None:
    """Write spans in the package's ``repro-trace-v1`` format."""
    from repro.observability import write_trace

    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_trace(path, events, process_names)
