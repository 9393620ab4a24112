"""Append-only performance trajectory files (``BENCH_*.json``).

Each benchmark run appends one entry so performance can be tracked
across commits -- ``BENCH_interp.json`` carries interpreter throughput,
``BENCH_serve.json`` carries the serve daemon's request latency.  A
file is a single JSON object::

    {"entries": [{"label": ..., "steps_per_second": ..., ...}, ...]}

Entries are free-form dicts; :func:`append_entry` only enforces the
envelope so unrelated tools (CI, plots) can parse the file blindly.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def load_entries(path: str) -> List[Dict[str, Any]]:
    """Read the trajectory entries, tolerating a missing file."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' must be a list")
    return entries


def safe_load_entries(path: str) -> Optional[List[Dict[str, Any]]]:
    """Read the trajectory entries, tolerating a corrupt file too.

    Returns ``None`` when the file exists but cannot be parsed (broken
    JSON, wrong envelope shape, unreadable).  :func:`load_entries` stays
    strict on purpose: the *append* path must crash rather than quietly
    rewrite a corrupt trajectory with only the new entry.
    """
    try:
        return load_entries(path)
    except (OSError, ValueError):
        return None


def append_entry(path: str, entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Append ``entry`` to the trajectory file, returning all entries."""
    entries = load_entries(path)
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"entries": entries}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entries


def trace_throughput(entry: Dict[str, Any]) -> Optional[float]:
    """Geomean trace-tier steps/s across an entry's schemes.

    Returns ``None`` for entries without trace-tier data (written
    before the trace interpreter existed, or by other benchmarks).
    """
    schemes = entry.get("schemes")
    if not isinstance(schemes, dict):
        return None
    rates = [
        scheme.get("trace_steps_per_second")
        for scheme in schemes.values()
        if isinstance(scheme, dict)
    ]
    rates = [rate for rate in rates if isinstance(rate, (int, float)) and rate > 0]
    if not rates:
        return None
    return math.exp(sum(math.log(rate) for rate in rates) / len(rates))


def _against_last(
    entries: Sequence[Dict[str, Any]],
    entry: Dict[str, Any],
    extract: Callable[[Dict[str, Any]], Optional[float]],
) -> Optional[Tuple[float, float]]:
    """``(current, baseline)``: ``entry``'s value and that of the last
    prior entry carrying the field, or ``None`` when either is missing.
    """
    current = extract(entry)
    if current is None:
        return None
    for previous in reversed(entries):
        baseline = extract(previous)
        if baseline is not None:
            return current, baseline
    return None


def _gate_file(
    path: str,
    entry: Dict[str, Any],
    extract: Callable[[Dict[str, Any]], Optional[float]],
    check: Callable[..., Optional[str]],
    tolerance: float,
    gate: str,
    fields: str,
) -> Tuple[Optional[str], Optional[str]]:
    """Run ``check`` against the trajectory at ``path``, never crashing.

    Returns ``(failure, skip_note)``; the check is skipped, with a
    reason, when the file is missing, empty or corrupt, or when no
    entry on either side carries ``extract``'s field.
    """
    skip = f"no baseline, skipping {gate}-regression check"
    entries = safe_load_entries(path)
    if entries is None:
        return None, f"{skip} ({path}: unreadable or corrupt)"
    if not entries:
        return None, f"{skip} ({path}: missing or empty)"
    if extract(entry) is None:
        return None, f"{skip} (new entry lacks {fields} fields)"
    if all(extract(previous) is None for previous in entries):
        return None, f"{skip} ({path}: no prior entry has {fields} fields)"
    return check(entries, entry, tolerance), None


def check_block_regression(
    entries: Sequence[Dict[str, Any]],
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Optional[str]:
    """Compare ``entry``'s trace-tier throughput to the trajectory.

    Returns a human-readable failure message when the new entry's
    geomean steps/s falls more than ``tolerance`` below the most recent
    prior entry carrying trace-tier data; ``None`` means no regression
    (or nothing to compare against, e.g. entries written before the
    trace tier existed).
    """
    pair = _against_last(entries, entry, trace_throughput)
    if pair is None:
        return None
    current, baseline = pair
    if current < baseline * (1.0 - tolerance):
        return (
            f"trace tier regressed: {current:,.0f} steps/s vs "
            f"{baseline:,.0f} baseline ({current / baseline - 1.0:+.1%}, "
            f"tolerance -{tolerance:.0%})"
        )
    return None


def check_block_regression_file(
    path: str,
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Tuple[Optional[str], Optional[str]]:
    """Gate ``entry`` against the trajectory at ``path``, never crashing.

    Returns ``(failure, skip_note)``.  ``failure`` is the regression
    message from :func:`check_block_regression` (``None`` when the
    check passed).  When no comparison is possible -- the file is
    missing, empty, corrupt, or no entry on either side carries
    trace-tier fields -- the check is *skipped* and ``skip_note`` says
    why; a fresh checkout must not fail its first benchmark run over an
    absent baseline.
    """
    return _gate_file(
        path, entry, trace_throughput, check_block_regression, tolerance,
        "block", "gated-tier",
    )


# -- serve-daemon latency gate (BENCH_serve.json) ------------------------------


def serve_p99(entry: Dict[str, Any]) -> Optional[float]:
    """The warm p99 request latency (ms) of one serve-trajectory entry.

    Returns ``None`` for entries without serve data (other benchmarks
    sharing the envelope, or pre-daemon history).
    """
    serve = entry.get("serve")
    if not isinstance(serve, dict):
        return None
    p99 = serve.get("p99_ms")
    if isinstance(p99, (int, float)) and p99 > 0:
        return float(p99)
    return None


def check_serve_regression(
    entries: Sequence[Dict[str, Any]],
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Optional[str]:
    """Compare ``entry``'s serve p99 latency to the trajectory.

    Latency gates in the opposite direction from throughput: a failure
    message is returned when the new entry's p99 rises more than
    ``tolerance`` *above* the most recent prior entry carrying serve
    data.  ``None`` means no regression (or nothing to compare).
    """
    pair = _against_last(entries, entry, serve_p99)
    if pair is None:
        return None
    current, baseline = pair
    if current > baseline * (1.0 + tolerance):
        return (
            f"serve p99 latency regressed: {current:.2f}ms vs "
            f"{baseline:.2f}ms baseline ({current / baseline - 1.0:+.1%}, "
            f"tolerance +{tolerance:.0%})"
        )
    return None


def check_serve_regression_file(
    path: str,
    entry: Dict[str, Any],
    tolerance: float = 0.10,
) -> Tuple[Optional[str], Optional[str]]:
    """Gate ``entry`` against the serve trajectory, never crashing.

    Same contract as :func:`check_block_regression_file`: returns
    ``(failure, skip_note)``, skipping (with a reason) when the file is
    missing, corrupt, or no entry on either side carries serve fields.
    """
    return _gate_file(
        path, entry, serve_p99, check_serve_regression, tolerance, "serve", "serve"
    )
