"""Sampling-free profiler view over the interpreter tiers.

The simulated CPU already retires exact step and cycle counts, so
profiling here is *attribution*, not statistical sampling: the CPU,
when given an :class:`ExecutionProfiler`, reports

- per-function **self and inclusive** steps/cycles (deltas of the
  architectural counters read at call entry/exit -- one pair of reads
  per dynamic call, never per instruction);
- per-basic-block steps/cycles under the trace tier, which compiles a
  profiled run region-free, so its driver dispatches one generated
  function per block execution and attributes whole blocks in one
  batched delta (the decoded and reference tiers run blocks inside one
  loop and attribute at function granularity only);
- trap events (which defense fired, where the run ended).

Attribution only *reads* the counters the interpreter maintains, so a
profiled run retires bit-identical cycles, steps, and opcode counts to
an unprofiled one -- the golden observability tests pin that down.
Opcode histograms and PAC/DFI dynamic counts come straight from the
:class:`~repro.hardware.cpu.ExecutionResult`.

Recursion caveat: inclusive numbers count a frame's full subtree, so a
recursive function's inclusive total can exceed the program total; self
numbers always add up exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Schema tag for serialized profile reports.
PROFILE_SCHEMA = "repro-profile-v1"


class ExecutionProfiler:
    """Collects per-function / per-block attribution for one run.

    Per-block records come from the trace tier only: a CPU given a
    profiler compiles its module region-free, so each block is one
    dispatch of the block driver.
    """

    __slots__ = ("functions", "blocks", "traps", "_stack")

    def __init__(self):
        #: name -> [calls, self_steps, self_cycles, incl_steps, incl_cycles]
        self.functions: Dict[str, List[float]] = {}
        #: "function:block" -> [executions, steps, cycles]
        self.blocks: Dict[str, List[float]] = {}
        self.traps: List[Dict[str, str]] = []
        #: open frames: [name, steps_at_entry, cycles_at_entry,
        #:               child_steps, child_cycles]
        self._stack: List[List[float]] = []

    # -- hooks called by the CPU -------------------------------------------

    def enter(self, name: str, steps: int, cycles: float) -> None:
        self._stack.append([name, steps, cycles, 0, 0.0])

    def exit(self, steps: int, cycles: float) -> None:
        name, steps0, cycles0, child_steps, child_cycles = self._stack.pop()
        incl_steps = steps - steps0
        incl_cycles = cycles - cycles0
        record = self.functions.get(name)
        if record is None:
            record = self.functions[name] = [0, 0, 0.0, 0, 0.0]
        record[0] += 1
        record[1] += incl_steps - child_steps
        record[2] += incl_cycles - child_cycles
        record[3] += incl_steps
        record[4] += incl_cycles
        if self._stack:
            parent = self._stack[-1]
            parent[3] += incl_steps
            parent[4] += incl_cycles

    def block(self, label: str, steps: int, cycles: float) -> None:
        record = self.blocks.get(label)
        if record is None:
            self.blocks[label] = [1, steps, cycles]
        else:
            record[0] += 1
            record[1] += steps
            record[2] += cycles

    def trap(self, status: str, detail: str) -> None:
        self.traps.append({"status": status, "detail": detail})

    # -- exports -----------------------------------------------------------

    def block_counts(self) -> Dict[str, float]:
        """Full ``"function:block" -> executions`` map, untruncated.

        This is what the trace tier's region selection consumes
        (``CPU(..., trace_profile=...)`` /
        :func:`repro.hardware.tracec.trace_compile`): the ``blocks``
        list in :meth:`report` keeps only the top-N and so must not be
        used for compilation decisions.
        """
        return {label: record[0] for label, record in self.blocks.items()}

    # -- reporting ---------------------------------------------------------

    def report(self, result: Optional[Any] = None, top: int = 10) -> Dict[str, Any]:
        """JSON-able digest: hottest functions/blocks plus run counters."""
        functions = sorted(
            self.functions.items(), key=lambda item: -item[1][2]
        )[:top]
        blocks = sorted(self.blocks.items(), key=lambda item: -item[1][2])[:top]
        out: Dict[str, Any] = {
            "schema": PROFILE_SCHEMA,
            "functions": [
                {
                    "name": name,
                    "calls": record[0],
                    "self_steps": record[1],
                    "self_cycles": record[2],
                    "inclusive_steps": record[3],
                    "inclusive_cycles": record[4],
                }
                for name, record in functions
            ],
            "blocks": [
                {
                    "label": label,
                    "executions": record[0],
                    "steps": record[1],
                    "cycles": record[2],
                }
                for label, record in blocks
            ],
            "traps": list(self.traps),
            # Untruncated execution counts, so a saved report can feed
            # trace-tier region selection (--profile-out / --profile-in).
            "block_counts": self.block_counts(),
        }
        if result is not None:
            opcodes = sorted(
                result.opcode_counts.items(), key=lambda item: -item[1]
            )[:top]
            out["opcodes"] = [
                {"opcode": name, "count": count} for name, count in opcodes
            ]
            out["totals"] = {
                "steps": result.steps,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "ipc": result.ipc,
                "pac_sign": result.pac_sign_count,
                "pac_auth": result.pac_auth_count,
                "dfi_chkdef": result.opcode_counts.get("dfi.chkdef", 0),
                "status": result.status,
                "interpreter": result.interpreter,
            }
        return out


def hot_block_counts(report: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """Recover the execution-count map from a serialized profile report.

    Prefers the untruncated ``block_counts`` key; reports written before
    it existed fall back to the truncated ``blocks`` list (still usable
    for region selection -- the dropped tail is cold by construction).
    Returns ``None`` when the report carries no block attribution at
    all, e.g. one taken under the decoded or reference tier.
    """
    counts = report.get("block_counts")
    if isinstance(counts, dict) and counts:
        return {
            str(label): float(count)
            for label, count in counts.items()
            if isinstance(count, (int, float))
        }
    blocks = report.get("blocks")
    if isinstance(blocks, list) and blocks:
        out: Dict[str, float] = {}
        for entry in blocks:
            if not isinstance(entry, dict):
                continue
            label = entry.get("label")
            executions = entry.get("executions")
            if isinstance(label, str) and isinstance(executions, (int, float)):
                out[label] = float(executions)
        if out:
            return out
    return None


def _fraction(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "    -"


def format_report(report: Dict[str, Any]) -> List[str]:
    """Render a profile report as the aligned text table the CLI prints."""
    lines: List[str] = []
    totals = report.get("totals") or {}
    total_cycles = float(totals.get("cycles", 0.0))
    total_steps = int(totals.get("steps", 0))
    if totals:
        lines.append(
            f"run: status={totals['status']} interpreter={totals['interpreter']} "
            f"steps={total_steps} cycles={total_cycles:.0f} "
            f"ipc={totals['ipc']:.2f} pa={totals['pac_sign'] + totals['pac_auth']} "
            f"dfi={totals['dfi_chkdef']}"
        )
    functions = report.get("functions") or []
    if functions:
        lines.append("hot functions (by self cycles):")
        lines.append(
            f"  {'function':24s} {'calls':>8s} {'self-steps':>11s} "
            f"{'self-cycles':>12s} {'cyc%':>6s} {'incl-cycles':>12s}"
        )
        for entry in functions:
            lines.append(
                f"  {entry['name']:24s} {entry['calls']:8d} "
                f"{entry['self_steps']:11d} {entry['self_cycles']:12.0f} "
                f"{_fraction(entry['self_cycles'], total_cycles):>6s} "
                f"{entry['inclusive_cycles']:12.0f}"
            )
    blocks = report.get("blocks") or []
    if blocks:
        lines.append("hot blocks (by cycles):")
        lines.append(
            f"  {'block':32s} {'execs':>8s} {'steps':>11s} "
            f"{'cycles':>12s} {'cyc%':>6s}"
        )
        for entry in blocks:
            lines.append(
                f"  {entry['label']:32s} {entry['executions']:8d} "
                f"{entry['steps']:11d} {entry['cycles']:12.0f} "
                f"{_fraction(entry['cycles'], total_cycles):>6s}"
            )
    opcodes = report.get("opcodes") or []
    if opcodes:
        lines.append("opcode histogram (top):")
        for entry in opcodes:
            lines.append(
                f"  {entry['opcode']:16s} {entry['count']:12d} "
                f"{_fraction(entry['count'], total_steps):>6s}"
            )
    for trap in report.get("traps") or []:
        lines.append(f"trap: {trap['status']}: {trap['detail']}")
    return lines
