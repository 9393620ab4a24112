"""The simulated CPU: an IR interpreter with a timing model and traps.

The CPU executes one module's IR against the byte-addressable
:class:`~repro.hardware.memory.Memory`.  It implements the semantics the
defense passes rely on:

- PAC sign/auth with trap-on-mismatch (:class:`PacAuthError`);
- ``sec.assert`` canary checks (:class:`CanaryTrap`);
- the DFI runtime definitions table (:class:`DfiTrap`);
- flat segments, so buffer overflows corrupt silently until a check fires.

Executions are deterministic given the seed, and every run accumulates
the counters the paper's evaluation reports: cycles, IPC, dynamic PA
instruction counts, input-channel invocations, allocator statistics.

Three interpreter backends execute the same semantics:

- ``decoded`` (the default): walks blocks pre-compiled by
  :mod:`repro.hardware.decoder` into bound handler closures -- operand
  kinds resolved once, constants folded, GEP strides pre-multiplied.
- ``reference``: the original ``isinstance``-dispatch interpreter,
  kept as the semantic oracle (see the golden-equivalence test suite).
- ``trace``: runs code generated by :mod:`repro.hardware.tracec` --
  hot regions fused into single Python functions, every other block
  compiled on its own -- and falls back to ``decoded`` whenever its
  batched accounting cannot be trusted.

Select with ``CPU(..., interpreter="reference")`` or the
``REPRO_INTERPRETER`` environment variable.

Passing ``profiler=ExecutionProfiler()`` attributes retired steps and
cycles per function (all tiers; counter deltas read once per dynamic
call) and per basic block (trace tier only, one delta per block
execution: a profiled trace run compiles region-free, so every block is
its own unit).  The ``profiler is None`` check sits in :meth:`_call`
and in the block-driver selection -- never inside a per-instruction
loop -- so an unprofiled run keeps the trace tier's throughput.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from ..ir.function import BasicBlock, Function
from ..ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CondBranch,
    DfiChkDef,
    DfiSetDef,
    GetElementPtr,
    ICmp,
    Instruction,
    Jump,
    Load,
    PacAuth,
    PacSign,
    Phi,
    Ret,
    SecAssert,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import ArrayType, I64, IntType, PointerType, StructType
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from .allocator import OutOfMemoryError, SectionedHeap
from .cache import CacheModel
from .decoder import (
    BLOCK_RET,
    DecodedBlock,
    _DECODED_MODULES,
    _fingerprint as _module_fingerprint,
    compute_global_layout,
    decode_module,
)
from .errors import (
    DFI_EXTERNAL_WRITER,
    CanaryTrap,
    DfiTrap,
    NullPointerTrap,
    ProgramExit,
    SectionTrap,
    SecurityTrap,
    StepLimitExceeded,
    UnknownExternalError,
    UnknownInterpreterError,
)
from .libc import LIBRARY
from .memory import GLOBAL_BASE, Memory, MemoryFault, STACK_BASE
from .pac import PacAuthError, PointerAuthentication
from .rng import CanaryRng
from .timing import DEFAULT_COSTS, TimingModel

_MASK64 = (1 << 64) - 1

#: Interpreter backends accepted by :class:`CPU`.
INTERPRETERS = ("decoded", "reference", "trace")

#: Shared infinite default-writer iterator for bulk shadow lookups
#: (``map`` stops at the shortest input, so sharing one is safe).
_EXTERNAL = repeat(DFI_EXTERNAL_WRITER)


def _module_meta(module: Module) -> tuple:
    """Per-module interpreter metadata, cached on the module.

    ``(fingerprint, dfi_active, frame_plans)`` -- whether any function
    carries DFI instrumentation (a whole-module instruction scan), and
    the shared per-function frame-layout plan cache, both of which are
    pure functions of the IR and therefore safe to share across every
    CPU instance running the module.  Guarded by the same structural
    fingerprint as the decode cache and dropped by the same
    invalidation hook (``_cpu_meta`` is in ``_CACHE_ATTRS``).
    """
    fingerprint = _module_fingerprint(module)
    cached = getattr(module, "_cpu_meta", None)
    if cached is not None and cached[0] == fingerprint:
        return cached
    dfi_active = any(
        isinstance(inst, (DfiSetDef, DfiChkDef))
        for function in module.defined_functions()
        for inst in function.instructions()
    )
    meta = (fingerprint, dfi_active, {})
    setattr(module, "_cpu_meta", meta)
    _DECODED_MODULES.add(module)
    return meta


class DfiShadow:
    """The DFI runtime definitions table, tracked at byte granularity.

    Backed by a plain dict but updated and checked with bulk range
    operations (``dict.fromkeys``/``update`` and a set-containment fast
    path) instead of per-byte Python loops -- ``memcpy``-style external
    writes touch hundreds of bytes per call.
    """

    __slots__ = ("_map", "fault_hook")

    def __init__(self):
        self._map: Dict[int, int] = {}
        #: optional fault injector (see :mod:`repro.robustness.faults`);
        #: when set, instrumented ``dfi.setdef`` writer ids pass through
        #: ``fault_hook.on_dfi_setdef(address, size, def_id)`` -- the
        #: external-writer id is exempt so library writes stay benign
        self.fault_hook = None

    def set_range(self, address: int, size: int, def_id: int) -> None:
        """Record ``def_id`` as the last writer of ``size`` bytes."""
        if self.fault_hook is not None and def_id != DFI_EXTERNAL_WRITER:
            def_id = self.fault_hook.on_dfi_setdef(address, size, def_id)
        shadow = self._map
        if size == 1:
            shadow[address] = def_id
        elif size == 8:
            # Unrolled stores beat the iterator-pair bulk update ~3x at
            # pointer width, the dominant instrumented access size.
            shadow[address] = def_id
            shadow[address + 1] = def_id
            shadow[address + 2] = def_id
            shadow[address + 3] = def_id
            shadow[address + 4] = def_id
            shadow[address + 5] = def_id
            shadow[address + 6] = def_id
            shadow[address + 7] = def_id
        else:
            shadow.update(zip(range(address, address + size), repeat(def_id)))

    def check_range(
        self, address: int, size: int, allowed: frozenset
    ) -> Optional[Tuple[int, int]]:
        """First ``(address, writer)`` violating ``allowed``, or ``None``."""
        get = self._map.get
        external = DFI_EXTERNAL_WRITER
        if size == 1:
            writer = get(address, external)
            return None if writer in allowed else (address, writer)
        # Passing checks (the overwhelmingly common case) resolve without
        # a Python-level loop: pointer-width checks unroll into straight
        # membership tests (~2x faster than building the writer set),
        # other sizes collect the distinct writers in one C-level sweep.
        # Only a failing check pays the per-byte scan to locate the
        # first violating address.
        if size == 8:
            if (
                get(address, external) in allowed
                and get(address + 1, external) in allowed
                and get(address + 2, external) in allowed
                and get(address + 3, external) in allowed
                and get(address + 4, external) in allowed
                and get(address + 5, external) in allowed
                and get(address + 6, external) in allowed
                and get(address + 7, external) in allowed
            ):
                return None
        elif set(map(get, range(address, address + size), _EXTERNAL)) <= allowed:
            return None
        for byte_address in range(address, address + size):
            writer = get(byte_address, DFI_EXTERNAL_WRITER)
            if writer not in allowed:
                return byte_address, writer
        return None

    def check_batch(
        self, specs: tuple, frame: Dict[Value, int]
    ) -> Optional[Tuple[int, int, int, frozenset]]:
        """Check a run of same-block ``dfi.chkdef`` ops in one call.

        ``specs`` is a tuple of ``(is_const, pointer, size, allowed)``
        entries (pointer is a folded address or a frame key); the block
        tier emits one batched call per run instead of one call per op.
        Returns ``(index, address, writer, allowed)`` for the first
        violating element, or ``None``.
        """
        get = self._map.get
        external = DFI_EXTERNAL_WRITER
        index = 0
        for constant, pointer, size, allowed in specs:
            address = pointer if constant else frame[pointer]
            if size == 1:
                writer = get(address, external)
                if writer not in allowed:
                    return index, address, writer, allowed
            elif size == 8 and (
                get(address, external) in allowed
                and get(address + 1, external) in allowed
                and get(address + 2, external) in allowed
                and get(address + 3, external) in allowed
                and get(address + 4, external) in allowed
                and get(address + 5, external) in allowed
                and get(address + 6, external) in allowed
                and get(address + 7, external) in allowed
            ):
                pass
            elif (
                size == 8
                or not set(map(get, range(address, address + size), _EXTERNAL))
                <= allowed
            ):
                for byte_address in range(address, address + size):
                    writer = get(byte_address, external)
                    if writer not in allowed:
                        return index, byte_address, writer, allowed
            index += 1
        return None

    # dict-like helpers kept for tests and debugging
    def get(self, address: int, default: int = DFI_EXTERNAL_WRITER) -> int:
        return self._map.get(address, default)

    def __getitem__(self, address: int) -> int:
        return self._map[address]

    def __setitem__(self, address: int, def_id: int) -> None:
        self._map[address] = def_id

    def __contains__(self, address: int) -> bool:
        return address in self._map

    def __len__(self) -> int:
        return len(self._map)


@dataclass
class ExecutionResult:
    """Everything a benchmark needs to know about one execution."""

    status: str
    return_value: Optional[int]
    cycles: float
    instructions: int
    ipc: float
    opcode_counts: Dict[str, int]
    output: bytes
    steps: int
    trap: Optional[BaseException] = None
    ic_calls: Dict[str, int] = field(default_factory=dict)
    pac_sign_count: int = 0
    pac_auth_count: int = 0
    isolated_allocations: int = 0
    #: cache statistics (zero unless the CPU was given a CacheModel)
    cache_hits: int = 0
    cache_misses: int = 0
    #: interpreter throughput: wall-clock seconds of this run
    wall_seconds: float = 0.0
    #: wall-clock seconds spent decoding the module for this run
    #: (0.0 on a decode-cache hit or under the reference interpreter)
    decode_seconds: float = 0.0
    #: which interpreter backend produced this result
    interpreter: str = "decoded"

    @property
    def steps_per_second(self) -> float:
        """Dynamic IR steps retired per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.steps / self.wall_seconds

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def detected(self) -> bool:
        """True when a defense mechanism fired."""
        return self.status in (
            "pac_trap",
            "canary_trap",
            "dfi_trap",
            "section_trap",
        )

    @property
    def pa_dynamic(self) -> int:
        """Dynamically executed ARM-PA instructions."""
        return self.opcode_counts.get("pac.sign", 0) + self.opcode_counts.get(
            "pac.auth", 0
        )


class CPU:
    """Interpreter for one module.  Construct fresh per execution run."""

    def __init__(
        self,
        module: Module,
        seed: int = 2024,
        attack: Optional[object] = None,
        max_steps: int = 20_000_000,
        heap_capacity: int = 8 * 1024 * 1024,
        cache: Optional[CacheModel] = None,
        interpreter: Optional[str] = None,
        profiler: Optional[object] = None,
        trace_profile: Optional[Dict[str, float]] = None,
    ):
        self.module = module
        #: optional :class:`repro.observability.ExecutionProfiler`
        self.profiler = profiler
        self.memory = Memory()
        self.pac = PointerAuthentication(seed)
        self.rng = CanaryRng(seed ^ 0xCA11A57)
        self.heap = SectionedHeap(self.memory, heap_capacity)
        self.timing = TimingModel()
        self.cache = cache
        self.attack = attack
        self.max_steps = max_steps
        self.steps = 0
        self.call_depth = 0
        self.max_call_depth = 256
        self.stack_top = STACK_BASE + 64
        self.input_queue: Deque[bytes] = deque()
        self.output: List[bytes] = []
        self.ic_calls: Dict[str, int] = {}
        self.global_addresses: Dict[str, int] = {}
        #: live call frames, innermost last: (function, value->int map)
        self.frames: List[Tuple[Function, Dict[Value, int]]] = []
        #: per-frame alloca name -> address index, parallel to ``frames``
        self.frame_slots: List[Dict[str, int]] = []
        meta = _module_meta(module)
        #: per-function frame layout plans (relative offsets), built
        #: lazily and shared across CPU instances via the module cache
        self._frame_plans: Dict[Function, tuple] = meta[2]
        self.dfi_shadow = DfiShadow()
        self.dfi_active = meta[1]
        #: ``call_fault_hook.on_call(cpu, function, args)`` -- the chaos
        #: injector's indirect-call corruption point; may return a
        #: different defined :class:`Function` to bend control flow to.
        self.call_fault_hook = None
        if interpreter is None:
            interpreter = os.environ.get("REPRO_INTERPRETER", "decoded")
        if interpreter not in INTERPRETERS:
            raise UnknownInterpreterError(
                f"unknown interpreter {interpreter!r}; expected one of {INTERPRETERS}"
            )
        self.interpreter = interpreter
        self.decode_seconds = 0.0
        self._decoded = None
        self._block = None
        if interpreter == "decoded":
            self._decoded, self.decode_seconds = decode_module(module)
        elif interpreter == "trace":
            # Imported here so decoded runs never load the code generators.
            from .tracec import trace_compile

            # The trace tier compiles from the decoded program and falls
            # back to it whenever batched accounting cannot be trusted
            # (non-default costs or issue width, step-limit crossings).
            # ``trace_profile`` is the warmup run's per-block execution
            # counts; without it, regions are selected statically.  A
            # profiled run compiles with an empty profile, which selects
            # no regions, so the profiler attributes every block.
            if profiler is not None:
                trace_profile = {}
            self._decoded, decode_seconds = decode_module(module)
            self._block, compile_seconds = trace_compile(module, trace_profile)
            self.decode_seconds = decode_seconds + compile_seconds
        self._refresh_block_fast()
        self._layout_globals()

    def _refresh_block_fast(self) -> None:
        """Cache whether the trace program's batched accounting
        matches this CPU's timing model.

        The comparison includes a dict equality over the full cost
        table, far too expensive for every ``_call``; tests that
        customise ``timing.costs``/``issue_width`` mutate them between
        construction and :meth:`run`, so recomputing at both points
        keeps the documented fallback-to-decoded contract.
        """
        block = self._block
        self._block_fast = (
            block is not None
            and self.timing.issue_width == block.issue_width
            and self.timing.costs == DEFAULT_COSTS
        )

    # -- setup -----------------------------------------------------------------

    def _layout_globals(self) -> None:
        self.global_addresses = compute_global_layout(self.module)
        for name, gvar in self.module.globals.items():
            self._write_initializer(self.global_addresses[name], gvar)

    def _write_initializer(self, address: int, gvar: GlobalVariable) -> None:
        init = gvar.initializer
        if init is None:
            return
        if isinstance(init, bytes):
            self.memory.write_bytes(address, init)
        elif isinstance(init, int):
            self.memory.write_int(address, init, max(1, gvar.value_type.size))
        elif isinstance(init, (list, tuple)):
            elem_size = (
                gvar.value_type.element.size
                if isinstance(gvar.value_type, ArrayType)
                else 8
            )
            for i, value in enumerate(init):
                self.memory.write_int(address + i * elem_size, value, elem_size)
        else:
            raise TypeError(f"unsupported initializer for @{gvar.name}: {init!r}")

    # -- hooks used by the libc models ---------------------------------------------

    def take_input(self, channel: str, args: Sequence[int]) -> bytes:
        """External input for a read-style IC: attack payload, queued
        benign input, or empty."""
        payload = self.attack_payload(channel, args)
        if payload is not None:
            return payload
        if self.input_queue:
            return self.input_queue.popleft()
        return b""

    def attack_payload(self, channel: str, args: Sequence[int]) -> Optional[bytes]:
        """Ask the attack controller (if any) for a payload at this IC."""
        if self.attack is None:
            return None
        return self.attack.payload_for(self, channel, args)  # type: ignore[attr-defined]

    def stack_slot_address(self, name: str) -> Optional[int]:
        """Address of the named alloca in the innermost frame holding it.

        This is the adaptive attacker's eye: the threat model (§2.5)
        grants the attacker full knowledge of the binary's layout, so
        exploit scripts compute victim offsets from live addresses
        rather than hard-coding them.  Each frame indexes its allocas by
        name at layout time, so the lookup is a dict probe per live
        frame instead of a scan of every frame value.
        """
        for slots in reversed(self.frame_slots):
            address = slots.get(name)
            if address is not None:
                return address
        return None

    def external_write(self, address: int, data: bytes) -> None:
        """A library-side memory write (the IC write itself)."""
        self.memory.write_bytes(address, data)
        if self.dfi_active and data:
            self.dfi_shadow.set_range(address, len(data), DFI_EXTERNAL_WRITER)

    # -- public API -------------------------------------------------------------

    def run(
        self,
        function_name: str = "main",
        args: Sequence[int] = (),
        inputs: Optional[Sequence[bytes]] = None,
    ) -> ExecutionResult:
        """Execute ``function_name`` to completion or trap."""
        self._refresh_block_fast()
        if inputs:
            self.input_queue.extend(inputs)
        status = "ok"
        return_value: Optional[int] = None
        trap: Optional[BaseException] = None
        start = time.perf_counter()
        try:
            return_value = self._call(self.module.get_function(function_name), list(args))
        except PacAuthError as exc:
            status, trap = "pac_trap", exc
        except CanaryTrap as exc:
            status, trap = "canary_trap", exc
        except DfiTrap as exc:
            status, trap = "dfi_trap", exc
        except SectionTrap as exc:
            status, trap = "section_trap", exc
        except (MemoryFault, NullPointerTrap) as exc:
            status, trap = "fault", exc
        except OutOfMemoryError as exc:
            status, trap = "oom", exc
        except StepLimitExceeded as exc:
            status, trap = "limit", exc
        except ProgramExit as exc:
            return_value = exc.code
        wall = time.perf_counter() - start
        if trap is not None:
            # Trap-only instrumentation: nothing here runs on the hot
            # ok path.  Imported lazily so the hardware layer has no
            # module-level dependency on observability.
            from ..observability import current_tracer

            current_tracer().instant(
                f"trap.{status}", "exec", detail=str(trap)
            )
            if self.profiler is not None:
                self.profiler.trap(status, str(trap))
        return ExecutionResult(
            status=status,
            return_value=return_value,
            cycles=self.timing.cycles,
            instructions=self.timing.instructions,
            ipc=self.timing.ipc,
            # Zero entries mean "never executed" and must read as absent:
            # the trace tier's batched tally flush adds += 0 for region
            # chunks a trap or side exit skipped entirely.
            opcode_counts={
                name: count
                for name, count in self.timing.opcode_counts.items()
                if count
            },
            output=b"".join(self.output),
            steps=self.steps,
            trap=trap,
            ic_calls=dict(self.ic_calls),
            pac_sign_count=self.pac.sign_count,
            pac_auth_count=self.pac.auth_count,
            isolated_allocations=self.heap.isolated_calls,
            cache_hits=self.cache.hits if self.cache else 0,
            cache_misses=self.cache.misses if self.cache else 0,
            wall_seconds=wall,
            decode_seconds=self.decode_seconds,
            interpreter=self.interpreter,
        )

    # -- execution engine -----------------------------------------------------------

    def _call(self, function: Function, args: List[int]) -> Optional[int]:
        if function.is_declaration:
            return self._call_external(function, args)
        if self.call_fault_hook is not None:
            # Defined-function calls only: externals dispatch straight to
            # _call_external in the trace tier, so hooking after
            # the declaration check keeps the event stream identical
            # across all interpreter tiers.
            function = self.call_fault_hook.on_call(self, function, args)
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            self.call_depth -= 1
            raise MemoryFault(self.stack_top, 0, "stack overflow")
        saved_top = self.stack_top
        profiler = self.profiler
        if profiler is not None:
            profiler.enter(function.name, self.steps, self.timing.cycles)
        try:
            frame: Dict[Value, int] = {
                argument: value & _MASK64
                for argument, value in zip(function.args, args)
            }
            self.frame_slots.append(self._layout_frame(function, frame))
            self.frames.append((function, frame))
            try:
                # Dispatch inline rather than via a helper: recursion
                # in the simulated program recurses through here, and
                # the simulated 256-frame stack limit must fire before
                # Python's own recursion limit does.
                if self._block_fast:
                    bentry = self._block.functions.get(function)
                    if bentry is not None:
                        if profiler is not None:
                            return self._interpret_block_profiled(
                                bentry, frame
                            )
                        return self._interpret_block(bentry, frame)
                decoded = self._decoded
                if decoded is not None:
                    entry = decoded.functions.get(function)
                    if entry is not None:
                        return self._interpret_decoded(entry, frame)
                return self._interpret_reference(function, frame)
            finally:
                self.frames.pop()
                self.frame_slots.pop()
        finally:
            self.stack_top = saved_top
            self.call_depth -= 1
            if profiler is not None:
                profiler.exit(self.steps, self.timing.cycles)

    def _layout_frame(self, function: Function, frame: Dict[Value, int]) -> Dict[str, int]:
        """Assign frame addresses to allocas in *program order*.

        Program order is address order: Pythia's stack re-layout pass
        reorders allocas precisely to control which variables sit next
        to each other in memory.  Returns the name -> address index used
        by :meth:`stack_slot_address`.
        """
        plan = self._frame_plans.get(function)
        if plan is None:
            offset = 0
            rel: List[Tuple[Alloca, int]] = []
            named: Dict[str, int] = {}
            for alloca in function.allocas():
                alignment = max(1, alloca.allocated_type.alignment)
                offset = (offset + alignment - 1) // alignment * alignment
                rel.append((alloca, offset))
                if alloca.name not in named:
                    named[alloca.name] = offset
                offset += max(1, alloca.allocated_type.size)
            plan = (tuple(rel), tuple(named.items()), (offset + 15) // 16 * 16)
            self._frame_plans[function] = plan
        base = (self.stack_top + 15) // 16 * 16
        for alloca, offset in plan[0]:
            frame[alloca] = base + offset
        slots = {name: base + offset for name, offset in plan[1]}
        self.stack_top = base + plan[2]
        return slots

    def _call_external(self, function: Function, args: List[int]) -> Optional[int]:
        lib = LIBRARY.get(function.name)
        if lib is None:
            raise UnknownExternalError(function.name)
        if lib.ic_kind is not None:
            self.ic_calls[function.name] = self.ic_calls.get(function.name, 0) + 1
        result = lib.handler(self, args)
        return result if result is None else result & _MASK64

    # -- compiled (trace) backend ------------------------------------------------

    def _interpret_block(self, entry, frame: Dict[Value, int]) -> Optional[int]:
        # Direct-threaded driver: each generated block function applies
        # its own batched accounting *and* the phi routing of the edge
        # it takes (the predecessor knows which edge that is), then
        # returns the successor's pre-built (BlockCode, None) pair; this
        # loop only guards the step limit and dispatches.  A block whose
        # execution could cross the limit is delegated to the decoded
        # loop -- with no ``previous``, since any pending phi edge has
        # already been applied inline -- which raises StepLimitExceeded
        # at exactly the right op.
        timing = self.timing
        counts = timing.opcode_counts
        max_steps = self.max_steps
        pair = entry.self_pair
        while True:
            code = pair[0]
            if self.steps + code.nsteps > max_steps:
                return self._interpret_decoded(code.dblock, frame)
            pair = code.fn(self, frame, timing, counts)
            if pair[0] is BLOCK_RET:
                return pair[1]

    def _interpret_block_profiled(self, entry, frame: Dict[Value, int]) -> Optional[int]:
        # The profiled twin of _interpret_block: identical dispatch, but
        # the architectural counters are read around each generated
        # block function and the delta attributed to that block -- still
        # one batched attribution per block execution, never per op.  A
        # block containing a call attributes the callee's retirement
        # inclusively (the callee's own blocks are attributed too).
        timing = self.timing
        counts = timing.opcode_counts
        max_steps = self.max_steps
        block_hook = self.profiler.block
        pair = entry.self_pair
        while True:
            code = pair[0]
            if self.steps + code.nsteps > max_steps:
                return self._interpret_decoded(code.dblock, frame)
            steps0 = self.steps
            cycles0 = timing.cycles
            pair = code.fn(self, frame, timing, counts)
            block_hook(code.label, self.steps - steps0, timing.cycles - cycles0)
            if pair[0] is BLOCK_RET:
                return pair[1]

    # -- decoded backend ---------------------------------------------------------

    def _interpret_decoded(
        self,
        block: DecodedBlock,
        frame: Dict[Value, int],
        previous: Optional[DecodedBlock] = None,
    ) -> Optional[int]:
        # The per-step timing charge is inlined below: the same
        # arithmetic as TimingModel.charge, but against local mirrors of
        # the three hottest counters (dynamic steps, instruction count,
        # cheap-op run length).  Nothing outside the interpreter loops
        # touches those three -- library models only ever call
        # charge_cycles/charge_libcall, which update cycles and
        # opcode_counts directly -- so the mirrors need syncing only
        # around ops that may re-enter an interpreter loop (calls and
        # fallbacks, pre-flagged by the decoder) and on the way out.
        timing = self.timing
        costs_get = timing.costs.get
        counts = timing.opcode_counts
        counts_get = counts.get
        issue_width = timing.issue_width
        # decoded ops carry their DEFAULT_COSTS cost; only trust it
        # while this timing model still uses the default table
        default_costs = timing.costs == DEFAULT_COSTS
        max_steps = self.max_steps
        steps = self.steps
        instructions = timing.instructions
        cheap = timing._cheap_run
        in_call = False
        try:
            while True:
                if previous is not None and block.phi_routes:
                    # Routes exist for every decoded edge, and control
                    # only arrives here along decoded edges.
                    route = block.phi_routes[previous]
                    if route.__class__ is str:
                        raise KeyError(route)
                    if route:
                        # Parallel evaluation: read all incoming values
                        # before writing any.
                        staged = []
                        stage = staged.append
                        cost = costs_get("phi", 1)
                        for _, is_const, payload in route:
                            instructions += 1
                            counts["phi"] = counts_get("phi", 0) + 1
                            if cost <= 1:
                                cheap += 1
                                if cheap >= issue_width:
                                    timing.cycles += 1
                                    cheap = 0
                            else:
                                timing.cycles += cost
                                cheap = 0
                            stage(payload if is_const else frame[payload])
                        for entry, value in zip(route, staged):
                            frame[entry[0]] = value
                for opname, cost, impure, op in block.ops:
                    steps += 1
                    if steps > max_steps:
                        raise StepLimitExceeded(f"exceeded {max_steps} steps")
                    instructions += 1
                    counts[opname] = counts_get(opname, 0) + 1
                    if not default_costs:
                        cost = costs_get(opname, 1)
                    if cost <= 1:
                        cheap += 1
                        if cheap >= issue_width:
                            timing.cycles += 1
                            cheap = 0
                    else:
                        timing.cycles += cost
                        cheap = 0
                    if impure:
                        # Sync the mirrors so the callee's interpreter
                        # loop continues from the right counts; while
                        # in_call is set the callee owns the counters,
                        # and the finally below must not clobber them.
                        self.steps = steps
                        timing.instructions = instructions
                        timing._cheap_run = cheap
                        in_call = True
                        op(self, frame)
                        in_call = False
                        steps = self.steps
                        instructions = timing.instructions
                        cheap = timing._cheap_run
                    else:
                        op(self, frame)
                term = block.term
                kind = term[0]
                if kind == "fall":
                    source = block.source
                    owner = source.parent.name if source.parent is not None else "?"
                    raise RuntimeError(
                        f"block %{source.name} in @{owner} fell through"
                    )
                steps += 1
                if steps > max_steps:
                    raise StepLimitExceeded(f"exceeded {max_steps} steps")
                instructions += 1
                if kind == "jump" or kind == "br":
                    counts["br"] = counts_get("br", 0) + 1
                    cost = costs_get("br", 1)
                    if cost <= 1:
                        cheap += 1
                        if cheap >= issue_width:
                            timing.cycles += 1
                            cheap = 0
                    else:
                        timing.cycles += cost
                        cheap = 0
                    if kind == "jump":
                        previous, block = block, term[1]
                    else:
                        is_const, payload = term[1]
                        taken = (payload if is_const else frame[payload]) & 1
                        previous, block = block, (term[2] if taken else term[3])
                    continue
                # kind == "ret"
                counts["ret"] = counts_get("ret", 0) + 1
                cost = costs_get("ret", 1)
                if cost <= 1:
                    cheap += 1
                    if cheap >= issue_width:
                        timing.cycles += 1
                        cheap = 0
                else:
                    timing.cycles += cost
                    cheap = 0
                spec = term[1]
                if spec is None:
                    return None
                is_const, payload = spec
                return payload if is_const else frame[payload]
        finally:
            if not in_call:
                self.steps = steps
                timing.instructions = instructions
                timing._cheap_run = cheap

    # -- reference backend -------------------------------------------------------

    def _interpret_reference(
        self, function: Function, frame: Dict[Value, int]
    ) -> Optional[int]:
        block = function.entry_block
        previous: Optional[BasicBlock] = None
        while True:
            if previous is not None:
                self._run_phis(block, previous, frame)
            start = block.first_non_phi_index()
            next_block: Optional[BasicBlock] = None
            for inst in block.instructions[start:]:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise StepLimitExceeded(f"exceeded {self.max_steps} steps")
                self.timing.charge(inst.opcode)
                if isinstance(inst, Ret):
                    if inst.value is None:
                        return None
                    return self._value(inst.value, frame)
                if isinstance(inst, Jump):
                    next_block = inst.target
                    break
                if isinstance(inst, CondBranch):
                    taken = self._value(inst.condition, frame) & 1
                    next_block = inst.true_block if taken else inst.false_block
                    break
                self._execute(inst, frame)
            if next_block is None:
                raise RuntimeError(
                    f"block %{block.name} in @{function.name} fell through"
                )
            previous, block = block, next_block

    def _run_phis(
        self, block: BasicBlock, previous: BasicBlock, frame: Dict[Value, int]
    ) -> None:
        phis = block.phis
        if not phis:
            return
        # Parallel evaluation: read all incoming values before writing any.
        staged: List[Tuple[Phi, int]] = []
        for phi in phis:
            self.timing.charge("phi")
            staged.append((phi, self._value(phi.incoming_for_block(previous), frame)))
        for phi, value in staged:
            frame[phi] = value

    def _cache_access(self, address: int, size: int) -> None:
        if self.cache is None:
            return
        misses = self.cache.access(address, size)
        if misses:
            self.timing.charge_cycles(misses * self.cache.miss_penalty, "llc.miss")

    # -- operand evaluation ------------------------------------------------------------

    def _value(self, value: Value, frame: Dict[Value, int]) -> int:
        if isinstance(value, Constant):
            return value.value & _MASK64
        if isinstance(value, GlobalVariable):
            return self.global_addresses[value.name]
        if isinstance(value, UndefValue):
            return 0
        try:
            return frame[value]
        except KeyError:
            raise RuntimeError(f"use of unevaluated value %{value.name}") from None

    # -- instruction semantics ------------------------------------------------------------

    def _execute(self, inst: Instruction, frame: Dict[Value, int]) -> None:
        if isinstance(inst, Alloca):
            # Address already assigned by _layout_frame.
            return
        if isinstance(inst, Load):
            address = self._value(inst.pointer, frame)
            if address == 0:
                raise NullPointerTrap(f"load through null in {inst}")
            size = max(1, inst.type.size)
            self._cache_access(address, size)
            frame[inst] = self.memory.read_int(address, size)
            return
        if isinstance(inst, Store):
            address = self._value(inst.pointer, frame)
            if address == 0:
                raise NullPointerTrap(f"store through null in {inst}")
            size = max(1, inst.value.type.size)
            self._cache_access(address, size)
            self.memory.write_int(address, self._value(inst.value, frame), size)
            return
        if isinstance(inst, GetElementPtr):
            frame[inst] = self._gep_address(inst, frame)
            return
        if isinstance(inst, BinOp):
            frame[inst] = self._binop(inst, frame)
            return
        if isinstance(inst, ICmp):
            frame[inst] = self._icmp(inst, frame)
            return
        if isinstance(inst, Cast):
            frame[inst] = self._cast(inst, frame)
            return
        if isinstance(inst, Select):
            cond = self._value(inst.condition, frame) & 1
            chosen = inst.true_value if cond else inst.false_value
            frame[inst] = self._value(chosen, frame)
            return
        if isinstance(inst, Call):
            result = self._call(
                inst.callee, [self._value(a, frame) for a in inst.args]
            )
            if not inst.type.is_void:
                frame[inst] = 0 if result is None else result
            return
        if isinstance(inst, PacSign):
            value = self._value(inst.value, frame)
            modifier = self._value(inst.modifier, frame)
            frame[inst] = self.pac.sign(value, modifier, inst.key_id)
            return
        if isinstance(inst, PacAuth):
            value = self._value(inst.value, frame)
            modifier = self._value(inst.modifier, frame)
            frame[inst] = self.pac.auth(value, modifier, inst.key_id)
            return
        if isinstance(inst, SecAssert):
            if not (self._value(inst.condition, frame) & 1):
                raise CanaryTrap(f"{inst.kind} check failed")
            return
        if isinstance(inst, DfiSetDef):
            address = self._value(inst.pointer, frame)
            self.dfi_shadow.set_range(address, inst.size, inst.def_id)
            return
        if isinstance(inst, DfiChkDef):
            address = self._value(inst.pointer, frame)
            violation = self.dfi_shadow.check_range(address, inst.size, inst.allowed)
            if violation is not None:
                raise DfiTrap(violation[0], violation[1], inst.allowed)
            return
        raise RuntimeError(f"cannot execute instruction: {inst}")

    def _gep_address(self, inst: GetElementPtr, frame: Dict[Value, int]) -> int:
        address = self._value(inst.pointer, frame)
        pointee = inst.pointer.type.pointee  # type: ignore[union-attr]
        first = I64.to_signed(self._value(inst.indices[0], frame))
        address = (address + first * max(1, pointee.size)) & _MASK64
        current = pointee
        for index in inst.indices[1:]:
            if isinstance(current, ArrayType):
                step = I64.to_signed(self._value(index, frame))
                address = (address + step * max(1, current.element.size)) & _MASK64
                current = current.element
            elif isinstance(current, StructType):
                field_index = self._value(index, frame)
                address = (address + current.field_offset(field_index)) & _MASK64
                current = current.field_type(field_index)
            else:
                raise RuntimeError(f"malformed gep: {inst}")
        return address

    def _binop(self, inst: BinOp, frame: Dict[Value, int]) -> int:
        vtype = inst.type
        lhs = self._value(inst.lhs, frame)
        rhs = self._value(inst.rhs, frame)
        op = inst.op
        if isinstance(vtype, IntType):
            wrap = vtype.wrap
            signed = vtype.to_signed
            bits = vtype.bits
        else:  # pointer arithmetic through int ops on addresses
            wrap = lambda v: v & _MASK64  # noqa: E731
            signed = I64.to_signed
            bits = 64
        if op == "add":
            return wrap(lhs + rhs)
        if op == "sub":
            return wrap(lhs - rhs)
        if op == "mul":
            return wrap(lhs * rhs)
        if op == "sdiv":
            a, b = signed(lhs), signed(rhs)
            if b == 0:
                raise MemoryFault(0, 0, "integer divide by zero")
            return wrap(int(a / b))
        if op == "srem":
            a, b = signed(lhs), signed(rhs)
            if b == 0:
                raise MemoryFault(0, 0, "integer remainder by zero")
            return wrap(a - int(a / b) * b)
        if op == "and":
            return wrap(lhs & rhs)
        if op == "or":
            return wrap(lhs | rhs)
        if op == "xor":
            return wrap(lhs ^ rhs)
        if op == "shl":
            return wrap(lhs << (rhs % bits))
        if op == "ashr":
            return wrap(signed(lhs) >> (rhs % bits))
        if op == "lshr":
            return wrap(lhs >> (rhs % bits))
        raise RuntimeError(f"unknown binop {op}")

    def _icmp(self, inst: ICmp, frame: Dict[Value, int]) -> int:
        lhs = self._value(inst.lhs, frame)
        rhs = self._value(inst.rhs, frame)
        vtype = inst.lhs.type
        if isinstance(vtype, IntType):
            slhs, srhs = vtype.to_signed(lhs), vtype.to_signed(rhs)
        else:
            slhs, srhs = lhs, rhs
        predicate = inst.predicate
        table: Dict[str, bool] = {
            "eq": lhs == rhs,
            "ne": lhs != rhs,
            "slt": slhs < srhs,
            "sle": slhs <= srhs,
            "sgt": slhs > srhs,
            "sge": slhs >= srhs,
            "ult": lhs < rhs,
            "ule": lhs <= rhs,
            "ugt": lhs > rhs,
            "uge": lhs >= rhs,
        }
        return 1 if table[predicate] else 0

    def _cast(self, inst: Cast, frame: Dict[Value, int]) -> int:
        value = self._value(inst.value, frame)
        op = inst.op
        if op in ("trunc", "zext", "ptrtoint", "inttoptr", "bitcast"):
            if isinstance(inst.type, IntType):
                return inst.type.wrap(value)
            return value & _MASK64
        if op == "sext":
            src = inst.value.type
            if isinstance(src, IntType):
                signed = src.to_signed(value)
            else:
                signed = value
            if isinstance(inst.type, IntType):
                return inst.type.wrap(signed)
            return signed & _MASK64
        raise RuntimeError(f"unknown cast {op}")
