"""repro.hardware -- the simulated machine.

Byte-addressable memory, a glibc-style sectioned heap allocator, ARM
Pointer Authentication, the canary RNG, the cycle/IPC timing model, the
C library models, and the IR interpreter (CPU) tying them together.
"""

from .allocator import HeapAllocator, OutOfMemoryError, SectionedHeap
from .cache import CacheModel
from .cpu import (
    CPU,
    CanaryTrap,
    DFI_EXTERNAL_WRITER,
    DfiTrap,
    ExecutionResult,
    INTERPRETER_ALIASES,
    INTERPRETERS,
    NullPointerTrap,
    ProgramExit,
    SecurityTrap,
    StepLimitExceeded,
    UnknownExternalError,
)
from .decoder import decode_module, invalidate_decode_cache
from .errors import ReproError, UnknownInterpreterError
from .tracec import TraceProgram, trace_compile
from .libc import LIBRARY, LibFunction, declare_library
from .memory import (
    GLOBAL_BASE,
    HEAP_ISOLATED_BASE,
    HEAP_SHARED_BASE,
    Memory,
    MemoryFault,
    STACK_BASE,
    Segment,
)
from .pac import (
    ADDR_MASK,
    PAC_BITS,
    PAC_FIELD_MASK,
    PacAuthError,
    PointerAuthentication,
    VA_BITS,
    compute_pac,
)
from .rng import CanaryRng
from .timing import (
    DEFAULT_COSTS,
    HEAP_SECTIONING_CYCLES,
    RNG_CALL_CYCLES,
    TimingModel,
)

__all__ = [
    "ADDR_MASK",
    "CacheModel",
    "CanaryRng",
    "CanaryTrap",
    "CPU",
    "declare_library",
    "decode_module",
    "DEFAULT_COSTS",
    "DFI_EXTERNAL_WRITER",
    "DfiTrap",
    "ExecutionResult",
    "GLOBAL_BASE",
    "HEAP_ISOLATED_BASE",
    "HEAP_SECTIONING_CYCLES",
    "HEAP_SHARED_BASE",
    "HeapAllocator",
    "INTERPRETER_ALIASES",
    "INTERPRETERS",
    "invalidate_decode_cache",
    "LIBRARY",
    "LibFunction",
    "Memory",
    "MemoryFault",
    "NullPointerTrap",
    "OutOfMemoryError",
    "PAC_BITS",
    "PAC_FIELD_MASK",
    "PacAuthError",
    "PointerAuthentication",
    "ProgramExit",
    "ReproError",
    "RNG_CALL_CYCLES",
    "SectionedHeap",
    "SecurityTrap",
    "Segment",
    "STACK_BASE",
    "StepLimitExceeded",
    "TimingModel",
    "trace_compile",
    "TraceProgram",
    "UnknownExternalError",
    "UnknownInterpreterError",
    "VA_BITS",
    "compute_pac",
]
