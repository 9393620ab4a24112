"""repro.ir -- a small, typed, LLVM-like intermediate representation.

This package is the substrate every other layer builds on: the MiniC
front-end emits it, the analyses traverse it, the defense passes rewrite
it, and the simulated CPU executes it.
"""

from .. import _lazy_exports
from .builder import IRBuilder
from .cfg import DominatorTree, reachable_blocks, reverse_postorder
from .clone import ValueMap, clone_module, clone_module_with_map
from .function import BasicBlock, Function
from .instructions import (
    Alloca,
    BINARY_OPS,
    BinOp,
    Call,
    CAST_OPS,
    Cast,
    CondBranch,
    DfiChkDef,
    DfiSetDef,
    GetElementPtr,
    ICMP_PREDICATES,
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
    is_pa_instruction,
)
from .module import Module
from .printer import print_function, print_module
from .types import (
    ArrayType,
    FunctionType,
    I1,
    I16,
    I32,
    I64,
    I8,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    VoidType,
    array,
    int_type,
    parse_type,
    pointer,
)
from .values import Argument, Constant, GlobalVariable, UndefValue, Value, const_int
from .verifier import VerificationError, verify_module

__all__ = [
    "Alloca",
    "Argument",
    "ArrayType",
    "BasicBlock",
    "BINARY_OPS",
    "BinOp",
    "Call",
    "CAST_OPS",
    "Cast",
    "clone_module",
    "clone_module_with_map",
    "CondBranch",
    "Constant",
    "const_int",
    "DfiChkDef",
    "DfiSetDef",
    "DominatorTree",
    "Function",
    "FunctionType",
    "GetElementPtr",
    "GlobalVariable",
    "I1",
    "I16",
    "I32",
    "I64",
    "I8",
    "ICMP_PREDICATES",
    "ICmp",
    "Instruction",
    "IntType",
    "IRBuilder",
    "is_pa_instruction",
    "Jump",
    "Load",
    "Module",
    "PacAuth",
    "PacSign",
    "ParseError",
    "parse_module",
    "parse_type",
    "Phi",
    "pointer",
    "PointerType",
    "print_function",
    "print_module",
    "reachable_blocks",
    "Ret",
    "reverse_postorder",
    "SecAssert",
    "Select",
    "Store",
    "StructType",
    "Type",
    "UndefValue",
    "Value",
    "ValueMap",
    "VerificationError",
    "verify_module",
    "VOID",
    "VoidType",
    "array",
    "int_type",
]

# The textual IR parser loads on first use (PEP 562): compiling from
# MiniC, protecting and executing never read IR text.
_LAZY = {
    "ParseError": "parser",
    "parse_module": "parser",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)
