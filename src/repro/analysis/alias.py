"""Andersen-style may-alias analysis.

The paper's algorithms all "perform alias analysis to handle pointer
variables": branch decomposition follows the may-aliases of pointers in
a slice, and the interprocedural-overflow handling checks whether a
by-reference argument may point at a vulnerable variable.

This is a classic inclusion-based (Andersen) points-to analysis:

- **memory objects** are allocation sites -- allocas, globals, heap
  allocation calls (``malloc``/``calloc``/``mmap``/...), and one opaque
  summary object per pointer-typed formal argument (standing for
  whatever the caller passes in);
- constraints are derived field-insensitively from ``gep``, ``load``,
  ``store``, ``phi``, ``select``, casts and direct calls;
- the constraint system is solved to a fixpoint with a worklist.

Context- and field-insensitivity are deliberate: they match the "LLVM
in-built alias analyses" granularity the paper builds on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import (
    Call,
    Cast,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import PointerType
from ..ir.values import Argument, Constant, GlobalVariable, Value

#: Library calls whose result is a fresh heap object.
HEAP_ALLOCATORS = ("malloc", "calloc", "realloc", "mmap", "pythia_secure_malloc")


class MemObject:
    """An abstract memory object (allocation site or argument summary)."""

    __slots__ = ("kind", "anchor", "label")

    def __init__(self, kind: str, anchor: object, label: str):
        self.kind = kind  # "stack" | "global" | "heap" | "arg"
        self.anchor = anchor
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemObject {self.kind}:{self.label}>"

    @property
    def is_heap(self) -> bool:
        return self.kind == "heap"


class AliasAnalysis:
    """Module-wide Andersen points-to solver with an alias query API."""

    def __init__(self, module: Module):
        self.module = module
        #: points-to sets of pointer-valued SSA values
        self.points_to_sets: Dict[Value, Set[MemObject]] = {}
        #: what each object's pointer *fields* may point to (field-insensitive)
        self.pointees: Dict[MemObject, Set[MemObject]] = {}
        self.objects: List[MemObject] = []
        self._object_for_anchor: Dict[int, MemObject] = {}
        self._copy_edges: Dict[Value, Set[Value]] = {}
        self._loads: List[Tuple[Value, Value]] = []  # (result, pointer)
        self._stores: List[Tuple[Value, Value]] = []  # (stored, pointer)
        #: frozen points-to sets, built on first query (the solver is
        #: done by then); passes call ``points_to`` per instruction, so
        #: freezing a fresh set every call dominated their runtime
        self._frozen: Dict[Value, FrozenSet[MemObject]] = {}
        self._build()
        self._solve()

    # -- object creation ----------------------------------------------------------

    def _object(self, kind: str, anchor: object, label: str) -> MemObject:
        key = id(anchor)
        existing = self._object_for_anchor.get(key)
        if existing is not None:
            return existing
        obj = MemObject(kind, anchor, label)
        self._object_for_anchor[key] = obj
        self.objects.append(obj)
        self.pointees[obj] = set()
        return obj

    def object_for(self, anchor: object) -> Optional[MemObject]:
        """The memory object created for an alloca/global/call, if any."""
        return self._object_for_anchor.get(id(anchor))

    # -- constraint generation ----------------------------------------------------------

    def _pts(self, value: Value) -> Set[MemObject]:
        return self.points_to_sets.setdefault(value, set())

    def _copy(self, dst: Value, src: Value) -> None:
        self._copy_edges.setdefault(src, set()).add(dst)

    def _build(self) -> None:
        for gvar in self.module.globals.values():
            obj = self._object("global", gvar, f"@{gvar.name}")
            self._pts(gvar).add(obj)

        # Functions with internal callers get their argument points-to
        # sets from the call edges below; only *entry points* (functions
        # never called inside the module) need opaque argument-summary
        # objects standing for whatever an external caller passes.
        called = {
            inst.callee
            for function in self.module.defined_functions()
            for inst in function.instructions()
            if isinstance(inst, Call)
        }
        for function in self.module.defined_functions():
            if function not in called:
                for argument in function.args:
                    if isinstance(argument.type, PointerType):
                        obj = self._object(
                            "arg", argument, f"@{function.name}:%{argument.name}"
                        )
                        self._pts(argument).add(obj)
            for inst in function.instructions():
                self._constrain(function, inst)

        # Direct-call parameter/return binding (context-insensitive).
        for function in self.module.defined_functions():
            for inst in function.instructions():
                if not isinstance(inst, Call):
                    continue
                callee = inst.callee
                if callee.is_declaration:
                    continue
                for formal, actual in zip(callee.args, inst.args):
                    if isinstance(formal.type, PointerType):
                        self._copy(formal, actual)
                if isinstance(inst.type, PointerType):
                    for ret in self._returns(callee):
                        self._copy(inst, ret)

    @staticmethod
    def _returns(function: Function) -> Iterable[Value]:
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, Ret) and term.value is not None:
                yield term.value

    def _constrain(self, function: Function, inst: Instruction) -> None:
        from ..ir.instructions import Alloca

        if isinstance(inst, Alloca):
            obj = self._object("stack", inst, f"@{function.name}:%{inst.name}")
            self._pts(inst).add(obj)
        elif isinstance(inst, GetElementPtr):
            # Field-insensitive: the derived pointer aliases the base object.
            self._copy(inst, inst.pointer)
        elif isinstance(inst, Cast):
            if isinstance(inst.type, PointerType) or isinstance(
                inst.value.type, PointerType
            ):
                self._copy(inst, inst.value)
        elif isinstance(inst, Phi):
            if isinstance(inst.type, PointerType):
                for value, _ in inst.incomings:
                    self._copy(inst, value)
        elif isinstance(inst, Select):
            if isinstance(inst.type, PointerType):
                self._copy(inst, inst.true_value)
                self._copy(inst, inst.false_value)
        elif isinstance(inst, Load):
            if isinstance(inst.type, PointerType):
                self._loads.append((inst, inst.pointer))
        elif isinstance(inst, Store):
            if isinstance(inst.value.type, PointerType):
                self._stores.append((inst.value, inst.pointer))
        elif isinstance(inst, Call):
            if inst.callee.is_declaration and inst.callee.name in HEAP_ALLOCATORS:
                obj = self._object(
                    "heap", inst, f"@{function.name}:%{inst.name or 'heap'}"
                )
                self._pts(inst).add(obj)

    # -- fixpoint solver ----------------------------------------------------------

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            # 1. propagate along copy edges
            for src, dsts in self._copy_edges.items():
                src_pts = self._pts(src)
                if not src_pts:
                    continue
                for dst in dsts:
                    dst_pts = self._pts(dst)
                    before = len(dst_pts)
                    dst_pts |= src_pts
                    if len(dst_pts) != before:
                        changed = True
            # 2. store edges: *(ptr) ⊇ pts(value)
            for value, ptr in self._stores:
                value_pts = self._pts(value)
                if not value_pts:
                    continue
                for obj in self._pts(ptr):
                    before = len(self.pointees[obj])
                    self.pointees[obj] |= value_pts
                    if len(self.pointees[obj]) != before:
                        changed = True
            # 3. load edges: pts(result) ⊇ *(ptr)
            for result, ptr in self._loads:
                result_pts = self._pts(result)
                before = len(result_pts)
                for obj in self._pts(ptr):
                    result_pts |= self.pointees[obj]
                if len(result_pts) != before:
                    changed = True

    # -- queries ----------------------------------------------------------

    _EMPTY: FrozenSet[MemObject] = frozenset()

    def points_to(self, value: Value) -> FrozenSet[MemObject]:
        """The set of objects ``value`` may point to."""
        frozen = self._frozen.get(value)
        if frozen is None:
            frozen = frozenset(self.points_to_sets.get(value, ())) or self._EMPTY
            self._frozen[value] = frozen
        return frozen

    def may_alias(self, a: Value, b: Value) -> bool:
        """True when two pointers may reference the same object."""
        return bool(self.points_to(a) & self.points_to(b))

    def must_alias_single(self, value: Value) -> Optional[MemObject]:
        """The single object ``value`` must point to, or ``None``.

        Heap and argument-summary objects stand for many runtime
        objects, so they never qualify.
        """
        pts = self.points_to(value)
        if len(pts) != 1:
            return None
        (obj,) = pts
        return obj if obj.kind in ("stack", "global") else None

    def aliasing_pointers(self, obj: MemObject) -> List[Value]:
        """Every pointer value that may point at ``obj``."""
        return [v for v, pts in self.points_to_sets.items() if obj in pts]
