"""Structural module cloning: a direct object-graph deep copy.

The compile pipeline clones the prepared module once per scheme so the
schemes can be compared on identical inputs.  The original implementation round-
tripped through the textual printer and parser, which costs a full
print, lex, and parse per clone; this module copies the object graph
directly instead.  The textual round-trip survives as
:func:`repro.core.framework.clone_module_textual`, and the test suite
uses it as the verification oracle (a structural clone must print
exactly like its source).

Sharing discipline:

- :class:`~repro.ir.types.Type` objects are shared between source and
  clone.  Types are immutable in practice -- every transform that needs
  a new struct layout builds a *new* ``StructType`` -- so sharing is
  safe and keeps clones cheap.
- Everything that participates in def-use chains (constants, undef
  values, globals, arguments, instructions) is freshly created, so a
  clone's use lists never leak into the source module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .function import BasicBlock, Function
from .instructions import Call, CondBranch, Instruction, Jump, Phi
from .module import Module
from .values import Argument, Constant, GlobalVariable, UndefValue, Use, Value


class ValueMap:
    """The old->new value mapping produced by a structural clone.

    Keys are *source-module* values (globals, functions, arguments,
    instructions, and any constants that appeared as operands); values
    are their clones.  Lookups are by object identity -- ``Constant``
    defines value-based equality, so identity keying is what keeps two
    equal-but-distinct source constants distinct in the map.

    Both modules are pinned so ``id()`` keys cannot be recycled while
    the map is alive; :mod:`repro.core.remap` uses this to translate a
    whole :class:`~repro.core.vulnerability.VulnerabilityReport` into
    clone coordinates without re-running the analysis.
    """

    __slots__ = ("source", "target", "_map")

    def __init__(self, source: Module, target: Module, mapping: Dict[int, Value]):
        self.source = source
        self.target = target
        self._map = mapping

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, value: object) -> bool:
        return id(value) in self._map

    def __getitem__(self, value: Value) -> Value:
        """The clone of ``value``; constants map to themselves when they
        never appeared as an operand (they are immutable and value-equal,
        so either object denotes the same IR entity)."""
        mapped = self._map.get(id(value))
        if mapped is not None:
            return mapped
        if isinstance(value, (Constant, UndefValue)):
            return value
        raise KeyError(f"{value!r} is not a value of the cloned module")

    def get(self, value: object, default: Optional[Value] = None) -> Optional[Value]:
        return self._map.get(id(value), default)


def clone_module(module: Module) -> Module:
    """Deep-copy ``module`` by walking the object graph."""
    clone, _ = clone_module_with_map(module)
    return clone


def clone_module_with_map(module: Module) -> Tuple[Module, ValueMap]:
    """Deep-copy ``module`` and return the old->new :class:`ValueMap`."""
    clone = Module(module.name)
    clone._string_counter = module._string_counter
    clone.structs = dict(module.structs)

    # ``vmap`` is keyed by object identity: Constant defines value-based
    # equality, and two equal-but-distinct constants in the source must
    # stay distinct in the clone.
    vmap: Dict[int, Value] = {}

    for name, gvar in module.globals.items():
        initializer = gvar.initializer
        if isinstance(initializer, list):
            initializer = list(initializer)
        fresh = GlobalVariable(name, gvar.value_type, initializer, gvar.constant)
        clone.globals[name] = fresh
        vmap[id(gvar)] = fresh

    fmap: Dict[Function, Function] = {}
    for function in module.functions.values():
        shell = Function(
            function.name,
            function.function_type,
            param_names=[argument.name for argument in function.args],
            is_declaration=function.is_declaration,
            input_channel_kind=function.input_channel_kind,
        )
        shell._name_counter = function._name_counter
        clone.add_function(shell)
        fmap[function] = shell
        vmap[id(function)] = shell
        for argument, fresh_argument in zip(function.args, shell.args):
            vmap[id(argument)] = fresh_argument

    def map_value(value: Value) -> Value:
        mapped = vmap.get(id(value))
        if mapped is not None:
            return mapped
        # Constants/undefs are already normalised (wrapped) in the
        # source, so a fresh empty-uses copy of their attributes is
        # equivalent to re-running ``__init__`` -- and much cheaper at
        # clone volume.
        if isinstance(value, (Constant, UndefValue)):
            cls = value.__class__
            fresh = cls.__new__(cls)
            fresh.__dict__.update(value.__dict__)
            fresh.uses = []
        else:
            raise KeyError(
                f"operand {value!r} is not part of the module being cloned"
            )
        vmap[id(value)] = fresh
        return fresh

    for function, shell in fmap.items():
        if function.is_declaration:
            continue
        bmap: Dict[BasicBlock, BasicBlock] = {}
        for block in function.blocks:
            fresh_block = BasicBlock(block.name, parent=shell)
            shell.blocks.append(fresh_block)
            bmap[block] = fresh_block

        # Pass 1: instruction shells.  ``__init__`` is bypassed (it
        # validates and registers operand uses, which pass 2 handles),
        # so every attribute is copied and the block/callee references
        # are remapped by hand.
        pairs: List[tuple] = []
        for block, fresh_block in bmap.items():
            for inst in block.instructions:
                fresh = inst.__class__.__new__(inst.__class__)
                fresh.__dict__.update(inst.__dict__)
                fresh.parent = fresh_block
                fresh._operands = []
                fresh.uses = []
                if isinstance(inst, (Jump, CondBranch, Call, Phi)):
                    if isinstance(inst, Call):
                        fresh.callee = fmap[inst.callee]
                    elif isinstance(inst, Jump):
                        fresh.target = bmap[inst.target]
                    elif isinstance(inst, CondBranch):
                        fresh.true_block = bmap[inst.true_block]
                        fresh.false_block = bmap[inst.false_block]
                    else:
                        fresh.incoming_blocks = [
                            bmap[incoming] for incoming in inst.incoming_blocks
                        ]
                fresh_block.instructions.append(fresh)
                vmap[id(inst)] = fresh
                pairs.append((inst, fresh))

        # Pass 2: operand lists, now that every definition has a clone.
        # Hand-rolled append_operand/add_use: this loop runs once per
        # operand of every instruction, and the method-call overhead
        # dominates at that volume.
        vmap_get = vmap.get
        for inst, fresh in pairs:
            # Values are always truthy, so ``or`` falls through to
            # map_value exactly when the operand is unseen (a constant).
            ops = [
                vmap_get(id(operand)) or map_value(operand)
                for operand in inst._operands
            ]
            fresh._operands = ops
            for index, mapped in enumerate(ops):
                mapped.uses.append(Use(fresh, index))

    return clone, ValueMap(module, clone, vmap)
