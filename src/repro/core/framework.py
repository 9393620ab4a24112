"""The end-to-end Pythia compiler framework.

The one place that knows how a module becomes a protected variant:
:func:`prepare` (verify, mem2reg, verify), :func:`instrument` (one
scheme's defense passes; vanilla passes through), and
:func:`protect_variant` (clone a prepared module, remap its shared
vulnerability report into the clone, instrument).  :func:`protect`
runs the pipeline for one scheme, :func:`protect_all` for several
sharing one analysis, and the serve registry keeps prepared modules
warm.  :func:`cached_result`/:func:`store_result` convert results to
and from compilation-cache entries.

Cloning is a structural object-graph copy
(:meth:`repro.ir.module.Module.clone`); the older textual round-trip is
kept as :func:`clone_module_textual` and doubles as the verification
oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

from ..analysis.manager import get_manager, invalidate_analyses
from ..hardware.decoder import invalidate_decode_cache
from ..hardware.errors import ReproError
from ..ir.instructions import is_pa_instruction
from ..ir.module import Module
from ..ir.printer import print_module
from ..ir.verifier import VerificationError, verify_module
from ..observability import phase_span
from ..transforms.cpa import CompletePointerAuthentication
from ..transforms.dfi import DataFlowIntegrityPass
from ..transforms.field_protect import FieldProtectionPass
from ..transforms.heap_section import HeapSectionPass
from ..transforms.mem2reg import Mem2Reg
from ..transforms.pass_manager import PassManager
from ..transforms.stack_protect import StackProtectionPass
from .config import DefenseConfig, SCHEMES
from .remap import remap_report
from .vulnerability import VulnerabilityAnalysis, VulnerabilityReport

#: Estimated bytes per IR instruction when reporting binary sizes
#: (AArch64 instructions are 4 bytes).
BYTES_PER_INSTRUCTION = 4


class ProtectionError(ReproError):
    """A defense pass produced an invalid module.

    Distinct from :class:`~repro.ir.verifier.VerificationError` on the
    *input*: if the module verified clean going in and breaks while a
    pass instruments it, the defect is in the framework, not the
    program.  The original verifier failure is chained as the cause.
    """

    exit_code = 5


def clone_module(module: Module) -> Module:
    """Deep-copy a module (structural object-graph clone)."""
    return module.clone()


def clone_module_textual(module: Module) -> Module:
    """Deep-copy a module via the textual print -> parse round-trip.

    Much slower than :func:`clone_module`; retained as the verification
    oracle (both paths must produce modules that print identically).
    """
    # The IR parser is only needed by this test oracle, so a protect
    # run never loads it.
    from ..ir.parser import parse_module

    return parse_module(print_module(module))


@dataclass
class ProtectionResult:
    """An instrumented module plus its static statistics."""

    module: Module
    scheme: str
    report: Optional[VulnerabilityReport]
    pass_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: wall seconds per compile phase: ``verify``, ``mem2reg``,
    #: ``analysis`` (or ``remap`` under the shared-analysis path), and
    #: ``pass:<name>`` per defense pass
    timings: Dict[str, float] = field(default_factory=dict)

    @cached_property
    def pa_static(self) -> int:
        """Statically instrumented ARM-PA instructions.

        Memoized: the module is fixed once protection has run, and the
        reporting layer reads this repeatedly per measurement.
        """
        return sum(
            1
            for function in self.module.defined_functions()
            for inst in function.instructions()
            if is_pa_instruction(inst)
        )

    @cached_property
    def instruction_count(self) -> int:
        """Static instruction count of the instrumented module (memoized)."""
        return self.module.instruction_count()

    @property
    def binary_bytes(self) -> int:
        return self.instruction_count * BYTES_PER_INSTRUCTION

    @property
    def canary_count(self) -> int:
        stats = self.pass_stats.get("pythia-stack", {})
        return int(stats.get("canaries", 0))


@dataclass
class PreparedModule:
    """A verified, SSA-promoted module: the clone source of every variant."""

    module: Module
    #: wall seconds of the shared phases (``verify``, ``mem2reg``, and
    #: ``analysis`` once :meth:`analyze` has run)
    timings: Dict[str, float] = field(default_factory=dict)
    #: the shared §4.1 report over ``module``, set by :meth:`analyze`
    report: Optional[VulnerabilityReport] = None

    def analyze(self) -> VulnerabilityReport:
        """The shared vulnerability report, computed on first use."""
        if self.report is None:
            with phase_span("analysis", self.timings):
                self.report = get_manager().vulnerability_report(self.module)
        return self.report


def prepare(module: Module, mem2reg: bool = True) -> PreparedModule:
    """Verify ``module``, promote it to SSA, and verify again, in place."""
    prepared = PreparedModule(module)
    with phase_span("verify", prepared.timings):
        verify_module(module)
    if mem2reg:
        with phase_span("mem2reg", prepared.timings):
            Mem2Reg().run(module)
        with phase_span("verify", prepared.timings):
            verify_module(module)
        # mem2reg runs outside the PassManager, so drop any stale
        # pre-decoded program and cached analyses explicitly
        invalidate_decode_cache(module)
        invalidate_analyses(module)
    return prepared


def _build_passes(config: DefenseConfig, report: VulnerabilityReport) -> list:
    passes = []
    if config.scheme == "cpa":
        passes.append(CompletePointerAuthentication(report))
    elif config.scheme == "pythia":
        if config.protect_fields:
            passes.append(FieldProtectionPass(report))
        if config.protect_stack:
            passes.append(
                StackProtectionPass(report, rerandomize=config.rerandomize_canaries)
            )
        if config.protect_heap:
            passes.append(HeapSectionPass(report))
    elif config.scheme == "dfi":
        passes.append(DataFlowIntegrityPass(report))
    return passes


def instrument(
    module: Module,
    config: DefenseConfig,
    report: Optional[VulnerabilityReport],
    timings: Dict[str, float],
) -> ProtectionResult:
    """Run ``config``'s defense passes over the prepared ``module`` in place.

    ``vanilla`` passes the module through.  Pass and verify times add
    to ``timings``, which becomes the result's.
    """
    if config.scheme == "vanilla":
        return ProtectionResult(
            module=module, scheme="vanilla", report=None, timings=timings
        )
    # The incoming module was verified when it was prepared, so the
    # pipeline only re-verifies after the mutation.
    manager = PassManager(_build_passes(config, report), verify_input=False)
    try:
        stats = manager.run(module)
    except VerificationError as exc:
        first = exc.errors[0] if exc.errors else str(exc)
        raise ProtectionError(
            f"scheme {config.scheme!r} produced an invalid module: {first}"
        ) from exc
    for name, seconds in manager.timings.items():
        if name == "verify":
            timings["verify"] = timings.get("verify", 0.0) + seconds
        else:
            timings[f"pass:{name}"] = seconds
    return ProtectionResult(
        module=module,
        scheme=config.scheme,
        report=report,
        pass_stats=stats,
        timings=timings,
    )


def protect_variant(prepared: PreparedModule, config: DefenseConfig) -> ProtectionResult:
    """One scheme's variant of ``prepared``.

    Vanilla is the prepared module itself, with a copy of the shared
    timings.  Every other scheme instruments a clone, into which the
    shared report is translated under a ``remap`` span.
    """
    if config.scheme == "vanilla":
        return instrument(prepared.module, config, None, dict(prepared.timings))
    report = prepared.analyze()
    target, vmap = prepared.module.clone(value_map=True)
    timings: Dict[str, float] = {}
    with phase_span("remap", timings):
        remapped = remap_report(report, vmap)
    return instrument(target, config, remapped, timings)


def protect(
    module: Module,
    config: Optional[DefenseConfig] = None,
    scheme: Optional[str] = None,
    clone: bool = True,
) -> ProtectionResult:
    """Apply a defense scheme to (a clone of) ``module``.

    Runs the whole pipeline for one scheme: prepare, a fresh
    vulnerability analysis of the prepared module, and instrument.
    """
    if config is None:
        config = DefenseConfig(scheme=scheme or "pythia")
    elif scheme is not None:
        raise ValueError("pass either config or scheme, not both")
    target = clone_module(module) if clone else module
    prepared = prepare(target, mem2reg=config.run_mem2reg)
    report = None
    if config.scheme != "vanilla":
        with phase_span("analysis", prepared.timings):
            report = VulnerabilityAnalysis(target).analyze()
    return instrument(target, config, report, prepared.timings)


def protect_all(
    module: Module,
    schemes: "tuple[str, ...]" = SCHEMES,
    shared_analysis: bool = True,
    consume: bool = False,
) -> Dict[str, ProtectionResult]:
    """Protect independent clones of ``module`` under several schemes.

    The default *shared-analysis* path verifies, promotes, and analyzes
    the module **once**, then builds each scheme's variant from the
    prepared module (:func:`protect_variant`).  The prepared module
    itself becomes the vanilla result.

    ``shared_analysis=False`` is the original re-analyze-per-scheme
    path; the test suite uses it as the oracle (both paths must produce
    bit-identically printing modules for every scheme).

    ``consume=True`` transfers ownership of ``module`` to the pipeline:
    it may be mutated in place (it becomes the mem2reg-prepared vanilla
    module) instead of being cloned pristine first.  Callers that
    compile a module only to protect it -- ``repro attack`` and
    ``repro bench``, the nginx workload, the chaos and campaign
    harnesses -- skip one full clone this way.

    Phase timings land where the work happens: the vanilla result
    carries the shared ``verify``/``mem2reg``/``analysis`` phases, each
    protected scheme carries its own ``remap``/``verify``/``pass:*``.
    """
    if not shared_analysis:
        results = {}
        last = len(schemes) - 1
        for i, scheme in enumerate(schemes):
            # With ownership of the input, the final scheme can compile
            # the module in place instead of cloning it.
            results[scheme] = protect(
                module, scheme=scheme, clone=not (consume and i == last)
            )
        return results

    prepared = prepare(module if consume else clone_module(module))
    if any(scheme != "vanilla" for scheme in schemes):
        # Analyze before any variant, so vanilla's timings include it.
        prepared.analyze()
    return {
        scheme: protect_variant(prepared, DefenseConfig(scheme=scheme))
        for scheme in schemes
    }


# -- on-disk compilation cache entries ------------------------------------------


def cached_result(
    entry: Dict[str, Any], scheme: str, module: Optional[Module] = None
) -> ProtectionResult:
    """The result a compilation-cache entry stores; its printed module
    is parsed unless the caller passes it already parsed as ``module``.
    """
    if module is None:
        from ..ir.parser import parse_module

        module = parse_module(entry["module"])
    return ProtectionResult(
        module=module,
        scheme=scheme,
        report=None,
        pass_stats=entry["pass_stats"],
        timings=dict(entry.get("timings", {})),
    )


def store_result(cache, key: str, result: ProtectionResult) -> None:
    """Store ``result`` in the compilation cache under ``key``."""
    cache.store(
        key,
        result.scheme,
        print_module(result.module),
        result.pass_stats,
        result.timings,
    )
