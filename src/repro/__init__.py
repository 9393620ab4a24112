"""Pythia: Compiler-Guided Defense Against Non-Control Data Attacks.

A from-scratch Python reproduction of the ASPLOS 2024 system: a MiniC
compiler front-end, an LLVM-like SSA IR, the slicing and alias analyses
of §4.1, simulated ARM Pointer Authentication hardware with a sectioned
heap allocator, the three defense instrumentations (conservative CPA,
performance-aware Pythia, and the DFI baseline), attack scenarios, and
the full evaluation harness.

Quickstart::

    from repro import compile_source, protect, CPU

    module = compile_source(C_SOURCE)
    protected = protect(module, scheme="pythia")
    result = CPU(protected.module).run(inputs=[b"hello"])
    assert result.ok

See ``examples/`` for runnable end-to-end walkthroughs and
``benchmarks/`` for the scripts regenerating every table and figure of
the paper's evaluation.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "ALL_PROFILES",
    "analyze_module",
    "attack_distance_row",
    "AttackController",
    "BenchmarkProfile",
    "branch_security_row",
    "build_scenarios",
    "build_security_report",
    "CanaryTrap",
    "clone_module",
    "compile_source",
    "CPU",
    "DefenseConfig",
    "DfiTrap",
    "ExecutionResult",
    "generate_program",
    "get_profile",
    "IRBuilder",
    "measure_module",
    "measure_program",
    "MemoryFault",
    "Module",
    "overflow_payload",
    "PacAuthError",
    "parse_module",
    "PointerAuthentication",
    "print_module",
    "protect",
    "protect_all",
    "ProtectionResult",
    "run_nginx",
    "run_suite",
    "Scenario",
    "SuiteResult",
    "SCHEMES",
    "SecurityReport",
    "verify_module",
    "VulnerabilityAnalysis",
    "VulnerabilityReport",
    "__version__",
]


def _lazy_exports(package, namespace, table):
    """The module-level ``(__getattr__, __dir__)`` pair of a package.

    PEP 562 lazy re-exports, shared by every package ``__init__`` that
    defers loading: ``table`` maps each exported name to the submodule
    (relative to ``package``) that defines it.  The first access imports
    that submodule and caches the value in ``namespace``, so later
    accesses never reach ``__getattr__``; ``from package import name``
    and ``from package import *`` take the same path.  It lives here, not
    in a submodule, so ``import repro`` loads no submodule at all.
    """

    def __getattr__(name):
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{submodule}", package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


# Every export loads on first use, so ``import repro`` costs about a bare
# interpreter start and a CLI subcommand pays only for the layers it runs.
_LAZY = {
    "ALL_PROFILES": "workloads",
    "analyze_module": "core",
    "attack_distance_row": "metrics",
    "AttackController": "attacks",
    "BenchmarkProfile": "workloads",
    "branch_security_row": "metrics",
    "build_scenarios": "attacks",
    "build_security_report": "core",
    "CanaryTrap": "hardware",
    "clone_module": "core",
    "compile_source": "frontend",
    "CPU": "hardware",
    "DefenseConfig": "core",
    "DfiTrap": "hardware",
    "ExecutionResult": "hardware",
    "generate_program": "workloads",
    "get_profile": "workloads",
    "IRBuilder": "ir",
    "measure_module": "metrics",
    "measure_program": "metrics",
    "MemoryFault": "hardware",
    "Module": "ir",
    "overflow_payload": "attacks",
    "PacAuthError": "hardware",
    "parse_module": "ir",
    "PointerAuthentication": "hardware",
    "print_module": "ir",
    "protect": "core",
    "protect_all": "core",
    "ProtectionResult": "core",
    "run_nginx": "workloads",
    "run_suite": "perf",
    "Scenario": "attacks",
    "SCHEMES": "core",
    "SecurityReport": "core",
    "SuiteResult": "perf",
    "verify_module": "ir",
    "VulnerabilityAnalysis": "core",
    "VulnerabilityReport": "core",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)
