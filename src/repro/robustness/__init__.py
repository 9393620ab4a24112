"""repro.robustness -- failure as a first-class, testable input.

- :mod:`~repro.robustness.faults`: deterministic, seeded fault
  injection into the simulated hardware and the compilation cache;
- :mod:`~repro.robustness.triage`: crash bucketing by exception
  fingerprint;
- :mod:`~repro.robustness.reduce`: delta-debugging minimizer for
  crashing MiniC sources;
- :mod:`~repro.robustness.chaos`: the harness asserting the defense
  contract under injected faults (``python -m repro chaos``);
- :mod:`~repro.robustness.campaign`: the seeded attack-campaign fuzzer
  producing the defense-coverage matrix (``python -m repro campaign``).

``chaos``, ``campaign``, and ``reduce`` are loaded lazily (PEP 562):
``chaos`` pulls in the perf layer, whose suite runner in turn imports
:mod:`~repro.robustness.triage` from here -- eager imports would tie
the two packages into a cycle -- and ``campaign`` pulls in the whole
attacks/compile pipeline.
"""

from __future__ import annotations

from .. import _lazy_exports
from .faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    smoke_plan,
)
from .triage import (
    CrashRecord,
    TriageReport,
    crash_fingerprint,
    fingerprint_from_frames,
    record_crash,
    triage,
    triage_exceptions,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "smoke_plan",
    "CrashRecord",
    "TriageReport",
    "crash_fingerprint",
    "fingerprint_from_frames",
    "record_crash",
    "triage",
    "triage_exceptions",
    # lazy (PEP 562): chaos / campaign / reduce submodule attributes
    "ChaosCase",
    "ChaosReport",
    "run_chaos",
    "CampaignReport",
    "Mutant",
    "MutantRun",
    "run_campaign",
    "ddmin",
    "make_crash_predicate",
    "reduce_source",
]

_LAZY = {
    "ChaosCase": "chaos",
    "ChaosReport": "chaos",
    "run_chaos": "chaos",
    "CampaignReport": "campaign",
    "Mutant": "campaign",
    "MutantRun": "campaign",
    "run_campaign": "campaign",
    "ddmin": "reduce",
    "make_crash_predicate": "reduce",
    "reduce_source": "reduce",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)
