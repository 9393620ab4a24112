"""Defense configuration."""

from __future__ import annotations

from dataclasses import dataclass

#: The defense schemes the framework can apply.
SCHEMES = ("vanilla", "cpa", "pythia", "dfi")

#: The :class:`DefenseConfig` switches only the ``pythia`` scheme reads.
PYTHIA_SWITCHES = (
    "protect_stack",
    "protect_heap",
    "protect_fields",
    "rerandomize_canaries",
)


@dataclass
class DefenseConfig:
    """Options controlling how a module is protected.

    ``scheme``
        ``vanilla`` (no instrumentation), ``cpa`` (conservative full
        pointer authentication, §4.2), ``pythia`` (stack canaries +
        heap sectioning, §4.3), or ``dfi`` (the comparison baseline).
    ``run_mem2reg``
        Promote scalars to SSA first, as the paper does; only surviving
        memory traffic is instrumented.
    ``protect_stack`` / ``protect_heap``
        Ablation switches for the two halves of the Pythia scheme.
    ``protect_fields``
        Opt-in §6.4 extension: per-field struct canaries, catching
        intra-struct overflows the base scheme cannot see.

    Only the ``pythia`` scheme reads the :data:`PYTHIA_SWITCHES`; any
    other scheme resets them to their defaults on construction, so a
    request that sets one cannot name a second variant of the same
    compilation (registry keys and compilation-cache tokens both see
    the normalised config).
    """

    scheme: str = "pythia"
    run_mem2reg: bool = True
    protect_stack: bool = True
    protect_heap: bool = True
    #: §6.4 future work: interleave canaries inside struct fields
    protect_fields: bool = False
    #: §4.4: re-randomise canaries before every input-channel use
    #: (defeats leak-and-replay); disable only for the ablation
    rerandomize_canaries: bool = True

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.scheme != "pythia":
            for name in PYTHIA_SWITCHES:
                setattr(self, name, self.__dataclass_fields__[name].default)
