"""The warm module registry: reuse, byte-identity, eviction, disk cache."""

from __future__ import annotations

import pytest

from repro.core import SCHEMES, DefenseConfig
from repro.core.framework import protect, protect_all
from repro.frontend import compile_source
from repro.hardware.cpu import CPU
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.serve.registry import WarmRegistry, source_digest
from repro.transforms.mem2reg import Mem2Reg
from repro.workloads import generate_program, get_profile

SOURCE = """
int main() {
  int acc = 0;
  for (int i = 0; i < 50; i = i + 1) { acc = acc + i; }
  printf("acc=%d\\n", acc);
  return 0;
}
"""

OTHER = SOURCE.replace("i < 50", "i < 60")


def cold_printed(source, scheme):
    """What a single-shot CLI compile would print for this variant."""
    module = compile_source(source, name="module")
    verify_module(module)
    Mem2Reg().run(module)
    verify_module(module)
    return print_module(protect(module, scheme=scheme).module)


def test_warm_variant_is_byte_identical_to_cold_compile():
    registry = WarmRegistry(capacity=4)
    _, cold_text, cold_digest, warm = registry.printed_module(
        SOURCE, "module", "pythia"
    )
    assert not warm
    _, warm_text, warm_digest, warm_again = registry.printed_module(
        SOURCE, "module", "pythia"
    )
    assert warm_again
    assert warm_text == cold_text
    assert warm_digest == cold_digest
    assert cold_text == cold_printed(SOURCE, "pythia")


def test_second_scheme_reuses_prepared_module_and_analysis():
    registry = WarmRegistry(capacity=4)
    registry.protection(SOURCE, scheme="pythia")
    assert registry.stats.module_misses == 1
    first_report = registry._entries[source_digest(SOURCE)].prepared.report
    assert first_report is not None
    registry.protection(SOURCE, scheme="dfi")
    # same module entry, same shared report object: no re-prepare, no re-analysis
    assert registry.stats.module_misses == 1
    assert registry.stats.module_hits == 1
    assert registry._entries[source_digest(SOURCE)].prepared.report is first_report
    # but each scheme is its own protection variant
    assert registry.stats.protection_misses == 2


def test_scheme_variants_execute_like_their_cold_equivalents():
    registry = WarmRegistry(capacity=4)
    for scheme in ("vanilla", "pythia", "dfi"):
        protection, _ = registry.protection(SOURCE, scheme=scheme)
        result = CPU(protection.module, seed=7).run()
        assert result.ok, (scheme, result.status)
        assert result.output == b"acc=1225\n", scheme


def test_lru_eviction_bounds_distinct_modules():
    registry = WarmRegistry(capacity=1)
    registry.protection(SOURCE, scheme="vanilla")
    registry.protection(OTHER, scheme="vanilla")
    assert len(registry) == 1
    assert registry.stats.evictions == 1
    # the evicted module recompiles on return
    registry.protection(SOURCE, scheme="vanilla")
    assert registry.stats.module_misses == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        WarmRegistry(capacity=0)


def test_disk_cache_feeds_a_fresh_registry(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = WarmRegistry(capacity=4, cache_dir=cache_dir)
    _, first_text, _, _ = first.printed_module(SOURCE, "module", "pythia")
    assert first._disk.stats.stores == 1

    # A restarted worker (fresh registry, same cache dir) skips the
    # protection pipeline: the variant loads from disk.
    second = WarmRegistry(capacity=4, cache_dir=cache_dir)
    _, second_text, _, warm = second.printed_module(SOURCE, "module", "pythia")
    assert not warm  # not warm in-process...
    assert second._disk.stats.hits == 1  # ...but served from disk
    assert second_text == first_text


def test_corrupt_disk_entry_recompiles_silently(tmp_path):
    import json
    import os

    cache_dir = str(tmp_path / "cache")
    first = WarmRegistry(capacity=4, cache_dir=cache_dir)
    _, first_text, _, _ = first.printed_module(SOURCE, "module", "pythia")

    (path,) = [
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(cache_dir)
        for name in names
        if name.endswith(".json")
    ]
    with open(path, "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    blob["payload"]["module"] = "tampered"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(blob, handle)

    second = WarmRegistry(capacity=4, cache_dir=cache_dir)
    _, second_text, _, _ = second.printed_module(SOURCE, "module", "pythia")
    assert second_text == first_text  # recompiled, not trusted
    assert second._disk.stats.corrupt == 1


#: Generator profiles the registry is checked against: two SPEC shapes
#: and nginx (live heap traffic), all with structs for field canaries.
PROFILES = ("531.deepsjeng_r", "541.leela_r", "nginx")

#: Every (scheme, protect_fields) variant a serve request can ask for.
VARIANTS = [(scheme, False) for scheme in SCHEMES] + [("pythia", True)]


def _printed(result):
    return print_module(result.module), result.pass_stats


@pytest.fixture(scope="module", params=PROFILES)
def profile_oracle(request):
    """(source, name, {variant: (printed, pass_stats)}) via protect()."""
    program = generate_program(get_profile(request.param))
    expected = {
        (scheme, fields): _printed(
            protect(
                program.compile(),
                config=DefenseConfig(scheme=scheme, protect_fields=fields),
            )
        )
        for scheme, fields in VARIANTS
    }
    # the fields variant really guards structs here
    assert expected[("pythia", True)] != expected[("pythia", False)]
    # protect_all is the same pipeline for the default configs
    for scheme, result in protect_all(program.compile()).items():
        assert _printed(result) == expected[(scheme, False)], scheme
    return program.source, request.param, expected


def test_registry_variants_match_protect_on_generated_profiles(profile_oracle):
    source, name, expected = profile_oracle
    registry = WarmRegistry(capacity=4)
    for scheme, fields in VARIANTS:
        result, warm = registry.protection(source, name, scheme, fields)
        assert not warm
        assert _printed(result) == expected[(scheme, fields)], (scheme, fields)


def test_disk_cached_variants_match_protect_on_generated_profiles(
    profile_oracle, tmp_path
):
    source, name, expected = profile_oracle
    cache_dir = str(tmp_path / "cache")
    first = WarmRegistry(capacity=4, cache_dir=cache_dir)
    for scheme, fields in VARIANTS:
        first.protection(source, name, scheme, fields)
    assert first._disk.stats.stores == len(VARIANTS)

    second = WarmRegistry(capacity=4, cache_dir=cache_dir)
    for scheme, fields in VARIANTS:
        result, _ = second.protection(source, name, scheme, fields)
        assert _printed(result) == expected[(scheme, fields)], (scheme, fields)
    assert second._disk.stats.hits == len(VARIANTS)
