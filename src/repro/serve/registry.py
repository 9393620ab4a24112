"""Warm per-worker module registry for the serve daemon.

A single-shot CLI invocation pays parse, verification, mem2reg,
vulnerability analysis, and per-scheme instrumentation for every
request.  The registry keeps all of that alive inside one worker
process, keyed by the content digest of the *source text* (the same
SHA-256 addressing :mod:`repro.perf.cache` uses for its on-disk
entries):

- a :class:`~repro.core.framework.PreparedModule`: compiled,
  verified, SSA-promoted once, with one shared vulnerability report
  that :func:`~repro.core.framework.protect_variant` carries into
  every scheme variant (never re-analyzed per scheme);
- one :class:`~repro.core.framework.ProtectionResult` per
  ``(scheme, protect_fields)`` variant of the normalised
  :class:`~repro.core.config.DefenseConfig` (``protect_fields`` only
  counts under pythia), whose module object also
  accretes the interpreter tiers' decode and trace code caches
  across requests -- a warm ``run`` re-executes without re-decoding.

Entries are LRU-bounded (``capacity``); eviction drops the whole entry
so memory stays proportional to the distinct-module working set, not
the request count.  An optional on-disk
:class:`~repro.perf.cache.CompilationCache` backs the registry so a
restarted worker (or a sibling shard recompiling after a crash) can
skip instrumentation it has never run in-process.

The registry is single-threaded by construction: each worker process
owns exactly one and services one request at a time; cross-request
concurrency is the pool's job (sharding) and the front-end's
(single-flight dedup).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.config import DefenseConfig
from ..core.framework import (
    PreparedModule,
    ProtectionResult,
    cached_result,
    prepare,
    protect_variant,
    store_result,
)
from ..frontend import compile_source
from ..ir.printer import print_module
from ..observability import get_metrics, phase_span
from ..observability.events import source_digest
# Imported at module level, not where first used: the daemon loads
# them before forking, so workers inherit them instead of each
# compiling the perf package (and the IR parser ``cached_result``
# reads disk entries with) on start.
from ..ir import parser as _parser  # noqa: F401
from ..perf.cache import CompilationCache


@dataclass
class RegistryStats:
    """Warm/cold accounting for one registry instance."""

    module_hits: int = 0
    module_misses: int = 0
    protection_hits: int = 0
    protection_misses: int = 0
    evictions: int = 0


@dataclass
class _Entry:
    """Everything warm about one distinct source module."""

    digest: str
    #: verified + mem2reg-promoted module and its shared vulnerability
    #: report (analyzed when a non-vanilla scheme first needs it)
    prepared: PreparedModule
    #: printed pristine-module text, the on-disk cache key basis
    cache_text: Optional[str] = None
    #: (scheme, protect_fields) -> ProtectionResult
    protections: Dict[Tuple[str, bool], ProtectionResult] = field(
        default_factory=dict
    )
    #: (scheme, protect_fields) -> (printed protected module, its digest)
    printed: Dict[Tuple[str, bool], Tuple[str, str]] = field(default_factory=dict)


def _variant(
    scheme: str, protect_fields: bool
) -> Tuple[DefenseConfig, Tuple[str, bool]]:
    """One variant's normalised config and its registry key.

    The key reads the *normalised* config, so a switch the scheme
    ignores (``fields`` on cpa, say) names the same variant.
    """
    config = DefenseConfig(scheme=scheme, protect_fields=protect_fields)
    return config, (config.scheme, config.protect_fields)


class WarmRegistry:
    """LRU registry of prepared modules and their scheme variants."""

    def __init__(self, capacity: int = 32, cache_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = RegistryStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._disk = None
        if cache_dir is not None:
            self._disk = CompilationCache(cache_dir)

    def __len__(self) -> int:
        return len(self._entries)

    # -- module preparation ------------------------------------------------------

    def _entry(self, source: str, name: str) -> _Entry:
        digest = source_digest(source)
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.stats.module_hits += 1
            get_metrics().inc("serve.registry.module_hits")
            return entry
        self.stats.module_misses += 1
        get_metrics().inc("serve.registry.module_misses")
        with phase_span("frontend"):
            module = compile_source(source, name=name)
        # The on-disk cache keys over the pristine printed module, so
        # capture the text before mem2reg rewrites it.
        cache_text = print_module(module) if self._disk is not None else None
        entry = _Entry(digest=digest, prepared=prepare(module), cache_text=cache_text)
        self._entries[digest] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            get_metrics().inc("serve.registry.evictions")
        return entry

    # -- scheme variants ---------------------------------------------------------

    def protection(
        self,
        source: str,
        name: str = "module",
        scheme: str = "pythia",
        protect_fields: bool = False,
    ) -> Tuple[ProtectionResult, bool]:
        """The protected module for one scheme variant.

        Returns ``(result, warm)`` where ``warm`` says the variant was
        served from this registry (not compiled for this call).  Scheme
        variants of an already-prepared module reuse the shared
        analysis through the clone/remap path, so the second scheme of
        a module never re-runs verification, mem2reg, or analysis.
        """
        entry = self._entry(source, name)
        config, key = _variant(scheme, protect_fields)
        result = entry.protections.get(key)
        if result is not None:
            self.stats.protection_hits += 1
            get_metrics().inc("serve.registry.protection_hits")
            return result, True
        self.stats.protection_misses += 1
        get_metrics().inc("serve.registry.protection_misses")
        result = self._compile_variant(entry, config)
        entry.protections[key] = result
        return result, False

    def _compile_variant(self, entry: _Entry, config: DefenseConfig) -> ProtectionResult:
        disk_key = None
        if self._disk is not None and entry.cache_text is not None:
            disk_key = self._disk.key_for(entry.cache_text, config)
            cached = self._disk.load(disk_key)
            if cached is not None:
                return cached_result(cached, config.scheme)
        result = protect_variant(entry.prepared, config)
        if disk_key is not None:
            store_result(self._disk, disk_key, result)
        return result

    def printed_module(
        self, source: str, name: str, scheme: str, protect_fields: bool = False
    ) -> Tuple[ProtectionResult, str, str, bool]:
        """``(protection, printed text, text digest, warm)`` for a variant.

        The print (and its digest) is memoized with the entry: repeated
        ``compile`` requests for a warm variant return byte-identical
        text without re-rendering the module.
        """
        protection, warm = self.protection(source, name, scheme, protect_fields)
        entry = self._entries[source_digest(source)]
        _, key = _variant(scheme, protect_fields)
        memo = entry.printed.get(key)
        if memo is None:
            text = print_module(protection.module)
            memo = (text, hashlib.sha256(text.encode("utf-8")).hexdigest())
            entry.printed[key] = memo
        return protection, memo[0], memo[1], warm
