"""Security-event pipeline: schema-versioned JSON-lines records.

Pythia's whole point is *detecting* non-control-data attacks, but a
detection that only surfaces as a per-request error code is not an
audit trail.  This module gives every defense activation -- and every
operational incident around one -- a durable, queryable record:

- ``trap``                     a defense fired (pac_trap, dfi_trap,
                               section_trap, canary, ...);
- ``fault-injected``           the chaos/campaign layer armed a fault
                               and it triggered at a concrete site;
- ``cache-corrupt-recompile``  the compilation cache rejected a rotten
                               entry and silently recompiled;
- ``worker-crash``             a serve worker died mid-request;
- ``worker-timeout``           a serve request outran its deadline;
- ``worker-restart``           the pool respawned a shard cold;
- ``dedup-coalesce``           a follower shared a leader's in-flight
                               computation (correlates the two rids);
- ``slo-breach``               an SLO target's burn rate crossed its
                               threshold (see :mod:`.slo`).

Every record is one JSON object per line (the ``repro-events-v1``
schema), stamped with wall-clock *and* monotonic time, the recording
pid, and -- when known -- the originating request id (the caller's
``id``), the daemon-assigned correlation id (``rid``), the module
digest, the defense scheme, and the interpreter tier.  That tuple is
what lets an operator join an events file against a Chrome trace and a
loadgen report: the same ``rid`` names the same request in all three.

The :class:`EventLog` is ring-buffered (oldest records drop first) so
a long-lived daemon holds a bounded recent window; ``--events-out`` on
serve/run/suite/chaos/campaign exports the buffer, the daemon's
``events`` op serves it live, and ``python -m repro audit`` summarizes
an exported file offline.

Stdlib-only on purpose, like the rest of the observability layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

#: Schema tag carried by every record (validated by the checker, the
#: ``audit`` subcommand, and ``tools/check_slo.py``).
EVENTS_SCHEMA = "repro-events-v1"

#: The closed set of event types.
EVENT_TYPES = (
    "trap",
    "fault-injected",
    "cache-corrupt-recompile",
    "worker-crash",
    "worker-timeout",
    "worker-restart",
    "dedup-coalesce",
    "slo-breach",
)

#: Fields every record must carry (beyond the optional correlation
#: fields, which may be null).
_REQUIRED_FIELDS = ("schema", "type", "ts_wall", "ts_mono_ns", "pid")

#: Optional correlation fields; null when unknown.
_CORRELATION_FIELDS = ("request_id", "rid", "module_digest", "scheme", "tier")


def source_digest(source: str) -> str:
    """Content address of one source text (hex SHA-256).

    This is the ``module_digest`` a trap record carries, so the CLI and
    the serve daemon stamp the same value for the same program.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def make_event(
    event_type: str,
    request_id: Any = None,
    rid: Optional[str] = None,
    module_digest: Optional[str] = None,
    scheme: Optional[str] = None,
    tier: Optional[str] = None,
    **detail: Any,
) -> Dict[str, Any]:
    """One ``repro-events-v1`` record, stamped with both clocks."""
    if event_type not in EVENT_TYPES:
        raise ValueError(
            f"unknown event type {event_type!r}; try: {', '.join(EVENT_TYPES)}"
        )
    return {
        "schema": EVENTS_SCHEMA,
        "type": event_type,
        "ts_wall": time.time(),
        "ts_mono_ns": time.perf_counter_ns(),
        "pid": os.getpid(),
        "request_id": request_id,
        "rid": rid,
        "module_digest": module_digest,
        "scheme": scheme,
        "tier": tier,
        "detail": detail,
    }


class EventLog:
    """Ring-buffered security-event recorder for one process.

    Always on, like the metrics registry: an ``emit`` is one dict
    build and one deque append, and the ring bound (``capacity``)
    keeps a long-lived daemon's memory flat -- ``dropped`` counts what
    the ring already forgot, so exports are honest about truncation.
    """

    __slots__ = ("events", "emitted", "capacity")

    def __init__(self, capacity: int = 16384):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self.emitted = 0

    @property
    def dropped(self) -> int:
        """Records the ring has already forgotten."""
        return self.emitted - len(self.events)

    def emit(
        self,
        event_type: str,
        request_id: Any = None,
        rid: Optional[str] = None,
        module_digest: Optional[str] = None,
        scheme: Optional[str] = None,
        tier: Optional[str] = None,
        **detail: Any,
    ) -> Dict[str, Any]:
        """Record (and return) one event."""
        event = make_event(
            event_type,
            request_id=request_id,
            rid=rid,
            module_digest=module_digest,
            scheme=scheme,
            tier=tier,
            **detail,
        )
        self.events.append(event)
        self.emitted += 1
        return event

    def adopt(self, records: Iterable[Dict[str, Any]]) -> None:
        """Merge records emitted by another process (a serve worker).

        Records keep their original pid/timestamps -- adoption is how a
        worker-side trap lands in the daemon's ring with its true
        origin intact.
        """
        for record in records:
            self.events.append(record)
            self.emitted += 1

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The newest ``limit`` records (all, when ``limit`` is None)."""
        if limit is None or limit >= len(self.events):
            return list(self.events)
        if limit <= 0:
            return []
        return list(self.events)[-limit:]


def validate_event(record: Any) -> Optional[str]:
    """First problem with one record, or ``None`` when valid.

    Shared by the tests, ``tools/check_observability.py``, and the
    ``audit`` loader so the CI gate and the offline tooling cannot
    drift apart.
    """
    if not isinstance(record, dict):
        return "record is not an object"
    if record.get("schema") != EVENTS_SCHEMA:
        return f"schema is {record.get('schema')!r}, expected {EVENTS_SCHEMA!r}"
    for field in _REQUIRED_FIELDS:
        if field not in record:
            return f"record lacks {field!r}"
    if record["type"] not in EVENT_TYPES:
        return f"unknown event type {record['type']!r}"
    if not isinstance(record["ts_wall"], (int, float)):
        return "'ts_wall' is not numeric"
    if not isinstance(record["ts_mono_ns"], int) or isinstance(
        record["ts_mono_ns"], bool
    ):
        return "'ts_mono_ns' is not an integer"
    if not isinstance(record["pid"], int) or isinstance(record["pid"], bool):
        return "'pid' is not an integer"
    for field in ("rid", "module_digest", "scheme", "tier"):
        value = record.get(field)
        if value is not None and not isinstance(value, str):
            return f"{field!r} is neither null nor a string"
    detail = record.get("detail")
    if detail is not None and not isinstance(detail, dict):
        return "'detail' is neither null nor an object"
    return None


def write_events(path: str, events: Iterable[Dict[str, Any]]) -> int:
    """Write records as JSON lines at ``path``; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in events:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_events(path: str) -> List[Dict[str, Any]]:
    """Load (and validate) a ``repro-events-v1`` JSON-lines file.

    Raises ``ValueError`` naming the first offending line, so the CLI
    can turn a rotten file into a one-line exit-3 diagnostic.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
            problem = validate_event(record)
            if problem is not None:
                raise ValueError(f"{path}:{number}: {problem}")
            records.append(record)
    return records
