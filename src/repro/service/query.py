"""Query records, result records and the service wire payload.

A :class:`MotifQuery` names one unit of servable work: an exact
δ-temporal motif count on one registered graph.  Its :attr:`~MotifQuery.key`
is the triple the whole serving layer pivots on —

``(graph_fingerprint, canonical_motif, delta)``

- the **graph fingerprint** is :meth:`TemporalGraph.fingerprint`, a
  content hash of the canonical edge arrays, so equal keys imply
  byte-identical mining inputs;
- the **canonical motif** is :meth:`Motif.canonical_key`, which erases
  node-label and name choices, so an inline ``--motif-spec`` identical
  to catalog ``M1`` coalesces and caches with it;
- **delta** is the window in seconds.

Equal keys therefore imply byte-identical results, which is what makes
single-flight coalescing and fingerprint-keyed caching *correct*: a
coalesced or cached answer is the exact count a fresh mine would give.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.motifs.motif import Motif

#: Type alias for the cache/coalescing key.
QueryKey = Tuple[str, Tuple[Tuple[int, int], ...], int]


class QueryRejected(RuntimeError):
    """The admission queue is full and the query was shed.

    Explicit load shedding is the service's overload policy: rather than
    queueing unboundedly (latency collapse) or silently dropping
    (wrong answers), an over-capacity query fails fast with a
    ``retry_after_s`` hint derived from current queue depth and recent
    service latency.
    """

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class ServiceClosed(RuntimeError):
    """The service is shutting down and no longer admits queries."""


class UnknownGraph(KeyError):
    """The fingerprint or name does not resolve to a registered graph."""


@dataclass(frozen=True)
class MotifQuery:
    """One exact motif-count request against a registered graph."""

    fingerprint: str
    motif: Motif
    delta: int
    #: Per-request deadline, seconds from admission (None = no deadline).
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    @property
    def key(self) -> QueryKey:
        return (self.fingerprint, self.motif.canonical_key(), int(self.delta))


@dataclass
class QueryResult:
    """Outcome of one submitted query, delivered to one waiter.

    ``status`` is ``"ok"``, ``"error"``, ``"deadline_exceeded"`` or
    ``"closed"``.  ``source`` records how an ``"ok"`` answer was
    produced: ``"mined"`` (this request triggered the execution),
    ``"coalesced"`` (attached to an identical in-flight request) or
    ``"cache"`` (served from the result cache without scheduling).
    Every ``"ok"`` answer is the exact count.
    """

    status: str
    payload: Optional[Dict] = None
    source: str = ""
    error: Optional[str] = None
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def build_payload(
    fingerprint: str,
    motif: Motif,
    delta: int,
    count: int,
    counters: Dict[str, int],
) -> Dict:
    """The canonical served payload for one ``(graph, motif, delta)``.

    The same builder is used by the service, by ``repro mine --json``
    and by the differential parity tests, so "byte-identical to a direct
    miner run" is checkable with :func:`payload_bytes`.  The
    ``accuracy`` tag is always ``"exact"``: the service serves nothing
    else.
    """
    return {
        "graph": fingerprint,
        "motif": motif.name,
        "delta": int(delta),
        "count": int(count),
        "counters": {k: int(v) for k, v in counters.items()},
        "accuracy": "exact",
    }


def payload_bytes(payload: Dict) -> bytes:
    """Deterministic JSON serialization of a payload (sorted keys)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
