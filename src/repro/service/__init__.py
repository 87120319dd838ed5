"""`repro.service` — the concurrent motif-query serving layer.

Turns the one-shot batch miners into a long-lived server: many clients
issue ``(graph, motif, delta)`` queries against registered temporal
graphs and the layer exploits their redundancy the same way Mint's
search-index memoization exploits overlapping searches (§VI-A) —
identical in-flight queries are **coalesced** into one execution,
completed results are **cached** under content fingerprints, compatible
queries are **batched** into one multi-motif dispatch, and overload is
handled by **bounded admission with explicit shedding**.  Every answer
is the exact count — from the cache, coalesced or mined — or an explicit
``deadline_exceeded`` / shed; the service never estimates.

Module map (request lifecycle: admit → coalesce → batch → mine → cache
→ answer):

- :mod:`~repro.service.query` — query/result records, the cache key,
  the canonical wire payload;
- :mod:`~repro.service.registry` — fingerprint-keyed, ref-counted
  resident graph table;
- :mod:`~repro.service.cache` — LRU result cache bounded in resident
  bytes (exact results packed);
- :mod:`~repro.service.scheduler` — bounded admission queue,
  single-flight coalescing, per-graph batching, deadlines/cancellation,
  and the one place a waiter is answered and counted;
- :mod:`~repro.service.executor` — the mining backend: one executor
  and one exact engine (the family walker), inline or over the one
  dispatcher (a resident worker pool or a cluster) it is handed;
- :mod:`~repro.service.metrics` — the ``/metrics`` table (one row per
  reported number), counters, latency reservoirs and snapshots;
- :mod:`~repro.service.service` — the :class:`MotifService` front end
  (plus live graphs, their subscriptions and window queries);
- :mod:`~repro.service.http` — stdlib JSON/HTTP endpoint
  (``repro serve``).
"""

from repro.service.cache import ResultCache
from repro.service.executor import InlineExecutor
from repro.service.http import make_server
from repro.service.metrics import LatencyReservoir, ServiceMetrics, percentile
from repro.service.query import (
    MotifQuery,
    QueryRejected,
    ServiceClosed,
    UnknownGraph,
    build_payload,
    payload_bytes,
)
from repro.service.registry import GraphRegistry
from repro.service.scheduler import QueryScheduler
from repro.service.service import MotifService

__all__ = [
    "GraphRegistry",
    "InlineExecutor",
    "LatencyReservoir",
    "MotifQuery",
    "MotifService",
    "QueryRejected",
    "QueryScheduler",
    "ResultCache",
    "ServiceClosed",
    "ServiceMetrics",
    "UnknownGraph",
    "build_payload",
    "make_server",
    "payload_bytes",
    "percentile",
]
