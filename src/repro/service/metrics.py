"""Service observability: latency reservoir and metrics snapshots.

The snapshot carries exactly the quantities an operator needs to steer
the serving layer: admission-queue depth (backpressure), coalesce ratio
(how much single-flight is saving), cache hit-rate (how much memoization
is saving), shed count (overload policy engaged) and p50/p99 latency
(tail health).  Rendering goes through
:func:`repro.analysis.reporting.format_table` like every other report in
the repo.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence

from repro.analysis.reporting import format_table
from repro.mining.dispatch import ENGINE, DispatchStats


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in [0, 100]).

    Raises :class:`ValueError` on an empty sequence or out-of-range
    ``p`` — the same fail-loud contract as :func:`reporting.geomean`.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile p must be in [0, 100], got {p}")
    ordered = sorted(float(v) for v in values)
    if p == 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


class ResilienceCounters:
    """Shared, thread-safe monotonic counters for the resilience layer.

    One instance is threaded through the executor (worker deaths, chunk
    retries, respawns, breaker transitions, degraded-mode queries) and
    the scheduler (batch retries, dispatcher crashes), so the metrics
    snapshot shows one coherent failure-handling picture.  Unknown
    names are allowed — the snapshot simply carries whatever was
    counted.
    """

    # The dispatchers' supervision counters arrive through their
    # ``on_event`` hook under DispatchStats' field names (pool and
    # cluster alike), so that part is not hand-kept.
    KNOWN = tuple(DispatchStats.__dataclass_fields__) + (
        "backend_failures",
        "degraded_queries",
        "comined_batches",
        "batch_retries",
        "dispatcher_crashes",
        "pools_rebuilt",
        "breaker_opens",
        "breaker_half_opens",
        "breaker_closes",
        # -- approximate serving (repro.approx) --------------------------------
        "approx_served",
        "refined_entries",
        "degraded_estimates",
        # -- live ingestion / subscriptions (repro.live) ------------------------
        "edges_ingested",
        "ingest_batches",
        "duplicate_batches",
        "late_edges_dropped",
        "subscription_fires",
        "events_delivered",
        "events_dropped",
        "gap_events",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + int(n)

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            out = {name: 0 for name in self.KNOWN}
            out.update(self._counts)
            return out


class LatencyReservoir:
    """Bounded sliding reservoir of recent request latencies (seconds)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._samples: Deque[float] = deque(maxlen=capacity)
        self.recorded_total = 0

    def record(self, latency_s: float) -> None:
        with self._lock:
            self._samples.append(float(latency_s))
            self.recorded_total += 1

    def snapshot(self) -> List[float]:
        with self._lock:
            return list(self._samples)

    def quantiles(self) -> Dict[str, float]:
        """p50/p99 of the current reservoir (zeros when empty)."""
        samples = self.snapshot()
        if not samples:
            return {"p50_s": 0.0, "p99_s": 0.0}
        return {
            "p50_s": percentile(samples, 50),
            "p99_s": percentile(samples, 99),
        }


@dataclass(frozen=True)
class ServiceMetrics:
    """A point-in-time snapshot of the serving layer's health."""

    queue_depth: int
    inflight: int
    admitted: int
    coalesced: int
    shed: int
    completed: int
    errors: int
    cancelled: int
    cache_hits: int
    cache_misses: int
    cache_entries: int
    cache_bytes: int
    cache_evictions: int
    resident_graphs: int
    latency_p50_s: float
    latency_p99_s: float
    latency_samples: int
    # -- resilience (defaults keep older constructors working) -----------------
    worker_deaths: int = 0
    wedged_kills: int = 0
    chunk_retries: int = 0
    worker_respawns: int = 0
    #: Cluster nodes lost, graphs shipped to workers (pool or cluster),
    #: and graphs re-homed off dead slots (``serve --cluster N``).
    node_deaths: int = 0
    graph_ships: int = 0
    failovers: int = 0
    backend_failures: int = 0
    degraded_queries: int = 0
    #: Multi-motif batches served by one shared co-mining traversal.
    comined_batches: int = 0
    batch_retries: int = 0
    dispatcher_crashes: int = 0
    pools_rebuilt: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: Gauge: breakers currently not closed (open or half-open).
    breakers_open: int = 0
    #: True while any breaker is non-closed: queries on that graph are
    #: served by degraded serial mining rather than the worker pool.
    degraded: bool = False
    # -- approximate serving (repro.approx) ------------------------------------
    #: Answers served with error bounds instead of exact counts.
    approx_served: int = 0
    #: Approximate cache entries upgraded to exact by the refiner.
    refined_entries: int = 0
    #: Labelled estimates served where the service would otherwise have
    #: rejected or 504'd (deadline expiry, queue-full shed).
    degraded_estimates: int = 0
    #: Achieved relative CI half-width ε over recent approx answers.
    approx_eps_p50: float = 0.0
    approx_eps_p99: float = 0.0
    approx_eps_samples: int = 0
    #: Gauge: cache entries currently carrying an approx accuracy tag.
    approx_cache_entries: int = 0
    # -- live ingestion / subscriptions (repro.live) ----------------------------
    #: Edges applied to live graphs (post reorder-buffer release).
    edges_ingested: int = 0
    ingest_batches: int = 0
    #: Retried batches answered from the idempotency ledger.
    duplicate_batches: int = 0
    #: Edges arriving below the reorder watermark, dropped + counted.
    late_edges_dropped: int = 0
    #: Subscription evaluations that emitted an event (update or alert).
    subscription_fires: int = 0
    #: Events handed to consumers across all outboxes (at-least-once, so
    #: redeliveries count again).
    events_delivered: int = 0
    #: Events dropped from full outboxes (slow consumers).
    events_dropped: int = 0
    #: Synthetic gap events surfaced to lagging consumers.
    gap_events: int = 0
    #: Gauges: live graphs and standing subscriptions right now, and the
    #: distinct (motif, δ, attach position) counters those subscriptions
    #: are views over — the engines ingest actually advances.
    live_graphs: int = 0
    live_subscriptions: int = 0
    live_shared_counters: int = 0
    #: Enqueue-to-delivery lag over recently delivered events.
    delivery_lag_p50_s: float = 0.0
    delivery_lag_p99_s: float = 0.0
    delivery_lag_samples: int = 0

    @property
    def coalesce_ratio(self) -> float:
        """Fraction of admitted requests that rode an in-flight twin."""
        return self.coalesced / self.admitted if self.admitted else 0.0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def cache_bytes_per_entry(self) -> float:
        """Resident bytes booked per cache entry (0.0 when empty)."""
        return self.cache_bytes / self.cache_entries if self.cache_entries else 0.0

    #: The exact engine that mines every batch, reported so a running
    #: server can be asked.
    engine = ENGINE

    def as_dict(self) -> Dict[str, float]:
        d = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__  # type: ignore[attr-defined]
        }
        d["coalesce_ratio"] = self.coalesce_ratio
        d["cache_hit_rate"] = self.cache_hit_rate
        d["cache_bytes_per_entry"] = self.cache_bytes_per_entry
        d["engine"] = self.engine
        return d

    def render(self) -> str:
        """Operator-facing table (the ``GET /metrics?format=text`` body)."""
        rows = [
            ["queue depth", self.queue_depth],
            ["in flight", self.inflight],
            ["admitted", self.admitted],
            ["coalesced", self.coalesced],
            ["coalesce ratio", f"{self.coalesce_ratio:.3f}"],
            ["shed (rejected)", self.shed],
            ["completed", self.completed],
            ["errors", self.errors],
            ["cancelled (deadline)", self.cancelled],
            ["cache hits", self.cache_hits],
            ["cache misses", self.cache_misses],
            ["cache hit rate", f"{self.cache_hit_rate:.3f}"],
            ["cache entries", self.cache_entries],
            ["cache bytes", self.cache_bytes],
            ["cache bytes per entry", f"{self.cache_bytes_per_entry:.1f}"],
            ["cache evictions", self.cache_evictions],
            ["resident graphs", self.resident_graphs],
            ["latency p50 (ms)", f"{self.latency_p50_s * 1e3:.2f}"],
            ["latency p99 (ms)", f"{self.latency_p99_s * 1e3:.2f}"],
            ["latency samples", self.latency_samples],
            ["engine", self.engine],
            ["worker deaths", self.worker_deaths],
            ["wedged kills", self.wedged_kills],
            ["chunk retries", self.chunk_retries],
            ["worker respawns", self.worker_respawns],
            ["node deaths", self.node_deaths],
            ["graph ships", self.graph_ships],
            ["failovers", self.failovers],
            ["backend failures", self.backend_failures],
            ["degraded queries", self.degraded_queries],
            ["co-mined batches", self.comined_batches],
            ["batch retries", self.batch_retries],
            ["dispatcher crashes", self.dispatcher_crashes],
            ["pools rebuilt", self.pools_rebuilt],
            ["breaker opens", self.breaker_opens],
            ["breaker half-opens", self.breaker_half_opens],
            ["breaker closes", self.breaker_closes],
            ["breakers open (now)", self.breakers_open],
            ["degraded", str(self.degraded).lower()],
            ["approx served", self.approx_served],
            ["refined entries", self.refined_entries],
            ["degraded estimates", self.degraded_estimates],
            ["approx eps p50", f"{self.approx_eps_p50:.4f}"],
            ["approx eps p99", f"{self.approx_eps_p99:.4f}"],
            ["approx eps samples", self.approx_eps_samples],
            ["approx cache entries", self.approx_cache_entries],
            ["edges ingested", self.edges_ingested],
            ["ingest batches", self.ingest_batches],
            ["duplicate batches", self.duplicate_batches],
            ["late edges dropped", self.late_edges_dropped],
            ["subscription fires", self.subscription_fires],
            ["events delivered", self.events_delivered],
            ["events dropped", self.events_dropped],
            ["gap events", self.gap_events],
            ["live graphs (now)", self.live_graphs],
            ["live subscriptions (now)", self.live_subscriptions],
            ["live shared counters (now)", self.live_shared_counters],
            ["delivery lag p50 (ms)", f"{self.delivery_lag_p50_s * 1e3:.2f}"],
            ["delivery lag p99 (ms)", f"{self.delivery_lag_p99_s * 1e3:.2f}"],
            ["delivery lag samples", self.delivery_lag_samples],
        ]
        return format_table(["metric", "value"], rows)
