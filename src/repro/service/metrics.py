"""Service observability: the metrics table, latency reservoirs and snapshots.

Every number ``GET /metrics`` reports is one row of :data:`METRICS`: its
JSON name, its text-body label and how the text body shows it.  The
snapshot's zero defaults, :meth:`ServiceMetrics.as_dict`, the derived
ratios, ``engine`` and :meth:`ServiceMetrics.render` all come from that
table.  The producers — :meth:`QueryScheduler.metrics
<repro.service.scheduler.QueryScheduler.metrics>` for its own counters,
:meth:`ResultCache.stats <repro.service.cache.ResultCache.stats>`,
:meth:`ResilienceCounters.snapshot`, :meth:`LatencyReservoir.metrics`
and :meth:`LiveManager.gauges <repro.live.manager.LiveManager.gauges>` —
each hand over a dict keyed by row names, so adding a metric is one row
plus the line that produces its value.

The rows carry what an operator needs to steer the serving layer:
admission-queue depth (backpressure), coalesce ratio (how much
single-flight is saving), cache hit-rate (how much memoization is
saving), shed count (overload policy engaged), p50/p99 latency (tail
health), then the resilience and live-ingestion counters.  The text
body has the layout of :func:`repro.analysis.reporting.format_table`,
every other report's formatter, laid out here so that serving loads
nothing of the offline experiment harness.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from typing import (
    Any, Callable, Deque, Dict, List, Mapping, NamedTuple, Optional, Sequence,
)

from repro.comine.engine import ENGINE


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
    """Shared, thread-safe monotonic counters.

    One instance is threaded through the executor (worker deaths, chunk
    retries, respawns, breaker transitions, degraded-mode queries), the
    dispatchers' ``on_event`` hook (under :class:`DispatchStats
    <repro.mining.pool.DispatchStats>` field names), the scheduler
    (batch retries, dispatcher crashes) and live ingestion, so one snapshot shows one coherent
    picture.  Names are free: ``/metrics`` reports those :data:`METRICS`
    lists, and a name never counted reads as zero.
    """

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
        """Every name counted so far."""
        with self._lock:
            return dict(self._counts)


class LatencyReservoir:
    """Bounded sliding reservoir of recent samples (latencies in
    seconds), whose p50/p99 ``/metrics`` reports."""

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

    def metrics(self, name: str) -> Dict[str, float]:
        """This reservoir's :data:`METRICS` rows: ``{name}_p50_s``,
        ``{name}_p99_s`` and ``{name}_samples`` (every sample ever
        recorded, not only those still held)."""
        q = self.quantiles()
        return {
            f"{name}_p50_s": q["p50_s"],
            f"{name}_p99_s": q["p99_s"],
            f"{name}_samples": self.recorded_total,
        }


class Metric(NamedTuple):
    """One row of ``/metrics``."""

    #: The JSON key, and the snapshot attribute.
    name: str
    #: The row's label in the text body.
    label: str
    #: The text-body cell for a value.
    show: Callable[[Any], str] = "{:,}".format
    #: The value when no producer reports one; every value is coerced
    #: to its type, so it also fixes how the JSON body spells the value.
    zero: Any = 0
    #: Computes the value from everything reported (names never
    #: reported read as 0) instead of reading it under ``name``.
    derive: Optional[Callable[[Mapping[str, Any]], Any]] = None


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


_RATIO = "{:.3f}".format

#: Every number ``/metrics`` reports, in text-body order.
METRICS = (
    Metric("queue_depth", "queue depth"),
    Metric("inflight", "in flight"),
    Metric("admitted", "admitted"),
    Metric("coalesced", "coalesced"),
    # Fraction of admitted requests that rode an in-flight twin.
    Metric("coalesce_ratio", "coalesce ratio", _RATIO, 0.0,
           lambda r: _ratio(r["coalesced"], r["admitted"])),
    Metric("shed", "shed (rejected)"),
    Metric("completed", "completed"),
    Metric("errors", "errors"),
    Metric("cancelled", "cancelled (deadline)"),
    Metric("cache_hits", "cache hits"),
    Metric("cache_misses", "cache misses"),
    Metric("cache_hit_rate", "cache hit rate", _RATIO, 0.0,
           lambda r: _ratio(r["cache_hits"], r["cache_hits"] + r["cache_misses"])),
    Metric("cache_entries", "cache entries"),
    Metric("cache_bytes", "cache bytes"),
    # Resident bytes booked per cache entry.
    Metric("cache_bytes_per_entry", "cache bytes per entry", "{:.1f}".format, 0.0,
           lambda r: _ratio(r["cache_bytes"], r["cache_entries"])),
    Metric("cache_evictions", "cache evictions"),
    Metric("resident_graphs", "resident graphs"),
    Metric("latency_p50_s", "latency p50 (ms)", _ms, 0.0),
    Metric("latency_p99_s", "latency p99 (ms)", _ms, 0.0),
    Metric("latency_samples", "latency samples"),
    # The exact engine that mines every batch, so a running server can
    # be asked.
    Metric("engine", "engine", str, ENGINE),
    # -- resilience ------------------------------------------------------------
    Metric("worker_deaths", "worker deaths"),
    Metric("wedged_kills", "wedged kills"),
    Metric("chunk_retries", "chunk retries"),
    Metric("worker_respawns", "worker respawns", derive=lambda r: r["respawns"]),
    # Cluster nodes lost, graphs shipped to workers (pool or cluster),
    # and graphs re-homed off dead slots (``serve --cluster N``).
    Metric("node_deaths", "node deaths"),
    Metric("graph_ships", "graph ships"),
    Metric("failovers", "failovers"),
    Metric("backend_failures", "backend failures"),
    Metric("degraded_queries", "degraded queries"),
    # Multi-motif batches served by one shared co-mining traversal.
    Metric("comined_batches", "co-mined batches"),
    Metric("batch_retries", "batch retries"),
    Metric("dispatcher_crashes", "dispatcher crashes"),
    Metric("pools_rebuilt", "pools rebuilt"),
    Metric("breaker_opens", "breaker opens"),
    Metric("breaker_half_opens", "breaker half-opens"),
    Metric("breaker_closes", "breaker closes"),
    # Gauge: breakers currently not closed (open or half-open), while
    # which their graphs are served by degraded serial mining.
    Metric("breakers_open", "breakers open (now)"),
    Metric("degraded", "degraded", lambda b: str(b).lower(), False,
           lambda r: r["breakers_open"] > 0),
    # -- live ingestion / subscriptions (repro.live) ---------------------------
    # Edges applied to live graphs (post reorder-buffer release).
    Metric("edges_ingested", "edges ingested"),
    Metric("ingest_batches", "ingest batches"),
    # Retried batches answered from the idempotency ledger.
    Metric("duplicate_batches", "duplicate batches"),
    # Edges arriving below the reorder watermark, dropped and counted.
    Metric("late_edges_dropped", "late edges dropped"),
    # Subscription evaluations that emitted an event (update or alert).
    Metric("subscription_fires", "subscription fires"),
    # Events handed to consumers across all outboxes (at-least-once, so
    # redeliveries count again), and events dropped from full outboxes.
    Metric("events_delivered", "events delivered"),
    Metric("events_dropped", "events dropped"),
    # Synthetic gap events surfaced to lagging consumers.
    Metric("gap_events", "gap events"),
    # Gauges: live graphs and standing subscriptions right now, and the
    # distinct (motif, δ, attach position) counters those subscriptions
    # are views over — the engines ingest actually advances.
    Metric("live_graphs", "live graphs (now)"),
    Metric("live_subscriptions", "live subscriptions (now)"),
    Metric("live_shared_counters", "live shared counters (now)"),
    # Enqueue-to-delivery lag over recently delivered events.
    Metric("delivery_lag_p50_s", "delivery lag p50 (ms)", _ms, 0.0),
    Metric("delivery_lag_p99_s", "delivery lag p99 (ms)", _ms, 0.0),
    Metric("delivery_lag_samples", "delivery lag samples"),
)


class ServiceMetrics:
    """A point-in-time snapshot of the serving layer's health: one value
    per :data:`METRICS` row, read as an attribute (``m.cache_hits``).

    Built from what the producers report, keyed by row name.  A row
    nobody reports is its zero; a reported name no row lists is not
    part of the snapshot.
    """

    def __init__(self, **reported: Any) -> None:
        r = defaultdict(int, reported)
        self._values: Dict[str, Any] = {
            m.name: type(m.zero)(m.derive(r) if m.derive else r.get(m.name, m.zero))
            for m in METRICS
        }

    def __getattr__(self, name: str) -> Any:
        if not name.startswith("_") and name in self._values:
            return self._values[name]
        raise AttributeError(name)

    def as_dict(self) -> Dict[str, Any]:
        """The ``GET /metrics`` JSON body's ``metrics`` object."""
        return dict(self._values)

    def render(self) -> str:
        """Operator-facing table (the ``GET /metrics?format=text`` body)."""
        rows = [("metric", "value")] + [
            (m.label, m.show(self._values[m.name])) for m in METRICS
        ]
        w = max(len(label) for label, _ in rows)
        v = max(len(value) for _, value in rows)
        lines = [f"{label.ljust(w)} | {value.ljust(v)}" for label, value in rows]
        lines.insert(1, f"{'-' * w}-+-{'-' * v}")
        return "\n".join(lines)
