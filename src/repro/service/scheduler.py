"""The query scheduler: admit → coalesce → batch → mine → cache.

Request lifecycle
-----------------

1. **Admit.**  :meth:`QueryScheduler.submit` first consults the
   :class:`~repro.service.cache.ResultCache`; a hit completes the
   request immediately.  Otherwise admission is bounded: when
   ``max_queue`` distinct queries are already waiting, the request is
   shed with :class:`~repro.service.query.QueryRejected` (carrying a
   retry-after hint) — the overload policy is explicit rejection, never
   unbounded queueing and never silent drops.
2. **Coalesce.**  A query whose key ``(fingerprint, canonical motif,
   delta)`` matches a queued *or running* query attaches to it instead
   of consuming a queue slot: one execution, many waiters
   (single-flight).  Equal keys imply byte-identical results, so
   coalescing is exact.
3. **Batch.**  A dispatcher thread drains the queue and groups
   compatible entries — same graph, same δ — into one batch, which an
   execution lane hands to the executor as a single multi-motif call
   (``count_batch`` / ``estimate_batch``), so a burst of different
   motifs against one graph shares a single dispatch wave.
4. **Mine.**  Lanes (a small thread pool) execute batches concurrently
   across graphs.  Per-request deadlines are enforced throughout:
   entries whose waiters have all expired are cancelled *before*
   mining, and a running batch polls a cancel hook so an expired batch
   stops at the next chunk boundary
   (:class:`~repro.mining.parallel.MiningCancelled`).  A deadline-cut
   answer is labelled ``degraded`` whichever thread serves it: the
   waiter at its deadline, or the lane that saw the run cancelled.
5. **Cache.**  Fresh results are inserted into the result cache keyed
   by the same triple, then delivered to every waiter.

A worker crash or any backend exception is delivered to the affected
waiters as an ``"error"`` result; the dispatcher, lanes and queue are
untouched, so one poisoned query can never wedge the scheduler.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.approx.estimate import APPROX, ApproxEstimate, ApproxSpec, build_approx_payload
from repro.mining.parallel import MiningCancelled
from repro.motifs.motif import Motif
from repro.resilience.breaker import CLOSED
from repro.service.cache import CachedResult, ResultCache
from repro.service.metrics import (
    LatencyReservoir,
    ResilienceCounters,
    ServiceMetrics,
)
from repro.service.query import (
    MotifQuery,
    QueryKey,
    QueryRejected,
    QueryResult,
    ServiceClosed,
    UnknownGraph,
    build_payload,
)
from repro.service.registry import GraphRegistry


class _Waiter:
    """One submitted request waiting on (possibly shared) execution."""

    __slots__ = (
        "query", "event", "result", "deadline", "expired", "admit_t",
        "source", "fallback",
    )

    def __init__(self, query: MotifQuery, admit_t: float, source: str) -> None:
        self.query = query
        self.event = threading.Event()
        self.result: Optional[QueryResult] = None
        self.deadline = (
            admit_t + query.timeout_s if query.timeout_s is not None else None
        )
        self.expired = False
        self.admit_t = admit_t
        self.source = source
        #: Degradation hook: called on deadline expiry to serve the best
        #: available *labelled* answer instead of a bare 504 (set by the
        #: scheduler for queued/coalesced waiters; None keeps the old
        #: behavior).
        self.fallback: Optional["Callable[[_Waiter], Optional[QueryResult]]"] = None


class _Entry:
    """One distinct in-flight (key, mode, spec) and its waiters.

    ``key`` is the cache triple; ``ckey`` additionally carries the query
    mode and approx spec — exact and approximate requests for the same
    triple must not coalesce (different answer contracts), but both
    fill the same cache slot.  ``partial`` holds the latest completed
    sampling round's estimate while an approx entry is running: the
    deadline-degradation path serves it (labelled truncated) where the
    service would otherwise 504.
    """

    __slots__ = (
        "key", "ckey", "fingerprint", "motif", "delta", "waiters", "state",
        "mode", "spec", "partial",
    )

    def __init__(self, key: QueryKey, query: MotifQuery, waiter: _Waiter) -> None:
        self.key = key
        self.ckey = (key, query.mode, query.approx)
        self.fingerprint = query.fingerprint
        self.motif: Motif = query.motif
        self.delta = int(query.delta)
        self.waiters: List[_Waiter] = [waiter]
        self.state = "queued"
        self.mode = query.mode
        self.spec: Optional[ApproxSpec] = query.approx
        self.partial: Optional[ApproxEstimate] = None

    def all_expired(self, now: float) -> bool:
        """True when no attached waiter can still use the result."""
        return all(
            w.expired or (w.deadline is not None and now > w.deadline)
            for w in self.waiters
        )


class PendingQuery:
    """Caller-side handle for one submitted query."""

    def __init__(self, waiter: _Waiter) -> None:
        self._waiter = waiter

    def done(self) -> bool:
        return self._waiter.event.is_set()

    def result(self) -> QueryResult:
        """Block until delivery or the query's own deadline.

        On deadline expiry the waiter is marked expired — the scheduler
        will skip the entry if it is still queued and cancel a running
        batch once every attached waiter has expired.  If the scheduler
        installed a degradation fallback and it can produce a *labelled*
        answer (a partial sampling round flagged truncated, or any
        cached entry with its accuracy tag), that is served instead of a
        bare ``"deadline_exceeded"`` — never wrong, sometimes
        approximate, always labelled.
        """
        w = self._waiter
        while True:
            if w.deadline is None:
                w.event.wait()
            else:
                w.event.wait(max(0.0, w.deadline - time.monotonic()))
            if w.event.is_set():
                return w.result  # type: ignore[return-value]
            if w.deadline is not None and time.monotonic() >= w.deadline:
                w.expired = True
                if w.fallback is not None:
                    degraded = w.fallback(w)
                    if degraded is not None:
                        return degraded
                return QueryResult(
                    status="deadline_exceeded",
                    source=w.source,
                    error="deadline exceeded before completion",
                    latency_s=time.monotonic() - w.admit_t,
                )


class QueryScheduler:
    """Bounded, coalescing, deadline-aware scheduler over a mining backend."""

    def __init__(
        self,
        registry: GraphRegistry,
        cache: ResultCache,
        executor,
        *,
        max_queue: int = 128,
        lanes: int = 2,
        max_batch: int = 16,
        latency_capacity: int = 4096,
        counters: Optional[ResilienceCounters] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if lanes < 1:
            raise ValueError("lanes must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.registry = registry
        self.cache = cache
        self.executor = executor
        self.max_queue = int(max_queue)
        self.max_batch = int(max_batch)
        self._lanes_count = int(lanes)

        self._cond = threading.Condition()
        #: Coalescing map keyed by (cache key, mode, approx spec).
        self._entries: Dict[Tuple, _Entry] = {}
        self._queue: Deque[_Entry] = deque()
        self._paused = False
        self._closed = False
        self._inflight = 0

        self.admitted = 0
        self.coalesced = 0
        self.shed = 0
        self.completed = 0
        self.errors = 0
        self.cancelled = 0
        self.latency = LatencyReservoir(latency_capacity)
        #: Achieved relative error of served approximate answers.
        self.approx_eps = LatencyReservoir(latency_capacity)
        #: Shared with the executor so one snapshot shows both sides.
        self.counters = counters if counters is not None else executor.counters

        self._lane_pool = ThreadPoolExecutor(
            max_workers=self._lanes_count, thread_name_prefix="mint-lane"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="mint-dispatch", daemon=True
        )
        self._dispatcher.start()

    # -- admission -------------------------------------------------------------

    def _cache_acceptable(self, query: MotifQuery) -> Optional[CachedResult]:
        """The cache entry (if any) that satisfies this query's contract.

        Exact queries accept only exact entries.  Approx queries prefer
        an exact entry (always), and accept an approximate one whose
        achieved ε meets the requested ``max_error`` at no lower
        confidence.
        """
        cached = self.cache.get(query.key, accept_approx=query.mode == APPROX)
        if cached is None or cached.is_exact:
            return cached
        spec = query.approx
        if (
            spec is not None
            and cached.achieved_eps <= spec.max_error
            and float(cached.approx["confidence"]) >= spec.confidence - 1e-12
        ):
            return cached
        return None

    def _cached_payload(
        self, fingerprint: str, motif: Motif, delta: int, cached: CachedResult
    ) -> Dict:
        """Rebuild the served payload for a cache entry (labelled)."""
        if cached.is_exact:
            return build_payload(
                fingerprint, motif, delta, cached.count, cached.counters
            )
        payload = {
            "graph": fingerprint,
            "motif": motif.name,
            "delta": int(delta),
            "count": int(cached.count),
            "counters": {k: int(v) for k, v in cached.counters.items()},
        }
        payload.update(cached.approx or {})
        return payload

    def submit(self, query: MotifQuery) -> PendingQuery:
        """Admit one query; returns a handle (never blocks on mining)."""
        now = time.monotonic()
        key = query.key
        ckey = (key, query.mode, query.approx)
        with self._cond:
            if self._closed:
                raise ServiceClosed("scheduler is closed")
            cached = self._cache_acceptable(query)
            if cached is not None:
                waiter = _Waiter(query, now, "cache")
                payload = self._cached_payload(
                    query.fingerprint, query.motif, query.delta, cached
                )
                latency = time.monotonic() - now
                waiter.result = QueryResult("ok", payload, "cache", None, latency)
                waiter.event.set()
                self.admitted += 1
                self.completed += 1
                self.latency.record(latency)
                if not cached.is_exact:
                    self.counters.inc("approx_served")
                    self.approx_eps.record(cached.achieved_eps)
                return PendingQuery(waiter)
            entry = self._entries.get(ckey)
            if entry is not None:
                waiter = _Waiter(query, now, "coalesced")
                waiter.fallback = self._make_fallback(entry)
                entry.waiters.append(waiter)
                self.admitted += 1
                self.coalesced += 1
                return PendingQuery(waiter)
            if len(self._queue) >= self.max_queue:
                # Overload.  Before shedding, try the degradation ladder:
                # *any* labelled cache entry for this triple (stale-tier
                # approx, or exact an approx query would have taken
                # anyway) beats a 429.
                stale = self.cache.peek(key)
                if stale is not None:
                    waiter = _Waiter(query, now, "degraded")
                    payload = self._cached_payload(
                        query.fingerprint, query.motif, query.delta, stale
                    )
                    latency = time.monotonic() - now
                    waiter.result = QueryResult(
                        "ok", payload, "degraded", None, latency
                    )
                    waiter.event.set()
                    self.admitted += 1
                    self.completed += 1
                    self.latency.record(latency)
                    self.counters.inc("degraded_estimates")
                    if not stale.is_exact:
                        self.counters.inc("approx_served")
                        self.approx_eps.record(stale.achieved_eps)
                    return PendingQuery(waiter)
                self.shed += 1
                hint = self._retry_hint_locked()
                raise QueryRejected(
                    f"admission queue full ({self.max_queue} queries queued); "
                    f"retry after {hint:.2f}s",
                    retry_after_s=hint,
                )
            waiter = _Waiter(query, now, "mined")
            entry = _Entry(key, query, waiter)
            waiter.fallback = self._make_fallback(entry)
            self._entries[ckey] = entry
            self._queue.append(entry)
            self.admitted += 1
            self._cond.notify_all()
            return PendingQuery(waiter)

    def _make_fallback(
        self, entry: _Entry
    ) -> Callable[[_Waiter], Optional[QueryResult]]:
        """Build the deadline-degradation hook for one entry's waiters.

        Called from the *waiter's* thread at deadline expiry, or from
        the lane when the run was cancelled (whichever gets there first
        answers the same way).  The ladder: (1) the entry's last
        completed sampling round, served truncated; (2) any cached entry
        for the triple, whatever its accuracy tag.  Returns None when
        nothing labelled exists — the caller then reports
        ``deadline_exceeded``.
        """

        def fallback(w: _Waiter) -> Optional[QueryResult]:
            latency = time.monotonic() - w.admit_t
            partial = entry.partial
            if partial is not None:
                est = partial.with_truncated(True)
                payload = build_approx_payload(
                    entry.fingerprint, w.query.motif, entry.delta, est
                )
                self.counters.inc("approx_served")
                self.counters.inc("degraded_estimates")
                self.approx_eps.record(est.achieved_eps)
                self.latency.record(latency)
                return QueryResult("ok", payload, "degraded", None, latency)
            stale = self.cache.peek(entry.key)
            if stale is not None:
                payload = self._cached_payload(
                    entry.fingerprint, w.query.motif, entry.delta, stale
                )
                self.counters.inc("degraded_estimates")
                if not stale.is_exact:
                    self.counters.inc("approx_served")
                    self.approx_eps.record(stale.achieved_eps)
                self.latency.record(latency)
                return QueryResult("ok", payload, "degraded", None, latency)
            return None

        return fallback

    def _retry_hint_locked(self) -> float:
        """Retry-after estimate: backlog drained at recent p50 per lane."""
        per_query = self.latency.quantiles()["p50_s"] or 0.05
        backlog = len(self._queue) + self._inflight
        return min(30.0, max(0.05, backlog * per_query / self._lanes_count))

    # -- dispatch --------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            group: List[_Entry] = []
            try:
                with self._cond:
                    while not self._closed and (self._paused or not self._queue):
                        self._cond.wait()
                    if self._closed:
                        leftovers = list(self._queue)
                        self._queue.clear()
                        break
                    group = [self._queue.popleft()]
                    head = group[0]
                    fp, delta = head.fingerprint, head.delta
                    mode, spec = head.mode, head.spec
                    rest: Deque[_Entry] = deque()
                    while self._queue and len(group) < self.max_batch:
                        e = self._queue.popleft()
                        if (
                            e.fingerprint == fp
                            and e.delta == delta
                            and e.mode == mode
                            and e.spec == spec
                        ):
                            group.append(e)
                        else:
                            rest.append(e)
                    rest.extend(self._queue)
                    self._queue = rest
                    for e in group:
                        e.state = "running"
                    self._inflight += len(group)
                self._lane_pool.submit(self._execute_group, group)
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                # An unexpected dispatcher exception used to kill this
                # thread silently, leaving every later query queued
                # forever.  Instead: error the current group's waiters,
                # count the crash, and keep dispatching.
                self.counters.inc("dispatcher_crashes")
                message = f"dispatcher error: {type(exc).__name__}: {exc}"
                for entry in group:
                    try:
                        self._deliver(entry, "error", error=message)
                    except Exception:  # pragma: no cover - defensive
                        pass
        for entry in leftovers:
            self._deliver(entry, "closed", error="service closed before execution")

    def _execute_group(self, group: List[_Entry]) -> None:
        now = time.monotonic()
        live: List[_Entry] = []
        for entry in group:
            if entry.all_expired(now):
                self._deliver(
                    entry,
                    "deadline_exceeded",
                    error="deadline expired while queued",
                )
            else:
                live.append(entry)
        if not live:
            return
        fp, delta = live[0].fingerprint, live[0].delta
        try:
            graph = self.registry.get(fp)
        except UnknownGraph as exc:
            for entry in live:
                self._deliver(entry, "error", error=str(exc))
            return

        def cancel_check() -> bool:
            t = time.monotonic()
            return all(e.all_expired(t) for e in live)

        motifs = [e.motif for e in live]
        if live[0].mode == APPROX:
            self._execute_approx_group(graph, live, motifs, delta, cancel_check)
            return
        results = self._call_backend(
            live,
            lambda: self.executor.count_batch(graph, motifs, delta, cancel_check),
        )
        for entry, (count, counters) in zip(live, results or ()):
            self.cache.put(entry.key, count, counters)
            self._deliver(entry, "ok", count=count, counters=counters)

    def _call_backend(self, live: List[_Entry], call) -> Optional[List]:
        """``call()`` the executor with one retry; ``None`` when the
        waiters were answered here instead.

        :class:`MiningCancelled` hands every entry to
        :meth:`_deliver_cancelled`.  Any other exception is retried once
        before erroring the waiters: a backend failure is usually a dead
        pool that the executor rebuilds at its next checkout, so the
        second attempt runs on a fresh one (or the degraded inline path).
        """
        for attempt in (1, 2):
            try:
                return call()
            except MiningCancelled:
                for entry in live:
                    self._deliver_cancelled(entry)
                return None
            except Exception as exc:  # noqa: BLE001 - must never wedge the lanes
                if attempt == 2:
                    message = f"{type(exc).__name__}: {exc}"
                    for entry in live:
                        self._deliver(entry, "error", error=message)
                    return None
                self.counters.inc("batch_retries")

    def _execute_approx_group(
        self, graph, live: List[_Entry], motifs: List[Motif], delta: int, cancel_check
    ) -> None:
        """Adaptive-sampling execution for one approx batch.

        Each completed round is stashed on its entry (``partial``) so
        deadline-expired waiters can be served the latest truncated
        estimate; a run cancelled *after* its first round returns that
        estimate flagged truncated, delivered as ``degraded``.
        """
        spec = live[0].spec or ApproxSpec()

        def on_round(i: int, est: ApproxEstimate) -> None:
            live[i].partial = est

        estimates = self._call_backend(
            live,
            lambda: self.executor.estimate_batch(
                graph, motifs, delta, spec, cancel_check, on_round
            ),
        )
        for entry, est in zip(live, estimates or ()):
            self.cache.put(
                entry.key,
                int(round(est.estimate)),
                est.counters,
                accuracy=est.accuracy,
                approx=est.stats_dict(),
            )
            self._deliver_approx(entry, est)

    def _deliver_approx(self, entry: _Entry, est: ApproxEstimate) -> None:
        """Deliver one labelled estimate to every waiter of an entry.

        A truncated estimate is a deadline-cut run, so it is served as
        ``degraded`` — what the waiter's own fallback would have said had
        its thread reached the deadline first.
        """
        now = time.monotonic()
        waiters = self._retire(entry)
        with self._cond:
            self.completed += len(waiters)
        for w in waiters:
            latency = now - w.admit_t
            payload = build_approx_payload(
                entry.fingerprint, w.query.motif, entry.delta, est
            )
            source = "degraded" if est.truncated else w.source
            w.result = QueryResult("ok", payload, source, None, latency)
            self.latency.record(latency)
            self.counters.inc("approx_served")
            if est.truncated:
                self.counters.inc("degraded_estimates")
            self.approx_eps.record(est.achieved_eps)
            w.event.set()

    def _deliver_cancelled(self, entry: _Entry) -> None:
        """Answer an entry whose run was cancelled while running.

        Each waiter that has not already taken its own fallback gets the
        degradation ladder's labelled answer (:meth:`_make_fallback`) when
        one exists; the rest get ``deadline_exceeded``.
        """
        waiters = self._retire(entry)
        fallback = self._make_fallback(entry)
        answers = [None if w.expired else fallback(w) for w in waiters]
        served = sum(a is not None for a in answers)
        with self._cond:
            self.completed += served
            self.cancelled += len(waiters) - served
        now = time.monotonic()
        for w, answer in zip(waiters, answers):
            w.result = answer or QueryResult(
                "deadline_exceeded", None, w.source, "cancelled while running",
                now - w.admit_t,
            )
            w.event.set()

    def _retire(self, entry: _Entry) -> List[_Waiter]:
        """Take an entry out of the coalescing map and the running count;
        returns its waiters, which no later query can join."""
        with self._cond:
            self._entries.pop(entry.ckey, None)
            if entry.state == "running":
                self._inflight -= 1
            return list(entry.waiters)

    def _deliver(
        self,
        entry: _Entry,
        status: str,
        count: int = 0,
        counters: Optional[Dict[str, int]] = None,
        error: Optional[str] = None,
    ) -> None:
        now = time.monotonic()
        waiters = self._retire(entry)
        with self._cond:
            if status == "ok":
                self.completed += len(waiters)
            elif status == "deadline_exceeded":
                self.cancelled += len(waiters)
            else:
                self.errors += len(waiters)
        for w in waiters:
            latency = now - w.admit_t
            if status == "ok":
                payload = build_payload(
                    entry.fingerprint,
                    w.query.motif,
                    entry.delta,
                    count,
                    counters or {},
                )
                w.result = QueryResult("ok", payload, w.source, None, latency)
                self.latency.record(latency)
            else:
                w.result = QueryResult(status, None, w.source, error, latency)
            w.event.set()

    # -- flow control ----------------------------------------------------------

    def pause(self) -> None:
        """Stop dispatching (admission continues) — drain/test hook."""
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def dispatcher_alive(self) -> bool:
        return self._dispatcher.is_alive()

    # -- observability ---------------------------------------------------------

    def metrics(self, **reported) -> ServiceMetrics:
        """The ``/metrics`` snapshot: this scheduler's rows with its
        cache's, counters' and reservoirs', plus the rows ``reported``
        by producers it does not own (the service's live gauges)."""
        with self._cond:
            own = {
                "queue_depth": len(self._queue),
                "inflight": self._inflight,
                "admitted": self.admitted,
                "coalesced": self.coalesced,
                "shed": self.shed,
                "completed": self.completed,
                "errors": self.errors,
                "cancelled": self.cancelled,
            }
        return ServiceMetrics(**{
            **own,
            **self.cache.stats(),
            **self.counters.snapshot(),
            **self.latency.metrics("latency"),
            **self.approx_eps.metrics("approx_eps", unit=""),
            "resident_graphs": self.registry.resident_count,
            "breakers_open": sum(
                1 for s in self.executor.breaker_states().values() if s != CLOSED
            ),
            **reported,
        })

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop admitting, drain queued entries as ``"closed"``, join."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join()
        self._lane_pool.shutdown(wait=True)

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
