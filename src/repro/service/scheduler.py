"""The query scheduler: admit → coalesce → batch → mine → cache → answer.

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
   execution lane hands to the executor as a single multi-motif
   ``count_batch`` call, so a burst of different motifs against one
   graph shares a single dispatch wave.
4. **Mine.**  Lanes (a small thread pool) execute batches concurrently
   across graphs.  Per-request deadlines are enforced throughout:
   entries whose waiters have all expired are cancelled *before*
   mining, and a running batch polls a cancel hook so an expired batch
   stops at the next chunk boundary
   (:class:`~repro.mining.results.MiningCancelled`).
5. **Cache.**  Fresh results are inserted into the result cache keyed
   by the same triple, then delivered to every waiter.
6. **Answer.**  :meth:`QueryScheduler._answer` is the only code that
   hands a waiter its :class:`~repro.service.query.QueryResult`, and
   the first answer wins: the waiter's own thread at its deadline and
   the lane can both try, and the later one is dropped.  It alone
   counts the answer — ``completed`` (with a latency sample),
   ``cancelled`` or ``errors`` by status — so ``/metrics`` agrees with
   what clients got.  Every ``ok`` answer is exact (``cache``,
   ``coalesced`` or ``mined``); a waiter out of time is answered
   ``deadline_exceeded``, and a query that cannot be admitted is shed.

A worker crash or any backend exception is delivered to the affected
waiters as an ``"error"`` result; the dispatcher, lanes and queue are
untouched, so one poisoned query can never wedge the scheduler.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Tuple

from repro.mining.results import MiningCancelled
from repro.motifs.motif import Motif
from repro.resilience.breaker import CLOSED
from repro.service.cache import ResultCache
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

#: Most queries one batch carries to the executor.
MAX_BATCH = 16


class _Waiter:
    """One submitted request waiting on (possibly shared) execution.
    ``result`` is set once, by :meth:`QueryScheduler._answer`."""

    __slots__ = ("query", "event", "result", "deadline", "admit_t", "source")

    def __init__(self, query: MotifQuery, admit_t: float, source: str) -> None:
        self.query = query
        self.event = threading.Event()
        self.result: Optional[QueryResult] = None
        self.deadline = (
            admit_t + query.timeout_s if query.timeout_s is not None else None
        )
        self.admit_t = admit_t
        self.source = source


class _Entry:
    """One distinct in-flight cache key and its waiters."""

    __slots__ = ("key", "fingerprint", "motif", "delta", "waiters", "state")

    def __init__(self, key: QueryKey, query: MotifQuery) -> None:
        self.key = key
        self.fingerprint = query.fingerprint
        self.motif: Motif = query.motif
        self.delta = int(query.delta)
        self.waiters: List[_Waiter] = []
        self.state = "queued"

    def all_expired(self, now: float) -> bool:
        """True when no attached waiter can still use the result: each
        has its answer already or is past its deadline."""
        return all(
            w.result is not None or (w.deadline is not None and now > w.deadline)
            for w in self.waiters
        )


class PendingQuery:
    """Caller-side handle for one submitted query."""

    def __init__(self, scheduler: "QueryScheduler", waiter: _Waiter) -> None:
        self._scheduler = scheduler
        self._waiter = waiter

    def done(self) -> bool:
        return self._waiter.event.is_set()

    def result(self) -> QueryResult:
        """Block until delivery or the query's own deadline.

        At the deadline this thread answers the waiter
        ``deadline_exceeded``.  The scheduler then skips the entry if it
        is still queued and cancels a running batch once no waiter can
        use it.  Every call returns the same, first answer.
        """
        w = self._waiter
        timeout = (
            None if w.deadline is None else max(0.0, w.deadline - time.monotonic())
        )
        if not w.event.wait(timeout):
            self._scheduler._answer(
                w, "deadline_exceeded", error="deadline exceeded before completion"
            )
        return w.result  # type: ignore[return-value]


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
        counters: Optional[ResilienceCounters] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        if lanes < 1:
            raise ValueError("lanes must be positive")
        self.registry = registry
        self.cache = cache
        self.executor = executor
        self.max_queue = int(max_queue)
        self._lanes_count = int(lanes)

        #: Over an RLock, so ``submit`` can answer while it holds it.
        self._cond = threading.Condition(threading.RLock())
        #: Coalescing map: the in-flight entry of each cache key.
        self._entries: Dict[QueryKey, _Entry] = {}
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
        self.latency = LatencyReservoir()
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

    def submit(self, query: MotifQuery) -> PendingQuery:
        """Admit one query; returns a handle (never blocks on mining)."""
        now = time.monotonic()
        key = query.key
        with self._cond:
            if self._closed:
                raise ServiceClosed("scheduler is closed")
            cached = self.cache.get(key)
            entry = self._entries.get(key)
            if cached is not None:
                waiter = _Waiter(query, now, "cache")
                self._answer(waiter, "ok", build_payload(
                    query.fingerprint, query.motif, query.delta,
                    cached.count, cached.counters,
                ))
            elif entry is not None:
                waiter = _Waiter(query, now, "coalesced")
                entry.waiters.append(waiter)
                self.coalesced += 1
            elif len(self._queue) >= self.max_queue:
                self.shed += 1
                hint = self._retry_hint_locked()
                raise QueryRejected(
                    f"admission queue full ({self.max_queue} queries queued); "
                    f"retry after {hint:.2f}s",
                    retry_after_s=hint,
                )
            else:
                entry = _Entry(key, query)
                waiter = _Waiter(query, now, "mined")
                entry.waiters.append(waiter)
                self._entries[key] = entry
                self._queue.append(entry)
                self._cond.notify_all()
            self.admitted += 1
            return PendingQuery(self, waiter)

    def _retry_hint_locked(self) -> float:
        """Retry-after estimate: backlog drained at recent p50 per lane."""
        per_query = self.latency.quantiles()["p50_s"] or 0.05
        backlog = len(self._queue) + self._inflight
        return min(30.0, max(0.05, backlog * per_query / self._lanes_count))

    # -- answers ---------------------------------------------------------------

    def _answer(
        self,
        w: _Waiter,
        status: str,
        payload: Optional[Dict] = None,
        error: Optional[str] = None,
    ) -> QueryResult:
        """Give ``w`` its answer, unless it has one; returns the one it has.

        The only code that sets ``w.result`` and the only code that
        counts an answer, so every client-visible answer is counted once
        and a dropped one not at all.
        """
        with self._cond:
            if w.result is not None:
                return w.result
            latency = time.monotonic() - w.admit_t
            w.result = QueryResult(status, payload, w.source, error, latency)
            if status == "ok":
                self.completed += 1
                self.latency.record(latency)
            elif status == "deadline_exceeded":
                self.cancelled += 1
            else:
                self.errors += 1
            w.event.set()
            return w.result

    def _deliver(
        self,
        entry: _Entry,
        status: str,
        value: Optional[Tuple[int, Dict[str, int]]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Retire an entry (no later query can join it) and answer
        every waiter: ``ok`` with the mined ``(count, counters)``
        ``value``, any other status without a payload."""
        with self._cond:
            self._entries.pop(entry.key, None)
            if entry.state == "running":
                self._inflight -= 1
        for w in entry.waiters:
            if status != "ok":
                self._answer(w, status, error=error)
                continue
            count, counters = value
            self._answer(w, "ok", build_payload(
                entry.fingerprint, w.query.motif, entry.delta, count, counters
            ))

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
                    rest: Deque[_Entry] = deque()
                    while self._queue and len(group) < MAX_BATCH:
                        e = self._queue.popleft()
                        if e.fingerprint == fp and e.delta == delta:
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
        # One retry: a backend failure is usually a dead pool that the
        # executor rebuilds at its next checkout, so the second attempt
        # runs on a fresh one (or the degraded inline path).
        for attempt in (1, 2):
            try:
                results = self.executor.count_batch(graph, motifs, delta, cancel_check)
                break
            except MiningCancelled:
                for entry in live:
                    self._deliver(
                        entry, "deadline_exceeded", error="cancelled while running"
                    )
                return
            except Exception as exc:  # noqa: BLE001 - must never wedge the lanes
                if attempt == 2:
                    message = f"{type(exc).__name__}: {exc}"
                    for entry in live:
                        self._deliver(entry, "error", error=message)
                    return
                self.counters.inc("batch_retries")
        for entry, (count, counters) in zip(live, results):
            self.cache.put(entry.key, count, counters)
            self._deliver(entry, "ok", (count, counters))

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
