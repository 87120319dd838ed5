"""Mining backends the scheduler dispatches batches to.

The scheduler groups compatible queries (same graph, same δ) into one
batch; an executor turns a batch into per-motif ``(count, counters)``
pairs.  Both executors route multi-motif batches through the shared
co-mining traversal (``comine=True``, the default): the batch's motifs
are mined in ONE pass down their prefix trie, with per-motif counts and
counters byte-identical to per-motif mining — so caching and coalescing
behave exactly as before, just cheaper.  Two implementations:

- :class:`InlineExecutor` — serial mining inside the calling lane
  thread (:class:`~repro.comine.engine.CoMiner` for multi-motif
  batches, :class:`MackeyMiner` otherwise).  No processes, no setup
  cost; the right backend for small graphs, tests and single-machine
  deployments where query concurrency (lanes) already saturates the
  cores.
- :class:`PoolExecutor` — per-graph resident worker pool reuse
  (:class:`~repro.mining.parallel.MiningPool`).  The first batch
  against a graph ships it (zero-copy shared memory) into a resident
  pool; subsequent batches only send tiny task tuples.  Pools are
  closed when the registry evicts their graph.

Fault tolerance in :class:`PoolExecutor` (degrade, never corrupt):

- **Checkout health.**  A cached pool that is closed or broken (it
  exhausted its respawn budget) is evicted at checkout and a
  fresh pool is built — one broken pool can no longer fail every later
  query for its graph.
- **Per-graph circuit breaker.**  ``breaker_failures`` consecutive
  backend failures open the graph's breaker; while open, batches for
  that graph are mined serially by an in-process
  :class:`InlineExecutor` (correct, just slower).  After
  ``breaker_cooldown_s`` one probe batch is allowed through the pool —
  success closes the breaker, failure re-opens it.
- **Same-batch fallback.**  Even before the breaker opens, a batch
  whose pool attempt fails is re-mined inline within the same call, so
  a backend failure is a latency event for its waiters, never an error.

Both executors honor ``cancel_check`` — the scheduler's deadline hook —
at their natural granularity (between motifs inline; between root-range
chunks in the pool) by raising :class:`MiningCancelled`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import MiningCancelled, check_engine, make_miner
from repro.mining.parallel import MiningPool
from repro.motifs.motif import Motif
from repro.resilience.breaker import CLOSED, CircuitBreaker
from repro.resilience.faults import FaultPlan, fault_point
from repro.service.metrics import ResilienceCounters

#: One batch item's result: (count, counters-as-dict).
BatchItem = Tuple[int, Dict[str, int]]


class InlineExecutor:
    """Serial in-process mining; cancellation polls between motifs.

    ``comine=True`` (default) routes multi-motif batches through one
    shared :class:`~repro.comine.engine.CoMiner` traversal instead of a
    per-motif loop — per-motif counts and counters are byte-identical
    (the co-miner's correctness contract), so cached payloads don't
    depend on how queries happened to batch.  Singleton batches always
    use a per-motif miner (there is nothing to share); ``engine`` picks
    which one of :data:`~repro.mining.dispatch.ENGINES` (identical
    results, so the knob is pure throughput).
    """

    # Class-level defaults so subclasses that skip __init__ (test fakes
    # wrapping count_batch) still mine correctly.
    comine = True
    engine = "mackey"
    counters: Optional[ResilienceCounters] = None

    def __init__(
        self,
        comine: bool = True,
        counters: Optional[ResilienceCounters] = None,
        engine: str = "mackey",
    ) -> None:
        check_engine(engine)
        self.comine = bool(comine)
        self.counters = counters
        self.engine = engine

    def count_batch(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> List[BatchItem]:
        if self.comine and len(motifs) > 1:
            from repro.comine.engine import CoMiner

            result = CoMiner(
                graph, list(motifs), delta, cancel_check=cancel_check
            ).mine()
            if self.counters is not None:
                self.counters.inc("comined_batches")
            return [
                (count, counters.as_dict())
                for count, counters in zip(result.counts, result.per_motif)
            ]
        out: List[BatchItem] = []
        for motif in motifs:
            if cancel_check is not None and cancel_check():
                raise MiningCancelled("batch cancelled between motifs")
            result = make_miner(
                self.engine, graph, motif, delta, cancel_check=cancel_check
            ).mine()
            out.append((result.count, result.counters.as_dict()))
        return out

    def estimate_batch(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        spec,
        cancel_check: Optional[Callable[[], bool]] = None,
        on_round: Optional[Callable[[int, object], None]] = None,
    ) -> List:
        """Approximate each motif by inline adaptive interval sampling.

        Returns per-motif :class:`~repro.approx.estimate.ApproxEstimate`
        objects.  ``on_round(index, estimate)`` observes every completed
        sampling round (the scheduler's partial-result stash for
        deadline-degraded serving).  Byte-identical to the pooled path
        by the per-sample-substream construction.
        """
        from repro.approx.engine import estimate_inline

        out: List = []
        for i, motif in enumerate(motifs):
            if cancel_check is not None and cancel_check() and not out:
                raise MiningCancelled("approx batch cancelled between motifs")
            hook = (
                (lambda est, _i=i: on_round(_i, est))
                if on_round is not None
                else None
            )
            out.append(
                estimate_inline(graph, motif, delta, spec, cancel_check, hook)
            )
        return out

    def release_graph(self, fingerprint: str) -> None:  # noqa: ARG002
        """Inline mining holds no per-graph state; nothing to release."""

    def close(self) -> None:
        """Stateless; nothing to shut down."""


class PoolExecutor:
    """Per-graph resident pool reuse with breaker-guarded degradation.

    ``num_workers`` processes per pool; at most ``max_pools`` pools stay
    resident (they hold worker processes and a shared-memory graph
    copy), evicted least-recently-used beyond that.

    ``fault_plan`` is shipped into the pools' workers (chaos testing).
    ``counters`` shares a :class:`ResilienceCounters` with the
    scheduler so service metrics see executor-side events.  ``engine`` picks the per-chunk
    mining core for non-comined batches (and for the inline fallback);
    results are byte-identical either way.
    """

    def __init__(
        self,
        num_workers: int,
        max_pools: int = 2,
        *,
        breaker_failures: int = 3,
        breaker_cooldown_s: float = 5.0,
        chunk_timeout_s: Optional[float] = 30.0,
        respawn_budget: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        counters: Optional[ResilienceCounters] = None,
        comine: bool = True,
        engine: str = "mackey",
    ) -> None:
        if num_workers < 1:
            raise ValueError("PoolExecutor needs at least one worker")
        if max_pools < 1:
            raise ValueError("max_pools must be positive")
        self.num_workers = int(num_workers)
        self.max_pools = int(max_pools)
        self.breaker_failures = int(breaker_failures)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.chunk_timeout_s = chunk_timeout_s
        self.respawn_budget = respawn_budget
        self.fault_plan = fault_plan
        self.counters = counters if counters is not None else ResilienceCounters()
        self.comine = bool(comine)
        self.engine = engine
        self._fallback = InlineExecutor(
            comine=self.comine, counters=self.counters, engine=self.engine
        )
        self._lock = threading.Lock()
        #: fingerprint -> pool, most recently used last.
        self._pools: Dict[str, MiningPool] = {}
        self._order: List[str] = []
        self._breakers: Dict[str, CircuitBreaker] = {}

    # -- pool residency --------------------------------------------------------

    def _build_pool(self, graph: TemporalGraph) -> MiningPool:
        return MiningPool(
            graph,
            self.num_workers,
            chunk_timeout_s=self.chunk_timeout_s,
            respawn_budget=self.respawn_budget,
            fault_plan=self.fault_plan,
            on_event=self.counters.inc,
        )

    def _pool_for(self, graph: TemporalGraph):
        fp = graph.fingerprint()
        doomed: List = []
        with self._lock:
            pool = self._pools.get(fp)
            if pool is not None and pool.broken:
                # A broken pool must never be handed out again: evict
                # and rebuild instead of failing every later query.
                doomed.append(self._pools.pop(fp))
                self._order.remove(fp)
                self.counters.inc("pools_rebuilt")
                pool = None
            if pool is None:
                pool = self._build_pool(graph)
                self._pools[fp] = pool
                self._order.append(fp)
                while len(self._order) > self.max_pools:
                    victim = self._order.pop(0)
                    doomed.append(self._pools.pop(victim))
            else:
                self._order.remove(fp)
                self._order.append(fp)
        for p in doomed:
            p.close()
        return pool

    def _evict_pool(self, fingerprint: str) -> None:
        with self._lock:
            pool = self._pools.pop(fingerprint, None)
            if fingerprint in self._order:
                self._order.remove(fingerprint)
        if pool is not None:
            pool.close()

    # -- breakers --------------------------------------------------------------

    def _on_breaker_event(self, event: str, breaker: CircuitBreaker) -> None:
        self.counters.inc(f"breaker_{event}s" if event != "half_open"
                          else "breaker_half_opens")

    def _breaker_for(self, fingerprint: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(fingerprint)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_failures,
                    cooldown_s=self.breaker_cooldown_s,
                    listener=self._on_breaker_event,
                    name=fingerprint,
                )
                self._breakers[fingerprint] = breaker
            return breaker

    def breaker_states(self) -> Dict[str, str]:
        """``fingerprint -> state`` for every breaker ever created."""
        with self._lock:
            breakers = dict(self._breakers)
        return {fp: b.state for fp, b in breakers.items()}

    def worker_liveness(self) -> Dict[str, Dict[str, int]]:
        """``fingerprint -> {live, target}`` for resident pools."""
        with self._lock:
            pools = dict(self._pools)
        return {
            fp: {"live": pool.live_workers, "target": self.num_workers}
            for fp, pool in pools.items()
        }

    @property
    def degraded(self) -> bool:
        """True while any graph's breaker is non-closed."""
        return any(s != CLOSED for s in self.breaker_states().values())

    # -- mining ----------------------------------------------------------------

    def count_batch(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> List[BatchItem]:
        fp = graph.fingerprint()
        breaker = self._breaker_for(fp)
        if not breaker.allow():
            # Breaker open: shed throughput (serial inline mining),
            # never correctness.
            self.counters.inc("degraded_queries", len(motifs))
            return self._fallback.count_batch(graph, motifs, delta, cancel_check)
        try:
            fault_point("executor.batch", graph=fp)
            pool = self._pool_for(graph)
            if self.comine and len(motifs) > 1:
                # Multi-motif batch lane: one shared co-mining traversal
                # sharded over the pool (byte-identical per motif).
                fam = pool.count_family(
                    list(motifs), delta, cancel_check=cancel_check
                )
                results = list(fam.results)
                self.counters.inc("comined_batches")
            else:
                results = pool.count_many(
                    list(motifs), delta, cancel_check=cancel_check,
                    engine=self.engine,
                )
        except MiningCancelled:
            # A deadline is not a backend failure; don't punish the pool
            # — but if this batch held the half-open probe slot, release
            # it so the breaker can probe again (otherwise the graph
            # stays degraded forever).
            breaker.cancel_probe()
            raise
        except Exception:  # noqa: BLE001 - any backend failure degrades
            breaker.record_failure()
            self.counters.inc("backend_failures")
            self._evict_pool(fp)
            self.counters.inc("degraded_queries", len(motifs))
            return self._fallback.count_batch(graph, motifs, delta, cancel_check)
        breaker.record_success()
        return [(r.count, r.counters.as_dict()) for r in results]

    def estimate_batch(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        spec,
        cancel_check: Optional[Callable[[], bool]] = None,
        on_round: Optional[Callable[[int, object], None]] = None,
    ) -> List:
        """Approximate each motif with pool-chunked adaptive sampling.

        Sample-index chunks ride the resident pool like mining chunks;
        the estimate is byte-identical to the inline path because
        per-sample substreams make batches chunking-invariant.  The
        degradation story mirrors :meth:`count_batch`: an open breaker
        (or a failing pool attempt) falls back to inline sampling —
        which is *still* approximate-and-labelled, so the breaker path
        serves bounded answers rather than rejecting.
        """
        from repro.approx.engine import adaptive_estimate
        from repro.approx.sampler import window_length_for

        fp = graph.fingerprint()
        breaker = self._breaker_for(fp)
        if not breaker.allow():
            self.counters.inc("degraded_queries", len(motifs))
            return self._fallback.estimate_batch(
                graph, motifs, delta, spec, cancel_check, on_round
            )
        window = window_length_for(delta, spec)
        out: List = []
        try:
            fault_point("executor.batch", graph=fp)
            pool = self._pool_for(graph)
            for i, motif in enumerate(motifs):
                hook = (
                    (lambda est, _i=i: on_round(_i, est))
                    if on_round is not None
                    else None
                )
                out.append(
                    adaptive_estimate(
                        lambda lo, hi, _m=motif: pool.sample_intervals(
                            _m, delta, spec, lo, hi, cancel_check
                        ),
                        spec,
                        window,
                        cancel_check,
                        hook,
                    )
                )
        except MiningCancelled:
            # Only escapes when a motif's *first* round was cancelled
            # (later rounds return a truncated estimate); not a backend
            # failure — release any half-open probe slot and re-raise.
            breaker.cancel_probe()
            raise
        except Exception:  # noqa: BLE001 - any backend failure degrades
            breaker.record_failure()
            self.counters.inc("backend_failures")
            self._evict_pool(fp)
            self.counters.inc("degraded_queries", len(motifs))
            return self._fallback.estimate_batch(
                graph, motifs, delta, spec, cancel_check, on_round
            )
        breaker.record_success()
        return out

    # -- lifecycle -------------------------------------------------------------

    def release_graph(self, fingerprint: str) -> None:
        """Close the pool whose graph was evicted from the registry."""
        self._evict_pool(fingerprint)

    def close(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self._order.clear()
        for pool in pools:
            pool.close()
