"""The mining backend the scheduler dispatches batches to.

The scheduler groups compatible queries (same graph, same δ) into one
batch; the executor turns a batch into per-motif ``(count, counters)``
pairs (``count_batch``).  There is one executor class, one engine and
one way a batch is mined: ONE pass of the vectorised family walker
(:class:`~repro.comine.engine.CoMiner`,
:data:`~repro.comine.engine.ENGINE`) down the batch's
motif prefix trie, whether the batch holds one motif or sixteen — a
singleton is a family of one.  Per-motif counts and counters are
byte-identical to the scalar :class:`~repro.mining.mackey.MackeyMiner`
(the oracle the parity grids compare against, not a route the serving
stack can reach), so cached payloads do not depend on how queries
happened to batch.  *Where* it is mined is the one constructor
argument, ``dispatcher``:

- nothing: every batch runs in the calling lane thread on
  :data:`~repro.mining.chunks.INLINE`.  No processes, no setup cost,
  not even a ``multiprocessing`` import; the right backend for small
  graphs, tests and single-machine deployments where query concurrency
  (lanes) already saturates the cores.
- a factory, e.g. ``partial(WorkerPool, 4)`` or
  ``partial(MiningCluster, 3, seed=1)``: the executor calls it with
  ``on_event=counters.inc``, owns the
  :class:`~repro.mining.pool.ChunkDispatcher` it returns, closes it,
  and calls the factory again to replace one that has broken.  One
  graph-agnostic dispatcher serves every graph: a graph is shipped the
  first time a batch needs it and dropped when the registry evicts it,
  and lanes mining different graphs take turns on its deadline-aware
  lock instead of oversubscribing the cores.
- a dispatcher someone else built: shared (several service replicas
  over one node pool), so the executor never closes or rebuilds it.

The rest is the one wrapper around a dispatched batch (degrade, never
corrupt):

- **Per-graph circuit breaker.**  ``breaker_failures`` consecutive
  backend failures open the graph's breaker; while open, batches for
  that graph are mined inline (correct, just slower).  After
  ``breaker_cooldown_s`` one probe batch is allowed through — success
  closes the breaker, failure re-opens it; a probe cancelled by its
  deadline is judged neither way and releases the probe slot.
- **Same-call fallback.**  Even before the breaker opens, a batch whose
  dispatched attempt fails is re-mined inline within the same call, so
  a backend failure is a latency event for its waiters, never an error.
- **Rebuild at checkout.**  An owned dispatcher found closed or broken
  (it exhausted its respawn budget) is replaced by a fresh one —
  counted under ``pools_rebuilt`` — so one broken backend cannot fail
  every later query.  A shared dispatcher belongs to whoever built it;
  its breakers keep batches inline while it is down.

``cancel_check`` — the scheduler's deadline hook — is honoured between
chunks on every dispatcher and, in-process, inside the walker itself
(per root block and per frontier tile) by raising
:class:`MiningCancelled`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.chunks import INLINE, ChunkRunner
from repro.mining.results import MiningCancelled
from repro.motifs.motif import Motif
from repro.resilience.breaker import CLOSED, CircuitBreaker
from repro.resilience.faults import fault_point
from repro.service.metrics import ResilienceCounters

if TYPE_CHECKING:  # the inline executor never loads the process pool
    from repro.mining.pool import ChunkDispatcher

#: One batch item's result: (count, counters-as-dict).
BatchItem = Tuple[int, Dict[str, int]]

class InlineExecutor:
    """The executor: mines inline unless handed a ``dispatcher`` (a
    factory it owns, or a shared :class:`ChunkDispatcher`), and always
    falls back to inline mining.

    ``counters`` shares a :class:`ResilienceCounters` with the scheduler
    so service metrics see executor-side events; ``breaker_failures`` /
    ``breaker_cooldown_s`` set the per-graph breaker.
    """

    def __init__(
        self,
        dispatcher: Union[None, ChunkDispatcher, Callable[..., ChunkDispatcher]] = None,
        *,
        counters: Optional[ResilienceCounters] = None,
        breaker_failures: int = 3,
        breaker_cooldown_s: float = 5.0,
    ) -> None:
        self.counters = counters if counters is not None else ResilienceCounters()
        self.breaker_failures = int(breaker_failures)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: What builds a replacement dispatcher; ``None`` when there is
        #: none to own (inline, or shared: it belongs to its builder).
        self._factory = None
        if dispatcher is not None and not isinstance(dispatcher, ChunkRunner):
            self._factory = dispatcher
            dispatcher = self._factory(on_event=self.counters.inc)
        self._dispatcher: Optional[ChunkDispatcher] = dispatcher

    # -- the wrapper -----------------------------------------------------------

    def _checkout(self) -> ChunkDispatcher:
        """The live dispatcher, rebuilt first if this executor owns it
        and it can no longer mine."""
        doomed = None
        with self._lock:
            if self._factory is not None and self._dispatcher.broken:
                doomed = self._dispatcher
                self._dispatcher = self._factory(on_event=self.counters.inc)
                self.counters.inc("pools_rebuilt")
            dispatcher = self._dispatcher
        if doomed is not None:
            doomed.close()
        return dispatcher

    def _breaker_for(self, fingerprint: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(fingerprint)
            if breaker is None:
                breaker = self._breakers[fingerprint] = CircuitBreaker(
                    failure_threshold=self.breaker_failures,
                    cooldown_s=self.breaker_cooldown_s,
                    listener=lambda event, _b: self.counters.inc(f"breaker_{event}s"),
                    name=fingerprint,
                )
            return breaker

    def _run(self, graph: TemporalGraph, size: int, call: Callable[[ChunkRunner], List]):
        """``call(runner)`` through breaker → ``executor.batch`` fault
        site → dispatcher, falling back to ``call(INLINE)`` within the
        same call when the breaker is open or the attempt fails."""
        if self._dispatcher is None:
            return call(INLINE)
        fp = graph.fingerprint()
        breaker = self._breaker_for(fp)
        if breaker.allow():
            try:
                fault_point("executor.batch", graph=fp)
                result = call(self._checkout())
            except MiningCancelled:
                # A deadline is not a backend failure; don't punish the
                # backend — but if this batch held the half-open probe
                # slot, release it so the breaker can probe again
                # (otherwise the graph stays degraded forever).
                breaker.cancel_probe()
                raise
            except Exception:  # noqa: BLE001 - any backend failure degrades
                breaker.record_failure()
                self.counters.inc("backend_failures")
            else:
                breaker.record_success()
                return result
        # Shed throughput (serial inline mining), never correctness.
        self.counters.inc("degraded_queries", size)
        return call(INLINE)

    # -- mining ----------------------------------------------------------------

    def count_batch(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> List[BatchItem]:
        results = self._run(graph, len(motifs), lambda runner: runner.count_many(
            graph, list(motifs), delta, cancel_check=cancel_check,
        ))
        if len(motifs) > 1:
            self.counters.inc("comined_batches")
        return [(r.count, r.counters.as_dict()) for r in results]

    # -- health introspection (MotifService.health consumers) ------------------

    def breaker_states(self) -> Dict[str, str]:
        """``fingerprint -> state`` for every breaker ever created."""
        with self._lock:
            breakers = dict(self._breakers)
        return {fp: b.state for fp, b in breakers.items()}

    def worker_liveness(self) -> Dict[str, Dict[str, int]]:
        """``{"pool" | "cluster": {live, target}}`` — one dispatcher, shared
        by every graph, so liveness is dispatcher-wide; empty inline."""
        dispatcher = self._dispatcher
        if dispatcher is None:
            return {}
        return {dispatcher.label: {
            "live": dispatcher.live_workers, "target": dispatcher.num_workers,
        }}

    @property
    def degraded(self) -> bool:
        """True while any graph's breaker is non-closed."""
        return any(s != CLOSED for s in self.breaker_states().values())

    # -- lifecycle -------------------------------------------------------------

    def release_graph(self, fingerprint: str) -> None:
        """Drop a graph the registry evicted from the dispatcher's workers
        (no-op inline, for unknown fingerprints and once closed)."""
        dispatcher = self._dispatcher
        if dispatcher is not None and not dispatcher.closed:
            dispatcher.drop_graph(fingerprint)

    def close(self) -> None:
        if self._factory is not None:
            self._dispatcher.close()

