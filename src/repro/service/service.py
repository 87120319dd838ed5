"""`MotifService` — the thread-based serving front end.

Ties the pieces together: a :class:`GraphRegistry` (graph identity +
residency), a :class:`ResultCache` (fingerprint-keyed memoization), the mining
backend (:class:`InlineExecutor`, inline or over the dispatcher it was
handed) and the :class:`QueryScheduler` (admission,
coalescing, batching, deadlines).  Every answer is the exact count,
or none at all.  Registry evictions cascade: the evicted graph's cache
entries are invalidated and the executor drops it from its workers.

Live graphs (:mod:`repro.live`) share the registry, cache and
counters: a query against a live name serves its current version, and
:meth:`MotifService.live_window_query` counts any catalog motif on the
edges inside the live graph's current δ-window through the ordinary
scheduler path (the window snapshot is registered under its own
fingerprint, so identical windows coalesce and cache like any other
graph).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from typing import TYPE_CHECKING

from repro.graph.temporal_graph import TemporalGraph
from repro.comine.engine import ENGINE
from repro.motifs.catalog import motif_by_name
from repro.motifs.motif import Motif

if TYPE_CHECKING:  # imported lazily at runtime (repro.live uses the
    from repro.live.subscriptions import Subscription  # service internals)
from repro.service.cache import ResultCache
from repro.service.executor import InlineExecutor
from repro.service.metrics import ServiceMetrics
from repro.service.query import MotifQuery, QueryResult
from repro.service.registry import GraphRegistry
from repro.service.scheduler import PendingQuery, QueryScheduler

GraphRef = Union[TemporalGraph, str]
MotifRef = Union[Motif, str]


class MotifService:
    """Concurrent motif-query serving over registered temporal graphs."""

    def __init__(
        self,
        *,
        max_queue: int = 128,
        lanes: int = 2,
        cache_bytes: int = 64 * 1024 * 1024,
        executor=None,
    ) -> None:
        self.registry = GraphRegistry()
        self.cache = ResultCache(max_bytes=cache_bytes)
        # Where batches are mined is the executor's business (default:
        # inline); its counters are the service's, so metrics see it.
        self.executor = executor if executor is not None else InlineExecutor()
        self.resilience = self.executor.counters
        self.scheduler = QueryScheduler(
            self.registry,
            self.cache,
            self.executor,
            max_queue=max_queue,
            lanes=lanes,
            counters=self.resilience,
        )
        self.registry.add_evict_listener(self._on_graph_evicted)
        #: Live mutable graphs + standing subscriptions (repro.live);
        #: shares the registry/cache/counters so versioned snapshots
        #: serve (and meter) through the ordinary query path.  Imported
        #: here, not at module top: repro.live depends on the service
        #: internals (cache/registry/metrics), so this is the lazy edge
        #: that keeps the package graph acyclic.
        from repro.live.manager import LiveManager

        self.live = LiveManager(
            self.registry, self.cache, counters=self.resilience
        )
        self._closed = False

    def _on_graph_evicted(self, fingerprint: str) -> None:
        self.cache.invalidate_fingerprint(fingerprint)
        self.executor.release_graph(fingerprint)

    # -- graph management ------------------------------------------------------

    def register_graph(
        self, graph: TemporalGraph, name: Optional[str] = None
    ) -> str:
        """Pin a graph for serving; returns its content fingerprint."""
        return self.registry.register(graph, name=name)

    def release_graph(self, fingerprint: str) -> None:
        self.registry.release(fingerprint)

    def graphs(self) -> Dict[str, str]:
        """``name -> fingerprint`` for every registered alias."""
        return self.registry.names()

    # -- queries ---------------------------------------------------------------

    def _resolve_graph(self, graph: GraphRef) -> str:
        if isinstance(graph, TemporalGraph):
            fp = graph.fingerprint()
            if fp not in self.registry:
                # Transient registration: one reference, released right
                # away so the graph rides the idle LRU.
                self.registry.register(graph)
                self.registry.release(fp)
            return fp
        if self.live.is_live(graph):
            # A live name resolves to its *current version's* snapshot,
            # pinned under the ingestion lock — the whole query runs
            # against one coherent version however fast edges land.
            return self.live.snapshot_for_query(graph)
        return self.registry.resolve(graph)

    @staticmethod
    def _resolve_motif(motif: MotifRef) -> Motif:
        if isinstance(motif, Motif):
            return motif
        return motif_by_name(motif)

    def submit(
        self,
        graph: GraphRef,
        motif: MotifRef,
        delta: int,
        timeout_s: Optional[float] = None,
    ) -> PendingQuery:
        """Admit a query without blocking; raises
        :class:`~repro.service.query.QueryRejected` under overload."""
        query = MotifQuery(
            fingerprint=self._resolve_graph(graph),
            motif=self._resolve_motif(motif),
            delta=int(delta),
            timeout_s=timeout_s,
        )
        return self.scheduler.submit(query)

    def query(
        self,
        graph: GraphRef,
        motif: MotifRef,
        delta: int,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Submit and block for the result (or deadline)."""
        return self.submit(graph, motif, delta, timeout_s).result()

    # -- live graphs (repro.live: ingestion + subscriptions) -------------------

    def create_live_graph(
        self,
        name: str,
        delta: int,
        lateness: Optional[int] = 0,
        reorder_capacity: int = 1024,
    ) -> Dict:
        """Create a named mutable graph accepting edge batches."""
        if name in self.registry.names() or self.live.is_live(name):
            raise ValueError(f"graph name {name!r} already in use")
        live = self.live.create_graph(
            name, delta, lateness=lateness, reorder_capacity=reorder_capacity
        )
        return {"graph": name, "delta": live.delta, "version": live.version}

    def append_live(
        self,
        name: str,
        edges: Iterable[Tuple[int, int, int]],
        seq: Optional[int] = None,
        flush: bool = False,
    ) -> Dict:
        """Ingest one edge batch into a live graph; returns the ack."""
        return self.live.append(name, edges, seq=seq, flush=flush)

    def live_status(self, name: str) -> Dict:
        return self.live.status(name)

    def live_graphs(self) -> List[str]:
        return self.live.names()

    def drop_live_graph(self, name: str) -> None:
        self.live.drop_graph(name)

    def subscribe(
        self,
        graph: str,
        motif: MotifRef,
        delta: Optional[int] = None,
        kind: str = "update",
        threshold: Optional[int] = None,
        outbox_capacity: int = 256,
    ) -> "Subscription":
        """Attach a standing motif query to a live graph."""
        return self.live.subscribe(
            graph,
            self._resolve_motif(motif),
            delta=delta,
            kind=kind,
            threshold=threshold,
            outbox_capacity=outbox_capacity,
        )

    def unsubscribe(self, sub_id: str) -> None:
        self.live.unsubscribe(sub_id)

    def subscription(self, sub_id: str) -> "Subscription":
        return self.live.subscription(sub_id)

    def live_window_query(
        self,
        name: str,
        motif: MotifRef,
        delta: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Count any motif on a live graph's *current* δ-window.

        The window snapshot goes through the normal serve path, so two
        clients asking about the same unchanged window coalesce, and an
        unchanged window re-queried later is a cache hit.
        """
        live = self.live.get(name)
        if delta is None:
            delta = live.delta
        return self.query(
            live.window_snapshot(), motif, int(delta), timeout_s=timeout_s
        )

    # -- observability / lifecycle ---------------------------------------------

    def metrics(self) -> ServiceMetrics:
        return self.scheduler.metrics(**self.live.gauges())

    def render_metrics(self) -> str:
        return self.metrics().render()

    def health(self) -> Dict:
        """The ``/healthz`` body: liveness, degradation, and why.

        ``ok`` is the serving-capability bit (maps to HTTP 200/503):
        False only when the service cannot answer queries at all — it
        is closed, or the dispatcher thread is gone.  ``degraded`` is
        softer: the service still answers correctly, but some graph's
        breaker is open (serial fallback mining) or the executor's
        dispatcher (``workers``: one ``{live, target}`` entry keyed
        ``"pool"`` / ``"cluster"``, none inline) is running below its
        target worker count.  ``engine`` names the one exact engine
        behind every answer (read-only).
        """
        breakers = self.executor.breaker_states()
        workers = self.executor.worker_liveness()
        dispatcher_alive = self.scheduler.dispatcher_alive
        below_target = any(w["live"] < w["target"] for w in workers.values())
        degraded = (
            any(state != "closed" for state in breakers.values()) or below_target
        )
        return {
            "ok": bool(dispatcher_alive and not self._closed),
            "degraded": bool(degraded),
            "engine": ENGINE,
            "queue_depth": self.scheduler.queue_depth,
            "dispatcher_alive": bool(dispatcher_alive),
            "breakers": dict(breakers),
            "workers": workers,
            "dispatcher_crashes": self.resilience.get("dispatcher_crashes"),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.live.close()
        self.scheduler.close()
        self.executor.close()

    def __enter__(self) -> "MotifService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
