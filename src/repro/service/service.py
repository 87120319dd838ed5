"""`MotifService` — the thread-based serving front end.

Ties the pieces together: a :class:`GraphRegistry` (graph identity +
residency), a :class:`ResultCache` (fingerprint-keyed memoization), a
mining backend (:class:`InlineExecutor`, or a dispatching subclass such
as :class:`PoolExecutor`) and the :class:`QueryScheduler` (admission,
coalescing, batching, deadlines).  Registry evictions cascade: the
evicted graph's cache entries are invalidated and the executor drops
it from its workers.

Beyond batch queries over registered graphs, the service hosts **live
streams**: named incremental counters
(:class:`~repro.streaming.counter.StreamingCounter`) that ingest edges
online and answer two kinds of questions —

- *running totals* (:meth:`stream_counts`): the exact count over the
  whole ingested prefix, maintained incrementally;
- *live-window queries* (:meth:`stream_window_query`): any catalog
  motif counted on the edges currently inside the δ-window, served
  through the ordinary scheduler path (the window snapshot is
  registered under its own fingerprint, so identical windows coalesce
  and cache like any other graph).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from typing import TYPE_CHECKING

from repro.approx.estimate import APPROX, EXACT, ApproxSpec
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import ENGINE
from repro.motifs.catalog import motif_by_name
from repro.motifs.motif import Motif

if TYPE_CHECKING:  # imported lazily at runtime (repro.live uses the
    from repro.live.subscriptions import Subscription  # service internals)
from repro.service.cache import ResultCache
from repro.service.executor import InlineExecutor, PoolExecutor
from repro.service.metrics import ResilienceCounters, ServiceMetrics
from repro.service.query import MotifQuery, QueryResult, UnknownGraph
from repro.service.registry import GraphRegistry
from repro.service.scheduler import PendingQuery, QueryScheduler
from repro.streaming.counter import StreamingCounter

GraphRef = Union[TemporalGraph, str]
MotifRef = Union[Motif, str]


class _LiveStream:
    """One named online counter plus its ingestion lock."""

    __slots__ = ("name", "counter", "lock")

    def __init__(self, name: str, counter: StreamingCounter) -> None:
        self.name = name
        self.counter = counter
        self.lock = threading.Lock()


class MotifService:
    """Concurrent motif-query serving over registered temporal graphs."""

    def __init__(
        self,
        *,
        num_workers: int = 0,
        max_queue: int = 128,
        lanes: int = 2,
        max_batch: int = 16,
        cache_bytes: int = 64 * 1024 * 1024,
        max_idle_graphs: int = 4,
        executor=None,
    ) -> None:
        self.registry = GraphRegistry(max_idle=max_idle_graphs)
        self.cache = ResultCache(max_bytes=cache_bytes)
        self.resilience = ResilienceCounters()
        if executor is not None:
            # Caller-supplied backend (custom breaker/fault settings);
            # adopt its counters so metrics stay coherent.
            self.executor = executor
            self.resilience = executor.counters
        elif num_workers > 0:
            self.executor = PoolExecutor(num_workers, counters=self.resilience)
        else:
            self.executor = InlineExecutor(counters=self.resilience)
        self.scheduler = QueryScheduler(
            self.registry,
            self.cache,
            self.executor,
            max_queue=max_queue,
            lanes=lanes,
            max_batch=max_batch,
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
        self._streams: Dict[str, _LiveStream] = {}
        self._streams_lock = threading.Lock()
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
        mode: str = EXACT,
        approx: Optional[ApproxSpec] = None,
    ) -> PendingQuery:
        """Admit a query without blocking; raises
        :class:`~repro.service.query.QueryRejected` under overload.

        ``mode="approx"`` answers from sampled intervals with error
        bounds; ``approx`` carries the accuracy contract
        (``max_error``/``confidence``/``seed``), defaulting to
        :class:`~repro.approx.estimate.ApproxSpec`'s defaults.
        """
        if approx is not None and mode == EXACT:
            mode = APPROX
        query = MotifQuery(
            fingerprint=self._resolve_graph(graph),
            motif=self._resolve_motif(motif),
            delta=int(delta),
            timeout_s=timeout_s,
            mode=mode,
            approx=approx,
        )
        return self.scheduler.submit(query)

    def query(
        self,
        graph: GraphRef,
        motif: MotifRef,
        delta: int,
        timeout_s: Optional[float] = None,
        mode: str = EXACT,
        approx: Optional[ApproxSpec] = None,
    ) -> QueryResult:
        """Submit and block for the result (or deadline)."""
        return self.submit(
            graph, motif, delta, timeout_s, mode=mode, approx=approx
        ).result()

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

    def live_query(
        self,
        name: str,
        motif: MotifRef,
        delta: Optional[int] = None,
        timeout_s: Optional[float] = None,
        mode: str = EXACT,
        approx: Optional[ApproxSpec] = None,
    ) -> QueryResult:
        """Query a live graph's current version (exact or approx)."""
        if delta is None:
            delta = self.live.get(name).delta
        return self.query(
            name, motif, int(delta), timeout_s=timeout_s, mode=mode,
            approx=approx,
        )

    # -- live streams (legacy single-motif counters) ---------------------------

    def open_stream(self, name: str, motif: MotifRef, delta: int) -> str:
        """Create a named online counter; returns the name."""
        stream = _LiveStream(
            name, StreamingCounter(self._resolve_motif(motif), int(delta))
        )
        with self._streams_lock:
            if name in self._streams:
                raise ValueError(f"stream {name!r} already exists")
            self._streams[name] = stream
        return name

    def _stream(self, name: str) -> _LiveStream:
        with self._streams_lock:
            try:
                return self._streams[name]
            except KeyError:
                raise UnknownGraph(f"unknown stream {name!r}") from None

    def append_stream(
        self, name: str, edges: Iterable[Tuple[int, int, int]]
    ) -> Dict[str, int]:
        """Ingest edges into a live stream; returns ingest accounting."""
        stream = self._stream(name)
        with stream.lock:
            completed = stream.counter.add_batch(edges)
            return {
                "appended": stream.counter.num_edges,
                "completed": completed,
                "count": stream.counter.count,
                "window_edges": stream.counter.window_size,
            }

    def stream_counts(self, name: str) -> Dict[str, int]:
        """Running exact totals for one live stream."""
        stream = self._stream(name)
        with stream.lock:
            c = stream.counter
            return {
                "stream": name,
                "motif": c.motif.name,
                "delta": c.delta,
                "count": c.count,
                "num_edges": c.num_edges,
                "window_edges": c.window_size,
                "live_partials": c.live_partials,
            }

    def stream_window_query(
        self,
        name: str,
        motif: MotifRef,
        delta: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Count any motif on a stream's *current* δ-window.

        The window snapshot goes through the normal serve path, so two
        clients asking about the same unchanged window coalesce, and an
        unchanged window re-queried later is a cache hit.
        """
        stream = self._stream(name)
        with stream.lock:
            snapshot = stream.counter.window_snapshot()
            if delta is None:
                delta = stream.counter.delta
        return self.query(snapshot, motif, int(delta), timeout_s=timeout_s)

    def close_stream(self, name: str) -> None:
        with self._streams_lock:
            if self._streams.pop(name, None) is None:
                raise UnknownGraph(f"unknown stream {name!r}")

    def streams(self) -> List[str]:
        with self._streams_lock:
            return sorted(self._streams)

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
