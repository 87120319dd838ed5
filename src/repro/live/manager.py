"""`LiveManager` — live graphs, subscriptions, and versioned serving.

The coordination layer between :mod:`repro.live` and the service stack:

- owns the table of :class:`~repro.live.ingest.LiveGraph` instances and
  the global subscription index (ids are service-wide, so the delivery
  endpoints address a subscription without knowing its graph);
- charges every ingest/delivery outcome to the **shared**
  :class:`~repro.service.metrics.ResilienceCounters`, so ``/metrics``
  shows ingestion and push delivery in the same snapshot as mining
  (plus a delivery-lag reservoir for the p99 gauge);
- implements **snapshot-at-version serving**: when a query names a live
  graph, :meth:`snapshot_for_query` materializes the current version's
  immutable snapshot under the graph's ingestion lock and registers it
  under the graph's name, recording ``version -> fingerprint`` in
  :attr:`LiveManager._pinned`.  Registration is *lazy* — versions
  nobody queries cost nothing — and bounded: only the newest
  ``keep_versions`` snapshots stay pinned; older ones are released and
  their cache entries invalidated **incrementally**, by the retired
  version's fingerprint, rather than wholesale.  Because the snapshot is
  taken under the same lock ingestion holds, a query admitted mid-ingest
  sees exactly one version — never a mix.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional

from repro.live.ingest import Edge, LiveGraph
from repro.live.subscriptions import UPDATE, Subscription
from repro.motifs.motif import Motif
from repro.service.cache import ResultCache
from repro.service.metrics import LatencyReservoir, ResilienceCounters
from repro.service.query import UnknownGraph
from repro.service.registry import GraphRegistry


class LiveManager:
    """All live-graph state behind one façade the service delegates to."""

    def __init__(
        self,
        registry: GraphRegistry,
        cache: ResultCache,
        counters: Optional[ResilienceCounters] = None,
        keep_versions: int = 2,
    ) -> None:
        if keep_versions < 1:
            raise ValueError("keep_versions must be positive")
        self.registry = registry
        self.cache = cache
        self.counters = counters if counters is not None else ResilienceCounters()
        self.keep_versions = int(keep_versions)
        self.delivery_lag = LatencyReservoir()
        self._lock = threading.Lock()
        self._graphs: Dict[str, LiveGraph] = {}
        #: Global subscription index: sub_id -> Subscription.
        self._subs: Dict[str, Subscription] = {}
        self._sub_ids = itertools.count(1)
        #: Pinned snapshots per graph: name -> OrderedDict(version -> fp),
        #: oldest version first, at most ``keep_versions`` entries.
        self._pinned: Dict[str, "OrderedDict[int, str]"] = {}

    # -- graph lifecycle -------------------------------------------------------

    def create_graph(
        self,
        name: str,
        delta: int,
        lateness: Optional[int] = 0,
        reorder_capacity: int = 1024,
    ) -> LiveGraph:
        live = LiveGraph(
            name,
            delta,
            lateness=lateness,
            reorder_capacity=reorder_capacity,
            on_commit=self._charge_commit,
        )
        with self._lock:
            if name in self._graphs:
                raise ValueError(f"live graph {name!r} already exists")
            self._graphs[name] = live
        return live

    def get(self, name: str) -> LiveGraph:
        with self._lock:
            live = self._graphs.get(name)
        if live is None:
            raise UnknownGraph(f"unknown live graph {name!r}")
        return live

    def is_live(self, name: str) -> bool:
        with self._lock:
            return name in self._graphs

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._graphs)

    def drop_graph(self, name: str) -> None:
        """Close a live graph: detach subscriptions, unpin snapshots."""
        with self._lock:
            live = self._graphs.pop(name, None)
            if live is None:
                raise UnknownGraph(f"unknown live graph {name!r}")
            for sub_id in list(live.subscriptions):
                self._subs.pop(sub_id, None)
            pinned = self._pinned.pop(name, OrderedDict())
        live.close()
        for fp in pinned.values():
            self.cache.invalidate_fingerprint(fp)
            self.registry.release(fp)

    # -- ingestion -------------------------------------------------------------

    def append(
        self,
        name: str,
        edges: Iterable[Edge],
        seq: Optional[int] = None,
        flush: bool = False,
    ) -> Dict:
        """Apply one batch to a live graph and count the answered call.

        What the batch ingested and fired is charged at commit
        (:meth:`_charge_commit`), so a batch whose ack is lost to a
        crash still counts, once.
        """
        ack = self.get(name).append_batch(edges, seq=seq, flush=flush)
        self.counters.inc("ingest_batches")
        if ack.get("duplicate"):
            self.counters.inc("duplicate_batches")
        return ack

    def _charge_commit(self, ack: Dict) -> None:
        inc = self.counters.inc
        inc("edges_ingested", ack["released"])
        inc("late_edges_dropped", ack["late_dropped"])
        inc("subscription_fires", ack["events"])

    # -- subscriptions ---------------------------------------------------------

    def subscribe(
        self,
        graph: str,
        motif: Motif,
        delta: Optional[int] = None,
        kind: str = UPDATE,
        threshold: Optional[int] = None,
        outbox_capacity: int = 256,
    ) -> Subscription:
        """Attach a standing query to a live graph; returns the sub."""
        live = self.get(graph)
        with self._lock:
            sub_id = f"sub-{next(self._sub_ids)}"
        sub = Subscription(
            sub_id,
            graph,
            motif,
            int(delta) if delta is not None else live.delta,
            kind=kind,
            threshold=threshold,
            outbox_capacity=outbox_capacity,
            on_drop=lambda n: self.counters.inc("events_dropped", n),
            on_deliver=self._record_delivery,
            on_gap=lambda n: self.counters.inc("gap_events", n),
        )
        live.attach(sub)
        with self._lock:
            self._subs[sub_id] = sub
        return sub

    def _record_delivery(self, n: int, lag_s: float) -> None:
        self.counters.inc("events_delivered", n)
        self.delivery_lag.record(lag_s)

    def subscription(self, sub_id: str) -> Subscription:
        with self._lock:
            sub = self._subs.get(sub_id)
        if sub is None:
            raise UnknownGraph(f"unknown subscription {sub_id!r}")
        return sub

    def unsubscribe(self, sub_id: str) -> None:
        sub = self.subscription(sub_id)
        self.get(sub.graph_name).detach(sub_id)
        with self._lock:
            self._subs.pop(sub_id, None)

    def subscriptions(self) -> List[str]:
        with self._lock:
            return sorted(self._subs, key=lambda s: int(s.split("-")[1]))

    # -- snapshot-at-version serving -------------------------------------------

    def snapshot_for_query(self, name: str) -> str:
        """Fingerprint of the live graph's *current* version, pinned.

        Taken under the graph's ingestion lock, so the snapshot is one
        coherent version even while batches are landing concurrently.
        Repeat queries against an unchanged version reuse the pinned
        fingerprint (and hence coalesce/cache like any static graph).
        """
        live = self.get(name)
        with live.lock:
            version = live.version
            with self._lock:
                pinned = self._pinned.setdefault(name, OrderedDict())
                fp = pinned.get(version)
            if fp is not None:
                return fp
            snapshot = live.buffer.snapshot()
        # Registration happens outside the ingestion lock (fingerprinting
        # hashes the arrays); worst case a concurrent commit registers a
        # newer version first — both stay pinned, both are coherent.
        fp = self.registry.register(snapshot, name=name)
        retire: List[str] = []
        with self._lock:
            pinned = self._pinned.setdefault(name, OrderedDict())
            if version in pinned:  # lost a race: someone pinned it
                extra_fp = pinned[version]
                if extra_fp == fp:
                    self.registry.release(fp)
                    return extra_fp
            pinned[version] = fp
            # Keep newest `keep_versions` by version number.
            for v in sorted(pinned):
                if len(pinned) <= self.keep_versions:
                    break
                retire.append(pinned.pop(v))
        for old_fp in retire:
            self.cache.invalidate_fingerprint(old_fp)
            self.registry.release(old_fp)
        return fp

    # -- observability / lifecycle ---------------------------------------------

    def status(self, name: str) -> Dict:
        live = self.get(name)
        st = live.status()
        with self._lock:
            st["pinned_versions"] = sorted(self._pinned.get(name, ()))
        with live.lock:
            st["subscription_ids"] = list(live.subscriptions)
        return st

    def gauges(self) -> Dict[str, float]:
        """The live side's rows of ``/metrics``
        (:data:`~repro.service.metrics.METRICS`)."""
        with self._lock:
            gauges = {
                "live_graphs": len(self._graphs),
                "live_subscriptions": len(self._subs),
                "live_shared_counters": sum(
                    live.shared_counters for live in self._graphs.values()
                ),
            }
        return {**gauges, **self.delivery_lag.metrics("delivery_lag")}

    def close(self) -> None:
        with self._lock:
            graphs = list(self._graphs.values())
            self._graphs.clear()
            self._subs.clear()
            self._pinned.clear()
        for live in graphs:
            live.close()
