"""`ClusterExecutor` — the service backend that dispatches to a cluster.

Implements the same executor interface the scheduler already speaks
(``count_batch`` / ``release_graph`` / ``close`` plus the health
introspection hooks), so ``MotifService(executor=ClusterExecutor(...))``
serves through worker nodes with no scheduler changes.  Crucially the
cluster can be *shared*: several service replicas each hold their own
``ClusterExecutor`` facade (own metrics counters, own fallback) over
one :class:`~repro.cluster.coordinator.MiningCluster` — the
horizontally-scaled topology where front-end replicas multiply query
concurrency while one node pool holds the resident graphs.

Failure semantics mirror :class:`~repro.service.executor.PoolExecutor`'s
"degrade, never corrupt": a batch whose cluster attempt fails
(``ClusterFailed``, chunk exhaustion, a dead coordinator socket) is
re-mined inline in the calling lane within the same call — a latency
event for its waiters, never a wrong answer — while deadline
cancellations pass through untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.coordinator import MiningCluster
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import MiningCancelled, check_engine
from repro.motifs.motif import Motif
from repro.resilience.faults import fault_point
from repro.service.executor import BatchItem, InlineExecutor
from repro.service.metrics import ResilienceCounters


class ClusterExecutor:
    """Dispatch scheduler batches to a (possibly shared) mining cluster.

    Pass an existing ``cluster`` to share a node pool between service
    replicas (the cluster outlives every facade; ``close`` leaves it
    running), or ``num_nodes`` to own a private one (closed with the
    executor).  ``comine=True`` routes multi-motif batches through the
    shared family traversal, exactly like the pool executor; ``engine``
    picks the per-chunk core for the rest.  Results are byte-identical
    to serial mining either way.
    """

    def __init__(
        self,
        cluster: Optional[MiningCluster] = None,
        *,
        num_nodes: Optional[int] = None,
        counters: Optional[ResilienceCounters] = None,
        comine: bool = True,
        engine: str = "mackey",
        **cluster_kwargs,
    ) -> None:
        check_engine(engine)
        if (cluster is None) == (num_nodes is None):
            raise ValueError("pass exactly one of cluster= or num_nodes=")
        self.counters = counters if counters is not None else ResilienceCounters()
        self.comine = bool(comine)
        self.engine = engine
        if cluster is not None:
            if cluster_kwargs:
                raise ValueError(
                    "cluster construction kwargs conflict with a shared cluster"
                )
            self.cluster = cluster
            self._owns_cluster = False
        else:
            self.cluster = MiningCluster(
                num_nodes, on_event=self.counters.inc, **cluster_kwargs
            )
            self._owns_cluster = True
        self._fallback = InlineExecutor(
            comine=self.comine, counters=self.counters, engine=self.engine
        )

    # -- mining ----------------------------------------------------------------

    def count_batch(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> List[BatchItem]:
        try:
            fault_point("executor.batch", graph=graph.fingerprint())
            if self.comine and len(motifs) > 1:
                fam = self.cluster.count_family(
                    graph, list(motifs), delta, cancel_check=cancel_check
                )
                results = list(fam.results)
                self.counters.inc("comined_batches")
            else:
                results = self.cluster.count_many(
                    graph, list(motifs), delta, cancel_check=cancel_check,
                    engine=self.engine,
                )
        except MiningCancelled:
            raise  # a deadline is not a backend failure
        except Exception:  # noqa: BLE001 - any cluster failure degrades
            self.counters.inc("backend_failures")
            self.counters.inc("degraded_queries", len(motifs))
            return self._fallback.count_batch(graph, motifs, delta, cancel_check)
        return [(r.count, r.counters.as_dict()) for r in results]

    # -- health introspection (MotifService.health consumers) ------------------

    def breaker_states(self) -> Dict[str, str]:
        """Clusters degrade by node loss, not per-graph breakers."""
        return {}

    def worker_liveness(self) -> Dict[str, Dict[str, int]]:
        """``"cluster" -> {live, target}`` node counts (one pool, shared
        by every graph, so liveness is cluster-wide)."""
        return {
            "cluster": {
                "live": int(self.cluster.live_nodes),
                "target": int(self.cluster.num_nodes),
            }
        }

    @property
    def degraded(self) -> bool:
        return self.cluster.degraded

    # -- lifecycle -------------------------------------------------------------

    def release_graph(self, fingerprint: str) -> None:
        """Drop the graph from every node it was placed on."""
        if not self.cluster.closed:
            self.cluster.drop_graph(fingerprint)

    def close(self) -> None:
        if self._owns_cluster:
            self.cluster.close()
