"""`ClusterExecutor` — the service backend that dispatches to a cluster.

The executor itself — ``count_batch``, per-graph
breakers, the ``executor.batch`` fault site, same-call inline fallback,
rebuild of a broken dispatcher — is
:class:`~repro.service.executor.InlineExecutor`; this module supplies
only the dispatcher: a :class:`~repro.cluster.coordinator.MiningCluster`
the executor builds and owns (``num_nodes=``), or one it is handed
(``cluster=``).  The handed-over form is the horizontally-scaled
topology: several service replicas each hold their own facade (own
metrics counters, own breakers, own inline fallback) over one node pool
holding the resident graphs.  A shared cluster outlives every facade
and is never rebuilt by one — while it is down its breakers keep
batches inline.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.coordinator import MiningCluster
from repro.service.executor import InlineExecutor
from repro.service.metrics import ResilienceCounters


class ClusterExecutor(InlineExecutor):
    """Dispatch scheduler batches to a (possibly shared) mining cluster.

    Pass an existing ``cluster`` to share a node pool between service
    replicas (``close`` leaves it running), or ``num_nodes`` plus any
    :class:`MiningCluster` keyword ``policy`` to own a private one.
    """

    def __init__(
        self,
        cluster: Optional[MiningCluster] = None,
        *,
        num_nodes: Optional[int] = None,
        counters: Optional[ResilienceCounters] = None,
        **policy,
    ) -> None:
        if (cluster is None) == (num_nodes is None):
            raise ValueError("pass exactly one of cluster= or num_nodes=")
        if cluster is not None and policy:
            raise ValueError(
                "cluster construction kwargs conflict with a shared cluster"
            )
        self.owns_dispatcher = cluster is None
        self._shared, self._num_nodes, self._policy = cluster, num_nodes, policy
        super().__init__(counters)

    def _open_dispatcher(self) -> MiningCluster:
        if self._shared is not None:
            return self._shared
        return MiningCluster(
            self._num_nodes, on_event=self.counters.inc, **self._policy
        )
