"""`MiningCluster` — a coordinator sharding mining across worker nodes.

Gao et al. (arxiv 2204.09236) scale temporal motif counting by
partitioning the search into independent tasks and merging commutative
per-partition counts; root-range chunks and ``FamilyResult.merge`` are
exactly that decomposition, and
:class:`~repro.mining.pool.ChunkDispatcher` is the loop that runs
it (chunk queue, retry, wedge kill, budgeted respawn, degraded
completion, failover — and the graph-first ``count`` / ``count_many`` /
``count_family`` / ``sample_intervals`` it inherits — shared with the
local pool, so every engine and chunk kind that works in a pool works
on a node unchanged).  What the cluster adds:

- **Socket transport.**  Each node is the dispatcher's worker process
  dialling the coordinator's ``multiprocessing.connection`` listener (a
  real local socket with a random-authkey handshake); graphs reach it
  as pickled arrays, not shared memory, so nothing assumes one host's
  address space.  Faults are injected at the ``node.chunk`` site
  (``worker`` = node slot index).
- **Consistent-hash placement.**  A cluster is graph-agnostic: graphs
  land on node *slots* via a :class:`~repro.cluster.ring.HashRing`
  keyed on ``TemporalGraph.fingerprint``, ``replication`` slots each
  (default: all of them).  Respawned processes inherit their slot, so
  placement depends only on cluster shape.
- **Ring failover.**  When every slot a graph was placed on is dead
  with no respawn budget left, the graph is re-shipped to its next live
  ring successor and the run completes *degraded*; nothing left →
  :class:`ClusterFailed`.
"""

from __future__ import annotations

import os
from multiprocessing import connection, get_context
from typing import Iterable, List, Optional

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.parallel import worker_main
from repro.mining.pool import ChunkDispatcher
from repro.mining.shipping import PickledGraph


class ClusterDegraded(RuntimeError):
    """The respawn budget is exhausted and the cluster is running below
    its target node count.  Raised by the mining calls only when
    ``allow_degraded=False``; by default runs complete on survivors."""


class ClusterFailed(ClusterDegraded):
    """No node a graph can live on survives and the respawn budget is
    spent: the run cannot complete and the cluster is permanently
    broken."""


def slot_name(index: int) -> str:
    """The stable ring name of node slot ``index``."""
    return f"node-{index}"


def _slot_index(name: str) -> int:
    return int(name.split("-", 1)[1])


def _node_main(slot, address, authkey, fault_plan):  # pragma: no cover - node process
    """Node process main: dial the coordinator, then serve chunks."""
    conn = connection.Client(address, authkey=authkey)
    worker_main(slot, MiningCluster.site, conn, fault_plan)


class MiningCluster(ChunkDispatcher):
    """N worker nodes behind one coordinator, mineable like a pool.

    Graphs are shipped on first use (or explicitly via
    :meth:`ensure_graph`) to the ``replication`` slots the ring places
    them on, stay resident for later calls, and are dropped with
    :meth:`drop_graph` — the shape a shared node pool serving many
    graphs and several service replicas needs.  ``policy`` is
    :class:`~repro.mining.pool.ChunkDispatcher`'s keyword-only
    failure policy; mining calls raise :class:`ClusterFailed` /
    :class:`ClusterDegraded` / ``ChunkFailed`` / ``MiningCancelled``
    exactly as a pool raises its own.
    """

    site = "node.chunk"
    label = "cluster"
    Degraded, Failed = ClusterDegraded, ClusterFailed

    def __init__(
        self,
        num_nodes: Optional[int] = None,
        *,
        replication: Optional[int] = None,
        vnodes: int = DEFAULT_VNODES,
        connect_timeout_s: float = 30.0,
        **policy,
    ) -> None:
        super().__init__(num_nodes, **policy)
        if replication is not None:
            if not 1 <= replication <= self.num_workers:
                raise ValueError("replication must be in [1, num_nodes]")
            self.replication = int(replication)
        self.connect_timeout_s = float(connect_timeout_s)
        self.ring = HashRing(
            (slot_name(i) for i in range(self.num_workers)), vnodes=vnodes
        )
        self._ctx = get_context()
        self._authkey = os.urandom(16)
        self._listener = connection.Listener(("127.0.0.1", 0), authkey=self._authkey)
        self._spawn_all()

    # -- transport and placement -----------------------------------------------

    def _open_channel(self, slot: int):
        process = self._ctx.Process(
            target=_node_main,
            args=(slot, self._listener.address, self._authkey, self._fault_plan),
            name=f"mint-node-{slot}",
            daemon=True,
        )
        process.start()
        sock = getattr(getattr(self._listener, "_listener", None), "_socket", None)
        if sock is not None:
            sock.settimeout(self.connect_timeout_s)
        try:
            return process, self._listener.accept()
        except OSError as exc:
            process.kill()
            process.join(timeout=1.0)
            raise RuntimeError(
                f"node {slot} failed to connect within {self.connect_timeout_s}s"
            ) from exc

    def _pack(self, graph: TemporalGraph) -> PickledGraph:
        return PickledGraph(graph)

    def _place(self, fp: str) -> List[int]:
        return [_slot_index(n) for n in self.ring.nodes_for(fp, self.replication)]

    def _successors(self, fp: str, placed: List[int]) -> Iterable[int]:
        names = self.ring.successors(fp, exclude={slot_name(s) for s in placed})
        return map(_slot_index, names)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        super().close()
        self._listener.close()
