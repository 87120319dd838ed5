"""`repro.cluster` — distributed sharded mining across worker nodes.

The path from "fast laptop" to horizontally-scaled serving (ROADMAP
item 2): root-range chunks and commutative count merging — the same
decomposition Gao et al. (arxiv 2204.09236) use to scale temporal motif
counting — dispatched across N worker *node* processes speaking the
chunk protocol over local sockets: the supervision loop of
:mod:`repro.mining.pool` on the coordinator, and on each node
:func:`repro.mining.parallel.worker_main`, the pool's worker body.

- :mod:`~repro.cluster.ring` — :class:`HashRing`, deterministic
  consistent-hash placement of graphs (keyed on
  ``TemporalGraph.fingerprint``) onto node slots;
- :mod:`~repro.cluster.coordinator` — :class:`MiningCluster`, the
  chunk dispatcher over authenticated ``multiprocessing.connection``
  sockets with ring placement and ring failover (counts stay
  byte-identical to the serial miner through whole-node deaths).

The service mines on a cluster by handing the one executor
(:class:`~repro.service.executor.InlineExecutor`) either a factory,
``partial(MiningCluster, n)``, which it owns and rebuilds, or a
running cluster, which several service replicas can share.
"""

from repro.cluster.coordinator import ClusterFailed, MiningCluster, slot_name
from repro.cluster.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterFailed",
    "DEFAULT_VNODES",
    "HashRing",
    "MiningCluster",
    "slot_name",
]
