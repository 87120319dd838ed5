"""`repro.cluster` — distributed sharded mining across worker nodes.

The path from "fast laptop" to horizontally-scaled serving (ROADMAP
item 2): root-range chunks and commutative count merging — the same
decomposition Gao et al. (arxiv 2204.09236) use to scale temporal motif
counting — dispatched across N worker *node* processes speaking the
chunk protocol of :mod:`repro.mining.dispatch` over local sockets.

- :mod:`~repro.cluster.ring` — :class:`HashRing`, deterministic
  consistent-hash placement of graphs (keyed on
  ``TemporalGraph.fingerprint``) onto node slots;
- :mod:`~repro.cluster.coordinator` — :class:`MiningCluster`, the
  chunk dispatcher over authenticated ``multiprocessing.connection``
  sockets with ring placement and ring failover (counts stay
  byte-identical to the serial miner through whole-node deaths);
- :mod:`~repro.cluster.executor` — :class:`ClusterExecutor`, the
  service backend; several service replicas can share one cluster.
"""

from repro.cluster.coordinator import ClusterFailed, MiningCluster, slot_name
from repro.cluster.executor import ClusterExecutor
from repro.cluster.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterExecutor",
    "ClusterFailed",
    "DEFAULT_VNODES",
    "HashRing",
    "MiningCluster",
    "slot_name",
]
