"""`SupervisedMiningPool` — the fault-tolerant worker pool.

The pool that survives worker deaths at chunk granularity is the only
pool there is: :class:`repro.mining.parallel.MiningPool`, built on the
supervision loop in :mod:`repro.mining.dispatch` (chunk-level retry,
wedge SIGKILL, budgeted seeded-jitter respawn, degraded completion —
see that module and ``docs/ARCHITECTURE.md`` "Chunk dispatch").  This
module keeps the names the resilience layer introduced importable.
"""

from repro.mining.dispatch import ChunkFailed, DispatchStats as PoolStats
from repro.mining.parallel import (
    MiningPool as SupervisedMiningPool,
    PoolDegraded,
    PoolFailed,
)

__all__ = [
    "ChunkFailed",
    "PoolDegraded",
    "PoolFailed",
    "PoolStats",
    "SupervisedMiningPool",
]
