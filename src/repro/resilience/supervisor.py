"""`SupervisedMiningPool` — the resilience layer's name for the pool.

The pool that survives worker deaths at chunk granularity is the only
pool there is: :class:`repro.mining.parallel.MiningPool`, supervised by
the loop in :mod:`repro.mining.pool` (chunk-level retry, wedge SIGKILL,
budgeted seeded-jitter respawn, degraded completion — see
``docs/ARCHITECTURE.md`` "Chunk dispatch").  The alias stays while the
benchmark's probes import it.
"""

from repro.mining.parallel import MiningPool as SupervisedMiningPool

__all__ = ["SupervisedMiningPool"]
