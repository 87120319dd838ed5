"""`repro.resilience` — fault tolerance for mining and serving.

The paper's task-centric model (PAPER.md §3) makes mining restartable
at task granularity: each root-range chunk carries its full context and
is a pure function of the immutable shipped graph, so any chunk can be
re-executed anywhere without changing the answer.  This package turns
that property into operational resilience:

- :mod:`~repro.resilience.faults` — deterministic, seeded fault
  injection (:class:`FaultPlan` / :func:`fault_point`), so failure
  handling is exercised by ordinary tests and the ``repro chaos`` CLI
  rather than hoped-for;
- :mod:`~repro.resilience.supervisor` —
  :class:`SupervisedMiningPool`, the resilience-layer name of
  :class:`repro.mining.parallel.MiningPool` (chunk-level retry and
  budgeted respawn live in :mod:`repro.mining.dispatch`);
- :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`, the
  per-graph closed/open/half-open guard the serving layer uses to shed
  throughput (degraded serial mining) instead of correctness when a
  backend keeps failing.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault, active_plan

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "HALF_OPEN",
    "InjectedFault",
    "OPEN",
    "active_plan",
]
