"""Deterministic, seedable fault injection for chaos testing.

Failure handling that is never exercised is failure handling that does
not work.  This module provides the one primitive the chaos suite and
the ``repro chaos`` CLI are built on: a :class:`FaultPlan` — an ordered
list of :class:`FaultSpec` records saying *what* goes wrong (a worker
process dies via ``os._exit``, a call stalls, an exception is raised),
*where* (a named call site), and *when* (the Nth time that site is
reached in the installing process).

Production code marks its interesting failure points with
:func:`fault_point`; with no plan installed the call is a dict lookup
and an ``is None`` check — effectively free.  Tests install a plan
(globally via :meth:`FaultPlan.installed`, or shipped into worker
processes by the dispatchers of :mod:`repro.mining.pool`)
and the exact same failure fires on every run: chaos tests are ordinary
deterministic tests.

Known sites:

- ``worker.chunk`` — a pool worker, just before it mines a root-range
  chunk (context: ``worker`` = worker id).
- ``node.chunk`` — a cluster worker node, just before it mines a chunk
  (context: ``worker`` = node slot index).  Same worker main, one
  level up the deployment ladder.
- ``executor.batch`` — the service executor
  (:mod:`repro.service.executor`), just before a batch is handed to
  its pool or cluster (context: ``graph`` = fingerprint).
- ``live.ingest`` — :meth:`~repro.live.ingest.LiveGraph.append_batch`,
  after validation but *before any mutation* (context: ``graph`` =
  live-graph name, ``batch`` = sequence number).  A fault here plus a
  retry applies the batch exactly once.
- ``live.ingest.ack`` — same method, after the batch is committed and
  remembered but before the ack returns.  A fault here plus a retry
  exercises the idempotency ledger: the retry must answer
  ``duplicate: true`` without re-applying (``repro chaos --live``).

Counters are process-local: a plan pickled into a worker process counts
that worker's own calls, so "kill worker 2 at its 3rd chunk" and "every
fresh worker dies at its 1st chunk" are both expressible.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

#: Exit status used by injected ``kill`` faults, so a supervisor (or a
#: human reading logs) can tell an injected death from a real one.
KILL_EXIT_CODE = 113

#: Actions a FaultSpec may take at its site.
ACTIONS = ("kill", "delay", "raise")


class InjectedFault(RuntimeError):
    """The exception raised by ``raise``-action fault specs."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: *action* at *site* on the Nth matching call.

    ``at_call`` is 1-based and counted per installing process and per
    site.  ``worker`` restricts the spec to one worker id (matched
    against the ``worker=`` context of :func:`fault_point`); ``None``
    matches any caller.
    """

    site: str
    action: str
    at_call: int = 1
    worker: Optional[int] = None
    delay_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at_call < 1:
            raise ValueError("at_call is 1-based and must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    def matches(self, calls: int, worker: Optional[int]) -> bool:
        if self.worker is not None and worker != self.worker:
            return False
        return calls == self.at_call


class FaultPlan:
    """A picklable, installable set of :class:`FaultSpec` records.

    The plan is pure data until :meth:`install` registers it as the
    process's active plan; every :func:`fault_point` then consults it.
    Each process (parent, or a worker the plan was shipped to) keeps its
    own per-site call counters, reset at install time, so firing is
    deterministic per process.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.fired: List[FaultSpec] = []
        self._calls: Dict[str, int] = {}

    # -- construction helpers --------------------------------------------------

    @classmethod
    def kill_worker(
        cls, worker: int, at_chunk: int = 1, site: str = "worker.chunk"
    ) -> "FaultPlan":
        """Kill one worker (by id) at its ``at_chunk``-th chunk.

        ``site="node.chunk"`` retargets the same plan shape at cluster
        nodes (the ``worker`` id is then the node slot index).
        """
        return cls([FaultSpec(site, "kill", at_chunk, worker=worker)])

    @classmethod
    def kill_workers(
        cls, kills: Dict[int, int], site: str = "worker.chunk"
    ) -> "FaultPlan":
        """Kill several workers: ``{worker_id: at_chunk}``."""
        return cls(
            [
                FaultSpec(site, "kill", at_chunk, worker=wid)
                for wid, at_chunk in sorted(kills.items())
            ]
        )

    @classmethod
    def kill_every_worker(
        cls, at_chunk: int = 1, site: str = "worker.chunk"
    ) -> "FaultPlan":
        """Every worker (including respawns) dies at its Nth chunk —
        the respawn-budget-exhaustion scenario."""
        return cls([FaultSpec(site, "kill", at_chunk)])

    @classmethod
    def raise_at(cls, site: str, at_calls: Sequence[int],
                 message: str = "injected backend failure") -> "FaultPlan":
        """Raise :class:`InjectedFault` on each listed call number."""
        return cls(
            [FaultSpec(site, "raise", n, message=message) for n in at_calls]
        )

    @classmethod
    def random_kills(
        cls,
        seed: int,
        num_workers: int,
        kills: int,
        max_chunk: int = 4,
        site: str = "worker.chunk",
    ) -> "FaultPlan":
        """A seeded plan killing ``kills`` distinct workers at random
        early chunks — the ``repro chaos`` CLI's default plan.  With
        ``site="node.chunk"`` the same seed kills whole cluster nodes
        instead (``repro chaos --cluster``)."""
        import random

        if not 0 <= kills <= num_workers:
            raise ValueError("kills must be in [0, num_workers]")
        rng = random.Random(seed)
        victims = rng.sample(range(num_workers), kills)
        return cls(
            [
                FaultSpec(
                    site, "kill", rng.randrange(1, max_chunk + 1),
                    worker=wid,
                )
                for wid in sorted(victims)
            ]
        )

    # -- installation ----------------------------------------------------------

    def install(self) -> "FaultPlan":
        """Make this the process's active plan (resets call counters)."""
        global _ACTIVE
        self._calls = {}
        self.fired = []
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    @contextmanager
    def installed(self) -> Iterator["FaultPlan"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- firing ----------------------------------------------------------------

    def on(self, site: str, worker: Optional[int] = None, **_ctx) -> None:
        """Count one call at ``site`` and fire any matching spec.

        One counter per site per installing process: every mining
        worker is its own process with its own plan copy, so the site
        counter *is* that worker's chunk clock, while in the parent it
        counts backend calls.
        """
        self._calls[site] = calls = self._calls.get(site, 0) + 1
        for spec in self.specs:
            if spec.site != site or not spec.matches(calls, worker):
                continue
            self.fired.append(spec)
            if spec.action == "delay":
                time.sleep(spec.delay_s)
            elif spec.action == "raise":
                raise InjectedFault(f"{spec.message} (site={site})")
            elif spec.action == "kill":  # pragma: no cover - worker-only
                os._exit(KILL_EXIT_CODE)

    def __reduce__(self):
        # Pickle as pure data; counters never travel between processes.
        return (_rebuild_plan, (tuple(self.specs),))

    def __repr__(self) -> str:
        return f"FaultPlan({self.specs!r})"


def _rebuild_plan(specs) -> FaultPlan:
    return FaultPlan(list(specs))


#: The process's active plan (None = no injection; the common case).
_ACTIVE: Optional[FaultPlan] = None


def fault_point(site: str, **ctx) -> None:
    """Mark an injectable call site; free when no plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.on(site, **ctx)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE
