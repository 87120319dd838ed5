"""`WorkerPool` / `MiningPool` — parallel task-centric mining on local workers.

The pool is the place-everywhere case of
:class:`~repro.mining.dispatch.ChunkDispatcher` (which holds the
supervision loop, the worker main, the failure policy and — inherited
from :class:`~repro.mining.dispatch.ChunkRunner` — the graph-first
``count`` / ``count_many`` / ``count_family`` / ``sample_intervals``):
every worker holds every graph the pool was handed, and any idle worker
takes the next chunk — the work-stealing effect of the paper's OpenMP
baseline (§VII-D), without threads.  What the pool adds is its
transport:

- **Inherited duplex pipes.**  Each worker is an owned
  ``multiprocessing.Process`` talking over its own pipe; sends are
  synchronous (no feeder thread), so results a worker managed to send
  before dying are still readable afterwards, and the supervisor waits
  on every pipe *and* process sentinel at once.
- **Zero-copy graph shipping.**  A graph's seven backing numpy arrays
  (edge list + both CSR adjacency structures) are placed once in a
  ``multiprocessing.shared_memory`` segment
  (:class:`~repro.mining.dispatch.GraphShipment`); workers adopt views
  of it via :meth:`TemporalGraph.from_arrays`, so no per-run pickling
  of Python tuples and no CSR rebuild happens in workers.

:class:`WorkerPool` is graph-agnostic (graphs ship on first use and
leave with ``drop_graph`` — what the service's ``PoolExecutor`` holds);
:class:`MiningPool` binds one graph at construction, so multi-motif
workloads such as the 36-motif Paranjape census ship it exactly once
and call ``pool.count_many(motifs, delta)``.  :func:`open_runner` is
how one-shot callers pick between a pool and in-process mining.  Fault
injection: a :class:`~repro.resilience.faults.FaultPlan` passed at
construction is installed in every worker, which calls
``fault_point("worker.chunk", worker=<id>)`` before each chunk.
"""

from __future__ import annotations

import itertools
from functools import partial
from multiprocessing import get_context
from typing import Optional

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import (  # noqa: F401 - re-exported
    INLINE,
    ChunkDispatcher,
    ChunkRunner,
    FamilyParallelResult,
    GraphShipment,
    MiningCancelled,
    ParallelResult,
    _guided_bounds,
    worker_main,
)


class PoolDegraded(RuntimeError):
    """The respawn budget is exhausted and the pool is running below
    its target worker count.  Raised by the mining calls only when
    ``allow_degraded=False``; by default the pool completes the run on
    the survivors (shedding throughput, never correctness)."""


class PoolFailed(PoolDegraded):
    """The respawn budget is exhausted and *no* workers survive: the
    run cannot complete and the pool is permanently broken."""


class WorkerPool(ChunkDispatcher):
    """A supervised pool of local worker processes; every graph it is
    handed becomes resident (zero-copy) in every worker.

    ``policy`` is :class:`~repro.mining.dispatch.ChunkDispatcher`'s
    keyword-only failure policy.  Every mining call is byte-identical to
    the serial miner through any pattern of worker deaths; it raises
    :class:`PoolFailed` when no worker survives and the respawn budget
    is spent, :class:`PoolDegraded` additionally (before completing on
    survivors) when ``allow_degraded=False``, ``ChunkFailed`` when
    one chunk keeps raising, and :class:`MiningCancelled` when
    ``cancel_check`` — polled at every chunk boundary, the serving
    layer's deadline hook — returns True (the pool stays reusable).
    Use as a context manager so shared segments are always unlinked.
    """

    site = "worker.chunk"
    label = "pool"
    Degraded, Failed = PoolDegraded, PoolFailed

    def __init__(self, num_workers: Optional[int] = None, **policy) -> None:
        super().__init__(num_workers, **policy)
        self._ctx = get_context()
        # Respawned workers get fresh ids, so a one-shot fault spec for
        # worker k cannot fire again in k's replacement.
        self._wids = itertools.count()
        self._spawn_all()

    def _pack(self, graph: TemporalGraph) -> GraphShipment:
        return GraphShipment(graph)

    def _open_channel(self, slot: int):
        wid = next(self._wids)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(wid, self.site, child_conn, self._fault_plan),
            name=f"mint-worker-{wid}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its end
        return process, parent_conn


class MiningPool(WorkerPool):
    """A :class:`WorkerPool` bound to one ``graph``: shipped at
    construction, and ``count`` / ``count_many`` / ``count_family`` /
    ``sample_intervals`` take ``(motif(s), delta, …)`` without it.  Also
    importable as :class:`repro.resilience.supervisor.SupervisedMiningPool`."""

    def __init__(
        self, graph: TemporalGraph, num_workers: Optional[int] = None, **policy
    ) -> None:
        super().__init__(num_workers, **policy)
        self.graph = graph
        for name in ("count", "count_many", "count_family", "sample_intervals"):
            setattr(self, name, partial(getattr(self, name), graph))
        try:
            self.ensure_graph(graph)
        except BaseException:
            self.close()
            raise


def open_runner(graph: TemporalGraph, num_workers: Optional[int]) -> ChunkRunner:
    """The runner a one-shot caller mines ``graph`` on, as a context
    manager: in-process for ``num_workers <= 0`` (and for an empty
    graph, where process startup is all there would be), else a fresh
    :class:`WorkerPool` (``None``: one worker per CPU).

    The pool has no wedge timeout: a one-shot run is as long as its
    graph makes it, like the serial run, and the guided schedule's first
    chunk holds 1 / (2 * workers) of the roots.  On wiki-talk at paper
    size (7.8M edges) such a chunk takes longer than the serving pools'
    30 s, so a timeout would kill every honest chunk until the respawn
    budget ran out.  A worker that dies is still detected and replaced."""
    if (num_workers is not None and num_workers <= 0) or graph.num_edges == 0:
        return INLINE
    return WorkerPool(num_workers, chunk_timeout_s=None)

