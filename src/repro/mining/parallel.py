"""`WorkerPool` / `MiningPool` — parallel task-centric mining on local workers.

The pool is the place-everywhere case of
:class:`~repro.mining.pool.ChunkDispatcher` (which holds the
supervision loop and the failure policy, and inherits from
:class:`~repro.mining.chunks.ChunkRunner` the graph-first
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
  (:class:`~repro.mining.shipping.GraphShipment`); workers adopt views
  of it via :meth:`TemporalGraph.from_arrays`, so no per-run pickling
  of Python tuples and no CSR rebuild happens in workers.

:func:`worker_main` is the process every dispatcher spawns — a pool
worker, and a cluster node once it has dialled its coordinator.

:class:`WorkerPool` is graph-agnostic (graphs ship on first use and
leave with ``drop_graph`` — what a serving executor dispatches to);
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
from typing import Dict, Optional

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.chunks import INLINE, ChunkRunner, ResidentGraph
from repro.mining.pool import ChunkDispatcher
from repro.mining.shipping import GraphShipment, adopt_graph
from repro.resilience.faults import fault_point


def worker_main(  # pragma: no cover - runs in spawned worker processes only
    wid: int, site: str, conn, fault_plan
) -> None:
    """Worker process main: serve chunks over ``conn`` until told to stop.

    Supervisor -> worker: ``("graph", fp, payload, num_nodes)`` adopts a
    graph, ``("drop", fp)`` releases one, ``("task", epoch, task_id, fp,
    kind, spec, delta, lo, hi)`` mines one chunk, ``None`` shuts down.
    Worker -> supervisor: ``"ready"`` once, then per task ``("done",
    epoch, task_id, result)`` or ``("error", epoch, task_id, repr)``.

    Every send is synchronous, so anything sent before a crash survives
    the crash.  A chunk-level exception is reported (the worker survives
    and keeps serving); only an injected ``kill`` / external SIGKILL
    takes the process down.  ``fault_point(site, worker=wid)`` before
    each chunk is the hook the chaos suite kills/delays workers through.
    """
    if fault_plan is not None:
        fault_plan.install()
    resident: Dict[str, ResidentGraph] = {}
    conn.send("ready")
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if msg is None:
            return
        if msg[0] == "graph":
            _, fp, payload, num_nodes = msg
            resident[fp] = adopt_graph(payload, num_nodes)
        elif msg[0] == "drop":
            resident.pop(msg[1], None)
        else:
            _, epoch, task_id, fp, kind, spec, delta, lo, hi = msg
            try:
                fault_point(site, worker=wid, chunk=task_id)
                if fp not in resident:
                    raise KeyError(f"graph {fp} not resident on worker {wid}")
                result = resident[fp].run(epoch, kind, spec, delta, lo, hi)
            except BaseException as exc:  # noqa: BLE001 - reported, worker survives
                conn.send(("error", epoch, task_id, repr(exc)))
                continue
            conn.send(("done", epoch, task_id, result))


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

    ``policy`` is :class:`~repro.mining.pool.ChunkDispatcher`'s
    keyword-only failure policy.  Every mining call is byte-identical to
    the serial miner through any pattern of worker deaths; it raises
    :class:`PoolFailed` when no worker survives and the respawn budget
    is spent, :class:`PoolDegraded` additionally (before completing on
    survivors) when ``allow_degraded=False``, ``ChunkFailed`` when
    one chunk keeps raising, and ``MiningCancelled`` when
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

