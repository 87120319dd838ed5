"""`MiningPool` — parallel task-centric mining on one graph's worker pool.

The pool is the one-graph, place-everywhere case of
:class:`~repro.mining.dispatch.ChunkDispatcher` (which holds the
supervision loop, the worker main and the failure policy): every worker
holds the pool's graph, and any idle worker takes the next chunk —
the work-stealing effect of the paper's OpenMP baseline (§VII-D),
without threads.  What the pool adds is its transport:

- **Inherited duplex pipes.**  Each worker is an owned
  ``multiprocessing.Process`` talking over its own pipe; sends are
  synchronous (no feeder thread), so results a worker managed to send
  before dying are still readable afterwards, and the supervisor waits
  on every pipe *and* process sentinel at once.
- **Zero-copy graph shipping.**  The graph's seven backing numpy arrays
  (edge list + both CSR adjacency structures) are placed once in a
  ``multiprocessing.shared_memory`` segment
  (:class:`~repro.mining.dispatch.GraphShipment`); workers adopt views
  of it via :meth:`TemporalGraph.from_arrays`, so no per-run pickling
  of Python tuples and no CSR rebuild happens in workers.

The pool stays alive across many ``count`` calls, so multi-motif
workloads such as the 36-motif Paranjape census ship the graph exactly
once.  Fault injection: a :class:`~repro.resilience.faults.FaultPlan`
passed at construction is installed in every worker, which calls
``fault_point("worker.chunk", worker=<id>)`` before each chunk.
"""

from __future__ import annotations

import itertools
from multiprocessing import get_context
from typing import Callable, List, Optional, Sequence

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import (  # noqa: F401 - re-exported
    POOL_ENGINES,
    ChunkDispatcher,
    FamilyParallelResult,
    GraphShipment,
    MiningCancelled,
    ParallelResult,
    _guided_bounds,
    check_engine,
    make_miner,
    worker_main,
)
from repro.motifs.motif import Motif


class PoolDegraded(RuntimeError):
    """The respawn budget is exhausted and the pool is running below
    its target worker count.  Raised by the mining calls only when
    ``allow_degraded=False``; by default the pool completes the run on
    the survivors (shedding throughput, never correctness)."""


class PoolFailed(PoolDegraded):
    """The respawn budget is exhausted and *no* workers survive: the
    run cannot complete and the pool is permanently broken."""


class MiningPool(ChunkDispatcher):
    """A supervised worker pool with ``graph`` resident (zero-copy) in
    every worker; also importable as
    :class:`repro.resilience.SupervisedMiningPool`.

    ``policy`` is :class:`~repro.mining.dispatch.ChunkDispatcher`'s
    keyword-only failure policy.  Every mining call is byte-identical to
    the serial miner through any pattern of worker deaths; it raises
    :class:`PoolFailed` when no worker survives and the respawn budget
    is spent, :class:`PoolDegraded` additionally (before completing on
    survivors) when ``allow_degraded=False``, ``ChunkFailed`` when
    one chunk keeps raising, and :class:`MiningCancelled` when
    ``cancel_check`` — polled at every chunk boundary, the serving
    layer's deadline hook — returns True (the pool stays reusable).
    Use as a context manager so the shared segment is always unlinked.
    """

    site = "worker.chunk"
    Degraded, Failed = PoolDegraded, PoolFailed

    def __init__(
        self, graph: TemporalGraph, num_workers: Optional[int] = None, **policy
    ) -> None:
        super().__init__(num_workers, **policy)
        self.graph = graph
        self._ctx = get_context()
        # Respawned workers get fresh ids, so a one-shot fault spec for
        # worker k cannot fire again in k's replacement.
        self._wids = itertools.count()
        self._ensure_graph_locked(graph)
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

    # -- mining ----------------------------------------------------------------

    def count(
        self,
        motif: Motif,
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = "mackey",
    ) -> ParallelResult:
        """Exactly count one motif; results identical to :class:`MackeyMiner`."""
        return self.count_many(
            [motif], delta, chunks_per_worker, cancel_check, allow_degraded, engine
        )[0]

    def count_many(
        self,
        motifs: Sequence[Motif],
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = "mackey",
    ) -> List[ParallelResult]:
        """Count several motifs in one dispatch wave; ``engine`` picks
        the per-chunk core (:data:`POOL_ENGINES`)."""
        return self._count_many(
            self.graph, motifs, delta, chunks_per_worker, cancel_check,
            allow_degraded, engine,
        )

    def count_family(
        self,
        motifs: Sequence[Motif],
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ) -> FamilyParallelResult:
        """Co-mine a whole family: each chunk is ONE shared traversal."""
        return self._count_family(
            self.graph, motifs, delta, chunks_per_worker, cancel_check,
            allow_degraded,
        )

    def sample_intervals(
        self,
        motif: Motif,
        delta: int,
        spec,
        lo: int,
        hi: int,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ):
        """Run approximate sample indices ``[lo, hi)`` as pool chunks.

        Each chunk is a pure function of its index range (per-sample
        RNG substreams, see :mod:`repro.approx.sampler`), and batches
        merge commutatively, so the merged result is byte-identical to
        an inline ``IntervalSampler.sample_range(lo, hi)`` no matter how
        the range was chunked, which workers ran it, or which died.
        ``spec`` is an :class:`~repro.approx.estimate.ApproxSpec`.
        """
        from repro.approx.estimate import SampleBatch

        merged = SampleBatch()
        size = max(1, (hi - lo) // (2 * self.num_workers))
        wire_spec = (motif.edges, spec.sampler_params())
        tasks = [
            ("sample", wire_spec, int(delta), c_lo, min(hi, c_lo + size))
            for c_lo in range(lo, hi, size)
        ]
        self._mine(
            self.graph, tasks,
            lambda _task_id, result: merged.merge(SampleBatch.from_payload(result)),
            cancel_check, allow_degraded,
        )
        return merged


def count_motifs_parallel(
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    num_workers: Optional[int] = None,
    chunks_per_worker: int = 8,
    engine: str = "mackey",
) -> ParallelResult:
    """Exactly count ``motif`` using a pool of worker processes.

    Counts are identical to :class:`MackeyMiner` (root tasks are
    independent); counters are merged across workers.  ``num_workers``
    defaults to the machine's CPU count; ``num_workers=0`` runs inline
    (useful for tests and small graphs, where process startup dominates).
    """
    check_engine(engine)
    if (num_workers is not None and num_workers <= 0) or graph.num_edges == 0:
        result = make_miner(engine, graph, motif, delta).mine()
        return ParallelResult(result.count, result.counters, 0, 1)
    with MiningPool(graph, num_workers) as pool:
        return pool.count(motif, delta, chunks_per_worker, engine=engine)
