"""Chunks: how a mining call is cut into root-range tasks and run.

The paper's software baseline is "a task-centric multi-threaded
implementation (similar to [the] proposed programming model) using work
stealing OpenMP threads" (§VII-D), and Mint itself feeds every search
engine from one global task queue.  Root tasks (search trees) are
independent, so a run is cut into root-range *chunks* — pure, idempotent
functions of ``(graph fingerprint, kind, spec, delta, lo, hi)`` — and
the results merged commutatively.  Re-running a chunk anywhere is
therefore always safe: counts and ``SearchCounters`` stay byte-identical
to the serial miner however the chunks were cut, wherever they ran and
whichever workers died along the way.

This module is everything about a chunk except transport, and imports
no ``multiprocessing``:

- the chunk kinds (:data:`CHUNK_KINDS`: ``family``, one walk of the
  exact engine, :class:`~repro.comine.engine.CoMiner`, down a motif
  list's prefix trie; ``sample``, approximate sample indices) and
  :class:`ResidentGraph`, which runs them against one graph with the
  run's miners cached;
- the planner: :func:`_guided_bounds` cuts root ranges,
  :func:`_split_samples` sample-index ranges;
- :class:`ChunkRunner` — "mine this batch": task construction and
  result merging as graph-first ``count`` / ``count_many`` /
  ``count_family`` / ``sample_intervals``.  The base class runs each
  spec's one chunk in the calling thread (:data:`INLINE`, the
  zero-worker case); :class:`~repro.mining.pool.ChunkDispatcher`
  inherits the methods and changes only where chunks run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.comine.engine import ENGINE, CoMiner, FamilyResult, SharingStats
from repro.comine.trie import MotifTrie
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.results import MiningCancelled, SearchCounters
from repro.motifs.motif import Motif


class ChunkFailed(RuntimeError):
    """One chunk kept raising inside healthy workers past the per-chunk
    retry cap (``max_chunk_errors``) — a deterministic failure of that
    (motif, root-range) input, not a worker-health problem.  The
    dispatcher itself stays usable; retrying the same input would loop
    forever."""


@dataclass(frozen=True)
class ParallelResult:
    count: int
    counters: SearchCounters
    num_workers: int
    num_chunks: int


@dataclass(frozen=True)
class FamilyParallelResult:
    """Per-motif results of one dispatch wave over a motif family.

    ``results`` follow the family's input order; each carries the
    motif's exact count and its attributed per-motif counters (byte-
    identical to a dedicated serial miner).  ``counters`` is the work
    actually performed, ``sharing`` what the trie saved.
    """

    results: Tuple[ParallelResult, ...]
    counters: SearchCounters
    sharing: SharingStats
    num_workers: int
    num_chunks: int


def require_walker(name: str) -> None:
    """What is left of an ``engine=`` keyword: it may name :data:`ENGINE`."""
    if name != ENGINE:
        hint = (
            "the scalar miner is not dispatched; run it serially as "
            "repro.mining.mackey.MackeyMiner"
            if name == "mackey" else f"the one engine is {ENGINE!r}"
        )
        raise ValueError(f"unknown engine {name!r}: {hint}")


# -- the chunk kinds -----------------------------------------------------------


def _family_chunks(graph, family_edges, delta, cancel_check=None):
    """One shared trie walk per chunk for a whole family."""
    cominer = CoMiner(
        graph, [Motif(edges) for edges in family_edges], delta,
        cancel_check=cancel_check,
    )
    return lambda lo, hi: cominer.mine_range(lo, hi).as_payload()


def _sample_chunks(graph, spec, delta, cancel_check=None):
    """``spec`` is ``(motif_edges, ApproxSpec.sampler_params())`` — exactly
    the fields per-sample values depend on — and ``lo``/``hi`` are sample
    indices, not root edges (the :mod:`repro.approx` chunk protocol).
    Sampled windows are mined by the scalar DFS: cancelled between chunks."""
    from repro.approx.sampler import IntervalSampler, spec_from_params

    motif_edges, params = spec
    sampler = IntervalSampler(
        graph, Motif(motif_edges), delta, spec_from_params(params)
    )
    return lambda lo, hi: sampler.sample_range(lo, hi).as_payload()


#: chunk kind -> ``build(graph, spec, delta, cancel_check=None)`` returning
#: the ``run(lo, hi) -> picklable result`` for that kind.  Workers keep
#: the built runner for the run's chunks; in-process runs pass their
#: ``cancel_check`` so engines that poll mid-chunk can.
CHUNK_KINDS: Dict[str, Callable] = {
    "family": _family_chunks,
    "sample": _sample_chunks,
}


class ResidentGraph:
    """One graph held by a worker, with the current run's miners.

    Miners (and their plans, tries, samplers) are built once per
    ``(kind, spec, delta)`` and shared by that run's chunks, so a chunk
    costs one ``mine_range`` call, not a rebuild.  The key is chosen by
    clients (every distinct δ is a new one), so the cache lives for one
    run only: it is dropped when a chunk arrives with a new epoch.
    """

    def __init__(self, graph: TemporalGraph, segment=None) -> None:
        self.graph = graph
        self._segment = segment  # keeps a shared-memory mapping alive
        self._epoch: Optional[int] = None
        self._runners: Dict[Tuple, Callable] = {}

    def run(self, epoch: int, kind: str, spec, delta: int, lo: int, hi: int):
        """Run one chunk; a pure function of its arguments (``epoch``
        aside, which only scopes the miner cache) and the graph."""
        if epoch != self._epoch:
            self._epoch = epoch
            self._runners.clear()
        key = (kind, spec, delta)
        runner = self._runners.get(key)
        if runner is None:
            if kind not in CHUNK_KINDS:
                raise ValueError(f"unknown chunk kind {kind!r}")
            runner = self._runners[key] = CHUNK_KINDS[kind](self.graph, spec, delta)
        return runner(lo, hi)


# -- the planner ---------------------------------------------------------------


def _guided_bounds(
    num_edges: int, num_workers: int, chunks_per_worker: int
) -> List[Tuple[int, int]]:
    """Guided (decaying-size) root-range schedule over ``[0, num_edges)``.

    Early chunks are large (low dispatch overhead); the tail is cut into
    chunks no smaller than ``num_edges / (workers * chunks_per_worker)``
    so a late hub-rooted range cannot hold every worker hostage —
    OpenMP's ``schedule(guided)``, which the work-stealing baseline
    approximates.
    """
    bounds: List[Tuple[int, int]] = []
    min_chunk = max(1, num_edges // max(1, num_workers * chunks_per_worker))
    lo = 0
    while lo < num_edges:
        size = max(min_chunk, (num_edges - lo) // (2 * num_workers))
        hi = min(num_edges, lo + size)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _split_samples(lo: int, hi: int, num_workers: int) -> List[Tuple[int, int]]:
    """Sample indices ``[lo, hi)`` in equal chunks, two per worker."""
    size = max(1, (hi - lo) // (2 * num_workers))
    return [(c_lo, min(hi, c_lo + size)) for c_lo in range(lo, hi, size)]


# -- the runner ----------------------------------------------------------------


class ChunkRunner:
    """The one "mine this batch": task construction and result merging
    for every chunk kind, run in-process.

    This base class is the zero-worker case — each spec's single
    ``[0, num_edges)`` chunk is built and run in the calling thread via
    the same :data:`CHUNK_KINDS` builders the workers use, so an inline
    run does exactly the ``mine_range(0, m)`` a serial ``mine()`` is —
    and :class:`~repro.mining.pool.ChunkDispatcher` overrides only
    *where* the chunks run (:meth:`_mine`) and how finely a run is cut.
    Where a task runs never changes the answer, so every method is
    byte-identical to the serial miner on either.  :data:`INLINE` is the
    shared in-process instance; both work as context managers.
    """

    num_workers = 0

    def _root_bounds(self, num_edges: int, chunks_per_worker: int):
        return [(0, num_edges)]

    def _sample_bounds(self, lo: int, hi: int):
        return [(lo, hi)]

    def _mine(self, graph, tasks, apply_result, cancel_check, allow_degraded) -> None:
        """Run ``tasks`` — ``(kind, spec, delta, lo, hi)`` chunks —
        folding each result in with ``apply_result(task_id, result)``."""
        for task_id, (kind, spec, delta, lo, hi) in enumerate(tasks):
            if cancel_check is not None and cancel_check():
                raise MiningCancelled("mining cancelled between chunks")
            run = CHUNK_KINDS[kind](graph, spec, delta, cancel_check)
            apply_result(task_id, run(lo, hi))

    def count(
        self, graph: TemporalGraph, motif: Motif, delta: int, *args, **kwargs
    ) -> ParallelResult:
        """Exactly count one motif; identical to :class:`MackeyMiner`.
        Further arguments are :meth:`count_family`'s."""
        return self._count(graph, [motif], delta, *args, **kwargs).results[0]

    def count_many(
        self, graph: TemporalGraph, motifs: Sequence[Motif], delta: int,
        *args, **kwargs,
    ) -> List[ParallelResult]:
        """Count several motifs in one dispatch wave (none: no wave).
        Further arguments are :meth:`count_family`'s."""
        if not motifs:
            return []
        return list(self._count(graph, motifs, delta, *args, **kwargs).results)

    def count_family(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = ENGINE,
    ) -> FamilyParallelResult:
        """Count a motif family in one dispatch wave, keeping the
        family-level accounting: the work actually performed and what
        the trie saved.

        Each root range goes out once and the chunk's resident
        :class:`~repro.comine.engine.CoMiner` extends it toward every
        motif simultaneously (an empty family raises).  Per-motif counts
        and counters are byte-identical to the serial miner: chunks are
        idempotent and merging is commutative, so deaths, retries and
        failovers cannot change them.  ``chunks_per_worker`` bounds how
        finely a dispatcher cuts the roots; ``cancel_check`` is polled
        between chunks (and inside the walker in-process); with
        ``allow_degraded=False`` a dispatcher that lost workers for good
        raises instead of finishing on the survivors.  ``engine`` may
        only name :data:`ENGINE`.
        """
        require_walker(engine)
        bounds = self._root_bounds(graph.num_edges, chunks_per_worker)
        acc = FamilyResult.empty(MotifTrie(motifs))
        spec = tuple(m.edges for m in motifs)
        tasks = [("family", spec, int(delta), lo, hi) for lo, hi in bounds]
        self._mine(
            graph, tasks,
            lambda _task_id, result: acc.merge(FamilyResult.from_payload(result)),
            cancel_check, allow_degraded,
        )
        return FamilyParallelResult(
            results=tuple(
                ParallelResult(count, counters, self.num_workers, len(bounds))
                for count, counters in zip(acc.counts, acc.per_motif)
            ),
            counters=acc.counters,
            sharing=acc.sharing,
            num_workers=self.num_workers,
            num_chunks=len(bounds),
        )

    #: :meth:`count_family` as the class defines it, for :meth:`count` and
    #: :meth:`count_many`: a :class:`~repro.mining.parallel.MiningPool`
    #: shadows the public name per instance with its graph bound.
    _count = count_family

    def sample_intervals(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        spec,
        lo: int,
        hi: int,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ):
        """Run approximate sample indices ``[lo, hi)`` as chunks.

        Each chunk is a pure function of its index range (per-sample
        RNG substreams, see :mod:`repro.approx.sampler`), and batches
        merge commutatively, so the merged
        :class:`~repro.approx.estimate.SampleBatch` is byte-identical to
        one ``IntervalSampler.sample_range(lo, hi)`` no matter how the
        range was chunked, which workers ran it, or which died.
        ``spec`` is an :class:`~repro.approx.estimate.ApproxSpec`.
        """
        from repro.approx.estimate import SampleBatch

        merged = SampleBatch()
        wire_spec = (motif.edges, spec.sampler_params())
        tasks = [
            ("sample", wire_spec, int(delta), c_lo, c_hi)
            for c_lo, c_hi in self._sample_bounds(lo, hi)
        ]
        self._mine(
            graph, tasks,
            lambda _task_id, result: merged.merge(SampleBatch.from_payload(result)),
            cancel_check, allow_degraded,
        )
        return merged

    def close(self) -> None:
        """Nothing to shut down in-process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: The in-process runner (stateless, so one instance serves everyone).
INLINE = ChunkRunner()
