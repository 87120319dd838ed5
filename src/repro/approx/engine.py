"""Adaptive sampling rounds: sample until the CI meets the target.

The driver is deliberately backend-agnostic: it only needs a
``run_range(lo, hi) -> SampleBatch`` callable, and :func:`estimate`
supplies the one every caller uses — ``sample_intervals`` of a
:class:`~repro.mining.dispatch.ChunkRunner`, which is the in-process
:data:`~repro.mining.dispatch.INLINE`, a worker pool or a cluster.
Because the round boundaries are a pure function of the spec
(``base_samples``, then doubling up to ``max_samples``) and every
sample's value is a pure function of its index, all runners walk the
*same* sample prefix and produce byte-identical estimates whenever
they stop at the same round.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.approx.estimate import ApproxEstimate, ApproxSpec, SampleBatch
from repro.approx.sampler import window_length_for
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import INLINE, ChunkRunner, MiningCancelled
from repro.motifs.motif import Motif


def round_sizes(spec: ApproxSpec):
    """Cumulative sample targets: ``base, 2·base, 4·base, …, max``."""
    target = spec.base_samples
    while True:
        yield min(target, spec.max_samples)
        if target >= spec.max_samples:
            return
        target *= 2


def adaptive_estimate(
    run_range: Callable[[int, int], SampleBatch],
    spec: ApproxSpec,
    window_length: int,
    cancel_check: Optional[Callable[[], bool]] = None,
    on_round: Optional[Callable[[ApproxEstimate], None]] = None,
) -> ApproxEstimate:
    """Run adaptive rounds of ``run_range`` until ε meets the target.

    After each round the estimate is recomputed; sampling stops when
    ``achieved_eps <= spec.max_error`` or ``max_samples`` is exhausted.
    ``cancel_check`` (the serving deadline hook) is polled *after* the
    convergence check, so a deadline firing exactly at convergence
    cannot change the answer.  A cancellation — via the check or a
    :class:`MiningCancelled` escaping ``run_range`` mid-round — returns
    the last completed round's estimate flagged ``truncated`` (and
    re-raises only when no round completed).  ``on_round`` observes
    every intermediate estimate; the scheduler uses it to stash partial
    results for deadline-degraded serving.
    """
    batch = SampleBatch()
    estimate: Optional[ApproxEstimate] = None
    done = 0
    for target in round_sizes(spec):
        if target <= done:
            continue
        try:
            batch.merge(run_range(done, target))
        except MiningCancelled:
            if estimate is None:
                raise
            return estimate.with_truncated(True)
        done = target
        estimate = ApproxEstimate.from_batch(batch, spec, window_length)
        if on_round is not None:
            on_round(estimate)
        if estimate.achieved_eps <= spec.max_error:
            return estimate
        if cancel_check is not None and cancel_check():
            return estimate.with_truncated(True)
    return estimate


def estimate(
    runner: ChunkRunner,
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    spec: ApproxSpec,
    cancel_check: Optional[Callable[[], bool]] = None,
    on_round: Optional[Callable[[ApproxEstimate], None]] = None,
) -> ApproxEstimate:
    """Adaptive estimation with each round's samples run on ``runner``."""
    return adaptive_estimate(
        lambda lo, hi: runner.sample_intervals(
            graph, motif, delta, spec, lo, hi, cancel_check
        ),
        spec,
        window_length_for(delta, spec),
        cancel_check,
        on_round,
    )


def estimate_inline(
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    spec: ApproxSpec,
    cancel_check: Optional[Callable[[], bool]] = None,
    on_round: Optional[Callable[[ApproxEstimate], None]] = None,
) -> ApproxEstimate:
    """:func:`estimate` in the calling process (no workers needed).

    This is both the small-graph fast path and the degraded path the
    executor falls back to when a breaker is open — byte-identical to
    the dispatched result by the substream construction.
    """
    return estimate(INLINE, graph, motif, delta, spec, cancel_check, on_round)
