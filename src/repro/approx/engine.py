"""Adaptive sampling rounds: sample until the CI meets the target.

The driver is deliberately backend-agnostic: it only needs a
``run_range(lo, hi) -> SampleBatch`` callable, and :func:`estimate`
supplies the one every caller uses — ``sample_intervals`` of a
:class:`~repro.mining.chunks.ChunkRunner`, which is the in-process
:data:`~repro.mining.chunks.INLINE`, a worker pool or a cluster.
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
from repro.mining.chunks import INLINE, ChunkRunner
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
) -> ApproxEstimate:
    """Run adaptive rounds of ``run_range`` until ε meets the target.

    After each round the estimate is recomputed; sampling stops when
    ``achieved_eps <= spec.max_error`` or ``max_samples`` is exhausted.
    """
    batch = SampleBatch()
    estimate: Optional[ApproxEstimate] = None
    done = 0
    for target in round_sizes(spec):
        if target <= done:
            continue
        batch.merge(run_range(done, target))
        done = target
        estimate = ApproxEstimate.from_batch(batch, spec, window_length)
        if estimate.achieved_eps <= spec.max_error:
            return estimate
    return estimate


def estimate(
    runner: ChunkRunner,
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    spec: ApproxSpec,
) -> ApproxEstimate:
    """Adaptive estimation with each round's samples run on ``runner``."""
    return adaptive_estimate(
        lambda lo, hi: runner.sample_intervals(graph, motif, delta, spec, lo, hi),
        spec,
        window_length_for(delta, spec),
    )


def estimate_inline(
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    spec: ApproxSpec,
) -> ApproxEstimate:
    """:func:`estimate` in the calling process (no workers needed) —
    byte-identical to a dispatched run by the substream construction."""
    return estimate(INLINE, graph, motif, delta, spec)
