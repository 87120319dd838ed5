"""Importance-weighted temporal-interval sampling (Liu/Benson/Charikar).

:class:`IntervalSampler` estimates a motif's exact δ-count by sampling
fixed-length time windows, exactly mining each window with the Mackey
miner, and reweighting every found instance by the inverse probability
that a sampled window contains it — the interval-sampling framework of
Liu, Benson & Charikar (arxiv 1810.00980) instantiated on top of the
PRESTO window scheme already reproduced in
:mod:`repro.mining.presto`.

Differences from :class:`~repro.mining.presto.PrestoEstimator` that make
this the estimator ``repro mine --approx`` runs:

- **Integer start positions.**  Windows are ``W = max(δ+1, ceil(c·δ))``
  ticks long and start on integer timestamps drawn from
  ``[t_first − W + 1, t_last]``.  An instance spanning ``[a, b]``
  (duration ``d = b − a ≤ δ``) is contained by exactly the ``W − d``
  starts in ``[b − W + 1, a]``, so inclusion probabilities are exact
  finite sums rather than continuous-measure approximations.
- **Importance weighting.**  The start domain is cut into bins and each
  bin's sampling mass is proportional to ``size + #edges visible from
  the bin`` (``importance="density"``), concentrating windows where the
  graph is busy; ``importance="uniform"`` recovers plain PRESTO-A.
  Either way every start keeps positive probability, and every match is
  weighted by the inverse of its *true* inclusion probability under the
  chosen distribution, so the estimator stays unbiased (the classic
  Horvitz–Thompson argument).
- **Per-sample-index RNG substreams.**  Sample ``i`` draws from
  ``default_rng((seed, i))``, so its value depends only on
  ``(graph, motif, δ, spec, i)`` — never on which worker ran it or how
  the index range was chunked.  Chunked batches therefore merge
  commutatively and estimates are byte-identical across inline, pooled,
  and supervised execution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.approx.estimate import ApproxEstimate, ApproxSpec, SampleBatch
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import MackeyMiner
from repro.mining.results import SearchCounters
from repro.motifs.motif import Motif


def window_length_for(delta: int, spec: ApproxSpec) -> int:
    """Window length in ticks: ``max(δ+1, ceil(c·δ))`` — always long
    enough to contain any instance of duration ≤ δ with room to spare."""
    return max(int(delta) + 1, int(math.ceil(spec.c * int(delta))))


class IntervalSampler:
    """Seeded importance-weighted window sampler for one (motif, δ)."""

    def __init__(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        spec: Optional[ApproxSpec] = None,
    ) -> None:
        if graph.num_edges == 0:
            raise ValueError("cannot sample windows of an empty graph")
        self.graph = graph
        self.motif = motif
        self.delta = int(delta)
        self.spec = spec if spec is not None else ApproxSpec()
        if self.delta < 0:
            raise ValueError("delta must be >= 0")

        ts = graph.ts
        self.window_length = window_length_for(self.delta, self.spec)
        w = self.window_length
        self._start_lo = int(ts[0]) - w + 1
        self._start_hi = int(ts[-1])
        n_starts = self._start_hi - self._start_lo + 1
        self._build_bins(ts, n_starts)

    # -- start-position distribution ------------------------------------------

    def _build_bins(self, ts: np.ndarray, n_starts: int) -> None:
        """Cut the start domain into bins and assign sampling masses.

        Bin ``k`` covers the integer starts ``[lo_k, hi_k]``; its weight
        is its size plus (for ``density``) the number of edges any start
        in the bin can see, i.e. edges with timestamps in
        ``[lo_k, hi_k + W − 1]``.
        """
        num_bins = min(self.spec.bins, n_starts)
        w = self.window_length
        los: List[int] = []
        sizes: List[int] = []
        weights: List[float] = []
        for k in range(num_bins):
            lo = self._start_lo + (k * n_starts) // num_bins
            hi = self._start_lo + ((k + 1) * n_starts) // num_bins - 1
            size = hi - lo + 1
            weight = float(size)
            if self.spec.importance == "density":
                visible = int(
                    np.searchsorted(ts, hi + w, side="left")
                    - np.searchsorted(ts, lo, side="left")
                )
                weight += float(visible)
            los.append(lo)
            sizes.append(size)
            weights.append(weight)
        total = math.fsum(weights)
        self._bin_los = los
        self._bin_sizes = sizes
        # Per-position probability inside each bin (uniform within a bin).
        self._bin_density = [wt / (total * sz) for wt, sz in zip(weights, sizes)]
        cum: List[float] = []
        acc = 0.0
        for wt in weights:
            acc += wt / total
            cum.append(acc)
        cum[-1] = 1.0
        self._bin_cum = cum

    def _start_cdf(self, x: int) -> float:
        """``P(start <= x)`` under the importance distribution."""
        if x < self._start_lo:
            return 0.0
        if x >= self._start_hi:
            return 1.0
        k = bisect_right(self._bin_los, x) - 1
        below = self._bin_cum[k - 1] if k > 0 else 0.0
        return below + (x - self._bin_los[k] + 1) * self._bin_density[k]

    def inclusion_probability(self, first_ts: int, last_ts: int) -> float:
        """Probability one sampled window contains an instance spanning
        ``[first_ts, last_ts]`` — the Horvitz–Thompson denominator."""
        lo = last_ts - self.window_length + 1
        hi = first_ts
        return self._start_cdf(hi) - self._start_cdf(lo - 1)

    def _draw_start(self, rng: np.random.Generator) -> int:
        k = bisect_right(self._bin_cum, float(rng.random()))
        k = min(k, len(self._bin_los) - 1)
        return self._bin_los[k] + int(rng.integers(self._bin_sizes[k]))

    # -- sampling --------------------------------------------------------------

    def sample_one(self, index: int) -> Tuple[float, SearchCounters]:
        """Mine the window drawn by sample ``index``'s private substream.

        The substream is seeded by ``(spec.seed, index)`` alone, so this
        value is a pure function of ``(graph, motif, δ, spec, index)``
        — the determinism contract chunked execution relies on.
        """
        rng = np.random.default_rng((self.spec.seed, int(index)))
        x = self._draw_start(rng)
        window = self.graph.subgraph_by_time(x, x + self.window_length)
        counters = SearchCounters()
        total = 0.0
        if window.num_edges >= self.motif.num_edges:
            result = MackeyMiner(
                window, self.motif, self.delta, record_matches=True
            ).mine()
            counters.merge(result.counters)
            for match in result.matches or ():
                first = int(window.time(match.edge_indices[0]))
                last = int(window.time(match.edge_indices[-1]))
                total += 1.0 / self.inclusion_probability(first, last)
        return total, counters

    def sample_range(self, lo: int, hi: int) -> SampleBatch:
        """Run sample indices ``[lo, hi)`` — the pool chunk body."""
        batch = SampleBatch()
        for i in range(lo, hi):
            total, counters = self.sample_one(i)
            batch.totals[i] = total
            batch.counters.merge(counters)
        return batch

    def estimate(self, num_samples: int) -> ApproxEstimate:
        """One-shot estimate from samples ``[0, num_samples)`` (inline)."""
        batch = self.sample_range(0, num_samples)
        return ApproxEstimate.from_batch(batch, self.spec, self.window_length)


def spec_from_params(params: Tuple[int, float, int, str]) -> ApproxSpec:
    """Inverse of :meth:`ApproxSpec.sampler_params` — exactly the fields
    per-sample values depend on, so two specs differing only in stop
    criteria share one worker-resident sampler (the ``"sample"`` chunk
    kind of :mod:`repro.mining.chunks`)."""
    seed, c, bins, importance = params
    return ApproxSpec(seed=int(seed), c=float(c), bins=int(bins), importance=importance)
