"""PRESTO-style approximate temporal motif counting (paper §VII-D).

PRESTO (Sarpe & Vandin, SDM 2021) estimates the global motif count by
uniformly sampling fixed-length time windows, running an *exact* miner
(Mackey et al.) inside each window, and reweighting every found instance
by the inverse probability that a random window contains it.

Implementation here follows the PRESTO-A scheme:

- windows have length ``c·δ`` with ``c > 1``;
- a window start ``x`` is drawn uniformly from
  ``[t_first - c·δ, t_last]`` (length ``L = span + c·δ``), so every
  instance can be covered;
- an instance with duration ``d`` (last minus first timestamp, ``d ≤ δ``)
  is contained in the window iff ``x ∈ (b - c·δ, a]``, an interval of
  length ``c·δ - d``; its weight is therefore ``L / (c·δ - d)``;
- the estimate is the mean of the per-window weighted sums — an unbiased
  estimator of the exact count.

Because each window is mined with the exact Mackey miner, accelerating
the exact miner (as Mint does) directly accelerates PRESTO; the paper
makes the same observation (§II-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import MackeyMiner
from repro.mining.results import SearchCounters
from repro.motifs.motif import Motif


@dataclass(frozen=True)
class PrestoEstimate:
    """Result of one PRESTO estimation run.

    Carries the normal-approximation confidence interval alongside the
    point estimate: ``ci_low``/``ci_high`` bound the count at level
    ``confidence`` (default 95%), matching the error-bound block of
    ``repro mine --approx --json`` so the two estimators' outputs stay
    comparable.
    """

    estimate: float
    std_error: float
    num_samples: int
    window_length: float
    per_sample: List[float]
    counters: SearchCounters
    confidence: float = 0.95
    ci_low: float = -math.inf
    ci_high: float = math.inf

    def relative_std_error(self) -> float:
        """Standard error relative to the estimate (inf if estimate is 0)."""
        if self.estimate == 0:
            return math.inf
        return self.std_error / abs(self.estimate)

    @property
    def ci(self) -> "tuple":
        return (self.ci_low, self.ci_high)

    def achieved_eps(self) -> float:
        """Relative CI half-width (the ε ``repro mine --approx`` targets)."""
        half = (self.ci_high - self.ci_low) / 2.0
        return half / max(abs(self.estimate), 1.0)

    def stats_dict(self) -> dict:
        """Error-bound block, shaped like ``repro mine --approx --json``'s."""
        return {
            "estimate": float(self.estimate),
            "stderr": float(self.std_error),
            "ci": [float(self.ci_low), float(self.ci_high)],
            "confidence": float(self.confidence),
            "achieved_eps": float(self.achieved_eps()),
            "num_samples": int(self.num_samples),
        }


class PrestoEstimator:
    """Uniform window-sampling approximate miner.

    Parameters
    ----------
    c:
        Window length multiplier; windows are ``c·δ`` long.  PRESTO
        requires ``c > 1`` so that every instance (duration ≤ δ) has a
        positive containment probability.
    seed:
        Seed for the window sampler; runs are fully deterministic.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        c: float = 1.25,
        seed: int = 0,
    ) -> None:
        if c <= 1.0:
            raise ValueError("window multiplier c must be > 1")
        if graph.num_edges == 0:
            raise ValueError("cannot sample windows of an empty graph")
        self.graph = graph
        self.motif = motif
        self.delta = int(delta)
        self.c = float(c)
        self.seed = seed

    @property
    def window_length(self) -> float:
        return self.c * self.delta

    def estimate(self, num_samples: int) -> PrestoEstimate:
        """Draw ``num_samples`` windows and return the weighted estimate."""
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        rng = np.random.default_rng(self.seed)
        ts = self.graph.ts
        t_first, t_last = float(ts[0]), float(ts[-1])
        w = self.window_length
        domain = (t_last - t_first) + w

        totals: List[float] = []
        counters = SearchCounters()
        for _ in range(num_samples):
            x = float(rng.uniform(t_first - w, t_last))
            window = self.graph.subgraph_by_time(math.ceil(x), math.ceil(x + w))
            sample_total = 0.0
            if window.num_edges >= self.motif.num_edges:
                miner = MackeyMiner(
                    window, self.motif, self.delta, record_matches=True
                )
                result = miner.mine()
                counters.merge(result.counters)
                for match in result.matches or ():
                    first = window.time(match.edge_indices[0])
                    last = window.time(match.edge_indices[-1])
                    d = last - first
                    sample_total += domain / (w - d)
            totals.append(sample_total)

        mean = float(np.mean(totals))
        if num_samples > 1:
            std_err = float(np.std(totals, ddof=1) / math.sqrt(num_samples))
        else:
            std_err = math.inf
        from repro.approx.estimate import normal_quantile

        confidence = 0.95
        half = (
            normal_quantile(confidence) * std_err
            if math.isfinite(std_err)
            else math.inf
        )
        return PrestoEstimate(
            estimate=mean,
            std_error=std_err,
            num_samples=num_samples,
            window_length=w,
            per_sample=totals,
            counters=counters,
            confidence=confidence,
            ci_low=mean - half,
            ci_high=mean + half,
        )
