"""Offline estimator records: specs, sample batches, labelled estimates.

The whole `repro.approx` subsystem pivots on three small records:

- :class:`ApproxSpec` — what the client asked for: a relative error
  target ``max_error`` (the CI half-width divided by the point
  estimate, floored at 1.0 to keep zero counts meaningful), a
  ``confidence`` level for that interval, and the sampling seed /
  window parameters that make the run reproducible.  The spec is
  frozen and hashable.
- :class:`SampleBatch` — the unit of chunked execution: per-sample
  weighted totals keyed by *sample index* plus summed search counters.
  Because each sample's value depends only on ``(graph, motif, δ,
  seed, index)`` and merging is a disjoint dict union plus integer
  counter sums, batches merge **commutatively**: any chunking of the
  index range — inline, pooled, supervised, with retries — reassembles
  into the identical batch, which is what makes ``repro mine --approx``
  payloads byte-identical across execution backends.
- :class:`ApproxEstimate` — the labelled result: point estimate,
  standard error, (1−α) confidence interval and achieved relative
  error ε.  The reduction from a batch always walks samples in index
  order, so equal batches give byte-equal estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict, List, Optional, Tuple

from repro.mining.results import SearchCounters


def normal_quantile(confidence: float) -> float:
    """Two-sided standard-normal quantile: ``z`` with
    ``P(|Z| <= z) = confidence``."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class ApproxSpec:
    """One estimate's accuracy contract and sampling recipe.

    ``max_error`` is the *relative* CI half-width target:
    ``z * stderr / max(|estimate|, 1.0) <= max_error`` stops adaptive
    sampling.  ``confidence`` is the coverage level of the interval
    (α = 1 − confidence).  ``seed`` pins the sample streams; identical
    ``(graph fingerprint, motif, δ, seed)`` runs are byte-identical
    regardless of execution backend.  ``c`` is the PRESTO window-length
    multiplier (windows are ``max(δ+1, ceil(c·δ))`` long), ``bins`` the
    importance-histogram resolution, ``importance`` either
    ``"density"`` (importance-weighted starts, Liu/Benson/Charikar) or
    ``"uniform"`` (plain PRESTO-A).  ``base_samples`` is the first
    adaptive round; rounds double up to ``max_samples``.
    """

    max_error: float = 0.05
    confidence: float = 0.95
    seed: int = 0
    c: float = 1.25
    bins: int = 256
    importance: str = "density"
    base_samples: int = 16
    max_samples: int = 1024

    def __post_init__(self) -> None:
        if self.max_error <= 0:
            raise ValueError("max_error must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.c <= 1.0:
            raise ValueError("window multiplier c must be > 1")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.importance not in ("density", "uniform"):
            raise ValueError(
                f"unknown importance {self.importance!r}; "
                "expected 'density' or 'uniform'"
            )
        if self.base_samples < 2:
            raise ValueError("base_samples must be >= 2 (stderr needs ddof=1)")
        if self.max_samples < self.base_samples:
            raise ValueError("max_samples must be >= base_samples")

    def sampler_params(self) -> Tuple[int, float, int, str]:
        """The tuple that (with motif edges and δ) keys a worker-resident
        sampler: everything the per-sample values depend on."""
        return (int(self.seed), float(self.c), int(self.bins), self.importance)


class SampleBatch:
    """Per-sample weighted totals keyed by sample index (commutative)."""

    __slots__ = ("totals", "counters")

    def __init__(
        self,
        totals: Optional[Dict[int, float]] = None,
        counters: Optional[SearchCounters] = None,
    ) -> None:
        self.totals: Dict[int, float] = dict(totals or {})
        self.counters = counters if counters is not None else SearchCounters()

    @property
    def num_samples(self) -> int:
        return len(self.totals)

    def merge(self, other: "SampleBatch") -> "SampleBatch":
        """Union the (disjoint) index→total maps and sum counters.

        Commutative and associative: dict-union over disjoint integer
        keys and integer counter sums are order-independent, so any
        chunk arrival order reassembles the identical batch.
        """
        overlap = self.totals.keys() & other.totals.keys()
        if overlap:
            raise ValueError(
                f"sample batches overlap on indices {sorted(overlap)[:4]}"
            )
        self.totals.update(other.totals)
        self.counters.merge(other.counters)
        return self

    def ordered_values(self) -> List[float]:
        """Sample totals in index order (the canonical reduction order)."""
        return [self.totals[i] for i in sorted(self.totals)]

    # -- wire format (pool / supervised chunk results are pickled) -------------

    def as_payload(self) -> Dict:
        return {
            "totals": sorted(self.totals.items()),
            "counters": self.counters.as_dict(),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "SampleBatch":
        return cls(
            totals={int(i): float(v) for i, v in payload["totals"]},
            counters=SearchCounters(**payload["counters"]),
        )


@dataclass(frozen=True)
class ApproxEstimate:
    """One labelled approximate answer: estimate + error bounds.

    ``achieved_eps`` is the realized relative CI half-width
    (``half_width / max(|estimate|, 1)``); the accuracy tag embeds it
    alongside α so every printed byte is auditable.  ``converged``
    records whether the adaptive loop met the target before exhausting
    ``max_samples``.
    """

    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence: float
    achieved_eps: float
    num_samples: int
    seed: int
    window_length: int
    counters: Dict[str, int] = field(default_factory=dict)
    converged: bool = True

    @classmethod
    def from_batch(
        cls,
        batch: SampleBatch,
        spec: ApproxSpec,
        window_length: int,
    ) -> "ApproxEstimate":
        values = batch.ordered_values()
        n = len(values)
        if n < 2:
            raise ValueError("an estimate needs at least two samples")
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        std_error = math.sqrt(var / n)
        half = normal_quantile(spec.confidence) * std_error
        eps = half / max(abs(mean), 1.0)
        return cls(
            estimate=mean,
            std_error=std_error,
            ci_low=mean - half,
            ci_high=mean + half,
            confidence=spec.confidence,
            achieved_eps=eps,
            num_samples=n,
            seed=spec.seed,
            window_length=window_length,
            counters=batch.counters.as_dict(),
            converged=eps <= spec.max_error,
        )

    @property
    def ci(self) -> Tuple[float, float]:
        return (self.ci_low, self.ci_high)

    @property
    def accuracy(self) -> str:
        """The cache/payload accuracy tag, e.g. ``approx(eps=0.031,alpha=0.05)``."""
        return (
            f"approx(eps={self.achieved_eps:.6g},"
            f"alpha={1.0 - self.confidence:.6g})"
        )

    def stats_dict(self) -> Dict:
        """The error-bound block of the payload (``truncated`` is kept
        for the payload's shape and is always false)."""
        return {
            "estimate": float(self.estimate),
            "stderr": float(self.std_error),
            "ci": [float(self.ci_low), float(self.ci_high)],
            "confidence": float(self.confidence),
            "achieved_eps": float(self.achieved_eps),
            "num_samples": int(self.num_samples),
            "seed": int(self.seed),
            "truncated": False,
            "accuracy": self.accuracy,
        }


def build_approx_payload(
    fingerprint: str,
    motif,
    delta: int,
    estimate: ApproxEstimate,
) -> Dict:
    """The ``repro mine --approx --json`` payload.

    Shares the exact payload's leading fields (``count`` is the rounded
    point estimate) and appends the error-bound block.
    """
    payload = {
        "graph": fingerprint,
        "motif": motif.name,
        "delta": int(delta),
        "count": int(round(estimate.estimate)),
        "counters": {k: int(v) for k, v in estimate.counters.items()},
    }
    payload.update(estimate.stats_dict())
    return payload
