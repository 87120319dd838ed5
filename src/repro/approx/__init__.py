"""`repro.approx` — tiered approximate serving with error bounds.

Importance-weighted temporal-interval sampling (Liu/Benson/Charikar,
arxiv 1810.00980) productionized on top of the PRESTO window scheme:
unbiased estimates with standard errors and (1−α) confidence intervals,
chunkable across the repo's execution backends with byte-identical
results, adaptive sampling rounds against a relative-error target, and
deadline/breaker degradation that serves the best available
*labelled* estimate where the service would otherwise reject.
"""

from repro.approx.engine import adaptive_estimate, estimate_inline, round_sizes
from repro.approx.estimate import (
    APPROX,
    EXACT,
    ApproxEstimate,
    ApproxSpec,
    SampleBatch,
    build_approx_payload,
    normal_quantile,
)
from repro.approx.sampler import IntervalSampler, window_length_for

__all__ = [
    "APPROX",
    "EXACT",
    "ApproxEstimate",
    "ApproxSpec",
    "IntervalSampler",
    "SampleBatch",
    "adaptive_estimate",
    "build_approx_payload",
    "estimate_inline",
    "normal_quantile",
    "round_sizes",
    "window_length_for",
]
