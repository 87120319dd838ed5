"""`repro.approx` — the offline motif-count estimator with error bounds.

Importance-weighted temporal-interval sampling (Liu/Benson/Charikar,
arxiv 1810.00980) on top of the PRESTO window scheme: unbiased
estimates with standard errors and (1−α) confidence intervals, adaptive
sampling rounds against a relative-error target, and sample chunks that
run inline or on a worker pool with byte-identical results.  It backs
``repro mine --approx`` and the accuracy experiments; the serving layer
answers exactly and never samples.
"""

from repro.approx.engine import adaptive_estimate, estimate_inline, round_sizes
from repro.approx.estimate import (
    ApproxEstimate,
    ApproxSpec,
    SampleBatch,
    build_approx_payload,
    normal_quantile,
)
from repro.approx.sampler import IntervalSampler, window_length_for

__all__ = [
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
