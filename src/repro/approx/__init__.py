"""`repro.approx` — the offline motif-count estimator with error bounds.

Importance-weighted temporal-interval sampling (Liu/Benson/Charikar,
arxiv 1810.00980) on top of the PRESTO window scheme: unbiased
estimates with standard errors and (1−α) confidence intervals, adaptive
sampling rounds against a relative-error target, and sample chunks that
run inline or on a worker pool with byte-identical results.  It backs
``repro mine --approx`` and the accuracy experiments; the serving layer
answers exactly and never samples.
"""
