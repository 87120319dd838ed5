"""Decision gate for an approximate serving tier: sampling vs the exact walk.

For each graph and δ below, times the offline estimator
(``estimate_inline(g, M1, δ, ApproxSpec(max_error=ε))``) against the
exact family walk behind every ``/query`` miss
(``INLINE.count_many(g, [M1], δ)``) at ε = 0.05 (the estimator's default)
and ε = 0.3, and prints how many times slower sampling is.  A serving
tier would only pay where that ratio falls below 1.  One timed run per
cell, after one untimed exact run to warm the graph's indexes.

Run:  PYTHONPATH=src python benchmarks/approx_decision_gate.py [--quick]

``--quick`` skips the two stackoverflow graphs (100k and 500k edges),
whose generation and ε = 0.05 sampling take minutes.
"""

from __future__ import annotations

import sys
import time

from repro.analysis.reporting import format_table
from repro.approx.engine import estimate_inline
from repro.approx.estimate import ApproxSpec
from repro.graph.generators import make_dataset
from repro.mining.chunks import INLINE
from repro.motifs.catalog import M1

#: (dataset, scale, δ as a label and as a function of the graph).
CASES = [
    ("email-eu", 0.5, "span/20", lambda g: g.time_span // 20),
    ("email-eu", 0.5, "span/80", lambda g: g.time_span // 80),
    ("wiki-talk", 1.0, "30 gaps", lambda g: 30 * g.time_span // g.num_edges),
    ("wiki-talk", 1.0, "100 gaps", lambda g: 100 * g.time_span // g.num_edges),
    ("stackoverflow", 5.0, "span/800", lambda g: g.time_span // 800),
    ("stackoverflow", 25.0, "span/3200", lambda g: g.time_span // 3200),
]
EPSILONS = (0.05, 0.3)


def timed(call):
    t0 = time.perf_counter()
    out = call()
    return time.perf_counter() - t0, out


def main(quick: bool) -> None:
    rows = []
    built = None
    for name, scale, label, delta_of in CASES:
        if quick and name == "stackoverflow":
            continue
        if built != (name, scale):
            built, g = (name, scale), make_dataset(name, scale=scale, seed=1)
        delta = delta_of(g)
        INLINE.count_many(g, [M1], delta)
        exact_s, (exact,) = timed(lambda: INLINE.count_many(g, [M1], delta))
        for eps in EPSILONS:
            spec = ApproxSpec(max_error=eps)
            approx_s, est = timed(lambda: estimate_inline(g, M1, delta, spec))
            rows.append([
                f"{name} x{scale:g}", f"{g.num_edges:,}", label, eps,
                f"{exact.count:,}", f"{est.estimate:,.0f}", est.num_samples,
                f"{exact_s:.3f}", f"{approx_s:.3f}",
                f"{approx_s / exact_s:.1f}x",
            ])
            print(" | ".join(map(str, rows[-1])), flush=True)
    print(format_table(
        ["graph", "edges", "delta", "eps", "exact", "estimate", "n",
         "exact s", "sample s", "sample / exact"],
        rows,
    ))


if __name__ == "__main__":
    main("--quick" in sys.argv[1:])
