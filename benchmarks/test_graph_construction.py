"""Vectorised ``TemporalGraph`` construction throughput at 100k edges.

Pool scaling is measured by the ``census_pool`` workload of
``benchmarks/perf`` and pool parity by ``tests/test_parallel_parity.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.temporal_graph import TemporalGraph


def test_vectorized_construction_100k_edges(save_result):
    rng = np.random.default_rng(29)
    m = 100_000
    edges = np.stack(
        [
            rng.integers(0, 5_000, m),
            rng.integers(0, 5_000, m),
            rng.integers(0, 10**9, m),
        ],
        axis=1,
    )
    t0 = time.perf_counter()
    graph = TemporalGraph(edges)
    elapsed = time.perf_counter() - t0
    assert graph.num_edges == m
    assert bool((np.diff(graph.ts) > 0).all())
    save_result(
        "graph_construction_100k",
        f"100k-edge TemporalGraph build: {elapsed * 1000:.1f} ms "
        f"({m / elapsed / 1e6:.1f} M edges/s)",
    )
    # The pre-vectorization per-edge Python loop took ~1s at this size;
    # the argsort/cumsum build is ~50 ms.  A generous bound catches a
    # regression back to per-edge Python work without flaking on slow CI.
    assert elapsed < 1.0, f"CSR construction too slow: {elapsed:.2f}s"
