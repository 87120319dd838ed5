"""Parity suite for the zero-copy parallel mining layer.

The hard invariant: a runner from ``open_runner`` must produce exactly the
counts and merged counters of the serial :class:`MackeyMiner`, for every
worker count and chunk shape — root tasks are independent, so any
schedule must partition them without loss or overlap.  Those runs are
cells of the correctness matrix (``tests/parity_matrix.py``), run here
under the ids they always had.  Beside them: the guided chunk bounds,
graphs adopted from arrays, and cancellation.
"""

import numpy as np
import pytest

from parity_matrix import former_tests
from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import MackeyMiner, count_motifs
from repro.mining.chunks import _guided_bounds
from repro.mining.parallel import MiningPool
from repro.motifs.catalog import M1


@pytest.fixture(scope="module")
def graph():
    return make_dataset("email-eu", scale=0.15, seed=11)


@pytest.fixture(scope="module")
def serial(graph):
    delta = graph.time_span // 30
    return delta, MackeyMiner(graph, M1, delta).mine()


class TestGuidedBounds:
    @pytest.mark.parametrize(
        "m,workers,cpw",
        [(1, 1, 1), (7, 2, 3), (100, 4, 8), (1000, 3, 5), (13, 16, 8)],
    )
    def test_bounds_partition_root_range(self, m, workers, cpw):
        bounds = _guided_bounds(m, workers, cpw)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == m
        for (lo, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2  # contiguous, no gap, no overlap
        assert all(hi > lo for lo, hi in bounds)

    def test_chunk_sizes_decay(self):
        bounds = _guided_bounds(10_000, 4, 8)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes[0] > sizes[-1]


class TestMiningPool:
    def test_validates_worker_count(self, graph):
        with pytest.raises(ValueError):
            MiningPool(graph, num_workers=0)

class TestFromArrays:
    def test_round_trip_preserves_structure(self, graph):
        g2 = TemporalGraph.from_arrays(num_nodes=graph.num_nodes, **graph.as_arrays())
        np.testing.assert_array_equal(g2.src, graph.src)
        np.testing.assert_array_equal(g2.ts, graph.ts)
        np.testing.assert_array_equal(g2.out_offsets, graph.out_offsets)
        np.testing.assert_array_equal(g2.out_edge_idx, graph.out_edge_idx)
        np.testing.assert_array_equal(g2.in_edge_idx, graph.in_edge_idx)

    def test_adopted_graph_mines_identically(self, graph, serial):
        delta, expected = serial
        g2 = TemporalGraph.from_arrays(num_nodes=graph.num_nodes, **graph.as_arrays())
        assert count_motifs(g2, M1, delta) == expected.count

    def test_builds_csr_when_not_supplied(self, tiny_graph):
        g2 = TemporalGraph.from_arrays(
            tiny_graph.src, tiny_graph.dst, tiny_graph.ts
        )
        np.testing.assert_array_equal(g2.out_offsets, tiny_graph.out_offsets)
        np.testing.assert_array_equal(g2.out_edge_idx, tiny_graph.out_edge_idx)

    def test_validation_rejects_bad_arrays(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TemporalGraph.from_arrays(
                np.array([0, 1]), np.array([1, 0]), np.array([5, 5])
            )
        with pytest.raises(ValueError, match="equal length"):
            TemporalGraph.from_arrays(
                np.array([0, 1]), np.array([1]), np.array([5, 6])
            )
        with pytest.raises(ValueError, match="non-negative"):
            TemporalGraph.from_arrays(
                np.array([0, -1]), np.array([1, 0]), np.array([5, 6])
            )


class TestCancellation:
    """The serving layer's deadline hook: `cancel_check` polled at chunk
    boundaries aborts the dispatch wave with MiningCancelled and leaves
    the pool reusable."""

    def test_immediate_cancel_raises(self, graph, serial):
        from repro.mining.results import MiningCancelled

        delta, expected = serial
        with MiningPool(graph, 2) as pool:
            with pytest.raises(MiningCancelled):
                pool.count(M1, delta, cancel_check=lambda: True)
            # The pool survives a cancelled wave and still mines exactly.
            result = pool.count(M1, delta)
            assert result.count == expected.count

    def test_cancel_midway(self, graph, serial):
        from repro.mining.results import MiningCancelled

        delta, _ = serial
        calls = []

        def cancel_after_two():
            calls.append(None)
            return len(calls) > 2

        with MiningPool(graph, 2) as pool:
            with pytest.raises(MiningCancelled):
                pool.count(M1, delta, chunks_per_worker=16,
                           cancel_check=cancel_after_two)
        assert len(calls) >= 3

    def test_never_cancelled_matches_serial(self, graph, serial):
        delta, expected = serial
        with MiningPool(graph, 2) as pool:
            result = pool.count(M1, delta, cancel_check=lambda: False)
        assert result.count == expected.count

    def test_close_is_idempotent_and_guards_reuse(self, graph):
        pool = MiningPool(graph, 1)
        pool.close()
        pool.close()  # second close is a no-op
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.count(M1, 10)


former_tests(globals())
