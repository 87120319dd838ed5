"""Property-based tests (hypothesis) for core invariants.

The central property: every miner in the library — Mackey (with and
without memoization), the vectorised family walker, Paranjape, the Mint
simulator's functional walker, and the streaming sliding-window engine —
computes the same count as the brute-force oracle, on arbitrary temporal
graphs and windows, and on the δ-boundary adversarial cases.  Those are
cells of the correctness matrix (``tests/parity_matrix.py``: its
hypothesis rows and δ-boundary rows), run here under the ids they
always had.  Beside them: the graph's own invariants and properties of
a count.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import WALKER_FAMILY
from parity_matrix import MOTIFS, former_tests, temporal_graphs
from repro.mining.mackey import count_motifs
from repro.motifs.motif import Motif

graph_strategy = temporal_graphs()
motif_strategy = st.sampled_from(MOTIFS)
delta_strategy = st.integers(0, 60)



class TestGraphInvariants:
    @settings(max_examples=60, deadline=None)
    @given(graph_strategy)
    def test_timestamps_strictly_increasing(self, g):
        if g.num_edges > 1:
            assert np.all(np.diff(g.ts) > 0)

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy)
    def test_adjacency_partitions_edges(self, g):
        assert sorted(g.out_edge_idx.tolist()) == list(range(g.num_edges))
        assert sorted(g.in_edge_idx.tolist()) == list(range(g.num_edges))
        for u in range(g.num_nodes):
            out = g.out_edges(u)
            assert all(g.src[e] == u for e in out)
            assert list(out) == sorted(out)

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy, st.integers(0, 50), st.integers(0, 50))
    def test_time_slice_edge_subset(self, g, a, b):
        lo, hi = min(a, b), max(a, b)
        sub = g.subgraph_by_time(lo, hi)
        assert sub.num_edges <= g.num_edges
        for e in sub.edges():
            assert lo <= e.t


    @settings(max_examples=60, deadline=None)
    @given(graph_strategy, st.data())
    def test_range_index_equals_brute_force_counts(self, g, data):
        """The composite-key index alone: per-node and per-pair edge
        counts over an index range, on graphs with self-loops, repeated
        (u, v) pairs and isolated node ids."""
        index = g.range_index()
        node = st.integers(0, g.num_nodes - 1)
        bound = st.integers(0, g.num_edges)
        rows = data.draw(st.lists(st.tuples(node, node, bound, bound), min_size=1))
        a, b, lo, hi = (np.array(col, dtype=np.int64) for col in zip(*rows))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        edges = np.arange(g.num_edges)
        for key, ends, edge_of in (
            (index.out_key, g.src, g.out_edge_idx),
            (index.in_key, g.dst, g.in_edge_idx),
        ):
            start, end = index.seek(key, a, lo), index.seek(key, a, hi)
            for i in range(len(rows)):
                inside = (ends == a[i]) & (lo[i] <= edges) & (edges < hi[i])
                assert edge_of[start[i]:end[i]].tolist() == edges[inside].tolist()
        rank = index.pair_rank(a, b)
        start, end = index.seek(index.pair_key, rank, lo), index.seek(index.pair_key, rank, hi)
        for i in range(len(rows)):
            inside = (
                (g.src == a[i]) & (g.dst == b[i]) & (lo[i] <= edges) & (edges < hi[i])
            )
            assert index.pair_edges[start[i]:end[i]].tolist() == edges[inside].tolist()


class TestCountProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph_strategy, motif_strategy, st.integers(0, 30))
    def test_count_monotone_in_delta(self, g, motif, delta):
        """A larger window can only admit more matches."""
        assert count_motifs(g, motif, delta) <= count_motifs(g, motif, delta + 10)

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy, st.integers(0, 40))
    def test_single_edge_count_is_non_self_loop_edges(self, g, delta):
        single = Motif([(0, 1)], name="e")
        expected = sum(1 for e in g.edges() if e.src != e.dst)
        assert count_motifs(g, single, delta) == expected

    @settings(max_examples=30, deadline=None)
    @given(graph_strategy, motif_strategy)
    def test_zero_delta_zero_multi_edge_matches(self, g, motif):
        """With δ=0 no multi-edge motif can fit (strictly increasing times)."""
        if motif.num_edges > 1:
            assert count_motifs(g, motif, 0) == 0


class TestCoMiningFamilies:
    @settings(max_examples=20, deadline=None)
    @given(graph_strategy, delta_strategy, st.permutations(range(len(WALKER_FAMILY))))
    def test_family_order_does_not_change_results(self, g, delta, order):
        from repro.comine import CoMiner

        base = CoMiner(g, WALKER_FAMILY, delta).mine()
        permuted = CoMiner(g, [WALKER_FAMILY[i] for i in order], delta).mine()
        for pos, i in enumerate(order):
            assert permuted.counts[pos] == base.counts[i]
            assert (
                permuted.per_motif[pos].as_dict()
                == base.per_motif[i].as_dict()
            )
        assert (
            permuted.counters.as_dict() == base.counters.as_dict()
        )


former_tests(globals())
