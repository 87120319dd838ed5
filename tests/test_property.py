"""Property-based tests (hypothesis) for core invariants.

The central property: every miner in the library — Mackey (with and
without memoization), the vectorised family walker, Paranjape, the Mint
simulator's functional walker, and the streaming sliding-window engine —
computes the same count as the brute-force oracle, on arbitrary temporal
graphs and windows.  The δ-boundary adversarial cases
(``delta_cases.py``) are shared with the streaming differential suite so
every backend faces the same edge conditions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import WALKER_FAMILY
from delta_cases import (
    COUNT_BACKENDS,
    DELTA_BOUNDARY_CASES,
    EXTENDED_COUNT_BACKENDS,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.bruteforce import brute_force_count
from repro.mining.mackey import MackeyMiner, count_motifs
from repro.mining.paranjape import ParanjapeMiner
from repro.motifs.catalog import M1, M2, PATH3, PING_PONG
from repro.motifs.motif import Motif
from repro.sim.layout import GraphMemoryLayout
from repro.sim.walker import TraceWalker

MOTIFS = [M1, M2, PING_PONG, PATH3]


@st.composite
def temporal_graphs(draw, max_nodes=7, max_edges=28, max_time=50):
    n = draw(st.integers(2, max_nodes))
    m = draw(st.integers(0, max_edges))
    edges = []
    for _ in range(m):
        s = draw(st.integers(0, n - 1))
        d = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, max_time))
        edges.append((s, d, t))
    return TemporalGraph(edges, num_nodes=n)


graph_strategy = temporal_graphs()
motif_strategy = st.sampled_from(MOTIFS)
delta_strategy = st.integers(0, 60)


class TestMinerAgreement:
    @settings(max_examples=60, deadline=None)
    @given(graph_strategy, motif_strategy, delta_strategy)
    def test_mackey_equals_oracle(self, g, motif, delta):
        assert count_motifs(g, motif, delta) == brute_force_count(g, motif, delta)

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy, motif_strategy, delta_strategy)
    def test_memoized_mackey_equals_plain(self, g, motif, delta):
        assert (
            MackeyMiner(g, motif, delta, memoize=True).mine().count
            == count_motifs(g, motif, delta)
        )

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy, motif_strategy, delta_strategy)
    def test_paranjape_equals_mackey(self, g, motif, delta):
        assert ParanjapeMiner(g, motif, delta).count() == count_motifs(
            g, motif, delta
        )

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy, motif_strategy, delta_strategy, st.booleans())
    def test_walker_equals_mackey(self, g, motif, delta, memoize):
        layout = GraphMemoryLayout.for_graph(g)
        walker = TraceWalker(g, motif, delta, layout, memoize=memoize)
        for root in range(g.num_edges):
            walker.begin_root(root)
            state = walker.new_tree_state()
            for _ in walker.walk(root, state):
                pass
            walker.end_root(root)
        assert walker.stats.matches == count_motifs(g, motif, delta)


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


class TestDeltaBoundary:
    """Shared δ-boundary adversarial cases (``delta_cases.py``): matches
    spanning exactly δ (inclusive ``t_l - t_1 <= δ``, §II-A), duplicate
    timestamps at the window edge, and self-loop-free invariants —
    asserted identically against mackey, bruteforce, streaming, the
    family walker, the Mint simulator, and the walker
    dispatched over a worker pool and across cluster nodes."""

    @pytest.mark.parametrize("backend", sorted(EXTENDED_COUNT_BACKENDS))
    @pytest.mark.parametrize(
        "case", DELTA_BOUNDARY_CASES, ids=lambda c: c.name
    )
    def test_boundary_case(self, backend, case):
        count = EXTENDED_COUNT_BACKENDS[backend]
        assert count(case.graph(), case.motif, case.delta) == case.expected, (
            f"{backend} disagrees on {case.name}"
        )

    @pytest.mark.parametrize(
        "case", DELTA_BOUNDARY_CASES, ids=lambda c: c.name
    )
    def test_family_engine_counters_equal_mackey(self, case):
        """Not only the count: at every boundary — the saturating δ rows
        included — the vectorised walk charges exactly the scalar
        miner's `SearchCounters`."""
        from repro.mining.batched import BatchedMiner

        g = case.graph()
        scalar = MackeyMiner(g, case.motif, case.delta).mine()
        vectorised = BatchedMiner(g, case.motif, case.delta).mine()
        assert vectorised.count == scalar.count == case.expected
        assert vectorised.counters.as_dict() == scalar.counters.as_dict()

    @pytest.mark.parametrize(
        "case", DELTA_BOUNDARY_CASES, ids=lambda c: c.name
    )
    def test_all_backends_agree_at_perturbed_deltas(self, case):
        """Beyond the pinned expectation: at δ±1 every in-process backend still
        agree with the brute-force oracle (the off-by-one hot zone)."""
        g = case.graph()
        for delta in (max(0, case.delta - 1), case.delta + 1):
            expected = COUNT_BACKENDS["bruteforce"](g, case.motif, delta)
            for backend, count in COUNT_BACKENDS.items():
                assert count(g, case.motif, delta) == expected, (
                    f"{backend} disagrees at delta={delta} on {case.name}"
                )

    @settings(max_examples=30, deadline=None)
    @given(graph_strategy, motif_strategy, delta_strategy)
    def test_self_loops_never_change_counts(self, g, motif, delta):
        """Lacing a self-loop after every edge leaves every backend's
        count unchanged (self-loop-free invariant).  Times are doubled so
        the loops occupy fresh timestamps — match spans scale by exactly
        2, so counting at 2δ isolates the self-loop effect from the
        timestamp-uniquification nudge."""
        base = count_motifs(g, motif, delta)
        laced = []
        for s, d, t in zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()):
            laced.append((s, d, 2 * t))
            laced.append((s, s, 2 * t + 1))
        laced_graph = TemporalGraph(laced, num_nodes=g.num_nodes)
        for backend, count in COUNT_BACKENDS.items():
            assert count(laced_graph, motif, 2 * delta) == base, (
                f"{backend} count changed when self-loops were laced in"
            )


class TestCoMiningFamilies:
    """The family engine against the per-motif loop, as a *family*: one
    trie walk must reproduce not only every motif's count (checked
    against the brute-force oracle too) but its exact per-motif search
    counters (the engine's byte-parity contract), whatever the root
    block."""

    @settings(max_examples=30, deadline=None)
    @given(graph_strategy, delta_strategy, st.sampled_from([1, 7, 4096]))
    def test_family_counts_and_counters_equal_dedicated_miners(
        self, g, delta, root_block
    ):
        from repro.comine import CoMiner

        miner = CoMiner(g, WALKER_FAMILY, delta)
        miner.root_block = root_block
        result = miner.mine()
        for i, motif in enumerate(WALKER_FAMILY):
            solo = MackeyMiner(g, motif, delta).mine()
            assert result.counts[i] == solo.count, motif.name
            assert result.counts[i] == brute_force_count(g, motif, delta), motif.name
            assert (
                result.per_motif[i].as_dict() == solo.counters.as_dict()
            ), motif.name

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


class TestBatchedFrontier:
    """The family-of-one binding against the scalar miner: counts AND
    the full `SearchCounters` must match byte-for-byte on arbitrary
    graphs, windows, and root-block sizes (the block size may change
    memory behaviour, never results)."""

    @settings(max_examples=30, deadline=None)
    @given(graph_strategy, st.sampled_from(WALKER_FAMILY), delta_strategy,
           st.integers(1, 40))
    def test_counts_and_counters_equal_mackey(self, g, motif, delta, block):
        from repro.mining.batched import BatchedMiner

        scalar = MackeyMiner(g, motif, delta).mine()
        batched = BatchedMiner(g, motif, delta, root_block=block).mine()
        assert batched.count == scalar.count
        assert batched.counters.as_dict() == scalar.counters.as_dict()

    @settings(max_examples=20, deadline=None)
    @given(graph_strategy, st.sampled_from(WALKER_FAMILY), delta_strategy,
           st.integers(1, 15))
    def test_mine_range_chunks_merge_to_full_run(self, g, motif, delta, step):
        from repro.mining.batched import BatchedMiner
        from repro.mining.results import SearchCounters

        miner = BatchedMiner(g, motif, delta, root_block=7)
        full = miner.mine()
        total = 0
        merged = SearchCounters()
        for lo in range(0, g.num_edges, step):
            chunk = miner.mine_range(lo, lo + step)
            total += chunk.count
            merged.merge(chunk.counters)
        assert total == full.count
        assert merged.as_dict() == full.counters.as_dict()
