"""Unit tests for the temporal graph core data structure."""

import numpy as np
import pytest

from repro.graph.temporal_graph import RangeIndex, TemporalEdge, TemporalGraph


class TestConstruction:
    def test_empty_graph(self):
        g = TemporalGraph([])
        assert g.num_edges == 0
        assert g.num_nodes == 0
        assert g.time_span == 0
        assert list(g.edges()) == []

    def test_single_edge(self):
        g = TemporalGraph([(0, 1, 42)])
        assert g.num_edges == 1
        assert g.num_nodes == 2
        assert g.edge(0) == TemporalEdge(0, 1, 42)

    def test_edges_sorted_by_timestamp(self):
        g = TemporalGraph([(0, 1, 30), (1, 2, 10), (2, 0, 20)])
        times = [g.time(i) for i in range(3)]
        assert times == sorted(times)
        assert g.edge(0) == TemporalEdge(1, 2, 10)

    def test_duplicate_timestamps_are_uniquified(self):
        g = TemporalGraph([(0, 1, 5), (1, 2, 5), (2, 0, 5)])
        times = [g.time(i) for i in range(3)]
        assert len(set(times)) == 3
        assert times == sorted(times)
        # Uniquification nudges forward minimally and keeps stable order.
        assert times == [5, 6, 7]

    def test_stable_order_for_equal_timestamps(self):
        g = TemporalGraph([(0, 1, 5), (2, 3, 5)])
        assert g.edge(0).src == 0
        assert g.edge(1).src == 2

    def test_accepts_temporal_edge_objects(self):
        g = TemporalGraph([TemporalEdge(0, 1, 1), TemporalEdge(1, 0, 2)])
        assert g.num_edges == 2

    def test_negative_node_id_rejected(self):
        with pytest.raises(ValueError):
            TemporalGraph([(-1, 0, 1)])

    def test_explicit_num_nodes(self):
        g = TemporalGraph([(0, 1, 1)], num_nodes=10)
        assert g.num_nodes == 10
        assert len(g.out_edges(9)) == 0

    def test_num_nodes_too_small_rejected(self):
        with pytest.raises(ValueError):
            TemporalGraph([(0, 5, 1)], num_nodes=3)

    def test_len_and_repr(self):
        g = TemporalGraph([(0, 1, 1), (1, 0, 2)])
        assert len(g) == 2
        assert "num_edges=2" in repr(g)


class TestAdjacency:
    def test_out_edges_are_chronological(self, burst_graph):
        for u in range(burst_graph.num_nodes):
            idx = burst_graph.out_edges(u)
            assert list(idx) == sorted(idx)

    def test_in_edges_are_chronological(self, burst_graph):
        for v in range(burst_graph.num_nodes):
            idx = burst_graph.in_edges(v)
            assert list(idx) == sorted(idx)

    def test_out_edges_content(self, tiny_graph):
        # Node 0 has edges 0->1@5 (idx 0) and 0->1@40 (idx 5).
        assert list(tiny_graph.out_edges(0)) == [0, 5]

    def test_in_edges_content(self, tiny_graph):
        # Node 2 receives edge idx 1 (1->2@10) and idx 4 (1->2@30).
        assert list(tiny_graph.in_edges(2)) == [1, 4]

    def test_degrees_sum_to_edge_count(self, burst_graph):
        g = burst_graph
        assert sum(len(g.out_edges(u)) for u in range(g.num_nodes)) == g.num_edges
        assert sum(len(g.in_edges(v)) for v in range(g.num_nodes)) == g.num_edges

    def test_offsets_are_monotone(self, burst_graph):
        assert np.all(np.diff(burst_graph.out_offsets) >= 0)
        assert np.all(np.diff(burst_graph.in_offsets) >= 0)

    def test_edge_index_arrays_partition_edges(self, burst_graph):
        g = burst_graph
        assert sorted(g.out_edge_idx.tolist()) == list(range(g.num_edges))
        assert sorted(g.in_edge_idx.tolist()) == list(range(g.num_edges))


class TestSearchHelpers:
    def test_first_out_after(self, tiny_graph):
        # out(0) = [0, 5]; after edge 0 the first out index > 0 is at pos 1.
        assert tiny_graph.first_out_after(0, 0) == 1
        assert tiny_graph.first_out_after(0, -1) == 0
        assert tiny_graph.first_out_after(0, 5) == 2  # past the end

    def test_first_in_after(self, tiny_graph):
        # in(2) = [1, 4].
        assert tiny_graph.first_in_after(2, 0) == 0
        assert tiny_graph.first_in_after(2, 1) == 1
        assert tiny_graph.first_in_after(2, 4) == 2

    def test_out_of_range_node_raises_value_error(self, tiny_graph):
        # Historically these raised a bare IndexError from the offsets
        # array; an out-of-range node id is a caller bug and gets an
        # explicit ValueError naming the bound.
        n = tiny_graph.num_nodes
        for bad in (n, n + 7, -1):
            with pytest.raises(ValueError):
                tiny_graph.first_out_after(bad, 0)
            with pytest.raises(ValueError):
                tiny_graph.first_in_after(bad, 0)

    def test_probe_returns_python_int(self, tiny_graph):
        # The probe result feeds index arithmetic and JSON payloads;
        # keep it a plain int, not a numpy scalar.
        assert type(tiny_graph.first_out_after(0, 0)) is int
        assert type(tiny_graph.first_in_after(2, 0)) is int

    def test_probe_agrees_with_linear_scan(self, burst_graph):
        g = burst_graph
        for u in range(g.num_nodes):
            lo, hi = int(g.out_offsets[u]), int(g.out_offsets[u + 1])
            slice_idx = g.out_edge_idx[lo:hi].tolist()
            for probe in range(-1, g.num_edges + 1):
                want = sum(1 for e in slice_idx if e <= probe)
                assert g.first_out_after(u, probe) == want, (u, probe)
            lo, hi = int(g.in_offsets[u]), int(g.in_offsets[u + 1])
            slice_idx = g.in_edge_idx[lo:hi].tolist()
            for probe in range(-1, g.num_edges + 1):
                want = sum(1 for e in slice_idx if e <= probe)
                assert g.first_in_after(u, probe) == want, (u, probe)


class TestRangeIndex:
    def test_cached_on_the_graph(self, burst_graph):
        assert burst_graph.range_index() is burst_graph.range_index()

    def test_keys_are_sorted_and_pairs_rank_compressed(self, burst_graph):
        g, index = burst_graph, burst_graph.range_index()
        for key in (index.out_key, index.in_key, index.pair_key):
            assert (np.diff(key) > 0).all()
        # 9 edges over 6 distinct (src, dst) pairs: the pair key is
        # bounded by pairs x edges, not by nodes squared x edges.
        assert len(index.pair_codes) - 1 == 6
        assert index.pair_key.max() < 6 * index.stride
        assert sorted(index.pair_edges.tolist()) == list(range(g.num_edges))

    def test_absent_pair_is_an_empty_range(self, burst_graph):
        index = burst_graph.range_index()
        a, b = np.array([2, 0]), np.array([2, 1])  # 2 -> 2 never occurs
        rank = index.pair_rank(a, b)
        start = index.seek(index.pair_key, rank, np.zeros(2, dtype=np.int64))
        end = index.seek(index.pair_key, rank, np.full(2, burst_graph.num_edges))
        assert (end - start).tolist() == [0, 3]

    @pytest.mark.parametrize("adopted", [False, True], ids=["constructed", "from_arrays"])
    def test_edge_positions_and_pair_ranks(self, adopted):
        """What the walk reads off a matched edge instead of searching,
        on a graph with self-loops, duplicate timestamps and pairs whose
        reverse never occurs — built, or adopted from relabelled arrays."""
        g = TemporalGraph(
            [(0, 1, 5), (1, 1, 5), (1, 0, 5), (0, 1, 7), (2, 2, 7),
             (2, 0, 9), (0, 2, 9), (3, 1, 9), (0, 1, 12), (4, 3, 12)],
            num_nodes=6,
        )
        if adopted:
            perm = np.array([5, 3, 0, 1, 4, 2])
            g = TemporalGraph.from_arrays(perm[g.src], perm[g.dst], g.ts, num_nodes=6)
        index, n, edge = g.range_index(), g.num_nodes, np.arange(g.num_edges)
        assert (index.out_key[index.out_pos] == g.src * index.stride + edge).all()
        assert (index.in_key[index.in_pos] == g.dst * index.stride + edge).all()
        assert (index.pair_edges[index.pair_pos] == edge).all()
        assert (index.pair_codes[index.edge_rank] == g.src * n + g.dst).all()
        sentinel = len(index.pair_codes) - 1
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        for e in edge:
            src, dst = int(g.src[e]), int(g.dst[e])
            if (dst, src) in pairs:
                assert index.pair_codes[index.rev_rank[e]] == dst * n + src
            else:
                assert index.rev_rank[e] == sentinel
        assert {bool(r == sentinel) for r in index.rev_rank} == {True, False}

        # Where the other end's ranges, and the reverse pair's, resume
        # after the edge: count, scanning each key array, the entries
        # at or before (owner, e) in its (owner, edge index) order.
        def resume(items, owner_of, owner, e):
            return sum((owner_of(x), x) <= (owner, e) for x in items.tolist())

        m = g.num_edges
        pair_of = lambda x: (int(g.src[x]), int(g.dst[x]))  # noqa: E731
        for e in edge.tolist():
            src, dst = pair_of(e)
            assert index.out_after_dst[e] == resume(
                g.out_edge_idx, lambda x: int(g.src[x]), dst, e)
            assert index.in_after_src[e] == resume(
                g.in_edge_idx, lambda x: int(g.dst[x]), src, e)
            assert index.rev_after[e] == (
                resume(index.pair_edges, pair_of, (dst, src), e)
                if (dst, src) in pairs else m
            )
        assert m in index.rev_after and (index.rev_after < m).any()

    def test_bisect_steps_are_exact_bit_lengths(self, burst_graph):
        degrees = np.array([0, 1, 2, 3, 4, 7, 8, 2**40 - 1, 2**40])
        steps = burst_graph.range_index()._bisect_steps(degrees)
        assert steps.tolist() == [max(1, int(d).bit_length()) for d in degrees]

    def test_extent_past_int64_keys_fails_loud(self, tiny_graph):
        """A composite key that could wrap is a ValueError naming the
        limit when the index is built, never a silent wrong answer."""
        limit = RangeIndex.MAX_EXTENT
        assert limit**2 <= np.iinfo(np.int64).max < (limit + 1) ** 2
        tiny_graph._num_nodes = limit  # the largest extent that fits
        RangeIndex(tiny_graph)
        tiny_graph._num_nodes = limit + 1
        with pytest.raises(ValueError, match=str(limit)):
            RangeIndex(tiny_graph)


class TestProjectionsAndSlices:
    def test_static_projection_dedups(self, burst_graph):
        proj = burst_graph.static_projection()
        assert (0, 1) in proj
        # Multi-edges collapse to one pair.
        assert len(proj) < burst_graph.num_edges

    def test_subgraph_by_time_bounds(self, tiny_graph):
        sub = tiny_graph.subgraph_by_time(10, 30)
        times = [e.t for e in sub.edges()]
        assert times == [10, 20, 25]

    def test_subgraph_preserves_num_nodes(self, tiny_graph):
        sub = tiny_graph.subgraph_by_time(0, 1)
        assert sub.num_nodes == tiny_graph.num_nodes
        assert sub.num_edges == 0

    def test_time_span(self, tiny_graph):
        assert tiny_graph.time_span == 35


class TestFingerprint:
    """`fingerprint()` is the identity the serving layer caches under:
    equal fingerprints must imply byte-identical mining results."""

    def test_identical_content_same_fingerprint(self):
        edges = [(0, 1, 10), (1, 2, 20), (2, 0, 30)]
        assert TemporalGraph(edges).fingerprint() == \
            TemporalGraph(list(edges)).fingerprint()

    def test_hex_string_stable_across_calls(self, tiny_graph):
        fp = tiny_graph.fingerprint()
        assert isinstance(fp, str) and len(fp) == 32
        assert int(fp, 16) >= 0  # valid hex
        assert tiny_graph.fingerprint() == fp  # cached, stable

    def test_permutation_invariance_unique_timestamps(self):
        edges = [(0, 1, 10), (1, 2, 20), (2, 0, 30), (0, 2, 40)]
        shuffled = [edges[2], edges[0], edges[3], edges[1]]
        assert TemporalGraph(edges).fingerprint() == \
            TemporalGraph(shuffled).fingerprint()

    def test_duplicate_identical_edges_permutation_invariant(self):
        # Equal (src, dst, t) triples are indistinguishable, so their
        # relative input order cannot affect the fingerprint.
        a = TemporalGraph([(0, 1, 5), (0, 1, 5), (1, 2, 6)])
        b = TemporalGraph([(0, 1, 5), (0, 1, 5), (1, 2, 6)])
        assert a.fingerprint() == b.fingerprint()

    def test_duplicate_timestamps_uniquify_deterministically(self):
        # Same input order => same canonical graph => same fingerprint,
        # even though raw timestamps collide.
        edges = [(0, 1, 5), (1, 2, 5), (2, 0, 5)]
        assert TemporalGraph(edges).fingerprint() == \
            TemporalGraph(edges).fingerprint()

    def test_tie_reorder_that_changes_semantics_changes_fingerprint(self):
        # Reordering *distinct* equal-timestamp edges changes the
        # canonical graph (stable tie-break), and motif counts can
        # genuinely differ -- the fingerprint must distinguish them or
        # a result cache would serve wrong answers.
        a = TemporalGraph([(0, 1, 5), (1, 2, 5)])
        b = TemporalGraph([(1, 2, 5), (0, 1, 5)])
        assert a.fingerprint() != b.fingerprint()

    def test_content_sensitivity(self, tiny_graph):
        fp = tiny_graph.fingerprint()
        edges = [(e.src, e.dst, e.t) for e in tiny_graph.edges()]
        bumped = edges[:-1] + [(edges[-1][0], edges[-1][1], edges[-1][2] + 1)]
        assert TemporalGraph(bumped).fingerprint() != fp

    def test_num_nodes_is_part_of_identity(self):
        edges = [(0, 1, 10)]
        assert TemporalGraph(edges).fingerprint() != \
            TemporalGraph(edges, num_nodes=5).fingerprint()

    def test_from_arrays_round_trip_same_fingerprint(self, tiny_graph):
        adopted = TemporalGraph.from_arrays(
            num_nodes=tiny_graph.num_nodes, **tiny_graph.as_arrays()
        )
        assert adopted.fingerprint() == tiny_graph.fingerprint()

    def test_empty_graph_fingerprint(self):
        assert TemporalGraph([]).fingerprint() == TemporalGraph([]).fingerprint()
        assert TemporalGraph([]).fingerprint() != \
            TemporalGraph([(0, 1, 1)]).fingerprint()
