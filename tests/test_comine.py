"""Unit and parity tests for ``repro.comine`` (trie + family engine).

Three layers:

- **Trie construction** — deterministic shared-prefix merging of
  canonical edge-orderings: node counts, completion tags, path lookup,
  permutation invariance, and the structural facts the engine relies on
  (single depth-1 child; grid = 1 + 6 + 36 nodes).
- **Engine parity** — the co-miner's correctness contract: per-motif
  counts AND per-motif search counters byte-identical to a dedicated
  :class:`MackeyMiner` run, for singleton families, the full Paranjape
  grid, and generator graphs; plus sharing-stats arithmetic, chunked
  ``mine_range`` merging, and cancellation.
- **Walker cells** — every shape of trie node the vectorised walk
  treats differently (counted and materialized, closing, new-node and
  tail edges, internal completions, duplicates), on a graph with
  self-loops and multi-edges, against :class:`MackeyMiner` and the
  brute-force oracle, under any root block, tile size, chunking and
  family order; what the walk keeps of a shared scan or pair range
  (leaf / internal / closing consumers under one prefix, a frontier of
  zero rows); which range bounds it reads off the matched edge or the
  root instead of searching (each rule where it applies and where it
  does not, the rows searched per depth pinned per motif); and the
  family-level counters pinned to what the scalar co-miner this walk
  replaced reported.
"""

import random

import numpy as np
import pytest

from conftest import WALKER_FAMILY, random_temporal_graph
from repro.comine import CoMiner, FamilyResult, MotifTrie, SharingStats, co_count
from repro.comine import engine as comine_engine
from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.bruteforce import brute_force_count
from repro.mining.mackey import MackeyMiner
from repro.mining.multi import count_motif_family, grid_family_census
from repro.mining.results import MiningCancelled
from repro.motifs.catalog import (
    EVALUATION_MOTIFS,
    EXTRA_MOTIFS,
    M1,
    M2,
    PATH3,
    PING_PONG,
)
from repro.motifs.grid import paranjape_grid
from repro.motifs.motif import Motif

GRID_MOTIFS = [m for _, m in sorted(paranjape_grid().items())]


@pytest.fixture(scope="module")
def graph():
    return make_dataset("email-eu", scale=0.03, seed=7)


@pytest.fixture(scope="module")
def delta(graph):
    return max(1, graph.time_span // 20)


class TestTrieConstruction:
    def test_empty_family_raises(self):
        with pytest.raises(ValueError):
            MotifTrie([])

    def test_singleton_trie_is_a_path(self):
        trie = MotifTrie([M1])
        assert trie.family_size == 1
        assert trie.num_nodes == M1.num_edges
        assert trie.shared_nodes == 0
        assert trie.max_depth == M1.num_edges
        path = trie.path(0)
        assert [n.depth for n in path] == [1, 2, 3]
        assert path[-1].complete == [0]
        assert all(n.complete == [] for n in path[:-1])

    def test_shared_prefix_merging(self):
        # M1, M2 and PATH3 all share their first two canonical edges
        # ((0,1),(1,2)) and differ only in the third.  Unshared total =
        # 3+3+3 = 9; merged: one depth-1 node + one depth-2 node +
        # three depth-3 leaves = 5 nodes.
        trie = MotifTrie([M1, M2, PATH3])
        assert trie.unshared_node_count() == 9
        assert trie.num_nodes == 5
        assert trie.shared_nodes == 2  # the depth-1 and depth-2 prefix nodes
        d1 = trie.first_edge_node
        assert d1.edge == (0, 1)
        assert d1.motifs_below == 3

    def test_grid_trie_shape(self):
        # 6 rows x 6 cols sharing row prefixes: 1 depth-1 node, 6
        # depth-2 row nodes, 36 depth-3 leaves.
        trie = MotifTrie(GRID_MOTIFS)
        assert trie.num_nodes == 1 + 6 + 36
        assert trie.unshared_node_count() == 36 * 3
        assert trie.shared_nodes == 7
        assert trie.max_depth == 3
        leaves = [n for n in trie.nodes() if not n.children]
        assert len(leaves) == 36
        assert sorted(i for n in leaves for i in n.complete) == list(range(36))

    def test_construction_is_order_independent(self):
        a = MotifTrie([M1, M2, PATH3, PING_PONG])
        b = MotifTrie([PING_PONG, PATH3, M2, M1])
        assert a.num_nodes == b.num_nodes
        assert a.shared_nodes == b.shared_nodes
        # Node structure (edge, depth) in dense-index order is identical;
        # only the family indices in `complete` follow input order.
        assert [(n.edge, n.depth) for n in a.nodes()] == [
            (n.edge, n.depth) for n in b.nodes()
        ]

    def test_duplicate_motifs_share_one_completion_node(self):
        trie = MotifTrie([M1, M1])
        assert trie.num_nodes == M1.num_edges
        assert trie.path(0)[-1].complete == [0, 1]

    def test_path_and_index_consistency(self):
        trie = MotifTrie(GRID_MOTIFS)
        nodes = trie.nodes()
        for i in range(trie.family_size):
            for node in trie.path(i):
                assert nodes[node.index] is node

    def test_render_lists_every_motif_once(self):
        text = MotifTrie([M1, M2]).render()
        assert M1.name in text and M2.name in text


class TestEngineParity:
    def test_singleton_family_equals_plain_miner(self, graph, delta):
        for motif in EVALUATION_MOTIFS + EXTRA_MOTIFS:
            solo = MackeyMiner(graph, motif, delta).mine()
            fam = CoMiner(graph, [motif], delta).mine()
            assert fam.counts[0] == solo.count, motif.name
            assert (
                fam.per_motif[0].as_dict() == solo.counters.as_dict()
            ), motif.name
            # A family of one shares nothing.
            assert fam.sharing.traversals_saved == 0
            assert fam.counters.as_dict() == solo.counters.as_dict()

    def test_grid_family_counts_and_counters(self, graph, delta):
        result = CoMiner(graph, GRID_MOTIFS, delta).mine()
        assert sum(result.counts) > 0
        for i, motif in enumerate(GRID_MOTIFS):
            solo = MackeyMiner(graph, motif, delta).mine()
            assert result.counts[i] == solo.count, motif.name
            assert (
                result.per_motif[i].as_dict() == solo.counters.as_dict()
            ), motif.name

    def test_sharing_stats_account_for_saved_work(self, graph, delta):
        result = CoMiner(graph, GRID_MOTIFS, delta).mine()
        s = result.sharing
        assert s.searches_unshared > s.searches
        assert s.candidates_unshared > s.candidates_scanned
        assert 0.0 < s.prefix_hit_ratio < 1.0
        assert s.traversal_sharing > 1.0
        assert s.searches_saved == s.searches_unshared - s.searches
        assert (
            s.traversals_saved == s.candidates_unshared - s.candidates_scanned
        )
        # The family aggregate is exactly the sum of what was performed.
        assert s.candidates_scanned == result.counters.candidates_scanned

    def test_mine_range_chunks_merge_to_full_run(self, graph, delta):
        miner = CoMiner(graph, [M1, M2, PATH3], delta)
        full = miner.mine()
        m = graph.num_edges
        acc = FamilyResult.empty(miner.trie)
        step = max(1, m // 7)
        for lo in range(0, m, step):
            acc.merge(miner.mine_range(lo, lo + step))
        assert acc.counts == full.counts
        assert acc.counters.as_dict() == full.counters.as_dict()
        assert [c.as_dict() for c in acc.per_motif] == [
            c.as_dict() for c in full.per_motif
        ]
        assert acc.sharing.as_dict() == full.sharing.as_dict()

    def test_payload_round_trip(self, graph, delta):
        full = CoMiner(graph, [M1, PING_PONG], delta).mine()
        again = FamilyResult.from_payload(full.as_payload())
        assert again.counts == full.counts
        assert again.sharing.as_dict() == full.sharing.as_dict()
        assert again.counters.as_dict() == full.counters.as_dict()

    def test_sharing_merge_rejects_different_families(self):
        a = SharingStats(2, 4, 6, 1, 3)
        b = SharingStats(3, 5, 9, 2, 3)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_cancel_check_raises(self, graph, delta):
        miner = CoMiner(
            graph, GRID_MOTIFS, delta, cancel_check=lambda: True
        )
        with pytest.raises(MiningCancelled):
            miner.mine()

    def test_rejects_bad_arguments(self, graph):
        with pytest.raises(ValueError):
            CoMiner(graph, [M1], -1)
        with pytest.raises(ValueError):
            CoMiner(graph, [], 10)

    def test_empty_graph(self):
        g = TemporalGraph([], num_nodes=2)
        result = CoMiner(g, [M1, M2], 10).mine()
        assert result.counts == [0, 0]
        # No traversal ran, so the measured ratios are undefined and
        # fail loud; only the structural (shape-only) ratio remains.
        assert not result.sharing.populated
        assert result.sharing.structural_prefix_ratio > 0
        with pytest.raises(ValueError):
            result.sharing.prefix_hit_ratio
        with pytest.raises(ValueError):
            result.sharing.traversal_sharing
        # The payload round-trip still works without the measured keys.
        d = result.sharing.as_dict()
        assert "prefix_hit_ratio" not in d
        assert "structural_prefix_ratio" in d

    def test_co_count_convenience(self, graph, delta):
        counts = co_count(graph, [M1, M2], delta)
        assert counts == {
            M1.name: MackeyMiner(graph, M1, delta).mine().count,
            M2.name: MackeyMiner(graph, M2, delta).mine().count,
        }

    def test_disconnected_motif_family(self, graph):
        # Neither-endpoint-mapped scans (edge-list tail) must also be
        # charged identically to the dedicated miner.
        disconnected = Motif.from_labels(
            [("A", "B"), ("C", "D")], name="two-islands"
        )
        delta = max(1, graph.time_span // 50)
        solo = MackeyMiner(graph, disconnected, delta).mine()
        fam = CoMiner(graph, [disconnected, M1], delta).mine()
        assert fam.counts[0] == solo.count
        assert fam.per_motif[0].as_dict() == solo.counters.as_dict()


@pytest.fixture(scope="module")
def loopy_graph():
    """Few nodes, many edges: self-loops and repeated (u, v) pairs."""
    return random_temporal_graph(
        random.Random(23), 6, 90, time_range=200, allow_self_loops=True
    )


@pytest.fixture(scope="module")
def loopy_reference(loopy_graph):
    return [MackeyMiner(loopy_graph, m, WALKER_DELTA).mine() for m in WALKER_FAMILY]


WALKER_DELTA = 45


def assert_family_equals(result, reference, order=None):
    order = range(len(reference)) if order is None else order
    for pos, i in enumerate(order):
        assert result.counts[pos] == reference[i].count, WALKER_FAMILY[i].name
        assert (
            result.per_motif[pos].as_dict() == reference[i].counters.as_dict()
        ), WALKER_FAMILY[i].name


class TestWalkerCells:
    def test_fixture_is_not_vacuous(self, loopy_graph, loopy_reference):
        g = loopy_graph
        assert (g.src == g.dst).any()
        assert len(set(zip(g.src.tolist(), g.dst.tolist()))) < g.num_edges
        assert all(r.count > 0 for r in loopy_reference)
        trie = MotifTrie(WALKER_FAMILY)
        assert any(n.complete and n.child_order for n in trie.nodes())
        assert max(n.seen for n in trie.nodes()) == 5

    @pytest.mark.parametrize("root_block", [1, 7, 4096])
    def test_family_equals_mackey_and_bruteforce(
        self, loopy_graph, loopy_reference, root_block
    ):
        miner = CoMiner(loopy_graph, WALKER_FAMILY, WALKER_DELTA)
        miner.root_block = root_block
        result = miner.mine()
        assert_family_equals(result, loopy_reference)
        assert result.counts == [
            brute_force_count(loopy_graph, m, WALKER_DELTA) for m in WALKER_FAMILY
        ]

    def test_tile_size_never_changes_results(
        self, loopy_graph, loopy_reference, monkeypatch
    ):
        """The frontier bound: five candidate rows at a time, seven
        roots a wave, and a five-label motif still count the same."""
        full = CoMiner(loopy_graph, WALKER_FAMILY, WALKER_DELTA).mine()
        monkeypatch.setattr(comine_engine, "TILE_ROWS", 5)
        miner = CoMiner(loopy_graph, WALKER_FAMILY, WALKER_DELTA)
        miner.root_block = 7
        tiled = miner.mine()
        assert_family_equals(tiled, loopy_reference)
        assert tiled.counters.as_dict() == full.counters.as_dict()
        assert tiled.sharing.as_dict() == full.sharing.as_dict()

    @pytest.mark.parametrize("step", [1, 13, 1000])
    def test_mine_range_splits_sum_to_mine(self, loopy_graph, loopy_reference, step):
        miner = CoMiner(loopy_graph, WALKER_FAMILY, WALKER_DELTA)
        acc = FamilyResult.empty(miner.trie)
        for lo in range(0, loopy_graph.num_edges, step):
            acc.merge(miner.mine_range(lo, lo + step))
        assert_family_equals(acc, loopy_reference)
        assert acc.as_payload() == miner.mine().as_payload()

    def test_family_order_is_only_a_relabelling(self, loopy_graph, loopy_reference):
        order = list(range(len(WALKER_FAMILY)))
        random.Random(4).shuffle(order)
        base = CoMiner(loopy_graph, WALKER_FAMILY, WALKER_DELTA).mine()
        permuted = CoMiner(
            loopy_graph, [WALKER_FAMILY[i] for i in order], WALKER_DELTA
        ).mine()
        assert_family_equals(permuted, loopy_reference, order)
        assert permuted.counters.as_dict() == base.counters.as_dict()

    def test_singletons_equal_the_family(self, loopy_graph, loopy_reference):
        """The family-of-one binding is the same walk with nothing shared."""
        from repro.mining.batched import BatchedMiner

        for motif, ref in zip(WALKER_FAMILY, loopy_reference):
            solo = BatchedMiner(loopy_graph, motif, WALKER_DELTA, root_block=7).mine()
            assert solo.count == ref.count, motif.name
            assert solo.counters.as_dict() == ref.counters.as_dict(), motif.name

    def test_cancel_is_polled_between_trie_nodes(self, loopy_graph):
        """One root block: every poll after the first comes from inside
        the walk, not from the block loop."""
        polls = []

        def cancel() -> bool:
            polls.append(1)
            return len(polls) > 4

        miner = CoMiner(loopy_graph, WALKER_FAMILY, WALKER_DELTA, cancel_check=cancel)
        with pytest.raises(MiningCancelled):
            miner.mine()
        assert len(polls) == 5


def _motif(name, *edges):
    return Motif.from_labels(list(edges), name=name)


#: What the walk keeps of a scan or a pair range depends on which kind
#: of child consumes it; this family has every combination under one
#: two-edge prefix (A→B, B→C).
RANGE_FAMILY = [
    # Third edge C→D binds a new node and has a child: an internal
    # new-node child, which computes no pair and counts its frontier.
    _motif("square", ("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")),
    PATH3,  # completes at that internal child
    # C→A closes on the pair (C, A) and has a child: the pair's ranges
    # are enumerated ...
    _motif("cycle-then-out", ("A", "B"), ("B", "C"), ("C", "A"), ("A", "D")),
    # ... while this sibling leaf D→A only excludes (C, A): its total.
    _motif("path-then-in", ("A", "B"), ("B", "C"), ("D", "A")),
    M1,  # and this one closes on it as a leaf
    # Every edge binds a new node: two internal new-node levels deep.
    _motif("star4", ("A", "B"), ("A", "C"), ("A", "D"), ("A", "E")),
]


class TestRangeRetention:
    """Per-motif counts and ``SearchCounters`` equal ``MackeyMiner``
    whatever the walk kept or dropped, at any tile size."""

    #: 0→1 then only 1→0 edges: B's window is non-empty and its every
    #: candidate leads back to A, which is bound.
    BOUNCE = TemporalGraph([(0, 1, 1), (1, 0, 2), (1, 0, 3), (1, 0, 5), (2, 1, 6)])

    def test_family_is_not_vacuous(self):
        trie = MotifTrie(RANGE_FAMILY)
        prefix = trie.first_edge_node.children[(1, 2)]
        kinds = {c.edge: bool(c.child_order) for c in prefix.child_order}
        assert kinds == {(2, 0): True, (2, 3): True, (3, 0): False}
        assert prefix.children[(2, 0)].complete and prefix.children[(2, 3)].complete

    @pytest.mark.parametrize("tile", [1, 7, None])
    def test_equals_mackey_at_any_tile(self, loopy_graph, monkeypatch, tile):
        if tile is not None:
            monkeypatch.setattr(comine_engine, "TILE_ROWS", tile)
        for graph in (loopy_graph, self.BOUNCE):
            result = CoMiner(graph, RANGE_FAMILY, WALKER_DELTA).mine()
            for motif, count, counters in zip(
                RANGE_FAMILY, result.counts, result.per_motif
            ):
                ref = MackeyMiner(graph, motif, WALKER_DELTA).mine()
                assert count == ref.count, motif.name
                assert counters.as_dict() == ref.counters.as_dict(), motif.name

    @pytest.mark.parametrize("tile", [1, 7, None])
    def test_fully_bound_window_is_a_frontier_of_zero_rows(self, monkeypatch, tile):
        """An internal child's window holds candidates, every one of
        them already bound: the frontier is built, found empty, counted
        as zero and not descended into."""
        if tile is not None:
            monkeypatch.setattr(comine_engine, "TILE_ROWS", tile)
        built, walked = [], []
        materialize, walk = CoMiner._materialize, CoMiner._walk

        def spy_materialize(*args):
            frontier = materialize(*args)
            built.append((int(args[3].sum()), len(frontier[1])))
            return frontier

        def spy_walk(miner, node, cols, last_e, root):
            walked.append(len(last_e))
            return walk(miner, node, cols, last_e, root)

        monkeypatch.setattr(CoMiner, "_materialize", staticmethod(spy_materialize))
        monkeypatch.setattr(CoMiner, "_walk", spy_walk)
        result = CoMiner(self.BOUNCE, [M1], 10).mine()
        ref = MackeyMiner(self.BOUNCE, M1, 10).mine()
        assert (result.counts[0], result.per_motif[0].as_dict()) == (
            ref.count, ref.counters.as_dict()
        )
        assert sum(candidates for candidates, _ in built) == 3
        assert all(rows == 0 for _, rows in built)
        assert 0 not in walked


@pytest.fixture(scope="module")
def one_way_graph():
    """Many nodes, few edges per pair: the reverse of many a matched
    edge never occurs (and no self-loops)."""
    return random_temporal_graph(random.Random(31), 14, 120, time_range=200)


@pytest.fixture(scope="module")
def hot_pair_graph():
    """Half the edges are 0→1, a sixth 1→0, dense enough that the
    windows of 0→1 roots interleave; the rest (self-loops included)
    among six nodes."""
    rng = random.Random(47)
    edges = []
    for _ in range(150):
        x = rng.random()
        s, d = (0, 1) if x < 0.5 else (1, 0) if x < 0.67 else (
            rng.randrange(6), rng.randrange(6))
        edges.append((s, d, rng.randrange(600)))
    return TemporalGraph(edges, num_nodes=6)


def _by_name(name):
    return next(m for m in WALKER_FAMILY if m.name == name)


class TestSearchElision:
    """The walk searches only range bounds its frontier does not imply:
    (a) a scan of either end of the matched edge starts at a position
    the edge holds — right after it for its source's out-edges and its
    destination's in-edges, at the other end's first later edge for the
    other two — (b) the ranks of that edge's pair and of its reverse are
    the edge's, and so are both pairs' range starts, (c) ranges over
    root labels 0 and 1 end where the root says.  Each rule has a
    ``WALKER_FAMILY`` cell where it applies and one where it does not,
    and every cell equals ``MackeyMiner`` in counts and counters."""

    def test_each_rule_has_cells_where_it_applies_and_where_not(self):
        cells = set()
        for node in MotifTrie(WALKER_FAMILY).nodes():
            if node.depth < 2:
                continue  # the last edge is the root edge: rule (c) owns it
            for child in node.child_order:
                u, v = child.edge
                if min(u, v) >= node.seen:
                    continue  # the edge-list tail: no range index
                out = u < node.seen
                label = u if out else v
                cells.add(("a", out, "src" if label == node.edge[0]
                           else "dst" if label == node.edge[1] else None))
                if node.depth >= 3:
                    cells.add(("c", label < 2))
                if max(u, v) < node.seen and max(u, v) >= 2:
                    cells.add(("b", "own" if child.edge == node.edge
                               else "reverse" if child.edge == node.edge[::-1]
                               else None))
        assert {
            # out-scans: of the source (after the edge), of the
            # destination (its first later out-edge), of neither
            ("a", True, "src"), ("a", True, "dst"), ("a", True, None),
            # in-scans: of the destination (after the edge), of the
            # source (its first later in-edge), of neither
            ("a", False, "dst"), ("a", False, "src"), ("a", False, None),
            # own pair and reverse pair: rank and start gathered
            ("b", "own"), ("b", "reverse"), ("b", None),
            ("c", True), ("c", False),
        } <= cells

    def test_fixture_reaches_absent_and_present_reverse_pairs(self, one_way_graph):
        """Rows of ``close-reverse`` reach the closing edge with a last
        edge whose reverse pair never occurs, and with one whose does."""
        g = one_way_graph
        index = g.range_index()
        sentinel = len(index.pair_codes) - 1
        prefix = MackeyMiner(
            g, _by_name("m1-prefix"), WALKER_DELTA, record_matches=True
        ).mine()
        absent = {
            bool(index.rev_rank[match.edge_indices[-1]] == sentinel)
            for match in prefix.matches
        }
        assert absent == {True, False}
        assert MackeyMiner(g, _by_name("close-reverse"), WALKER_DELTA).mine().count > 0

    @pytest.mark.parametrize("root_block", [1, 7, 4096])
    def test_one_way_graph_equals_mackey(self, one_way_graph, root_block):
        miner = CoMiner(one_way_graph, WALKER_FAMILY, WALKER_DELTA)
        miner.root_block = root_block
        reference = [
            MackeyMiner(one_way_graph, m, WALKER_DELTA).mine() for m in WALKER_FAMILY
        ]
        assert_family_equals(miner.mine(), reference)

    @pytest.mark.parametrize("graph_name", ["loopy", "one-way", "hot-pair"])
    def test_splits_that_cut_a_block(
        self, loopy_graph, one_way_graph, hot_pair_graph, graph_name
    ):
        """Chunks of 10 roots over blocks of 7: the per-root values are
        indexed block-locally, whatever root a block starts at."""
        g = {"loopy": loopy_graph, "one-way": one_way_graph,
             "hot-pair": hot_pair_graph}[graph_name]
        miner = CoMiner(g, WALKER_FAMILY, WALKER_DELTA)
        miner.root_block = 7
        acc = FamilyResult.empty(miner.trie)
        for lo in range(0, g.num_edges, 10):
            acc.merge(miner.mine_range(lo, lo + 10))
        assert_family_equals(
            acc, [MackeyMiner(g, m, WALKER_DELTA).mine() for m in WALKER_FAMILY]
        )
        assert acc.as_payload() == miner.mine().as_payload()

    def test_hot_pair_fixture_interleaves_windows(self, hot_pair_graph):
        """Most roots share one pair, and a root's window holds later
        roots of that pair: once sorted into pair order, a block's rows
        of one pair overlap in time."""
        g = hot_pair_graph
        hot = np.flatnonzero((g.src == 0) & (g.dst == 1))
        assert len(hot) > g.num_edges // 3
        assert (np.diff(g.ts[hot]) <= WALKER_DELTA).mean() > 0.9

    @pytest.mark.parametrize("root_block", [1, 7, 4096])
    def test_hot_pair_graph_equals_mackey(self, hot_pair_graph, root_block):
        miner = CoMiner(hot_pair_graph, WALKER_FAMILY, WALKER_DELTA)
        miner.root_block = root_block
        reference = [
            MackeyMiner(hot_pair_graph, m, WALKER_DELTA).mine() for m in WALKER_FAMILY
        ]
        assert_family_equals(miner.mine(), reference)

    @pytest.mark.parametrize("root_block", [7, 4096])
    def test_roots_are_visited_in_pair_order(
        self, hot_pair_graph, monkeypatch, root_block
    ):
        """Each block's roots reach the walk sorted by (src, dst, index),
        self-loops dropped, every non-loop edge of the block once."""
        g, blocks = hot_pair_graph, []
        walk = CoMiner._walk

        def spy_walk(miner, node, cols, last_e, root):
            if node.depth == 1:
                blocks.append(last_e.tolist())
            return walk(miner, node, cols, last_e, root)

        monkeypatch.setattr(CoMiner, "_walk", spy_walk)
        miner = CoMiner(g, [M1], WALKER_DELTA)
        miner.root_block = root_block
        miner.mine()
        assert len(blocks) == len(range(0, g.num_edges, root_block))
        for lo, roots in zip(range(0, g.num_edges, root_block), blocks):
            edges = range(lo, min(g.num_edges, lo + root_block))
            assert roots == sorted(
                (e for e in edges if g.src[e] != g.dst[e]),
                key=lambda e: (g.src[e], g.dst[e], e),
            )

    #: Rows searched per frontier row at each depth, for a motif alone on
    #: a graph without self-loops.  A per-root search (rule c) costs one
    #: row per root, so it shows up in the depth-1 coefficient whatever
    #: depth asks for it.  The start of a scan of either end of the
    #: matched edge (a) and of its own or reverse pair (b) is a gather.
    PLANS = {
        # Depth 1: B's out-scan starts at B's first out-edge after the
        # root (a) and ends per root (c): 1.  Depth 2: C's out-scan
        # starts likewise (a) and ends at a search: 1; the closing pair
        # (C, A) is unrelated to B→C: rank, start and end, 3.
        "M1": (1, 4),
        # The out-scan of B ends per root (c) and starts after the root
        # (a); the reverse pair (B, A) takes its rank and start from the
        # root (b) and ends per root (c): 1 + 1.
        "ping-pong": (2,),
        # Depth 1 as M1.  Depth 2: C's out-scan ends at a search, 1; the
        # reverse pair (C, B) of B→C ends at a search, its rank and start
        # gathered (b): 1.
        "close-reverse": (1, 2),
        # Depth 1 as M1, and B's out-scan at depth 2 shares its per-root
        # end.  Depth 2: that scan starts after B→C (a), and its own
        # pair (B, C) costs the end search only (b): 1.  Depth 3: C's
        # out-scan ends at a search, 1; the leaf subtracts (C, A), 3,
        # and the reverse pair (C, B), whose end is searched, 1.
        "close-own-pair": (1, 1, 5),
        # Depth 1 as M1.  Depth 2: C's out-scan ends at a search, 1.
        # Depth 3: C→E after C→D starts after it (a) and ends at a
        # search, 1; the leaf subtracts (C, A) and (C, B), 3 each, and
        # its own pair (C, D) costs the end search only (b), 1.
        "fan-from-last-src": (1, 1, 8),
        # Depth 1: M1's 1, plus the per-root end of A's scan (c) that
        # depth 3 asks for.  Depth 2 as M1's scan, 1.  Depth 3: A's
        # out-scan starts at a search, 1.  Depth 4: E's out-scan after
        # A→E starts at E's first later out-edge (a) and ends at a
        # search, 1; the closing pair (E, B): rank, start and end, 3.
        "root-scan-deep": (2, 1, 1, 4),
        # Depth 1: M1's 1, plus the per-root end of B's in-scan (c).
        # Depth 2: that in-scan starts at B's first in-edge after B→C
        # (a), 0.  Depth 3: D's out-scan after D→B starts after it (a)
        # and ends at a search, 1; the closing pair (D, A), 3.
        "into-last-src": (2, 0, 4),
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_searched_rows_follow_the_plan(self, one_way_graph, monkeypatch, name):
        from repro.graph.temporal_graph import RangeIndex

        g, plan = one_way_graph, self.PLANS[name]
        g.range_index()  # built (its reverse ranks searched) before the spy
        searched, rows = [0], [0] * len(plan)
        seek, pair_rank, walk = RangeIndex.seek, RangeIndex.pair_rank, CoMiner._walk

        def spy_seek(index, *args):
            found = seek(index, *args)
            searched[0] += len(found)
            return found

        def spy_pair_rank(index, *args):
            found = pair_rank(index, *args)
            searched[0] += len(found)
            return found

        def spy_walk(miner, node, cols, last_e, root):
            rows[node.depth - 1] += len(last_e)
            return walk(miner, node, cols, last_e, root)

        monkeypatch.setattr(RangeIndex, "seek", spy_seek)
        monkeypatch.setattr(RangeIndex, "pair_rank", spy_pair_rank)
        monkeypatch.setattr(CoMiner, "_walk", spy_walk)
        CoMiner(g, [_by_name(name)], WALKER_DELTA).mine()
        assert all(rows), rows
        assert searched[0] == sum(c * r for c, r in zip(plan, rows))


#: ``FamilyResult.counters`` and the dynamic ``SharingStats`` fields of
#: the grid census, as reported by the scalar co-miner this walk
#: replaced (captured at its last commit): (dataset, scale, δ divisor)
#: -> (family counters, searches_unshared, candidates_unshared,
#: bytes_unshared).  The two "candidate scans saved" figures are the
#: sharing rows of the retired ``comine_census_speedup`` table.
SCALAR_COMINER_GRID = {
    ("email-eu", 0.12, 20): (
        dict(searches=52776, candidates_scanned=230647, binary_searches=52776,
             binary_search_steps=352696, neighbor_items_touched=230647,
             bookkeeps=65153, backtracks=53256, matches=56357, root_tasks=480,
             bytes_touched=3690352),
        67176, 317842, 5085472,
    ),
    ("superuser", 0.08, 25): (
        dict(searches=75456, candidates_scanned=331853, binary_searches=75456,
             binary_search_steps=505042, neighbor_items_touched=331853,
             bookkeeps=92642, backtracks=76096, matches=80066, root_tasks=640,
             bytes_touched=5309648),
        94656, 454773, 7276368,
    ),
}


class TestFamilyAccounting:
    @pytest.mark.parametrize("key", sorted(SCALAR_COMINER_GRID), ids=lambda k: k[0])
    def test_grid_family_counters_equal_the_scalar_cominer(self, key):
        name, scale, delta_div = key
        counters, searches, candidates, bytes_ = SCALAR_COMINER_GRID[key]
        g = make_dataset(name, scale=scale, seed=5)
        result = CoMiner(g, GRID_MOTIFS, g.time_span // delta_div).mine()
        assert result.counters.as_dict() == counters
        s = result.sharing
        assert (s.trie_nodes, s.unshared_nodes, s.shared_nodes) == (43, 108, 7)
        assert (s.searches, s.candidates_scanned, s.bytes_touched) == (
            counters["searches"], counters["candidates_scanned"],
            counters["bytes_touched"],
        )
        assert (s.searches_unshared, s.candidates_unshared, s.bytes_unshared) == (
            searches, candidates, bytes_,
        )
        assert s.traversals_saved == candidates - counters["candidates_scanned"]
        assert 0.2 < s.prefix_hit_ratio < 0.22
        assert s.traversal_sharing > 1.3


class TestCensusEngine:
    def test_census_engines_agree(self, graph, delta):
        """The walker census against one dedicated scalar miner per motif."""
        mackey = {m.name: MackeyMiner(graph, m, delta).mine() for m in GRID_MOTIFS}
        family = grid_family_census(graph, delta)
        assert family.counts == {k: r.count for k, r in mackey.items()}
        assert {k: v.as_dict() for k, v in family.per_motif.items()} == {
            k: r.counters.as_dict() for k, r in mackey.items()
        }
        # One shared walk does strictly less search work, and says so.
        assert family.sharing.traversals_saved == (
            sum(r.counters.candidates_scanned for r in mackey.values())
            - family.counters.candidates_scanned
        ) > 0

    def test_count_motif_family_validates_arguments(self, graph):
        with pytest.raises(ValueError):
            count_motif_family(graph, [], 10)
        for engine in ("quantum", "comine", "mackey"):
            with pytest.raises(ValueError, match="unknown engine"):
                grid_family_census(graph, 10, engine=engine)
