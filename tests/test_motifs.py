"""Unit tests for motif representation and the evaluation catalog."""

import pytest

from repro.motifs.catalog import (
    EVALUATION_MOTIFS,
    EXTRA_MOTIFS,
    M1,
    M2,
    M3,
    M4,
    PAPER_DELTA_SECONDS,
    motif_by_name,
)
from repro.motifs.motif import MAX_MOTIF_EDGES, Motif


class TestMotifValidation:
    def test_basic_motif(self):
        m = Motif([(0, 1), (1, 2)])
        assert m.num_edges == 2
        assert m.num_nodes == 3

    def test_empty_motif_rejected(self):
        with pytest.raises(ValueError):
            Motif([])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Motif([(0, 0)])

    def test_non_contiguous_labels_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            Motif([(0, 2)])

    def test_too_many_edges_rejected(self):
        edges = [(i % 2, 1 - i % 2) for i in range(MAX_MOTIF_EDGES + 1)]
        with pytest.raises(ValueError, match="at most"):
            Motif(edges)

    def test_eight_edges_allowed(self):
        edges = [(0, 1), (1, 0)] * 4
        assert Motif(edges).num_edges == 8

    def test_from_labels_order(self):
        m = Motif.from_labels([("B", "A"), ("A", "C")])
        # B appears first so it becomes node 0.
        assert m.edges == ((0, 1), (1, 2))

    def test_repr_contains_name(self):
        assert "M1" in repr(M1)

    def test_edges_are_immutable_tuple(self):
        assert isinstance(M1.edges, tuple)


class TestMotifProperties:
    def test_edge_accessor(self):
        assert M1.edge(0) == (0, 1)
        assert M1.edge(2) == (2, 0)

    def test_len(self):
        assert len(M4) == 4


class TestCatalog:
    def test_paper_delta(self):
        assert PAPER_DELTA_SECONDS == 3600

    def test_m1_is_three_node_cycle(self):
        assert M1.num_nodes == 3
        assert M1.edges == ((0, 1), (1, 2), (2, 0))

    def test_m2_is_three_node_feedforward(self):
        assert M2.num_nodes == 3
        assert M2.num_edges == 3

    def test_m3_is_four_node_cycle(self):
        assert M3.num_nodes == 4
        assert M3.edges == ((0, 1), (1, 2), (2, 3), (3, 0))

    def test_m4_is_five_node_star(self):
        assert M4.num_nodes == 5
        assert M4.num_edges == 4
        sources = {u for u, _ in M4.edges}
        assert sources == {0}

    def test_sizes_match_paper_claim(self):
        # "four unique motifs (M1-M4) from three to five nodes in size"
        sizes = [m.num_nodes for m in EVALUATION_MOTIFS]
        assert min(sizes) == 3
        assert max(sizes) == 5

    def test_lookup_by_name(self):
        for m in EVALUATION_MOTIFS + EXTRA_MOTIFS:
            assert motif_by_name(m.name) is m

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            motif_by_name("M99")
