"""Tests for the motif DSL parser."""

import pytest

from repro.motifs.catalog import M1, M4
from repro.motifs.parse import MotifParseError, parse_motif


class TestParseMotif:
    def test_parse_m1(self):
        m = parse_motif("A->B, B->C, C->A")
        assert m.edges == M1.edges

    def test_parse_semicolons_and_whitespace(self):
        m = parse_motif("  u1 ->u2 ;u2->   u1  ")
        assert m.edges == ((0, 1), (1, 0))

    def test_parse_star(self):
        m = parse_motif("a->b, a->c, a->d, a->e")
        assert m.edges == M4.edges

    def test_comments(self):
        m = parse_motif("A->B  # first contact\nB->A  # reply")
        assert m.num_edges == 2

    def test_labels_assigned_by_first_appearance(self):
        m = parse_motif("Z->A, A->Q")
        assert m.edges == ((0, 1), (1, 2))

    def test_empty_rejected(self):
        with pytest.raises(MotifParseError, match="no edges"):
            parse_motif("   # nothing here")

    def test_bad_edge_rejected(self):
        with pytest.raises(MotifParseError, match="cannot parse"):
            parse_motif("A=>B")

    def test_self_loop_surfaces_as_parse_error(self):
        with pytest.raises(MotifParseError, match="self-loop"):
            parse_motif("A->A")

    def test_too_many_edges_surfaces(self):
        spec = ", ".join("A->B" if i % 2 == 0 else "B->A" for i in range(9))
        with pytest.raises(MotifParseError, match="at most"):
            parse_motif(spec)
