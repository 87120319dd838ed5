"""Tests for the 36-motif grid and multi-motif census.

The census's counts against dedicated miners and the brute-force oracle
are cells of the correctness matrix (``tests/parity_matrix.py``), run
here under the ids they always had.
"""

import pytest

from parity_matrix import former_tests
from repro.graph.generators import make_dataset
from repro.mining.multi import count_motif_family, grid_census, render_grid
from repro.motifs.grid import grid_motifs, paranjape_grid
from repro.motifs.motif import Motif


class TestGridConstruction:
    def test_exactly_36_motifs(self):
        assert len(paranjape_grid()) == 36
        assert len(grid_motifs()) == 36

    def test_all_distinct(self):
        motifs = grid_motifs()
        assert len({m.edges for m in motifs}) == 36

    def test_all_three_edges(self):
        for m in grid_motifs():
            assert m.num_edges == 3
            assert 2 <= m.num_nodes <= 3

    def test_all_connected_and_canonical(self):
        for m in grid_motifs():
            assert m.edges[0] == (0, 1)
            seen = {0, 1}
            for u, v in m.edges[1:]:
                assert u in seen or v in seen  # connected
                seen |= {u, v}

    def test_grid_keys_cover_6x6(self):
        grid = paranjape_grid()
        assert set(grid) == {(r, c) for r in range(1, 7) for c in range(1, 7)}

    def test_rows_share_first_two_edges(self):
        grid = paranjape_grid()
        for r in range(1, 7):
            prefixes = {grid[(r, c)].edges[:2] for c in range(1, 7)}
            assert len(prefixes) == 1

    def test_names(self):
        grid = paranjape_grid()
        assert grid[(1, 1)].name == "M11"
        assert grid[(6, 6)].name == "M66"

    def test_valid_motifs(self):
        for m in grid_motifs():
            assert isinstance(m, Motif)  # constructor validation ran


class TestCensus:
    @pytest.fixture(scope="class")
    def small_graph(self):
        return make_dataset("email-eu", scale=0.04, seed=9)

    def test_top(self, small_graph):
        delta = small_graph.time_span // 20
        census = count_motif_family(small_graph, grid_motifs()[:8], delta)
        top = census.top(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_grid_census_and_render(self, small_graph):
        delta = small_graph.time_span // 50
        census = grid_census(small_graph, delta)
        assert len(census) == 36
        out = render_grid(census)
        assert "r1" in out and "c6" in out
        assert len(out.splitlines()) == 7


former_tests(globals())
