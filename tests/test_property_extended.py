"""Extended property-based tests: the grid census."""

from hypothesis import given, settings, strategies as st

from repro.mining.mackey import count_motifs
from repro.mining.multi import count_motif_family
from repro.motifs.grid import grid_motifs

from test_property import temporal_graphs

graph_strategy = temporal_graphs()


class TestCensusProperties:
    @settings(max_examples=20, deadline=None)
    @given(graph_strategy, st.integers(1, 40))
    def test_census_totals_consistent(self, g, delta):
        motifs = grid_motifs()[:4]
        census = count_motif_family(g, motifs, delta)
        assert census.total() == sum(
            count_motifs(g, m, delta) for m in motifs
        )
