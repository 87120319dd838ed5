"""Tests for dataset statistics (Table I support)."""

import pytest

from repro.graph.stats import compute_stats, storage_bytes
from repro.graph.temporal_graph import TemporalGraph


class TestComputeStats:
    def test_basic_stats(self, burst_graph):
        st = compute_stats(burst_graph, name="burst")
        assert st.name == "burst"
        assert st.num_edges == 9
        assert st.num_nodes == 3
        assert st.max_out_degree >= st.mean_out_degree
        assert st.p90_out_degree <= st.max_out_degree

    def test_time_span_days(self):
        g = TemporalGraph([(0, 1, 0), (1, 0, 86_400 * 3)])
        st = compute_stats(g)
        assert st.time_span_days == pytest.approx(3.0)

    def test_storage_bytes_formula(self, burst_graph):
        m, n = burst_graph.num_edges, burst_graph.num_nodes
        expected = m * 12 + 2 * (m * 4 + (n + 1) * 4)
        assert storage_bytes(burst_graph) == expected

    def test_size_mb_consistent(self, burst_graph):
        st = compute_stats(burst_graph)
        assert st.size_mb == pytest.approx(storage_bytes(burst_graph) / 1e6)

    def test_empty_graph(self):
        st = compute_stats(TemporalGraph([]))
        assert st.num_edges == 0
        assert st.max_out_degree == 0

    def test_row_rendering(self, burst_graph):
        row = compute_stats(burst_graph, "x").row()
        assert row[0] == "x"
        assert len(row) == 6
