"""Tests for neighborhood-utilization instrumentation (Fig. 7)."""

import pytest

from repro.analysis.neighborhood import (
    UtilizationSeries,
    hottest_nodes,
    neighborhood_utilization,
)
from repro.graph.generators import make_dataset
from repro.motifs.catalog import M1


@pytest.fixture(scope="module")
def graph():
    return make_dataset("wiki-talk", scale=0.12, seed=6)


class TestHottestNodes:
    def test_returns_k_distinct(self, graph):
        hot = hottest_nodes(graph, k=3)
        assert len(hot) == 3
        assert len(set(hot)) == 3

    def test_ordered_by_degree(self, graph):
        hot = hottest_nodes(graph, k=2)
        assert len(graph.out_edges(hot[0])) >= len(graph.out_edges(hot[1]))

    def test_direction(self, graph):
        hot_in = hottest_nodes(graph, k=1, direction="in")
        assert len(graph.in_edges(hot_in[0])) == max(
            len(graph.in_edges(v)) for v in range(graph.num_nodes)
        )


class TestUtilization:
    def test_series_recorded_for_hot_nodes(self, graph):
        delta = graph.time_span // 30
        series = neighborhood_utilization(graph, M1, delta)
        assert len(series) == 2
        for s in series.values():
            assert s.points, "hot node was never filtered"
            for _, frac in s.points:
                assert 0.0 <= frac <= 1.0

    def test_utilization_decreases_over_run(self, graph):
        """The Fig. 7 claim: utilization decays with algorithm progress."""
        delta = graph.time_span // 30
        series = neighborhood_utilization(graph, M1, delta)
        decreasing = [s.is_decreasing_trend() for s in series.values()]
        assert all(decreasing)

    def test_event_ordinals_increase(self, graph):
        delta = graph.time_span // 40
        series = neighborhood_utilization(graph, M1, delta)
        for s in series.values():
            ordinals = [o for o, _ in s.points]
            assert ordinals == sorted(ordinals)

    def test_max_points_cap(self, graph):
        delta = graph.time_span // 30
        series = neighborhood_utilization(
            graph, M1, delta, max_points_per_node=5
        )
        for s in series.values():
            assert len(s.points) <= 5

    def test_explicit_nodes(self, graph):
        delta = graph.time_span // 30
        series = neighborhood_utilization(graph, M1, delta, nodes=[0, 1])
        assert set(series) == {0, 1}

    def test_mean_utilization_empty(self):
        s = UtilizationSeries(node=0, direction="out")
        assert s.mean_utilization() == 0.0
        assert not s.is_decreasing_trend()
