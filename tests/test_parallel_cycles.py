"""Tests for one-shot parallel mining through :func:`open_runner`."""

import pytest

from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import count_motifs
from repro.mining.parallel import open_runner
from repro.motifs.catalog import M1, M2


class TestParallelMiner:
    @pytest.fixture(scope="class")
    def graph(self):
        return make_dataset("mathoverflow", scale=0.08, seed=19)

    def test_inline_mode_matches_serial(self, graph):
        delta = graph.time_span // 30
        with open_runner(graph, 0) as runner:
            result = runner.count(graph, M1, delta)
        assert result.count == count_motifs(graph, M1, delta)
        assert result.num_workers == 0

    def test_two_workers_match_serial(self, graph):
        delta = graph.time_span // 30
        expected = count_motifs(graph, M1, delta)
        with open_runner(graph, 2) as runner:
            result = runner.count(graph, M1, delta)
        assert result.count == expected
        assert result.num_chunks > 1

    def test_counters_merged(self, graph):
        delta = graph.time_span // 30
        serial = count_motifs(graph, M1, delta)
        with open_runner(graph, 2) as runner:
            result = runner.count(graph, M1, delta)
        assert result.counters.matches == serial
        assert result.counters.root_tasks == graph.num_edges

    def test_one_shot_pool_has_no_wedge_timeout(self, graph):
        # A chunk's length grows with the graph (the first guided chunk
        # holds a quarter of the roots at two workers); a fixed timeout
        # killed every chunk of the wiki-talk x650 census.
        with open_runner(graph, 2) as runner:
            assert runner.chunk_timeout_s is None
            result = runner.count(graph, M1, graph.time_span // 30)
        assert runner.stats.wedged_kills == 0
        assert result.count == count_motifs(graph, M1, graph.time_span // 30)

    def test_empty_graph(self):
        g = TemporalGraph([], num_nodes=2)
        with open_runner(g, 2) as runner:
            assert runner.count(g, M1, 10).count == 0

    def test_chunking_covers_all_roots(self, graph):
        delta = graph.time_span // 50
        for workers in (2, 3):
            with open_runner(graph, workers) as runner:
                result = runner.count(graph, M2, delta, chunks_per_worker=3)
            assert result.counters.root_tasks == graph.num_edges
