"""End-to-end integration tests across subsystem boundaries."""

import pytest

from repro import (
    M1,
    MackeyMiner,
    MintConfig,
    MintSimulator,
    Motif,
    TemporalGraph,
)
from repro.graph.generators import make_dataset
from repro.graph.loaders import load_snap_text, save_snap_text
from repro.mining.batched import BatchedMiner
from repro.mining.presto import PrestoEstimator
from repro.motifs.parse import parse_motif
from repro.sim.config import CacheConfig


def temporal_split(graph, train_fraction):
    """The first ``train_fraction`` of edges (by time) and the rest, over
    the same node IDs."""
    cut = int(round(graph.num_edges * train_fraction))
    rows = list(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))
    return (
        TemporalGraph(rows[:cut], num_nodes=graph.num_nodes),
        TemporalGraph(rows[cut:], num_nodes=graph.num_nodes),
    )


class TestFullPipeline:
    """Generate -> persist -> reload -> mine -> simulate, end to end."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pipeline")
        graph = make_dataset("superuser", scale=0.06, seed=33)
        text_path = tmp / "graph.txt"
        save_snap_text(graph, text_path)
        return graph, text_path

    def test_mine_simulate_consistent_across_formats(self, pipeline):
        graph, text_path = pipeline
        delta = graph.time_span // 25
        motif = parse_motif("A->B, B->C, C->A")
        expected = MackeyMiner(graph, motif, delta).mine().count

        for loaded in (graph, load_snap_text(text_path)):
            assert MackeyMiner(loaded, motif, delta).mine().count == expected
            cfg = MintConfig(num_pes=16, cache=CacheConfig(num_banks=16, bank_kb=2))
            assert MintSimulator(loaded, motif, delta, cfg).run().matches == expected

    def test_all_miners_agree_on_pipeline_graph(self, pipeline):
        graph, _ = pipeline
        delta = graph.time_span // 25
        a = MackeyMiner(graph, M1, delta).mine().count
        b = BatchedMiner(graph, M1, delta).mine().count
        c = MackeyMiner(graph, M1, delta, memoize=True).mine().count
        assert a == b == c


class TestTemporalSplitWorkflow:
    def test_counts_are_subadditive_across_split(self):
        """Matches in the full graph >= matches in train + matches in test
        (boundary-crossing instances are only in the full graph)."""
        graph = make_dataset("email-eu", scale=0.15, seed=8)
        delta = graph.time_span // 40
        train, test = temporal_split(graph, 0.5)
        full = MackeyMiner(graph, M1, delta).mine().count
        parts = (
            MackeyMiner(train, M1, delta).mine().count
            + MackeyMiner(test, M1, delta).mine().count
        )
        assert full >= parts

    def test_presto_on_train_window(self):
        graph = make_dataset("email-eu", scale=0.15, seed=8)
        train, _ = temporal_split(graph, 0.7)
        delta = graph.time_span // 40
        est = PrestoEstimator(train, M1, delta, seed=1).estimate(12)
        assert est.estimate >= 0.0


class TestPublicApiSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_motif_from_public_import(self):
        m = Motif([(0, 1), (1, 2)])
        g = TemporalGraph([(5, 6, 1), (6, 7, 2)])
        assert MackeyMiner(g, m, 10).mine().count == 1


class TestDeterminismAcrossRuns:
    """The whole stack is seed-deterministic — important for archives."""

    def test_simulation_deterministic(self):
        g = make_dataset("wiki-talk", scale=0.04, seed=5)
        delta = g.time_span // 30
        cfg = MintConfig(num_pes=32, cache=CacheConfig(num_banks=16, bank_kb=2))
        a = MintSimulator(g, M1, delta, cfg).run()
        b = MintSimulator(g, M1, delta, cfg).run()
        assert a.cycles == b.cycles
        assert a.dram_bytes == b.dram_bytes
        assert a.cache.hits == b.cache.hits

    def test_experiment_deterministic(self):
        from repro.analysis import experiments as ex

        pol = ex.ScalePolicy(scale=0.04, num_pes=16)
        r1 = ex.run_fig2(pol, datasets=("email-eu",))
        r2 = ex.run_fig2(pol, datasets=("email-eu",))
        assert r1.scaling == r2.scaling
