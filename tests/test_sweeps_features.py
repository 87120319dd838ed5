"""Tests for complexity sweeps (§III-A)."""

import pytest

from repro.analysis.sweeps import SweepResult, SweepPoint, delta_sweep, motif_size_sweep
from repro.graph.generators import make_dataset
from repro.motifs.catalog import M1


@pytest.fixture(scope="module")
def graph():
    return make_dataset("email-eu", scale=0.15, seed=21)


class TestDeltaSweep:
    def test_work_grows_with_delta(self, graph):
        span = graph.time_span
        sweep = delta_sweep(graph, M1, [span // 200, span // 50, span // 10])
        cands = [p.candidates for p in sweep.points]
        assert cands == sorted(cands)
        assert cands[-1] > cands[0]

    def test_matches_grow_with_delta(self, graph):
        span = graph.time_span
        sweep = delta_sweep(graph, M1, [span // 200, span // 10])
        assert sweep.points[-1].matches >= sweep.points[0].matches

    def test_growth_exponent_positive(self, graph):
        span = graph.time_span
        sweep = delta_sweep(
            graph, M1, [span // 400, span // 100, span // 25, span // 8]
        )
        # §III-A: for a 3-edge motif the width term is ~k^2; measured
        # exponents land between linear and quadratic on real graphs.
        assert 0.3 < sweep.growth_exponent() < 3.0

    def test_window_edges_recorded(self, graph):
        span = graph.time_span
        sweep = delta_sweep(graph, M1, [span // 100])
        p = sweep.points[0]
        assert p.window_edges == pytest.approx(
            graph.num_edges * p.parameter / span
        )

    def test_growth_exponent_validation(self):
        sweep = SweepResult("x", [SweepPoint(1.0, 1.0, 10, 0, 1)])
        with pytest.raises(ValueError):
            sweep.growth_exponent()


class TestMotifSizeSweep:
    def test_work_grows_with_depth(self, graph):
        delta = graph.time_span // 30
        sweep = motif_size_sweep(graph, delta, sizes=(1, 2, 3, 4))
        cands = [p.candidates for p in sweep.points]
        assert cands[-1] >= cands[0]
        assert sweep.parameter_name == "motif_edges"

    def test_chain_motifs_alternate(self):
        from repro.analysis.sweeps import _chain_motif

        m = _chain_motif(4)
        assert m.edges == ((0, 1), (1, 0), (0, 1), (1, 0))
