"""Tests for the extension experiments."""

import pytest

from repro.analysis.extensions import arbitrary_motif_sweep, presto_on_mint
from repro.baselines.cpu_model import CpuModel, CpuSpec
from repro.graph.generators import make_dataset
from repro.graph.stats import storage_bytes
from repro.motifs.catalog import M1
from repro.motifs.grid import grid_motifs
from repro.sim.config import CacheConfig, MintConfig


@pytest.fixture(scope="module")
def workload():
    g = make_dataset("wiki-talk", scale=0.05, seed=17)
    return g, g.time_span // 30


def small_config():
    return MintConfig(num_pes=16, cache=CacheConfig(num_banks=16, bank_kb=2))


class TestPrestoOnMint:
    def test_extension_runs_and_wins(self, workload):
        g, delta = workload
        cpu = CpuModel(CpuSpec().scaled_llc(0.001))
        result = presto_on_mint(
            g,
            M1,
            delta,
            small_config(),
            cpu,
            storage_bytes(g),
            num_samples=6,
            seed=2,
        )
        assert result.mint_cycles > 0
        # Mint accelerates the PRESTO subroutine (§II-C's claim).
        assert result.speedup > 1.0
        assert result.relative_error >= 0.0


class TestArbitraryMotifs:
    def test_grid_subset_exact_on_simulator(self, workload):
        g, delta = workload
        motifs = grid_motifs()[::6]  # 6 spread across the grid
        results = arbitrary_motif_sweep(g, delta, small_config(), motifs=motifs)
        assert len(results) == 6
        for r in results:
            assert r.exact, r.motif_name
