"""Tests for the context memory timing model and deepened DRAM features."""

import pytest

from repro.motifs.catalog import M1
from repro.sim.config import DramConfig
from repro.sim.context_memory import ContextMemoryModel
from repro.sim.dram import DramModel


class TestContextMemoryModel:
    def test_default_timing_matches_table2(self):
        """With 2-cycle accesses and 2 CAM ports the derived latencies
        equal the constants the evaluation has always used."""
        timing = ContextMemoryModel(access_cycles=2).timing(M1)
        assert timing.bookkeep_cycles == 2
        assert timing.backtrack_cycles == 2
        assert timing.dispatch_cycles == 1

    def test_slower_access_scales(self):
        fast = ContextMemoryModel(access_cycles=2).timing(M1)
        slow = ContextMemoryModel(access_cycles=4).timing(M1)
        assert slow.bookkeep_cycles == 2 * fast.bookkeep_cycles

    def test_validation(self):
        with pytest.raises(ValueError):
            ContextMemoryModel(access_cycles=0)


class TestDramRefreshAndTurnaround:
    def test_refresh_window_stalls(self):
        cfg = DramConfig(refresh_interval_cycles=1000, refresh_cycles=100)
        d = DramModel(cfg)
        # An access landing inside the second refresh window is pushed out.
        done = d.access(0, now=1005)
        assert done >= 1100
        assert d.stats.refresh_stall_cycles > 0

    def test_no_refresh_before_first_window(self):
        cfg = DramConfig(refresh_interval_cycles=1000, refresh_cycles=100)
        d = DramModel(cfg)
        d.access(0, now=10)
        assert d.stats.refresh_stall_cycles == 0

    def test_refresh_disabled(self):
        cfg = DramConfig(refresh_interval_cycles=0)
        d = DramModel(cfg)
        d.access(0, now=1005)
        assert d.stats.refresh_stall_cycles == 0

    def test_turnaround_counted(self):
        d = DramModel(DramConfig())
        d.access(0, now=0)                      # read
        d.access(0, now=10_000, is_write=True)  # write: turnaround
        d.access(0, now=20_000, is_write=True)  # write again: none
        assert d.stats.turnaround_stalls == 1

    def test_turnaround_adds_latency(self):
        cfg = DramConfig(turnaround_cycles=50)
        a = DramModel(cfg)
        a.access(0, now=0)
        t_write = a.access(0, now=100_000, is_write=True) - 100_000
        b = DramModel(cfg)
        b.access(0, now=0, is_write=True)  # pays turnaround up front
        t_write_same = b.access(0, now=100_000, is_write=True) - 100_000
        assert t_write > t_write_same
