"""Chaos parity: injected worker deaths never change a single count.

For seeded fault plans killing 1..N-1 of N workers mid-``count_family``,
across the motif catalog, the supervised pool's counts (and search
counters) stay byte-identical to the serial miner.  Those plans are
kill-plan cells of the correctness matrix (``tests/parity_matrix.py``),
run here under the ids they always had.  Plans are seeded, so every run
replays the same failure schedule.

The ``repro chaos`` CLI wraps exactly this experiment for operators;
its exit code is pinned here too.
"""

from __future__ import annotations

import pytest

from parity_matrix import case, former_tests
from repro.cli import main
from repro.graph.loaders import save_snap_text

DELTA = 60


@pytest.mark.timeout(300)
class TestChaosCLI:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "chaos.txt"
        save_snap_text(case("rand23").graph, path)
        return str(path)

    def test_chaos_run_reports_parity(self, graph_file, capsys):
        rc = main([
            "chaos", graph_file, "--delta", str(DELTA),
            "--workers", "3", "--kills", "2", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parity" in out and "OK" in out
        assert "injected kills" in out

    def test_chaos_zero_kills_is_a_smoke_run(self, graph_file, capsys):
        rc = main([
            "chaos", graph_file, "--delta", str(DELTA),
            "--workers", "2", "--kills", "0",
        ])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_chaos_rejects_more_kills_than_workers(self, graph_file, capsys):
        rc = main([
            "chaos", graph_file, "--delta", str(DELTA),
            "--workers", "2", "--kills", "3",
        ])
        assert rc == 2


former_tests(globals())
