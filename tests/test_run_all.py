"""Tests for the run_all driver and its CLI/archive integration."""

import json

import pytest

from conftest import TINY
from repro.cli import main


class TestRunAll:
    def test_sections_present(self, tiny_run):
        m, _ = tiny_run
        assert set(m) == {"fig2", "fig10", "fig11", "fig12", "fig13", "fig14"}

    def test_fig14_constants(self, tiny_run):
        m, _ = tiny_run
        assert m["fig14"]["total_area_mm2"] == pytest.approx(28.3, abs=0.2)

    def test_fig10_rows_keyed_by_workload(self, tiny_run):
        m, _ = tiny_run
        assert "em/M1" in m["fig10"]["rows"]

    def test_archive_roundtrip(self, tiny_run):
        m, out = tiny_run
        loaded = json.loads(out.read_text())["metrics"]
        assert loaded["fig14"]["total_area_mm2"] == pytest.approx(
            m["fig14"]["total_area_mm2"]
        )

    def test_archive_is_json(self, tiny_run):
        _, out = tiny_run
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["metadata"]["scale"] == TINY.scale


class TestCliExperiment:
    def test_cli_fig13_runs_small(self, capsys):
        # fig13 via CLI at a tiny scale; just verify it renders a table.
        assert main(["experiment", "table1", "--scale", "0.04"]) == 0
        assert "email-eu" in capsys.readouterr().out
