"""Tests for result persistence and ASCII charts."""

import json

import pytest

from repro.analysis.charts import bar_chart, sparkline
from repro.analysis.persistence import PersistenceError, save_run


def _metrics(path):
    return json.loads(path.read_text())["metrics"]


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.json"
        metrics = {"fig10": {"geomean": 60.7, "rows": [1, 2, 3]}, "ok": True}
        save_run(path, metrics, metadata={"scale": 1.0})
        assert _metrics(path) == {
            "fig10": {"geomean": 60.7, "rows": [1, 2, 3]},
            "ok": True,
        }

    def test_dataclasses_serialized(self, tmp_path):
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: int
            y: float

        path = tmp_path / "run.json"
        save_run(path, {"p": Point(1, 2.5)})
        assert _metrics(path) == {"p": {"x": 1, "y": 2.5}}

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            save_run(tmp_path / "x.json", {"bad": object()})


class TestCharts:
    def test_sparkline_shape(self):
        s = sparkline([0, 1, 2, 3, 4, 5])
        assert len(s) == 6
        assert s[0] == "▁" and s[-1] == "█"

    def test_sparkline_constant(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_bar_chart_contains_labels_and_values(self):
        out = bar_chart({"mint": 60.7, "gpu": 18.2})
        assert "mint" in out and "60.7" in out
        assert out.count("\n") == 1

    def test_bar_chart_log_scale(self):
        out = bar_chart({"a": 1.0, "b": 1000.0}, width=30, log_scale=True)
        rows = out.splitlines()
        assert rows[1].count("#") > rows[0].count("#")

    def test_bar_chart_log_requires_positive(self):
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0}, log_scale=True)

    def test_bar_chart_empty(self):
        assert bar_chart({}) == "(empty)"
