"""Tests for the markdown reproduction-report renderer."""

import pytest

from repro.analysis.report import PAPER_REFERENCE, render_report


@pytest.fixture(scope="module")
def metrics(tiny_run):
    return tiny_run[0]


class TestRenderReport:
    def test_all_sections_present(self, metrics):
        report = render_report(metrics)
        for heading in ("Fig. 2", "Fig. 10", "Fig. 11", "Fig. 12",
                        "Fig. 13", "Fig. 14"):
            assert heading in report

    def test_paper_reference_values_shown(self, metrics):
        report = render_report(metrics)
        assert "363.1x" in report  # paper's Fig. 10/11 headline
        assert "28.3" in report  # paper's area

    def test_measured_values_shown(self, metrics):
        report = render_report(metrics)
        measured = metrics["fig10"]["geomean_speedup_memo"]
        assert f"{measured:.1f}x" in report

    def test_partial_metrics_render(self):
        report = render_report({"fig14": {"total_area_mm2": 28.3,
                                          "total_power_w": 5.07}})
        assert "Fig. 14" in report
        assert "Fig. 10" not in report

    def test_empty_metrics(self):
        assert render_report({}) == "# Reproduction report\n"

    def test_markdown_tables_valid(self, metrics):
        report = render_report(metrics)
        for line in report.splitlines():
            if line.startswith("|") and "---" not in line:
                assert line.endswith("|")

    def test_reference_constants_sane(self):
        assert PAPER_REFERENCE["fig11"]["vs Paranjape"] == 2575.9
        assert PAPER_REFERENCE["fig14"]["total_power_w"] == 5.1
