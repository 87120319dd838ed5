"""Experiment orchestration, area/power modeling, and reporting."""

from repro.analysis.area_power import AreaPowerModel, ComponentCost
from repro.analysis.neighborhood import UtilizationSeries, neighborhood_utilization
from repro.analysis.reporting import format_table, format_markdown, geomean
from repro.analysis.charts import bar_chart, line_chart, sparkline
from repro.analysis.persistence import compare_runs, load_run, save_run
from repro.analysis.sweeps import delta_sweep, motif_size_sweep

__all__ = [
    "AreaPowerModel",
    "ComponentCost",
    "UtilizationSeries",
    "neighborhood_utilization",
    "format_table",
    "format_markdown",
    "geomean",
    "bar_chart",
    "line_chart",
    "sparkline",
    "compare_runs",
    "load_run",
    "save_run",
    "delta_sweep",
    "motif_size_sweep",
]
