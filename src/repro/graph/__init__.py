"""Temporal graph substrate: data structures, loaders, generators, stats."""

from repro.graph.temporal_graph import RangeIndex, TemporalEdge, TemporalGraph
from repro.graph.window import in_delta_window, window_horizon, window_t_limit
from repro.graph.loaders import load_snap_text, save_snap_text
from repro.graph.generators import (
    DATASET_NAMES,
    DatasetSpec,
    dataset_spec,
    make_dataset,
    synthesize,
)
from repro.graph.stats import GraphStats, compute_stats, dataset_table

__all__ = [
    "RangeIndex",
    "TemporalEdge",
    "TemporalGraph",
    "in_delta_window",
    "window_horizon",
    "window_t_limit",
    "load_snap_text",
    "save_snap_text",
    "DATASET_NAMES",
    "DatasetSpec",
    "dataset_spec",
    "make_dataset",
    "synthesize",
    "GraphStats",
    "compute_stats",
    "dataset_table",
]
