"""Dataset statistics used for the paper's Table I.

Sizes are reported the way the paper stores the graph: a temporal edge
list (12 B per edge: two 4 B node IDs + one 4 B timestamp) plus the two
edge-index CSR structures (4 B per index entry, 4 B per offset entry),
matching the accelerator's memory layout model in :mod:`repro.sim.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.temporal_graph import TemporalGraph

_BYTES_PER_EDGE_RECORD = 12
_BYTES_PER_INDEX = 4
_BYTES_PER_OFFSET = 4
SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics for one temporal graph (one Table I row)."""

    name: str
    num_nodes: int
    num_edges: int
    size_mb: float
    time_span_days: float
    max_out_degree: int
    max_in_degree: int
    p90_out_degree: float
    mean_out_degree: float

    def row(self) -> List[str]:
        return [
            self.name,
            str(self.num_nodes),
            str(self.num_edges),
            f"{self.size_mb:.2f}",
            f"{self.time_span_days:.0f}",
            str(self.max_out_degree),
        ]


def storage_bytes(graph: TemporalGraph) -> int:
    """Bytes needed for the edge list + both CSR adjacency structures."""
    edge_bytes = graph.num_edges * _BYTES_PER_EDGE_RECORD
    csr_bytes = 2 * (
        graph.num_edges * _BYTES_PER_INDEX
        + (graph.num_nodes + 1) * _BYTES_PER_OFFSET
    )
    return edge_bytes + csr_bytes


def compute_stats(graph: TemporalGraph, name: str = "graph") -> GraphStats:
    """Compute the Table I statistics for ``graph``."""
    if graph.num_nodes:
        out_deg = np.diff(graph.out_offsets)
        in_deg = np.diff(graph.in_offsets)
        max_out = int(out_deg.max())
        max_in = int(in_deg.max())
        p90 = float(np.percentile(out_deg, 90))
        mean = float(out_deg.mean())
    else:
        max_out = max_in = 0
        p90 = mean = 0.0
    return GraphStats(
        name=name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        size_mb=storage_bytes(graph) / 1e6,
        time_span_days=graph.time_span / SECONDS_PER_DAY,
        max_out_degree=max_out,
        max_in_degree=max_in,
        p90_out_degree=p90,
        mean_out_degree=mean,
    )
