"""Tests for the accelerator's graph memory layout."""

import pytest

from repro.graph.temporal_graph import TemporalGraph
from repro.sim.layout import (
    EDGE_RECORD_BYTES,
    GraphMemoryLayout,
    INDEX_BYTES,
    MEMO_ENTRY_BYTES,
)


@pytest.fixture
def layout(burst_graph):
    return GraphMemoryLayout.for_graph(burst_graph)


class TestRegions:
    def test_regions_are_line_aligned(self, layout):
        lb = layout.line_bytes
        for base in (
            layout.edges_base,
            layout.out_offsets_base,
            layout.out_index_base,
            layout.in_offsets_base,
            layout.in_index_base,
            layout.memo_out_base,
            layout.memo_in_base,
        ):
            assert base % lb == 0

    def test_regions_do_not_overlap(self, layout, burst_graph):
        m, n = burst_graph.num_edges, burst_graph.num_nodes
        spans = [
            (layout.edges_base, m * EDGE_RECORD_BYTES),
            (layout.out_offsets_base, (n + 1) * 4),
            (layout.out_index_base, m * INDEX_BYTES),
            (layout.in_offsets_base, (n + 1) * 4),
            (layout.in_index_base, m * INDEX_BYTES),
            (layout.memo_out_base, n * MEMO_ENTRY_BYTES),
            (layout.memo_in_base, n * MEMO_ENTRY_BYTES),
        ]
        spans.sort()
        for (b1, s1), (b2, _) in zip(spans, spans[1:]):
            assert b1 + s1 <= b2

    def test_total_bytes_covers_all(self, layout, burst_graph):
        n = burst_graph.num_nodes
        assert layout.total_bytes >= layout.memo_in_base + n * MEMO_ENTRY_BYTES


class TestAddressing:
    def test_edge_record_stride(self, layout):
        assert layout.edge_record(3) - layout.edge_record(2) == EDGE_RECORD_BYTES

    def test_offsets_address(self, layout):
        assert layout.offsets(0, "out") == layout.out_offsets_base
        assert layout.offsets(2, "in") == layout.in_offsets_base + 8

    def test_index_entry_addresses(self, layout):
        assert layout.index_entry(0, "out") == layout.out_index_base
        assert layout.index_entry(5, "in") == layout.in_index_base + 20

    def test_memo_entry_addresses(self, layout):
        assert layout.memo_entry(1, "out") == layout.memo_out_base + 4
        assert layout.memo_entry(1, "in") == layout.memo_in_base + 4

    def test_line_computation(self, layout):
        assert layout.line(0) == 0
        assert layout.line(63) == 0
        assert layout.line(64) == 1


class TestEmptyGraph:
    def test_empty_graph_layout(self):
        g = TemporalGraph([], num_nodes=2)
        layout = GraphMemoryLayout.for_graph(g)
        assert layout.total_bytes >= 0
        assert layout.num_edges == 0
