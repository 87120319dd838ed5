"""Byte-level memory layout of the graph in accelerator DRAM.

Mint stores (paper §II-D, §V-B, §VI-A):

- the **temporal edge list** — one 12 B record per edge (src, dst,
  timestamp as 4 B each), sorted by time;
- two **edge-index CSR structures** (out and in): a 4 B offsets array per
  node plus a 4 B edge-index array per edge;
- two **memoization tables** (one index per node per direction), resident
  in DRAM because they grow with the node count (§VI-A).

Every region is aligned to a cache line so the simulator's line addresses
are stable.  Addresses are what the cache and DRAM models operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.results import EDGE_RECORD_BYTES, INDEX_BYTES

OFFSET_BYTES = 4
MEMO_ENTRY_BYTES = 4


def _align(addr: int, alignment: int) -> int:
    return (addr + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class GraphMemoryLayout:
    """Base addresses of every graph region for one loaded graph."""

    num_nodes: int
    num_edges: int
    line_bytes: int
    edges_base: int
    out_offsets_base: int
    out_index_base: int
    in_offsets_base: int
    in_index_base: int
    memo_out_base: int
    memo_in_base: int
    total_bytes: int

    @classmethod
    def for_graph(cls, graph: TemporalGraph, line_bytes: int = 64) -> "GraphMemoryLayout":
        n, m = graph.num_nodes, graph.num_edges
        cursor = 0
        edges_base = cursor
        cursor = _align(cursor + m * EDGE_RECORD_BYTES, line_bytes)
        out_offsets_base = cursor
        cursor = _align(cursor + (n + 1) * OFFSET_BYTES, line_bytes)
        out_index_base = cursor
        cursor = _align(cursor + m * INDEX_BYTES, line_bytes)
        in_offsets_base = cursor
        cursor = _align(cursor + (n + 1) * OFFSET_BYTES, line_bytes)
        in_index_base = cursor
        cursor = _align(cursor + m * INDEX_BYTES, line_bytes)
        memo_out_base = cursor
        cursor = _align(cursor + n * MEMO_ENTRY_BYTES, line_bytes)
        memo_in_base = cursor
        cursor = _align(cursor + n * MEMO_ENTRY_BYTES, line_bytes)
        return cls(
            num_nodes=n,
            num_edges=m,
            line_bytes=line_bytes,
            edges_base=edges_base,
            out_offsets_base=out_offsets_base,
            out_index_base=out_index_base,
            in_offsets_base=in_offsets_base,
            in_index_base=in_index_base,
            memo_out_base=memo_out_base,
            memo_in_base=memo_in_base,
            total_bytes=cursor,
        )

    # -- address computation ----------------------------------------------------

    def edge_record(self, edge_index: int) -> int:
        """Address of temporal edge record ``edge_index`` (phase-2 fetch)."""
        return self.edges_base + edge_index * EDGE_RECORD_BYTES

    def offsets(self, node: int, direction: str) -> int:
        """Address of the CSR offsets pair read at the start of phase 1."""
        base = self.out_offsets_base if direction == "out" else self.in_offsets_base
        return base + node * OFFSET_BYTES

    def index_entry(self, position: int, direction: str) -> int:
        """Address of entry ``position`` of the global edge-index array."""
        base = self.out_index_base if direction == "out" else self.in_index_base
        return base + position * INDEX_BYTES

    def memo_entry(self, node: int, direction: str) -> int:
        """Address of the §VI-A memoization entry for ``node``."""
        base = self.memo_out_base if direction == "out" else self.memo_in_base
        return base + node * MEMO_ENTRY_BYTES

    def line(self, addr: int) -> int:
        return addr // self.line_bytes
