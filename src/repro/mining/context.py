"""Task context — the per-search-tree state of the paper's model (§IV-B).

A task context stores the minimal information needed to advance (or
rewind) one search tree:

- ``e_m`` / ``e_g``: indices of the last matched motif edge and graph edge,
- ``m2g`` / ``g2m``: node mappings between motif and graph,
- ``e_count``: per-graph-node mapped-edge counts (Algorithm 1's eCount),
- ``e_stack``: the DFS stack of matched graph edge indices,
- ``t_limit``: ``time(first matched edge) + δ`` (Algorithm 1's t′).

The Mint simulator's search / book-keeping / backtrack flow
(:class:`repro.sim.walker.TraceWalker`, checked against the Mackey miner
by the simulator parity tests) runs on this class, so the functional
state its context memory models on-chip is literally this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.graph.window import window_t_limit
from repro.motifs.motif import Motif


class MiningContext:
    """Mutable mining state for one search tree."""

    __slots__ = ("motif", "m2g", "g2m", "e_count", "e_stack", "t_limit", "delta")

    def __init__(self, motif: Motif, delta: int) -> None:
        self.motif = motif
        self.delta = int(delta)
        self.m2g: List[int] = [-1] * motif.num_nodes
        self.g2m: Dict[int, int] = {}
        self.e_count: Dict[int, int] = {}
        self.e_stack: List[int] = []
        self.t_limit: Optional[int] = None

    # -- queries ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of motif edges matched so far (the next level to extend)."""
        return len(self.e_stack)

    @property
    def last_edge(self) -> int:
        """Graph edge index of the most recent mapping (-1 if none)."""
        return self.e_stack[-1] if self.e_stack else -1

    def graph_node(self, motif_node: int) -> int:
        """Graph node mapped to ``motif_node`` (-1 if unmapped)."""
        return self.m2g[motif_node]

    def motif_node(self, graph_node: int) -> int:
        """Motif node mapped to ``graph_node`` (-1 if unmapped)."""
        return self.g2m.get(graph_node, -1)

    def is_complete(self) -> bool:
        return self.depth == self.motif.num_edges

    def accepts(self, src: int, dst: int, t: int) -> bool:
        """Check structural + temporal constraints for a candidate edge.

        This is the phase-2 validity test (paper §V-B): each endpoint must
        either already be mapped to the corresponding motif node, or be a
        fresh graph node (injectivity); the timestamp must respect the
        δ-window anchored at the first matched edge.
        """
        if self.t_limit is not None and t > self.t_limit:
            return False
        u_m, v_m = self.motif.edge(self.depth)
        u_g, v_g = self.m2g[u_m], self.m2g[v_m]
        if u_g >= 0:
            if src != u_g:
                return False
        elif src in self.g2m:
            return False
        if v_g >= 0:
            if dst != v_g:
                return False
        elif dst in self.g2m:
            return False
        # Both endpoints fresh: they must be distinct graph nodes, since
        # motif edges are never self-loops.
        if u_g < 0 and v_g < 0 and src == dst:
            return False
        return True

    # -- updates (book-keeping / backtracking) ----------------------------------

    def bookkeep(self, edge_index: int, src: int, dst: int, t: int) -> None:
        """Map the next motif edge to graph edge ``edge_index`` (Algorithm 1
        UpdateDataStructures)."""
        u_m, v_m = self.motif.edge(self.depth)
        self._map_node(u_m, src)
        self._map_node(v_m, dst)
        self.e_count[src] = self.e_count.get(src, 0) + 1
        self.e_count[dst] = self.e_count.get(dst, 0) + 1
        if not self.e_stack:
            self.t_limit = window_t_limit(t, self.delta)
        self.e_stack.append(edge_index)

    def backtrack(self, src: int, dst: int) -> int:
        """Void the most recent mapping; returns the popped graph edge index."""
        if not self.e_stack:
            raise RuntimeError("backtrack on an empty context")
        popped = self.e_stack.pop()
        for node in (src, dst):
            self.e_count[node] -= 1
            if self.e_count[node] == 0:
                del self.e_count[node]
                motif_node = self.g2m.pop(node)
                self.m2g[motif_node] = -1
        if not self.e_stack:
            self.t_limit = None
        return popped

    def _map_node(self, motif_node: int, graph_node: int) -> None:
        current = self.m2g[motif_node]
        if current == -1:
            self.m2g[motif_node] = graph_node
            self.g2m[graph_node] = motif_node
        elif current != graph_node:
            raise RuntimeError(
                f"inconsistent mapping: motif node {motif_node} already bound "
                f"to {current}, cannot bind {graph_node}"
            )

    # -- snapshots ----------------------------------------------------------------

    def node_map(self) -> Tuple[int, ...]:
        """The motif→graph node mapping as a tuple (for Match records)."""
        return tuple(self.m2g)

    def __repr__(self) -> str:
        return (
            f"MiningContext(depth={self.depth}, e_stack={self.e_stack}, "
            f"m2g={self.m2g}, t_limit={self.t_limit})"
        )
