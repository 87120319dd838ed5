"""Mackey et al. chronological edge-driven exact miner (paper Algorithm 1).

This is the state-of-the-art pattern-agnostic exact algorithm the paper
accelerates.  Starting from each graph edge as a candidate for the first
motif edge (a *root task*), it walks a DFS search tree in which every
node maps one motif edge to one graph edge:

- **search** — find the next graph edge that extends the current partial
  mapping (Algorithm 1 ``FindNextMatchingEdge``).  Candidates come from
  the out-neighborhood of the mapped source, the in-neighborhood of the
  mapped destination, or the full edge list, always restricted to edge
  indices greater than the previously matched edge (chronological order);
- **book-keeping** — record an accepted mapping (``UpdateDataStructures``);
- **backtrack** — undo the latest mapping when the search fails.

The implementation matches the paper's semantics exactly: timestamps are
strictly increasing along a match and the window constraint is
``t_l - t_1 <= δ`` (inclusive, per the formal definition in §II-A).

Search index memoization (§VI-A) is available via ``memoize=True``; as in
the paper's software experiment it does not change results and barely
changes software cost (an extra binary search per phase-1), but it
maintains the per-node memo tables whose traffic effect the Mint
simulator models.
"""

from __future__ import annotations

from bisect import bisect_right
from math import ceil, log2
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.graph.window import window_t_limit
from repro.mining.results import (
    EDGE_RECORD_BYTES,
    INDEX_BYTES,
    Match,
    MiningResult,
    SearchCounters,
)
from repro.motifs.motif import Motif

#: Signature of the phase-1 neighborhood utilization probe (Fig. 7):
#: ``probe(node, direction, useful_items, total_items)`` where direction
#: is ``"out"`` or ``"in"``.
UtilizationProbe = Callable[[int, str, int, int], None]


class MackeyMiner:
    """Exact δ-temporal motif miner (Algorithm 1).

    Parameters
    ----------
    graph, motif, delta:
        The mining problem.  ``delta`` is in the same (integer) time unit
        as the graph's timestamps.
    memoize:
        Enable search index memoization (§VI-A).  Results are identical;
        the counters record the extra binary search the software pays.
    record_matches:
        Keep :class:`~repro.mining.results.Match` records (bounded by
        ``max_matches`` if given) instead of only counting.
    utilization_probe:
        Optional callback invoked at every neighborhood filter with the
        fraction of the neighborhood that is still useful — the
        instrumentation behind the paper's Fig. 7.
    on_match:
        Optional callback invoked with each :class:`Match` as it is
        found — streaming consumption without storing the match list
        (useful when matches number in the millions).
    """

    def __init__(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        memoize: bool = False,
        record_matches: bool = False,
        max_matches: Optional[int] = None,
        utilization_probe: Optional[UtilizationProbe] = None,
        on_match: Optional[Callable[[Match], None]] = None,
    ) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.graph = graph
        self.motif = motif
        self.delta = int(delta)
        self.memoize = memoize
        self.record_matches = record_matches
        self.max_matches = max_matches
        self.utilization_probe = utilization_probe
        self.on_match = on_match

        # Plain python lists are markedly faster than numpy scalars in the
        # tight scanning loops below; the conversion is cached on the
        # graph so many miners over one graph convert once.
        self._src, self._dst, self._ts, self._out, self._in = (
            graph.adjacency_lists()
        )
        # Memo tables: node -> (position, root_edge_index) per direction.
        self._memo: Dict[str, Dict[int, Tuple[int, int]]] = {"out": {}, "in": {}}

    # -- public API -----------------------------------------------------------

    def mine(self) -> MiningResult:
        """Run the miner to completion and return count + counters."""
        return self.mine_range(0, self.graph.num_edges)

    def mine_range(self, root_lo: int, root_hi: int) -> MiningResult:
        """Mine only the search trees rooted at edges ``[root_lo, root_hi)``.

        Root tasks are independent, so results over a partition of the
        root range sum (count and counters) to exactly :meth:`mine`'s —
        the chunk the parallel dispatchers hand to workers.
        """
        self._counters = SearchCounters()
        self._matches: List[Match] = []
        self._count = 0
        self._m2g = [-1] * self.motif.num_nodes
        self._g2m: Dict[int, int] = {}
        self._seq: List[int] = []
        self._root_edge = -1
        self._memo["out"].clear()
        self._memo["in"].clear()

        l = self.motif.num_edges
        u0, v0 = self.motif.edge(0)
        counters = self._counters
        src, dst, ts = self._src, self._dst, self._ts

        for e0 in range(root_lo, min(root_hi, self.graph.num_edges)):
            counters.root_tasks += 1
            s, d = src[e0], dst[e0]
            if s == d:
                continue  # motif edges are never self-loops
            self._root_edge = e0
            self._m2g[u0] = s
            self._m2g[v0] = d
            self._g2m[s] = u0
            self._g2m[d] = v0
            self._seq.append(e0)
            counters.bookkeeps += 1
            if l == 1:
                self._emit()
            else:
                self._extend(1, e0, window_t_limit(ts[e0], self.delta))
            self._seq.pop()
            del self._g2m[s]
            del self._g2m[d]
            self._m2g[u0] = -1
            self._m2g[v0] = -1
            counters.backtracks += 1

        matches = self._matches if self.record_matches else None
        count = self._count
        if (
            matches is not None
            and self.max_matches is not None
            and count > self.max_matches
        ):
            # A truncated match list cannot equal the full count; the
            # result keeps the exact count but drops the partial list.
            return MiningResult(count=count, matches=None, counters=counters)
        return MiningResult(count=count, matches=matches, counters=counters)

    # -- internals -------------------------------------------------------------

    def _emit(self) -> None:
        self._count += 1
        self._counters.matches += 1
        if self.on_match is not None:
            self.on_match(Match(tuple(self._seq), tuple(self._m2g)))
        if self.record_matches and (
            self.max_matches is None or len(self._matches) < self.max_matches
        ):
            self._matches.append(Match(tuple(self._seq), tuple(self._m2g)))

    def _scan_start(self, neigh: List[int], node: int, direction: str, last_e: int) -> int:
        """Software phase-1: binary-search the first index ``> last_e``.

        With memoization enabled this performs the paper's two binary
        searches: one bounded below by the memoized position, plus one to
        refresh the memo entry for the current root (§VII-D).
        """
        counters = self._counters
        base = 0
        if self.memoize:
            memo = self._memo[direction].get(node)
            if memo is not None and memo[1] <= self._root_edge:
                base = memo[0]
        n_searchable = len(neigh) - base
        counters.binary_searches += 1
        counters.binary_search_steps += max(1, ceil(log2(n_searchable + 1)))
        start = bisect_right(neigh, last_e, base)
        if self.memoize:
            prev = self._memo[direction].get(node)
            if prev is None or self._root_edge >= prev[1]:
                # Refreshing the entry costs the paper's "additional
                # search" (§VII-D).  The refresh only needs to advance the
                # stored position from the previous root to the current
                # one, so its search range is the gap between them.
                root_pos = bisect_right(neigh, self._root_edge, base)
                gap = root_pos - base
                counters.binary_searches += 1
                counters.binary_search_steps += max(1, ceil(log2(gap + 2)))
                self._memo[direction][node] = (root_pos, self._root_edge)
        if self.utilization_probe is not None:
            useful = len(neigh) - start
            self.utilization_probe(node, direction, useful, len(neigh))
        return start

    def _extend(self, level: int, last_e: int, t_limit: int) -> None:
        motif = self.motif
        counters = self._counters
        counters.searches += 1
        src, dst, ts = self._src, self._dst, self._ts
        m2g, g2m = self._m2g, self._g2m
        u_m, v_m = motif.edge(level)
        u_g, v_g = m2g[u_m], m2g[v_m]
        last_level = level == motif.num_edges - 1

        if u_g >= 0:
            neigh = self._out[u_g]
            start = self._scan_start(neigh, u_g, "out", last_e)
            for pos in range(start, len(neigh)):
                e = neigh[pos]
                t = ts[e]
                counters.candidates_scanned += 1
                counters.neighbor_items_touched += 1
                counters.bytes_touched += EDGE_RECORD_BYTES + INDEX_BYTES
                if t > t_limit:
                    break
                d = dst[e]
                if v_g >= 0:
                    if d != v_g:
                        continue
                elif d in g2m or d == u_g:
                    continue
                self._bookkeep(level, e, src[e], d, t_limit, last_level)
        elif v_g >= 0:
            neigh = self._in[v_g]
            start = self._scan_start(neigh, v_g, "in", last_e)
            for pos in range(start, len(neigh)):
                e = neigh[pos]
                t = ts[e]
                counters.candidates_scanned += 1
                counters.neighbor_items_touched += 1
                counters.bytes_touched += EDGE_RECORD_BYTES + INDEX_BYTES
                if t > t_limit:
                    break
                s = src[e]
                if s in g2m or s == v_g:
                    continue
                self._bookkeep(level, e, s, dst[e], t_limit, last_level)
        else:
            # Neither endpoint mapped (possible for disconnected motifs):
            # the search space is the tail of the entire edge list.
            for e in range(last_e + 1, self.graph.num_edges):
                t = ts[e]
                counters.candidates_scanned += 1
                counters.bytes_touched += EDGE_RECORD_BYTES
                if t > t_limit:
                    break
                s, d = src[e], dst[e]
                if s in g2m or d in g2m or s == d:
                    continue
                self._bookkeep(level, e, s, d, t_limit, last_level)
        counters.backtracks += 1

    def _bookkeep(
        self, level: int, e: int, s: int, d: int, t_limit: int, last_level: bool
    ) -> None:
        """Book-keep edge ``e`` at ``level``, recurse, then undo (backtrack)."""
        motif = self.motif
        m2g, g2m = self._m2g, self._g2m
        u_m, v_m = motif.edge(level)
        new_nodes: List[Tuple[int, int]] = []
        if m2g[u_m] == -1:
            m2g[u_m] = s
            g2m[s] = u_m
            new_nodes.append((u_m, s))
        if m2g[v_m] == -1:
            m2g[v_m] = d
            g2m[d] = v_m
            new_nodes.append((v_m, d))
        self._seq.append(e)
        self._counters.bookkeeps += 1
        if last_level:
            self._emit()
        else:
            self._extend(level + 1, e, t_limit)
        self._seq.pop()
        for mn, gn in new_nodes:
            m2g[mn] = -1
            del g2m[gn]


def count_motifs(
    graph: TemporalGraph, motif: Motif, delta: int, memoize: bool = False
) -> int:
    """Count δ-temporal motif matches using the Mackey exact miner."""
    return MackeyMiner(graph, motif, delta, memoize=memoize).mine().count
