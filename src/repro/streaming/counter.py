"""Incremental δ-temporal motif counting over an edge stream.

The batch miners (Mackey, the family walker) search a *finished* edge
list.  The streaming engine inverts that control flow: edges arrive
one at a time and the engine maintains **continuation tables** of
partial matches — the same functional state a
:class:`~repro.mining.context.MiningContext` holds for one search tree
(motif→graph node map, inverse map, window limit ``t_limit``), frozen at
the depth the partial has reached.

On each arrival ``(s, d, t)`` the engine:

1. **evicts** every partial whose window has closed (``t_limit < t``).
   Because a match spans at most δ and timestamps are strictly
   increasing, a partial rooted at an edge older than ``t - δ`` can
   never be extended again — dropping it is exact, not approximate;
2. **extends** live partials whose next motif edge is satisfied by the
   arrival.  Partials are indexed by the *demand key* ``(u_g, v_g)`` of
   their next motif edge (-1 for an unmapped endpoint), so only four
   bucket lookups are needed: ``(s, d)``, ``(s, -1)``, ``(-1, d)`` and
   ``(-1, -1)``.  An extension clones the partial one level deeper (the
   DFS tree branches; the parent stays live for other future edges);
   reaching the final motif edge increments the count instead;
3. **roots** a new partial mapping motif edge 0 to the arrival (unless
   it is a self-loop — motif edges never are).

Every match is completed exactly once — by the arrival of its last
edge — so after a full replay the totals equal the batch miners'
byte-for-byte.  That differential parity is the correctness claim
(there is no paper figure for streaming) and is pinned by
``tests/test_streaming_parity.py``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.graph.window import window_t_limit
from repro.motifs.catalog import EVALUATION_MOTIFS, EXTRA_MOTIFS
from repro.motifs.grid import paranjape_grid
from repro.motifs.motif import Motif
from repro.streaming.window import StreamBuffer

#: Demand-key sentinel for a not-yet-mapped motif endpoint.
UNMAPPED = -1


class PartialMatch:
    """An immutable prefix of a match: the first ``depth`` motif edges
    mapped, plus the node bindings those mappings induce.

    ``key`` is the demand key ``(u_g, v_g)`` of motif edge ``depth`` —
    the bucket this partial waits in.
    """

    __slots__ = ("depth", "t_limit", "root_time", "m2g", "g2m", "key")

    def __init__(
        self,
        depth: int,
        t_limit: int,
        root_time: int,
        m2g: Tuple[int, ...],
        g2m: Dict[int, int],
        key: Tuple[int, int],
    ) -> None:
        self.depth = depth
        self.t_limit = t_limit
        self.root_time = root_time
        self.m2g = m2g
        self.g2m = g2m
        self.key = key

    def __repr__(self) -> str:
        return (
            f"PartialMatch(depth={self.depth}, t_limit={self.t_limit}, "
            f"m2g={self.m2g})"
        )


class MotifStreamEngine:
    """Continuation-table state machine for one motif.

    Pure matching logic: it never stores edges (that is
    :class:`~repro.streaming.window.StreamBuffer`'s job) and assumes
    strictly increasing timestamps — callers uniquify upstream.
    """

    def __init__(self, motif: Motif, delta: int) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.motif = motif
        self.delta = int(delta)
        self.count = 0
        self.evicted_total = 0
        self.peak_live = 0
        # Demand-keyed continuation tables: key -> {pid: PartialMatch}.
        self._buckets: Dict[Tuple[int, int], Dict[int, PartialMatch]] = {}
        # Eviction heap of (t_limit, pid, key); one entry per live partial.
        self._heap: List[Tuple[int, int, Tuple[int, int]]] = []
        self._next_pid = 0
        # Per-depth demand endpoints, precomputed once.
        self._edges = [motif.edge(i) for i in range(motif.num_edges)]
        self._num_nodes = motif.num_nodes

    # -- queries ---------------------------------------------------------------

    @property
    def live_partials(self) -> int:
        """Number of partial matches currently held (== heap size)."""
        return len(self._heap)

    def iter_partials(self) -> Iterable[PartialMatch]:
        for bucket in self._buckets.values():
            yield from bucket.values()

    # -- the one hot path ------------------------------------------------------

    def advance(self, s: int, d: int, t: int) -> int:
        """Feed one edge; returns the number of matches it completed."""
        motif_edges = self._edges
        l = len(motif_edges)
        buckets = self._buckets
        heap = self._heap

        # 1. Eviction: every partial with t_limit < t is dead forever.
        while heap and heap[0][0] < t:
            _, pid, key = heapq.heappop(heap)
            bucket = buckets.get(key)
            if bucket is not None:
                bucket.pop(pid, None)
                if not bucket:
                    del buckets[key]
            self.evicted_total += 1

        completed = 0
        spawned: List[PartialMatch] = []

        # 2. Extension: four demand-key lookups cover every live partial
        #    this edge can advance (see module docstring).
        for key in ((s, d), (s, UNMAPPED), (UNMAPPED, d), (UNMAPPED, UNMAPPED)):
            bucket = buckets.get(key)
            if not bucket:
                continue
            u_need, v_need = key
            for p in bucket.values():
                g2m = p.g2m
                # Injectivity for freshly bound endpoints (mapped
                # endpoints already matched via the key itself).
                if u_need == UNMAPPED:
                    if s in g2m:
                        continue
                    if v_need == UNMAPPED and (d in g2m or s == d):
                        continue
                elif v_need == UNMAPPED and d in g2m:
                    continue
                depth = p.depth + 1
                if depth == l:
                    completed += 1
                    continue
                m2g = p.m2g
                new_g2m = p.g2m
                u_m, v_m = motif_edges[p.depth]
                if m2g[u_m] == UNMAPPED or m2g[v_m] == UNMAPPED:
                    m2g = list(m2g)
                    new_g2m = dict(new_g2m)
                    if m2g[u_m] == UNMAPPED:
                        m2g[u_m] = s
                        new_g2m[s] = u_m
                    if m2g[v_m] == UNMAPPED:
                        m2g[v_m] = d
                        new_g2m[d] = v_m
                    m2g = tuple(m2g)
                nu, nv = motif_edges[depth]
                spawned.append(
                    PartialMatch(
                        depth,
                        p.t_limit,
                        p.root_time,
                        m2g,
                        new_g2m,
                        (m2g[nu], m2g[nv]),
                    )
                )

        # 3. Rooting: map motif edge 0 to this edge (never a self-loop).
        if s != d:
            if l == 1:
                completed += 1
            else:
                u0, v0 = motif_edges[0]
                m2g = [UNMAPPED] * self._num_nodes
                m2g[u0] = s
                m2g[v0] = d
                m2g_t = tuple(m2g)
                nu, nv = motif_edges[1]
                spawned.append(
                    PartialMatch(
                        1,
                        window_t_limit(t, self.delta),
                        t,
                        m2g_t,
                        {s: u0, d: v0},
                        (m2g_t[nu], m2g_t[nv]),
                    )
                )

        # 4. Insert after the scan so this edge never extends a partial
        #    it just spawned (matched edges are strictly time-increasing).
        for p in spawned:
            pid = self._next_pid
            self._next_pid = pid + 1
            buckets.setdefault(p.key, {})[pid] = p
            heapq.heappush(heap, (p.t_limit, pid, p.key))
        if len(heap) > self.peak_live:
            self.peak_live = len(heap)

        self.count += completed
        return completed


class StreamingCounter:
    """Exact single-motif δ-window counter over a live edge stream.

    Wraps one :class:`MotifStreamEngine` over one
    :class:`~repro.streaming.window.StreamBuffer`.  After replaying any
    time-sorted edge list, :attr:`count` equals
    ``MackeyMiner(TemporalGraph(edges), motif, delta).mine().count``
    exactly, for any interleaving of :meth:`add_edge` /
    :meth:`add_batch` calls.
    """

    def __init__(self, motif: Motif, delta: int) -> None:
        self.motif = motif
        self.delta = int(delta)
        self.buffer = StreamBuffer(delta)
        self._engine = MotifStreamEngine(motif, delta)

    # -- ingestion -------------------------------------------------------------

    def add_edge(self, src: int, dst: int, t: int) -> int:
        """Ingest one edge; returns the number of matches it completed."""
        _, t_adj = self.buffer.append(src, dst, t)
        return self._engine.advance(int(src), int(dst), t_adj)

    def add_batch(self, edges: Iterable[Tuple[int, int, int]]) -> int:
        """Ingest a batch of time-sorted edges; returns completed matches."""
        completed = 0
        for s, d, t in edges:
            completed += self.add_edge(s, d, t)
        return completed

    # -- results / introspection ----------------------------------------------

    @property
    def count(self) -> int:
        return self._engine.count

    @property
    def num_edges(self) -> int:
        return self.buffer.num_edges

    @property
    def live_partials(self) -> int:
        return self._engine.live_partials

    @property
    def evicted_partials(self) -> int:
        return self._engine.evicted_total

    @property
    def peak_live_partials(self) -> int:
        return self._engine.peak_live

    @property
    def window_size(self) -> int:
        return self.buffer.window_size

    def engines(self) -> Tuple[MotifStreamEngine, ...]:
        return (self._engine,)

    def snapshot(self) -> TemporalGraph:
        """The ingested prefix as a batch-minable :class:`TemporalGraph`."""
        return self.buffer.snapshot()

    def window_snapshot(self) -> TemporalGraph:
        """Only the edges inside the live δ-window, as a graph.

        This is what the serving layer mines for live-window queries
        ("how many motifs completed in the last δ seconds?"): any
        catalog motif — not just the streamed one — can be counted on
        the window through the ordinary batch path.
        """
        return self.buffer.window_snapshot()

    def __repr__(self) -> str:
        return (
            f"StreamingCounter({self.motif.name!r}, delta={self.delta}, "
            f"count={self.count}, edges={self.num_edges})"
        )


class StreamingCatalogCounter:
    """Many motifs, one shared stream buffer.

    Each edge is appended to the buffer once and advanced through every
    motif's engine, so the per-motif breakdown stays byte-identical to
    running each motif alone (engines share nothing but the clock).
    """

    def __init__(
        self, motifs: Sequence[Motif] | None = None, delta: int = 0
    ) -> None:
        if motifs is None:
            motifs = EVALUATION_MOTIFS + EXTRA_MOTIFS
        names = [m.name for m in motifs]
        if len(set(names)) != len(names):
            raise ValueError("motif names must be unique in a catalog")
        self.delta = int(delta)
        self.buffer = StreamBuffer(delta)
        self._engines: Dict[str, MotifStreamEngine] = {
            m.name: MotifStreamEngine(m, delta) for m in motifs
        }

    def add_edge(self, src: int, dst: int, t: int) -> int:
        _, t_adj = self.buffer.append(src, dst, t)
        s, d = int(src), int(dst)
        return sum(e.advance(s, d, t_adj) for e in self._engines.values())

    def add_batch(self, edges: Iterable[Tuple[int, int, int]]) -> int:
        return sum(self.add_edge(s, d, t) for s, d, t in edges)

    @property
    def counts(self) -> Dict[str, int]:
        """Per-motif counts, keyed by motif name."""
        return {name: e.count for name, e in self._engines.items()}

    @property
    def count(self) -> int:
        return sum(e.count for e in self._engines.values())

    @property
    def num_edges(self) -> int:
        return self.buffer.num_edges

    @property
    def live_partials(self) -> int:
        return sum(e.live_partials for e in self._engines.values())

    @property
    def evicted_partials(self) -> int:
        return sum(e.evicted_total for e in self._engines.values())

    @property
    def peak_live_partials(self) -> int:
        return max(e.peak_live for e in self._engines.values())

    @property
    def window_size(self) -> int:
        return self.buffer.window_size

    def engines(self) -> Tuple[MotifStreamEngine, ...]:
        return tuple(self._engines.values())

    def snapshot(self) -> TemporalGraph:
        return self.buffer.snapshot()

    def window_snapshot(self) -> TemporalGraph:
        return self.buffer.window_snapshot()


class StreamingGridCounter(StreamingCatalogCounter):
    """The Paranjape 6×6 grid census, maintained incrementally.

    :attr:`grid_counts` matches
    :func:`repro.mining.multi.grid_census` on the replayed prefix.
    """

    def __init__(self, delta: int) -> None:
        self._grid = paranjape_grid()
        super().__init__(
            motifs=[m for _, m in sorted(self._grid.items())], delta=delta
        )
        self._name_to_cell = {
            m.name: cell for cell, m in self._grid.items()
        }

    @property
    def grid_counts(self) -> Dict[Tuple[int, int], int]:
        """Counts keyed ``(row, col)`` as in ``grid_census``."""
        counts = self.counts
        return {
            cell: counts[name] for name, cell in self._name_to_cell.items()
        }

