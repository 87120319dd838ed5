"""Functional access-trace walker: Algorithm 1 as a stream of typed events.

One :class:`TraceWalker` replays the mining of a single root task (one
search tree) as a generator of operations, faithfully following the
paper's task flow (§IV, §V-B): every **search task** performs a full
two-phase search —

- *phase 1*: read the CSR offsets, read the memo entry (§VI-A, when
  enabled), stream the neighbor-index array from the memoized position to
  the end, and refresh the memo entry;
- *phase 2*: fetch candidate temporal edge records — speculatively, in
  small pipelined batches, the way a hardware engine hides latency —
  until the first valid edge or the δ-window closes;

and hands a **book-keeping** or **backtrack** task to the context
manager.  A backtrack resumes the parent level with a *new* search task,
which re-runs phase 1 — this re-streaming is what makes search index
memoization so valuable on hub-heavy graphs.

Emitted operations:

- ``("ctx", cycles)`` — on-chip context-manager / dispatcher work;
- ``("read", addr, nbytes)`` — a blocking demand read;
- ``("readv", (addr, ...))`` — a batch of concurrent demand reads
  (speculative phase-2 candidate fetches);
- ``("write", addr, nbytes)`` — a posted memo-table update (the PE does
  not wait for it);
- ``("stream", addr, nbytes)`` — a phase-1 neighbor-index stream, which
  the timing engine pipelines line by line;
- ``("match",)`` — a complete motif instance was found.

Functional state lives in a :class:`~repro.mining.context.MiningContext`
— the per-search-tree task context of §IV-B — so the simulator's motif
counts are produced by the reference semantics, and a test suite asserts
they equal the Mackey miner's on every input.

Memoization correctness (mirrors §VI-A): a stored entry ``(pos, root)``
marks the first position of a neighborhood whose edge index exceeds
``root``.  A tree rooted at ``r`` may start scanning at ``pos`` iff
``root <= r``, because every candidate it can ever accept has index
``> last_e >= r >= root`` — only useless positions are skipped, no
matter how trees interleave.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.context import MiningContext
from repro.motifs.motif import Motif
from repro.sim.layout import GraphMemoryLayout

Op = Tuple


@dataclass
class WalkStats:
    """Functional counts accumulated across all walks of one run."""

    matches: int = 0
    bookkeeps: int = 0
    backtracks: int = 0
    searches: int = 0
    phase1_scans: int = 0
    index_items_streamed: int = 0
    index_items_skipped_by_memo: int = 0
    edge_records_fetched: int = 0
    speculative_fetches_wasted: int = 0
    memo_reads: int = 0
    memo_writes: int = 0
    tree_cache_hits: int = 0


class TraceWalker:
    """Per-root-task functional replay of the Mint mining flow."""

    def __init__(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        layout: GraphMemoryLayout,
        memoize: bool = True,
        bookkeep_cycles: int = 2,
        backtrack_cycles: int = 2,
        dispatch_cycles: int = 1,
        phase2_window: int = 4,
        memo_lag_roots: int = 1024,
        per_tree_index_cache: bool = True,
    ) -> None:
        self.graph = graph
        self.motif = motif
        self.delta = int(delta)
        self.layout = layout
        self.memoize = memoize
        self.bookkeep_cycles = bookkeep_cycles
        self.backtrack_cycles = backtrack_cycles
        self.dispatch_cycles = dispatch_cycles
        self.phase2_window = max(1, phase2_window)
        self.memo_lag_roots = max(0, memo_lag_roots)
        self.per_tree_index_cache = per_tree_index_cache

        self._src: List[int] = graph.src.tolist()
        self._dst: List[int] = graph.dst.tolist()
        self._ts: List[int] = graph.ts.tolist()
        self._out: List[List[int]] = [
            graph.out_edges(u).tolist() for u in range(graph.num_nodes)
        ]
        self._in: List[List[int]] = [
            graph.in_edges(v).tolist() for v in range(graph.num_nodes)
        ]
        self._out_offsets = graph.out_offsets.tolist()
        self._in_offsets = graph.in_offsets.tolist()
        # Shared memo tables: direction -> node -> (position, root_edge).
        self._memo: Dict[str, Dict[int, Tuple[int, int]]] = {"out": {}, "in": {}}
        # Roots currently being mined; memo updates are stored for the
        # oldest in-flight root so every live tree can use them.
        self._active_roots: Dict[int, None] = {}
        self.stats = WalkStats()

    # -- in-flight root tracking (used by the memo update policy) ---------------

    def begin_root(self, root_edge: int) -> None:
        self._active_roots[root_edge] = None

    def end_root(self, root_edge: int) -> None:
        self._active_roots.pop(root_edge, None)

    def _memo_store_root(self, root_edge: int) -> int:
        """Root index a fresh memo entry is stored for.

        The paper stores the position of the first edge past the writing
        tree's root (Fig. 8) and argues safety for trees processed
        *after* it.  With hundreds of trees in flight concurrently, the
        provably safe variant stores the position for the **oldest
        in-flight root**: every live tree's candidates then lie past the
        stored position, so readers never need to fall back.

        The staleness is additionally bounded by ``memo_lag_roots``: a
        single long-running straggler tree must not pin everyone else's
        memo entries arbitrarily far in the past (that feedback loop —
        congestion widening the in-flight window, staling the memo,
        inflating phase-1 streams, worsening congestion — is what this
        bound breaks).  A tree older than the bound simply cannot use the
        fresher entries and falls back to a full scan for itself.
        """
        lag_bound = max(0, root_edge - self.memo_lag_roots)
        if self._active_roots:
            oldest = next(iter(self._active_roots))
            return min(root_edge, max(oldest, lag_bound))
        return lag_bound

    def new_tree_state(self) -> MiningContext:
        return MiningContext(self.motif, self.delta)

    # -- the walk ---------------------------------------------------------------

    def walk(self, root_edge: int, ctx: MiningContext) -> Iterator[Op]:
        """Replay the full search tree rooted at graph edge ``root_edge``."""
        layout = self.layout
        stats = self.stats
        src, dst, ts = self._src, self._dst, self._ts
        num_motif_edges = self.motif.num_edges

        # Root book-keeping task (Fig. 6(b): the queue entry carries e_G).
        yield ("read", layout.edge_record(root_edge), 12)
        s, d = src[root_edge], dst[root_edge]
        if s == d:
            return  # motif edges are never self-loops; tree is empty
        yield ("ctx", self.bookkeep_cycles)
        stats.bookkeeps += 1
        ctx.bookkeep(root_edge, s, d, ts[root_edge])
        if ctx.is_complete():
            stats.matches += 1
            yield ("match",)
            yield ("ctx", self.backtrack_cycles)
            stats.backtracks += 1
            ctx.backtrack(s, d)
            return

        # Per-tree search-index cache: position of the first edge past
        # this tree's own root, per (direction, node) already scanned.
        tree_cache: Dict[Tuple[str, int], int] = {}

        last_e = root_edge
        while True:
            # ---- SEARCH task at the current level ----
            stats.searches += 1
            yield ("ctx", self.dispatch_cycles)
            found: Optional[int] = None
            u_m, v_m = self.motif.edge(ctx.depth)
            u_g, v_g = ctx.graph_node(u_m), ctx.graph_node(v_m)
            t_limit = ctx.t_limit
            assert t_limit is not None

            if u_g >= 0 or v_g >= 0:
                if u_g >= 0:
                    direction, node = "out", u_g
                    neigh = self._out[node]
                    off = self._out_offsets[node]
                else:
                    direction, node = "in", v_g
                    neigh = self._in[node]
                    off = self._in_offsets[node]
                n = len(neigh)

                # Resolve the scan functionally first: phase 1 and phase 2
                # run as a pipeline, so the index stream terminates as soon
                # as phase 2 accepts a candidate or leaves the δ window.
                start = bisect_right(neigh, last_e)
                terminal = n - 1  # last position the pipeline examines
                for pos in range(start, n):
                    e = neigh[pos]
                    t = ts[e]
                    if t > t_limit:
                        terminal = pos
                        break
                    if ctx.accepts(src[e], dst[e], t):
                        terminal = pos
                        found = e
                        break

                # Phase 1: offsets + memo + neighbor-index stream.  Without
                # memoization the linear scan streams from position 0 and
                # the comparators discard everything <= last_e (the futile
                # prefix of Fig. 7); the memo entry lets it start at the
                # first index past the tree's root instead (§VI-A).
                stats.phase1_scans += 1
                yield ("read", layout.offsets(node, direction), 8)
                base = 0
                if self.memoize:
                    stats.memo_reads += 1
                    yield ("read", layout.memo_entry(node, direction), 4)
                    memo = self._memo[direction].get(node)
                    if memo is not None and memo[1] <= root_edge:
                        base = memo[0]
                if self.per_tree_index_cache:
                    key = (direction, node)
                    cached = tree_cache.get(key)
                    if cached is None:
                        # Discovered for free while this first scan's
                        # comparators pass over the prefix.
                        tree_cache[key] = bisect_right(neigh, root_edge)
                    elif cached > base:
                        base = cached
                        stats.tree_cache_hits += 1
                stream_to = min(n, terminal + 1 + self.phase2_window)
                if stream_to > base:
                    stats.index_items_streamed += stream_to - base
                    yield (
                        "stream",
                        layout.index_entry(off + base, direction),
                        (stream_to - base) * 4,
                    )
                stats.index_items_skipped_by_memo += min(base, stream_to)
                if self.memoize:
                    # Store conservatively for the oldest in-flight root so
                    # every live tree can still use the entry (§VI-A's
                    # guarantee covers *previous* trees; concurrent ones
                    # need the conservative bound).
                    store_root = self._memo_store_root(root_edge)
                    prev = self._memo[direction].get(node)
                    if prev is None or store_root > prev[1]:
                        root_pos = bisect_right(neigh, store_root)
                        self._memo[direction][node] = (root_pos, store_root)
                        stats.memo_writes += 1
                        yield ("write", layout.memo_entry(node, direction), 4)

                # Phase 2: speculative batched candidate record fetches up
                # to (and including) the terminating position.
                window = self.phase2_window
                pos = start
                while pos <= terminal and pos < n:
                    hi = min(pos + window, terminal + 1)
                    batch = neigh[pos:hi]
                    stats.edge_records_fetched += len(batch)
                    yield ("readv", tuple(layout.edge_record(e) for e in batch))
                    pos = hi
            else:
                # Neither endpoint mapped: scan the global edge-list tail.
                pos = last_e + 1
                m = self.graph.num_edges
                window = self.phase2_window
                while pos < m and found is None:
                    batch = list(range(pos, min(pos + window, m)))
                    stats.edge_records_fetched += len(batch)
                    yield ("readv", tuple(layout.edge_record(e) for e in batch))
                    stop = False
                    for i, e in enumerate(batch):
                        t = ts[e]
                        if t > t_limit:
                            stats.speculative_fetches_wasted += len(batch) - i
                            stop = True
                            break
                        if ctx.accepts(src[e], dst[e], t):
                            stats.speculative_fetches_wasted += len(batch) - i - 1
                            found = e
                            break
                    if stop:
                        break
                    pos += len(batch)

            # ---- child task: book-keeping or backtrack ----
            if found is not None:
                yield ("ctx", self.bookkeep_cycles)
                stats.bookkeeps += 1
                ctx.bookkeep(found, src[found], dst[found], ts[found])
                if ctx.is_complete():
                    stats.matches += 1
                    yield ("match",)
                    # Algorithm 1: a completed motif is recorded, then the
                    # last mapping is voided and the scan resumes.
                    yield ("ctx", self.backtrack_cycles)
                    stats.backtracks += 1
                    ctx.backtrack(src[found], dst[found])
                    last_e = found
                else:
                    last_e = found
            else:
                yield ("ctx", self.backtrack_cycles)
                stats.backtracks += 1
                popped = ctx.last_edge
                ctx.backtrack(src[popped], dst[popped])
                if ctx.depth == 0:
                    return  # the root mapping was voided: tree exhausted
                last_e = popped
