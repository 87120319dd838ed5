"""The family engine: one vectorised trie walk for a whole motif family.

:class:`CoMiner` is the repo's one exact engine — the only one a runner
dispatches, named by :data:`ENGINE` — and the software analogue
of Mint's two-phase search engine (a search to the first edge after the
last match, then a stream up to the window bound).  It descends the
family's :class:`~repro.comine.trie.MotifTrie` level by level with a
*frontier* per trie node: every partial match of that node is one row of
parallel numpy arrays (the graph node bound to each canonical label,
the last matched edge, and the row's root within its block, whose window
is carried as a *rank* — the first edge index past ``t_root + δ``,
computed once per root).  Per frontier:

- **Windows are searches, not scans — and only where the walk does not
  already know the answer.**  The ends of every row's candidate range —
  "first edge of this node after ``last_e``", "first edge of this node
  past the window", and the same two for "edges u→v" over the pair
  index — are positions in the composite keys of the graph's cached
  :class:`~repro.graph.temporal_graph.RangeIndex`.  Each is one of:

  - a **gather**, when the range is anchored on the edge just matched:
    the out-scan of its source, the in-scan of its destination and its
    own pair's range start at that edge's position + 1; the out-scan of
    its destination, the in-scan of its source and the reverse pair's
    range start at that node's (or pair's) first edge after it, one
    per-edge array each; and the ranks of its pair and of the reverse
    pair are per-edge arrays too;
  - a **per-root lookup**, when the range is over labels 0 and 1, which
    the root edge binds: window end, crossed flag and pair rank are
    computed once per root of a block and read by the row's root;
  - otherwise one C-level ``np.searchsorted`` per row (a pair's rank
    one more).

  This is Mint's search-index memoization (§VI-A) in software: a
  search whose answer the walk holds is not repeated, which cuts the
  elements a grid census searches by 56 % against searching every
  bound (``census_sparse``: 6.89 M → 3.00 M).
- **Roots in pair order.**  A block's roots are visited sorted by
  (src, dst, index), and a child frontier keeps its parent's row order,
  so the rows of one root pair — and of one root source — are
  neighbours at every depth.  The searches keyed by them (the per-root
  lookups, the root pair's range starts at depth 2, every scan of label
  0) reach ``np.searchsorted`` with ascending keys, which its binary
  search answers several times faster than keys in random order (it
  narrows from the previous answer).  Counters do not see the order.
- **Siblings share, and keep what a sibling consumes.**  Each
  (direction, bound label) window and each (label, label) pair range is
  computed once per frontier and used by every child that needs it — the
  grid's 36 leaves under 6 two-edge prefixes cost 4 windows and a
  handful of pair ranges per prefix.  What outlives the computation is
  decided by the consumers: integer totals for leaves; the ``(start,
  end)`` arrays only of a window an internal new-node child enumerates
  and of a pair an internal child closes on.
- **The last level is counted, never enumerated.**  What a leaf (or any
  node's ``complete`` list) needs is its accepted count.  A closing
  edge (both labels bound) accepts its pair range; a new-node edge
  accepts its window minus the pair ranges to every bound node, which
  are disjoint subsets of the window because bound nodes are distinct
  (the self-loop is the scanned node paired with itself, skipped
  outright on a graph without self-loops).  A new-node child that *has*
  children computes none of those pairs: the frontier it must build
  anyway is filtered of already-bound nodes, and its size is the
  accepted count.  Candidate rows are materialized only for children
  that have children, a slab of at most :data:`TILE_ROWS` at a time —
  filtered before the bound columns are gathered, and with no scratch
  outliving the slab, so a level holds its frontier and nothing else
  while its children run — and for the edge-list tail scan of a
  disconnected edge.

Correctness contract (enforced by the parity suites): per-motif counts
are byte-identical to :class:`~repro.mining.mackey.MackeyMiner`, and so
are the per-motif :class:`~repro.mining.results.SearchCounters` — every
counter event is a function of frontier size, scanned-node degree,
window size, whether the scan crossed the window, and accepted count,
so none needs the candidate rows; each is charged to the trie node the
scalar miner would charge it at, and a motif's counters are the sum
over its own path, which is exactly the work a dedicated traversal of
that path performs.  The *family* counters aggregate each event once
(the work actually done), so ``sharing`` quantifies what the trie
saved: ``searches_unshared - searches`` scans and
``candidates_unshared - candidates_scanned`` candidate touches never
re-executed.

Root tasks are independent, so :meth:`CoMiner.mine_range` restricts the
root-edge range for chunked execution — the ``family`` chunk kind of
the dispatchers — and :meth:`FamilyResult.merge` recombines chunk
results commutatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.graph.window import window_t_limit
from repro.mining.results import (
    EDGE_RECORD_BYTES,
    INDEX_BYTES,
    MiningCancelled,
    SearchCounters,
)
from repro.motifs.motif import Motif

from repro.comine.trie import MotifTrie, TrieNode


@dataclass
class SharingStats:
    """How much traversal the trie shared across the family.

    Static fields describe the trie; dynamic fields compare the family
    aggregate (work done once) against the per-motif sums (work a
    per-motif loop would have done).  Chunked runs merge by summing the
    dynamic fields — the static ones are properties of the family.
    """

    family_size: int
    trie_nodes: int
    #: Path nodes a per-motif loop walks: one copy per motif per edge.
    unshared_nodes: int
    #: Trie nodes on more than one family member's path.
    shared_nodes: int
    max_depth: int
    searches: int = 0
    searches_unshared: int = 0
    candidates_scanned: int = 0
    candidates_unshared: int = 0
    bytes_touched: int = 0
    bytes_unshared: int = 0

    STATIC_FIELDS = ("family_size", "trie_nodes", "unshared_nodes",
                     "shared_nodes", "max_depth")
    DYNAMIC_FIELDS = ("searches", "searches_unshared", "candidates_scanned",
                      "candidates_unshared", "bytes_touched", "bytes_unshared")

    @property
    def populated(self) -> bool:
        """True once traversal counters carry measured work.

        Chunk stats over rootless ranges, cancelled runs, and empty
        graphs never populate the dynamic fields; their measured ratios
        are undefined (the structural trie shape is still available via
        :attr:`structural_prefix_ratio`).
        """
        return self.searches_unshared > 0

    @property
    def structural_prefix_ratio(self) -> float:
        """Trie-shape sharing ratio — what the family *could* share.

        A property of the motif family alone (1 - trie nodes / per-motif
        path nodes), defined whether or not any mining ran.
        """
        if self.unshared_nodes > 0:
            return 1.0 - self.trie_nodes / self.unshared_nodes
        return 0.0

    @property
    def prefix_hit_ratio(self) -> float:
        """Fraction of per-motif scan work served from a shared prefix.

        Raises :class:`ValueError` when no traversal work was measured
        (cancelled run, empty workload): silently substituting the
        structural trie ratio historically let unmeasured runs
        masquerade as measured speedups.  Use
        :attr:`structural_prefix_ratio` for the shape-only figure and
        :attr:`populated` to test first.
        """
        if not self.populated:
            raise ValueError(
                "prefix_hit_ratio is undefined: no traversal work was "
                "measured (searches_unshared == 0); use "
                "structural_prefix_ratio for the trie-shape ratio"
            )
        return 1.0 - self.searches / self.searches_unshared

    @property
    def searches_saved(self) -> int:
        return self.searches_unshared - self.searches

    @property
    def traversals_saved(self) -> int:
        """Candidate-edge touches a per-motif loop would re-execute."""
        return self.candidates_unshared - self.candidates_scanned

    @property
    def traversal_sharing(self) -> float:
        """Per-motif-loop scan volume over actual scan volume (>= 1).

        Like :attr:`prefix_hit_ratio`, undefined (raises
        :class:`ValueError`) until the counters carry measured work.
        """
        if not self.populated:
            raise ValueError(
                "traversal_sharing is undefined: no traversal work was "
                "measured (searches_unshared == 0)"
            )
        if self.candidates_scanned > 0:
            return self.candidates_unshared / self.candidates_scanned
        return 1.0

    def merge(self, other: "SharingStats") -> None:
        for name in self.STATIC_FIELDS:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(
                    f"cannot merge sharing stats of different families "
                    f"({name}: {getattr(self, name)} != {getattr(other, name)})"
                )
        for name in self.DYNAMIC_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, float]:
        d: Dict[str, float] = {
            name: getattr(self, name)
            for name in self.STATIC_FIELDS + self.DYNAMIC_FIELDS
        }
        d["structural_prefix_ratio"] = self.structural_prefix_ratio
        d["searches_saved"] = self.searches_saved
        d["traversals_saved"] = self.traversals_saved
        # Measured ratios only exist once work was measured; unmeasured
        # chunks (rootless ranges) still serialize fine — from_dict
        # rebuilds from the raw fields alone.
        if self.populated:
            d["prefix_hit_ratio"] = self.prefix_hit_ratio
            d["traversal_sharing"] = self.traversal_sharing
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "SharingStats":
        return cls(**{
            name: int(d[name])
            for name in cls.STATIC_FIELDS + cls.DYNAMIC_FIELDS
        })


@dataclass
class FamilyResult:
    """Outcome of one co-mining run over a family.

    ``counts``/``per_motif`` are indexed by family position (the order
    the motifs were given in); ``counters`` aggregates every search
    event once — the work actually performed by the shared traversal.
    """

    counts: List[int]
    per_motif: List[SearchCounters]
    counters: SearchCounters
    sharing: SharingStats

    def counts_by_name(self, motifs: Sequence[Motif]) -> Dict[str, int]:
        return {m.name: c for m, c in zip(motifs, self.counts)}

    def merge(self, other: "FamilyResult") -> None:
        """Accumulate another chunk's results (commutative sums)."""
        if len(other.counts) != len(self.counts):
            raise ValueError("cannot merge results of different families")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
            self.per_motif[i].merge(other.per_motif[i])
        self.counters.merge(other.counters)
        self.sharing.merge(other.sharing)

    def as_payload(self) -> Dict:
        """Plain-types payload for cheap worker-to-parent shipping."""
        return {
            "counts": list(self.counts),
            "per_motif": [c.as_dict() for c in self.per_motif],
            "counters": self.counters.as_dict(),
            "sharing": self.sharing.as_dict(),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "FamilyResult":
        return cls(
            counts=[int(c) for c in payload["counts"]],
            per_motif=[SearchCounters(**d) for d in payload["per_motif"]],
            counters=SearchCounters(**payload["counters"]),
            sharing=SharingStats.from_dict(payload["sharing"]),
        )

    @classmethod
    def empty(cls, trie: MotifTrie) -> "FamilyResult":
        """A zero result for ``trie``'s family (merge accumulator seed)."""
        n = trie.family_size
        return cls(
            counts=[0] * n,
            per_motif=[SearchCounters() for _ in range(n)],
            counters=SearchCounters(),
            sharing=SharingStats(
                family_size=n,
                trie_nodes=trie.num_nodes,
                unshared_nodes=trie.unshared_node_count(),
                shared_nodes=trie.shared_nodes,
                max_depth=trie.max_depth,
            ),
        )


#: Candidate rows materialized at once.  A frontier is extended slab by
#: slab (rows are independent), so the widest internal trie level costs
#: this much memory, not the size of the level — and a resident server
#: pays it once per lane thread, which is what chose the number: 8,192,
#: the largest tile whose ``serve_miss`` (two lanes mining singleton
#: misses) stayed inside its memory budget and that was no slower on
#: either census than the next one up.  Re-measured on the walker that
#: visits roots in pair order and reads both ends' scan starts off the
#: matched edge (medians of three alternating 12 s runs, seeds
#: 1000-1002, 2 cores):
#:
#:   TILE_ROWS  serve_miss p50 / peak RSS   census_dense   census_sparse
#:   1 << 14      6.9 ms / 45.9 MB           65.3 ms       163.4 ms
#:   1 << 13      7.1 ms / 45.1 MB           62.5 ms       140.1 ms
#:   1 << 12      8.1 ms / 44.4 MB           65.2 ms       170.5 ms
#:
#: no other tile wins both censuses, and each 2x step moves
#: ``serve_miss`` RSS by ~0.7 MB, all within its bound, so nothing in
#: the table moves the constant.
TILE_ROWS = 1 << 13


def _ragged_take(starts: np.ndarray, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize the ragged ranges ``[starts[i], starts[i] + sizes[i])``
    as ``(rows, positions)``: for every element of every range, the row
    it belongs to and its absolute position."""
    rows = np.repeat(np.arange(len(sizes)), sizes)
    # Element j of row i is ``starts[i] + (j - elements before row i)``.
    positions = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    positions += np.arange(len(rows))
    return rows, positions


def _slabs(sizes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Row ranges ``[a, b)`` whose ``sizes`` sum to at most
    :data:`TILE_ROWS` each (a single row wider than that is a slab of
    its own), covering every row in order."""
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        done = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(ends.searchsorted(done + TILE_ROWS, side="right")))
        yield a, b
        a = b


#: The one exact engine's name, as ``/healthz``, ``/metrics`` and
#: ``census --json`` spell it: :class:`CoMiner`, the family walker, run
#: once per root range for a whole motif list.  The scalar
#: :class:`~repro.mining.mackey.MackeyMiner` is the oracle it is checked
#: against, run serially, never dispatched.
ENGINE = "batched"


class CoMiner:
    """Exact δ-temporal miner for a motif family: the vectorised trie walk.

    Parameters
    ----------
    graph, motifs, delta:
        The mining problem; ``motifs`` is the family (non-empty, any
        order, duplicates allowed).
    cancel_check:
        Optional hook polled per root block and per frontier tile;
        when it returns True the run raises
        :class:`~repro.mining.results.MiningCancelled` (the serving
        layer's deadline contract).
    """

    #: Root edges expanded per wave.  Results never depend on it.
    root_block = 4096

    def __init__(
        self,
        graph: TemporalGraph,
        motifs: Sequence[Motif],
        delta: int,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.graph = graph
        self.motifs: Sequence[Motif] = tuple(motifs)
        self.trie = MotifTrie(self.motifs)  # raises on an empty family
        self.delta = int(delta)
        self.cancel_check = cancel_check

    # -- public API ------------------------------------------------------------

    def mine(self) -> FamilyResult:
        """Run the shared traversal over every root edge."""
        return self.mine_range(0, self.graph.num_edges)

    def mine_range(self, root_lo: int, root_hi: int) -> FamilyResult:
        """Co-mine with root edges restricted to ``[root_lo, root_hi)``.

        Chunk results merge commutatively (:meth:`FamilyResult.merge`),
        so sharding the root range across workers cannot change counts.
        """
        g = self.graph
        self._index = g.range_index()
        self._node_counters = [SearchCounters() for _ in range(self.trie.num_nodes)]
        self._counts = [0] * self.trie.family_size
        lo = max(0, root_lo)
        hi = min(root_hi, g.num_edges)
        for block_lo in range(lo, hi, self.root_block):
            self._mine_block(block_lo, min(hi, block_lo + self.root_block))
        return self._finish(self._node_counters, self._counts)

    # -- internals -------------------------------------------------------------

    def _poll_cancel(self) -> None:
        if self.cancel_check is not None and self.cancel_check():
            raise MiningCancelled("mining cancelled by cancel_check")

    def _mine_block(self, lo: int, hi: int) -> None:
        """Root step for edges ``[lo, hi)``: bind the first motif edge,
        turn each root's window into a rank, descend — the roots in pair
        order, each row's root an index into that order."""
        self._poll_cancel()
        g = self.graph
        first = self.trie.first_edge_node
        # Pair order, (src, dst, index): roots of one pair are neighbours,
        # and so are their rows at every depth.
        order = np.argsort(self._index.pair_pos[lo:hi])
        block = lo + order
        src, dst = g.src[block], g.dst[block]
        valid = src != dst  # motif edges are never self-loops
        roots = block[valid]
        nc = self._node_counters[first.index]
        nc.root_tasks += hi - lo
        # Every valid root is one book-keep and (when its tree unwinds)
        # one backtrack, exactly as the scalar root loop counts them.
        nc.bookkeeps += len(roots)
        nc.backtracks += len(roots)
        for i in first.complete:
            self._counts[i] += len(roots)
        if not first.child_order or not len(roots):
            return
        # Any δ at or past the span is the same whole-graph window;
        # saturating it keeps ``t_root + δ`` inside int64.
        delta = min(self.delta, g.time_span)
        # Searched in index order, where the keys ascend, then permuted.
        r_limit = g.ts.searchsorted(window_t_limit(g.ts[lo:hi], delta), side="right")[order][valid]
        cols = (src[valid], dst[valid])
        # Root columns, root edges, windows, and the _per_root memo.
        self._block = cols, roots, r_limit, {}
        self._walk(first, cols, roots, np.arange(len(roots)))

    def _per_root(self, key: Tuple) -> Tuple[np.ndarray, np.ndarray]:
        """What a range over root labels 0 and 1 ends at, per root of the
        block, computed on first use: for ``("scan", out, label)`` the
        window end and whether it stops before the node's last edge, for
        ``("pair", a, b)`` the pair rank and the window end."""
        cols, roots, r_limit, memo = self._block
        if key not in memo:
            g, index = self.graph, self._index
            kind, x, y = key
            if kind == "scan":
                keys, offsets = (
                    (index.out_key, g.out_offsets) if x else (index.in_key, g.in_offsets)
                )
                end = index.seek(keys, cols[y], r_limit)
                memo[key] = end, end < offsets[cols[y] + 1]
            else:
                rank = (
                    index.edge_rank[roots] if (x, y) == (0, 1)
                    else index.rev_rank[roots] if (x, y) == (1, 0)
                    else index.pair_rank(cols[x], cols[y])
                )
                memo[key] = rank, index.seek(index.pair_key, rank, r_limit)
        return memo[key]

    def _walk(
        self,
        node: TrieNode,
        cols: Tuple[np.ndarray, ...],
        last_e: np.ndarray,
        root: np.ndarray,
    ) -> None:
        """Extend a frontier of partial matches of ``node`` toward every
        child: ``cols[x]`` is the graph node bound to canonical label
        ``x`` (bound iff ``x < node.seen``), ``last_e`` the edge matched
        at ``node`` and ``root`` the row's root, as an index into the
        block's roots — whose window, carried as a rank (the first edge
        index past ``t_root + δ``), is gathered only where a search
        needs it.

        A range bound is searched only where the frontier does not
        already imply it:

        - a range anchored on the matched edge starts where the edge
          says: the out-scan of its source, the in-scan of its
          destination and its own pair at its position + 1
          (``RangeIndex.out_pos`` …); the out-scan of its destination,
          the in-scan of its source and the reverse pair at that node's
          or pair's first edge after it (``RangeIndex.out_after_dst``,
          ``in_after_src``, ``rev_after``); and the ranks of its pair
          and of the reverse pair are the edge's;
        - labels 0 and 1 are bound by the root edge, so the window end,
          crossed flag and pair rank of a range over them are per root
          (:meth:`_per_root`), read by ``root`` — at depth 1, where the
          rows are the roots, read as they are.

        The scan of each (direction, bound label) and the pair range of
        each (label, label) are computed once and shared by the
        siblings, and what is kept of each is what a sibling consumes:

        - a **leaf** needs its accepted count only.  A closing edge
          accepts its pair total; a new-node edge accepts its window
          total minus the pair totals to every bound node (bound nodes
          are distinct, so those are disjoint subsets of the window, the
          self-loop being the pair of the scanned node with itself).
          Totals are integers: no range array outlives its sum.
        - an **internal closing** child enumerates its pair range, so
          that pair's ``(start, end)`` is kept.
        - an **internal new-node** child enumerates its window, so that
          scan's ``(start, end)`` is kept — and it computes no pair at
          all: its accepted count is the size of the frontier it has to
          build anyway (the rows whose new node is not already bound).

        The edge-list tail scan of a disconnected edge is always
        enumerated.  Every counter event is charged to the child, as
        the scalar miner would on that edge.
        """
        g, index = self.graph, self._index
        seen, rows = node.seen, len(last_e)
        lo = last_e + 1
        scans: Dict[Tuple[bool, int], Tuple] = {}
        pairs: Dict[Tuple[int, int], Tuple] = {}
        internal = [c for c in node.child_order if c.child_order]
        #: The tables' keys whose ranges an internal child enumerates.
        closed = {c.edge for c in internal if max(c.edge) < seen}
        walked = {
            (c.edge[0] < seen, min(c.edge)) for c in internal
            if min(c.edge) < seen <= max(c.edge)
        }

        def per_row(values: np.ndarray) -> np.ndarray:
            return values if node.depth == 1 else values[root]

        # Only a label past the root edge's two, or the edge-list tail,
        # searches up to each row's window.
        r_limit = None
        if seen > 2 or any(min(c.edge) >= seen for c in node.child_order):
            r_limit = per_row(self._block[2])

        def scan(out: bool, label: int) -> Tuple:
            """(start, end, window total, bisection steps, touches); the
            ranges only for a scan in ``walked``."""
            if (out, label) not in scans:
                key, offsets, bisect_steps = (
                    (index.out_key, g.out_offsets, index.out_steps) if out
                    else (index.in_key, g.in_offsets, index.in_steps)
                )
                nodes = cols[label]
                if label == node.edge[0]:  # the last edge's source
                    start = index.out_pos[last_e] + 1 if out else index.in_after_src[last_e]
                elif label == node.edge[1]:  # its destination
                    start = index.out_after_dst[last_e] if out else index.in_pos[last_e] + 1
                else:
                    start = index.seek(key, nodes, lo)
                if label < 2:
                    end, crossed = map(per_row, self._per_root(("scan", out, label)))
                else:
                    end = index.seek(key, nodes, r_limit)
                    crossed = end < offsets[nodes + 1]
                total = int(end.sum() - start.sum())
                # The edge that ends a scan by crossing the window is
                # touched too; a scan that exhausts its slice is not.
                touched = total + int(np.count_nonzero(crossed))
                steps = int(bisect_steps[nodes].sum())
                if (out, label) not in walked:
                    start = end = None
                scans[out, label] = start, end, total, steps, touched
            return scans[out, label]

        def pair(a: int, b: int) -> Tuple:
            """(start, end, total) of the edges ``a → b`` in the window;
            the ranges only for a pair in ``closed``."""
            if (a, b) not in pairs:
                if a == b and not index.self_loops:
                    return None, None, 0  # asked only as an exclusion
                own, rev = (a, b) == node.edge, (b, a) == node.edge
                if max(a, b) < 2:
                    rank, end = self._per_root(("pair", a, b))
                    rank, end = None if own or rev else per_row(rank), per_row(end)
                else:
                    rank = (
                        index.edge_rank[last_e] if own
                        else index.rev_rank[last_e] if rev
                        else index.pair_rank(cols[a], cols[b])
                    )
                    end = index.seek(index.pair_key, rank, r_limit)
                start = (
                    index.pair_pos[last_e] + 1 if own
                    else index.rev_after[last_e] if rev
                    else index.seek(index.pair_key, rank, lo)
                )
                total = int(end.sum() - start.sum())
                if (a, b) not in closed:
                    start = end = None
                pairs[a, b] = start, end, total
            return pairs[a, b]

        for child in node.child_order:
            u, v = child.edge
            nc = self._node_counters[child.index]
            nc.searches += rows
            nc.backtracks += rows
            if u >= seen and v >= seen:
                # Neither endpoint bound (disconnected motifs): the scan
                # is the edge-list tail, counted by materializing it.
                start, end, accepted = lo, r_limit, None
                touched = int(end.sum() - start.sum()) + int(np.count_nonzero(end < g.num_edges))
                nc.bytes_touched += touched * EDGE_RECORD_BYTES
                edge_of, fresh = None, (g.src, g.dst)
            else:
                out = u < seen
                start, end, total, steps, touched = scan(out, u if out else v)
                nc.binary_searches += rows
                nc.binary_search_steps += steps
                nc.neighbor_items_touched += touched
                nc.bytes_touched += touched * (EDGE_RECORD_BYTES + INDEX_BYTES)
                if out and v < seen:
                    start, end, accepted = pair(u, v)
                    edge_of, fresh = index.pair_edges, ()
                else:
                    edge_of, fresh = (
                        (g.out_edge_idx, (g.dst,)) if out else (g.in_edge_idx, (g.src,))
                    )
                    if child.child_order:
                        accepted = None if total else 0
                    else:
                        accepted = total - sum(
                            pair(u, x)[2] if out else pair(x, v)[2]
                            for x in range(seen)
                        )
            nc.candidates_scanned += touched
            if accepted is None or (accepted and child.child_order):
                accepted, sizes = 0, end - start
                for a, b in _slabs(sizes):
                    self._poll_cancel()
                    frontier = self._materialize(
                        cols, root, start[a:b], sizes[a:b], a, edge_of, fresh
                    )
                    accepted += len(frontier[1])
                    if child.child_order and len(frontier[1]):
                        self._walk(child, *frontier)
            nc.bookkeeps += accepted
            for i in child.complete:
                self._counts[i] += accepted

    @staticmethod
    def _materialize(cols, root, start, sizes, first_row, edge_of, fresh):
        """The child frontier ``(cols, last_e, root)`` of one slab:
        the ragged candidate ranges ``[start, start + sizes)`` of the
        rows from ``first_row`` on.  ``edge_of`` maps a position to its
        edge (``None``: positions are edge indices); ``fresh`` holds the
        endpoint arrays that bind a new label each, whose nodes must
        differ from every node bound before them.  Candidates are
        filtered before the bound columns are gathered, and nothing but
        the frontier outlives the call, so a level of the walk holds
        its own frontier and no candidate scratch while its children
        run."""
        rows, e = _ragged_take(start, sizes)
        rows += first_row
        if edge_of is not None:
            e = edge_of[e]
        new: List[np.ndarray] = []
        if fresh:
            keep = np.ones(len(e), dtype=bool)
            for endpoint in fresh:
                x = endpoint[e]
                for c in cols:
                    keep &= c[rows] != x
                for y in new:
                    keep &= y != x
                new.append(x)
            rows, e = rows[keep], e[keep]
            new = [x[keep] for x in new]
        return tuple(c[rows] for c in cols) + tuple(new), e, root[rows]

    def _finish(
        self, node_counters: List[SearchCounters], counts: List[int]
    ) -> FamilyResult:
        trie = self.trie
        per_motif: List[SearchCounters] = []
        for i in range(trie.family_size):
            c = SearchCounters()
            for node in trie.path(i):
                c.merge(node_counters[node.index])
            c.matches = counts[i]
            per_motif.append(c)
        family = SearchCounters()
        for nc in node_counters:
            family.merge(nc)
        family.matches = sum(counts)
        sharing = SharingStats(
            family_size=trie.family_size,
            trie_nodes=trie.num_nodes,
            unshared_nodes=trie.unshared_node_count(),
            shared_nodes=trie.shared_nodes,
            max_depth=trie.max_depth,
            searches=family.searches,
            searches_unshared=sum(c.searches for c in per_motif),
            candidates_scanned=family.candidates_scanned,
            candidates_unshared=sum(c.candidates_scanned for c in per_motif),
            bytes_touched=family.bytes_touched,
            bytes_unshared=sum(c.bytes_touched for c in per_motif),
        )
        return FamilyResult(
            counts=counts, per_motif=per_motif, counters=family, sharing=sharing
        )


def co_count(
    graph: TemporalGraph, motifs: Sequence[Motif], delta: int
) -> Dict[str, int]:
    """One-pass family counts keyed by motif name (convenience wrapper)."""
    result = CoMiner(graph, motifs, delta).mine()
    return result.counts_by_name(motifs)
