"""Temporal graph data structures (paper §II-A, §II-D).

The paper's algorithm operates on two structures:

1. A *temporal edge list*: an array of ``(src, dst, timestamp)`` tuples
   sorted by timestamp.  Timestamps are assumed unique (paper footnote 1);
   ties are broken deterministically at construction time so that the
   strict ordering ``t_1 < t_2 < ...`` required by the mining semantics
   always holds.
2. A *compressed adjacency* (CSR-like) structure that, for every node,
   stores the **indices into the temporal edge list** of its outgoing and
   incoming edges, in increasing index (= chronological) order.  Storing
   indices rather than neighbor IDs is the key layout difference from
   static graph processing that the paper highlights (§III-C, Fig. 3).
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np


def fingerprint_arrays(num_nodes: int, src, dst, ts) -> str:
    """The :meth:`TemporalGraph.fingerprint` digest of canonical arrays
    (time-sorted, strictly increasing ``ts``) without building a graph."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"TemporalGraph-v1")
    h.update(int(num_nodes).to_bytes(8, "little"))
    for a in (src, dst, ts):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


#: Node ids and timestamps are stored as int64.
_INT64 = 1 << 63


def checked_edges(edges: Iterable) -> List[Tuple[int, int, int]]:
    """``edges`` as ``(src, dst, t)`` triples of Python ints, checked in
    one pass before anything is stored.

    Integers only: a ``bool`` or a non-integral float is refused, never
    truncated (an integral float such as ``5.0`` reads as ``5``).  Node
    ids must lie in ``[0, 2**63)`` and ``t`` within int64, the dtype the
    graph stores them in.  Raises ``ValueError`` naming the first bad
    edge.
    """
    clean = []
    for i, edge in enumerate(edges):
        try:
            s, d, t = edge
            s, d, t = _integer(s), _integer(d), _integer(t)
        except (TypeError, ValueError):
            raise ValueError(
                f"edge {i} is not an (src, dst, t) int triple: {edge!r}"
            ) from None
        if not (0 <= s < _INT64 and 0 <= d < _INT64 and -_INT64 <= t < _INT64):
            raise ValueError(
                f"edge {i}: node ids must be in [0, 2**63) and t within "
                f"int64: {edge!r}"
            )
        clean.append((s, d, t))
    return clean


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    return operator.index(value)


@dataclass(frozen=True)
class TemporalEdge:
    """A directed timestamped edge ``src -> dst`` at time ``t``."""

    src: int
    dst: int
    t: int

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.src, self.dst, self.t)


class TemporalGraph:
    """An immutable temporal graph backed by numpy arrays.

    Parameters
    ----------
    edges:
        Iterable of ``(src, dst, t)`` tuples or :class:`TemporalEdge`.
        Node IDs must be non-negative integers.  The edge list is sorted
        by timestamp at construction; duplicate timestamps are resolved
        by nudging later duplicates forward by the minimal amount that
        keeps the order of equal-timestamp edges stable (the paper
        assumes unique timestamps without loss of generality).
    num_nodes:
        Optional explicit node count; defaults to ``max node id + 1``.

    Notes
    -----
    The class exposes both a convenient object API (:meth:`edge`,
    :meth:`out_edges`, ...) and the raw numpy arrays (``src``, ``dst``,
    ``ts``, ``out_offsets``, ``out_edge_idx``, ``in_offsets``,
    ``in_edge_idx``) used by the miners and by the accelerator
    simulator's memory-layout model.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[int, int, int]],
        num_nodes: int | None = None,
    ) -> None:
        arr = self._coerce_edges(edges)
        if arr.size and bool((arr[:, :2] < 0).any()):
            raise ValueError("node ids must be non-negative")

        # Stable sort by timestamp, then make timestamps strictly unique.
        order = np.argsort(arr[:, 2], kind="stable")
        arr = arr[order]
        self.src = np.ascontiguousarray(arr[:, 0])
        self.dst = np.ascontiguousarray(arr[:, 1])
        self.ts = self._uniquify_timestamps(arr[:, 2])

        m = len(arr)
        inferred = int(max(self.src.max(), self.dst.max())) + 1 if m else 0
        if num_nodes is None:
            num_nodes = inferred
        elif num_nodes < inferred:
            raise ValueError(
                f"num_nodes={num_nodes} smaller than max node id + 1 ({inferred})"
            )
        self._num_nodes = int(num_nodes)

        self.out_offsets, self.out_edge_idx = self._build_csr(self.src)
        self.in_offsets, self.in_edge_idx = self._build_csr(self.dst)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _coerce_edges(edges: Iterable[Tuple[int, int, int]]) -> np.ndarray:
        """Normalize edge input into an ``(m, 3)`` int64 array."""
        if isinstance(edges, np.ndarray):
            if edges.size == 0:
                return np.empty((0, 3), dtype=np.int64)
            arr = np.asarray(edges, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError("edge array must have shape (m, 3)")
            return arr
        rows = list(edges)
        if not rows:
            return np.empty((0, 3), dtype=np.int64)
        if any(isinstance(r, TemporalEdge) for r in rows):
            rows = [
                r.as_tuple() if isinstance(r, TemporalEdge) else tuple(r)
                for r in rows
            ]
        arr = np.array(rows, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("each edge must be a (src, dst, t) triple")
        return arr

    @staticmethod
    def _uniquify_timestamps(ts: np.ndarray) -> np.ndarray:
        """Nudge duplicate timestamps so the sequence is strictly increasing.

        Edges arrive sorted; each duplicate is shifted to ``prev + 1``,
        i.e. ``out[i] = max(ts[i], out[i-1] + 1)``.  The recurrence
        unrolls to ``out[i] = i + max_{j<=i}(ts[j] - j)``, which is a
        running maximum — fully vectorized, no per-edge Python loop.
        This mirrors the paper's without-loss-of-generality uniqueness
        assumption while preserving relative order.
        """
        ts = np.asarray(ts, dtype=np.int64)
        if len(ts) == 0:
            return ts.copy()
        i = np.arange(len(ts), dtype=np.int64)
        return np.maximum.accumulate(ts - i) + i

    def _build_csr(self, endpoint: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Build per-node lists of edge indices for one endpoint array.

        Because the global edge list is time-sorted, a stable counting
        sort by endpoint yields per-node index lists already in
        chronological order — exactly the layout the paper's phase-1
        search streams.  ``np.argsort(kind="stable")`` performs that
        grouping in C; offsets come from ``bincount`` + ``cumsum``.
        """
        n = self._num_nodes
        m = len(endpoint)
        counts = (
            np.bincount(endpoint, minlength=n)
            if m
            else np.zeros(n, dtype=np.int64)
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        idx = np.argsort(endpoint, kind="stable").astype(np.int64, copy=False)
        return offsets, idx

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        ts: np.ndarray,
        num_nodes: int | None = None,
        *,
        out_offsets: np.ndarray | None = None,
        out_edge_idx: np.ndarray | None = None,
        in_offsets: np.ndarray | None = None,
        in_edge_idx: np.ndarray | None = None,
        validate: bool = True,
    ) -> "TemporalGraph":
        """Adopt prebuilt arrays without re-sorting or re-uniquifying.

        This is the zero-copy constructor used by the parallel mining
        workers: the arrays (typically views into a shared-memory
        segment) are adopted as-is.  ``ts`` must already be strictly
        increasing and the optional CSR arrays must describe exactly the
        given edge list; with ``validate=True`` (the default) cheap
        vectorized invariant checks are performed, workers pass
        ``validate=False`` because the parent already validated.
        """
        g = cls.__new__(cls)
        g.src = np.asarray(src, dtype=np.int64)
        g.dst = np.asarray(dst, dtype=np.int64)
        g.ts = np.asarray(ts, dtype=np.int64)
        m = len(g.src)
        if len(g.dst) != m or len(g.ts) != m:
            raise ValueError("src, dst, ts must have equal length")
        inferred = int(max(g.src.max(), g.dst.max())) + 1 if m else 0
        if num_nodes is None:
            num_nodes = inferred
        elif num_nodes < inferred:
            raise ValueError(
                f"num_nodes={num_nodes} smaller than max node id + 1 ({inferred})"
            )
        g._num_nodes = int(num_nodes)
        if validate and m:
            if bool((g.src < 0).any()) or bool((g.dst < 0).any()):
                raise ValueError("node ids must be non-negative")
            if bool((np.diff(g.ts) <= 0).any()):
                raise ValueError("timestamps must be strictly increasing")

        have_out = out_offsets is not None and out_edge_idx is not None
        have_in = in_offsets is not None and in_edge_idx is not None
        if have_out:
            g.out_offsets = np.asarray(out_offsets, dtype=np.int64)
            g.out_edge_idx = np.asarray(out_edge_idx, dtype=np.int64)
        else:
            g.out_offsets, g.out_edge_idx = g._build_csr(g.src)
        if have_in:
            g.in_offsets = np.asarray(in_offsets, dtype=np.int64)
            g.in_edge_idx = np.asarray(in_edge_idx, dtype=np.int64)
        else:
            g.in_offsets, g.in_edge_idx = g._build_csr(g.dst)
        if validate:
            for name, offs, idx in (
                ("out", g.out_offsets, g.out_edge_idx),
                ("in", g.in_offsets, g.in_edge_idx),
            ):
                if len(offs) != g._num_nodes + 1 or len(idx) != m:
                    raise ValueError(f"{name} CSR arrays have inconsistent shape")
        return g

    def as_arrays(self) -> dict:
        """The seven backing arrays, keyed by :meth:`from_arrays` argument
        name — the wire format the parallel workers adopt zero-copy."""
        return {
            "src": self.src,
            "dst": self.dst,
            "ts": self.ts,
            "out_offsets": self.out_offsets,
            "out_edge_idx": self.out_edge_idx,
            "in_offsets": self.in_offsets,
            "in_edge_idx": self.in_edge_idx,
        }

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the canonical edge arrays.

        The digest covers ``num_nodes`` and the post-construction
        ``src``/``dst``/``ts`` arrays — i.e. the *canonical* graph after
        time-sorting and timestamp uniquification.  Two graphs with the
        same fingerprint are guaranteed to produce identical mining
        results for every ``(motif, delta)``, which is exactly the
        contract a fingerprint-keyed result cache needs:

        - permuting the input edge list does not change the fingerprint
          when timestamps are distinct (construction sorts by time);
        - duplicate ``(src, dst, t)`` triples may be permuted freely;
        - but reordering *distinct* edges that share a timestamp yields a
          different canonical graph (the stable tie-break assigns
          different uniquified timestamps), and therefore — correctly —
          a different fingerprint, because motif counts can differ.

        The hash is content-based (``hashlib``, not the salted builtin
        ``hash``), so fingerprints are comparable across processes and
        across :meth:`from_arrays` round-trips.
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            fp = fingerprint_arrays(
                self._num_nodes, self.src, self.dst, self.ts
            )
            self._fingerprint = fp
        return fp

    # -- basic accessors -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def edge(self, i: int) -> TemporalEdge:
        """Return edge ``i`` of the time-sorted temporal edge list."""
        return TemporalEdge(int(self.src[i]), int(self.dst[i]), int(self.ts[i]))

    def edges(self) -> Iterator[TemporalEdge]:
        for i in range(self.num_edges):
            yield self.edge(i)

    def time(self, i: int) -> int:
        return int(self.ts[i])

    @property
    def time_span(self) -> int:
        """Difference between the last and first timestamps (0 if empty)."""
        if self.num_edges == 0:
            return 0
        return int(self.ts[-1] - self.ts[0])

    # -- adjacency --------------------------------------------------------------

    def out_edges(self, u: int) -> np.ndarray:
        """Edge indices of ``u``'s outgoing edges, chronologically sorted."""
        return self.out_edge_idx[self.out_offsets[u] : self.out_offsets[u + 1]]

    def in_edges(self, v: int) -> np.ndarray:
        """Edge indices of ``v``'s incoming edges, chronologically sorted."""
        return self.in_edge_idx[self.in_offsets[v] : self.in_offsets[v + 1]]

    def adjacency_lists(self) -> Tuple[List[int], List[int], List[int], List[List[int]], List[List[int]]]:
        """Plain-Python views ``(src, dst, ts, out, in)`` for the software miners.

        The tight DFS scanning loops in :class:`~repro.mining.mackey.MackeyMiner`
        are markedly faster over Python lists than numpy scalars.  The
        conversion is O(m + n) and cached on the graph, so constructing
        many miners over one graph (the 36-motif census, or per-worker
        miner caches in the parallel layer) converts exactly once.
        """
        cache = getattr(self, "_pylist_cache", None)
        if cache is None:
            out_off = self.out_offsets.tolist()
            in_off = self.in_offsets.tolist()
            out_idx = self.out_edge_idx.tolist()
            in_idx = self.in_edge_idx.tolist()
            cache = (
                self.src.tolist(),
                self.dst.tolist(),
                self.ts.tolist(),
                [out_idx[out_off[u] : out_off[u + 1]] for u in range(self._num_nodes)],
                [in_idx[in_off[v] : in_off[v + 1]] for v in range(self._num_nodes)],
            )
            self._pylist_cache = cache
        return cache

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise ValueError(
                f"node id {node} out of range (num_nodes={self._num_nodes})"
            )

    def first_out_after(self, u: int, edge_index: int) -> int:
        """Position within ``out_edges(u)`` of the first edge index ``> edge_index``.

        This is the binary search the software baseline performs at the
        start of every phase-1 filter (Algorithm 1 lines 31/33; §VI-A
        notes software uses binary search where Mint's hardware streams
        linearly).  The probe runs entirely inside numpy
        (``np.searchsorted`` on the CSR slice): ``bisect`` over a numpy
        array would box one scalar per comparison, turning every probe
        into O(log d) numpy→Python crossings.  Raises :class:`ValueError`
        for out-of-range node ids rather than a bare ``IndexError`` from
        the offsets array.
        """
        self._check_node(u)
        lo, hi = self.out_offsets[u], self.out_offsets[u + 1]
        return int(
            np.searchsorted(self.out_edge_idx[lo:hi], edge_index, side="right")
        )

    def first_in_after(self, v: int, edge_index: int) -> int:
        """Position within ``in_edges(v)`` of the first edge index ``> edge_index``."""
        self._check_node(v)
        lo, hi = self.in_offsets[v], self.in_offsets[v + 1]
        return int(
            np.searchsorted(self.in_edge_idx[lo:hi], edge_index, side="right")
        )

    # -- vectorized range index (family engine) ----------------------------------

    def range_index(self) -> "RangeIndex":
        """The composite-key :class:`RangeIndex` over this graph, built on
        first use and cached like :meth:`adjacency_lists` (workers adopt
        only the seven backing arrays and build their own)."""
        cache = getattr(self, "_range_index", None)
        if cache is None:
            cache = self._range_index = RangeIndex(self)
        return cache

    # -- projections -------------------------------------------------------------

    def static_projection(self) -> Set[Tuple[int, int]]:
        """Distinct directed node pairs, discarding time (used by Paranjape)."""
        return set(zip(self.src.tolist(), self.dst.tolist()))

    def subgraph_by_time(self, t_lo: int, t_hi: int) -> "TemporalGraph":
        """Edges with ``t_lo <= t < t_hi`` (used by PRESTO window sampling).

        Node IDs are preserved so counts remain comparable.
        """
        lo = int(np.searchsorted(self.ts, t_lo, side="left"))
        hi = int(np.searchsorted(self.ts, t_hi, side="left"))
        rows = zip(
            self.src[lo:hi].tolist(), self.dst[lo:hi].tolist(), self.ts[lo:hi].tolist()
        )
        return TemporalGraph(rows, num_nodes=self._num_nodes)

    # -- dunder ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, time_span={self.time_span})"
        )


class RangeIndex:
    """Composite ``int64`` keys that answer "which of this node's — or
    this node pair's — edges have an index in ``[lo, hi)``" for a whole
    frontier of questions with ONE C-level ``np.searchsorted`` per range
    end (:meth:`seek`): the software analogue of Mint's phase-1 search,
    batched.

    - ``out_key[pos] = src·(m+1) + edge`` for the edge at ``out_edge_idx[pos]``
      (``in_key`` likewise with ``dst``).  CSR is node-major and per-node
      edge indices are chronological, so the keys are globally sorted and
      a node's edges with index in ``[lo, hi)`` are the positions between
      the insertion points of ``node·(m+1) + lo`` and ``node·(m+1) + hi``.
    - ``pair_edges`` lists edge indices sorted by (src, dst, index) and
      ``pair_key[pos] = rank(src, dst)·(m+1) + edge``, where ``rank`` is
      the position of ``src·n + dst`` among the distinct pair codes
      (``pair_codes``, :meth:`pair_rank`).  Ranking keeps the key below
      ``(m+1)²`` whatever the node count, where ``(src·n + dst)·(m+1)``
      would wrap.

    Some answers need no search, because an edge already knows them:

    - ``out_pos`` / ``in_pos`` / ``pair_pos`` are the inverse
      permutations of ``out_edge_idx`` / ``in_edge_idx`` / ``pair_edges``:
      where edge ``e`` sits in each key array.  The range of ``e``'s
      source's out-edges — or its destination's in-edges, or its own
      pair's edges — from index ``e + 1`` on starts at that position + 1.
    - ``out_after_dst`` / ``in_after_src`` are the same starts for the
      other endpoint: where ``e``'s destination's out-edges — or its
      source's in-edges — from index ``e + 1`` on begin in ``out_key`` /
      ``in_key``.  ``rev_after`` is that start in ``pair_key`` for the
      reverse pair's edges (``m`` when that pair never occurs).  Each is
      one :meth:`seek` over all ``m`` edges when the index is built.
    - ``edge_rank[e]`` is the rank of ``e``'s pair and ``rev_rank[e]``
      that of its reverse (the sentinel's rank when that pair never
      occurs).

    The per-edge arrays cost ``64·m`` bytes (eight ``int64`` columns);
    the key arrays ``out_key``, ``in_key``, ``pair_key`` and
    ``pair_edges`` another ``32·m``.

    ``out_steps`` / ``in_steps`` hold, per node, what one binary search
    over its neighbor list costs the scalar miner (its counter model).

    Every value formed is below ``max(n, m+1)²``; construction raises
    :class:`ValueError` where that does not fit ``int64``.
    """

    #: ``floor(sqrt(2**63 - 1))``: the largest ``max(num_nodes, num_edges + 1)``.
    MAX_EXTENT = 3_037_000_499

    def __init__(self, graph: TemporalGraph) -> None:
        n, m = graph.num_nodes, graph.num_edges
        if max(n, m + 1) > self.MAX_EXTENT:
            raise ValueError(
                f"graph too large for int64 range keys: max(num_nodes, "
                f"num_edges + 1) = {max(n, m + 1)} exceeds {self.MAX_EXTENT}"
            )
        self.num_nodes = n
        self.stride = m + 1
        #: Whether any edge ``u → u`` exists: where none does, the pair
        #: range of a node with itself is empty without a search.
        self.self_loops = bool((graph.src == graph.dst).any())
        self.out_key = graph.src[graph.out_edge_idx] * self.stride + graph.out_edge_idx
        self.in_key = graph.dst[graph.in_edge_idx] * self.stride + graph.in_edge_idx
        codes, self.edge_rank = np.unique(graph.src * n + graph.dst, return_inverse=True)
        self.pair_edges = np.argsort(self.edge_rank, kind="stable")
        self.pair_key = self.edge_rank[self.pair_edges] * self.stride + self.pair_edges
        # A sentinel past every code keeps an absent pair's lookup in bounds.
        self.pair_codes = np.append(codes, np.iinfo(np.int64).max)
        self.rev_rank = self.pair_rank(graph.dst, graph.src)
        self.out_pos, self.in_pos, self.pair_pos = (
            self._inverse(p) for p in (graph.out_edge_idx, graph.in_edge_idx, self.pair_edges)
        )
        after = np.arange(1, m + 1)  # the first edge index past each edge
        self.out_after_dst = self.seek(self.out_key, graph.dst, after)
        self.in_after_src = self.seek(self.in_key, graph.src, after)
        self.rev_after = self.seek(self.pair_key, self.rev_rank, after)
        self.out_steps = self._bisect_steps(np.diff(graph.out_offsets))
        self.in_steps = self._bisect_steps(np.diff(graph.in_offsets))

    @staticmethod
    def _inverse(perm: np.ndarray) -> np.ndarray:
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        return inverse

    @staticmethod
    def _bisect_steps(degrees: np.ndarray) -> np.ndarray:
        """Steps of one binary search over a neighbor list of each degree:
        ``max(1, ceil(log2(d + 1)))``.  ``ceil(log2(d + 1))`` is the bit
        length of ``d``, which ``np.frexp`` yields exactly for every
        degree below 2**53 — no log-rounding hazard at powers of two."""
        return np.maximum(np.frexp(degrees.astype(np.float64))[1], 1).astype(np.int64)

    def seek(self, key: np.ndarray, owner: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Per row, the first position of ``key`` past ``owner``'s edges
        with index below ``at`` (at most ``m``): ``owner`` is a node for
        ``out_key`` / ``in_key``, a :meth:`pair_rank` for ``pair_key``.
        A range ``[lo, hi)`` of edge indices is ``[seek(lo), seek(hi))``."""
        return key.searchsorted(owner * self.stride + at)

    def pair_rank(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per row, the rank of the pair ``a → b``; an absent pair takes
        the sentinel's, past every key, so its ranges are empty."""
        code = a * self.num_nodes + b
        rank = self.pair_codes.searchsorted(code)
        rank[self.pair_codes[rank] != code] = len(self.pair_codes) - 1
        return rank
