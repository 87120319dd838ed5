"""Append-only edge stream buffer with a sliding δ-window ring.

The streaming engine's substrate mirrors the batch layout of
:class:`~repro.graph.temporal_graph.TemporalGraph` but grows one edge at
a time; :meth:`StreamBuffer.snapshot` hands the accumulated prefix to
:meth:`TemporalGraph.from_arrays`, whose stable counting sort gives
each node's edges in arrival (= chronological) order, so no per-node
adjacency is kept on ingest:

- an **append-only edge log** (``src``/``dst``/``ts`` Python lists, the
  chronological temporal edge list);
- the **node count**, the largest node id seen plus one — one integer,
  so a single huge node id costs nothing on ingest;
- a **window ring**: the edges whose timestamps are still inside the
  sliding window ``[t_now - δ, t_now]``.  The log is time-sorted, so
  they are a suffix of it and the ring is one start index.  Only these
  edges can participate in a match completed by a future arrival
  (a δ-temporal match spans at most δ), so the ring's length is the
  natural occupancy metric for the continuation tables.

Timestamps are uniquified on ingest with the same recurrence the batch
constructor applies (``t' = max(t, prev' + 1)``), so a replayed stream
and :class:`TemporalGraph` built from the same time-sorted edges hold
byte-identical arrays — the invariant the differential parity suite
pins.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph, fingerprint_arrays
from repro.graph.window import window_horizon


class StreamBuffer:
    """Append-only temporal edge log + sliding δ-window ring."""

    def __init__(self, delta: int) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.delta = int(delta)
        self._src: List[int] = []
        self._dst: List[int] = []
        self._ts: List[int] = []
        self._num_nodes = 0
        #: Log index of the oldest edge inside the window.
        self._lo = 0
        self._last_raw_t: int | None = None
        self._peak_window = 0

    # -- ingestion -------------------------------------------------------------

    def append(self, src: int, dst: int, t: int) -> Tuple[int, int]:
        """Ingest one edge; returns ``(edge_index, adjusted_timestamp)``.

        Edges must arrive in non-decreasing raw-timestamp order (the
        stream is append-only); ties are nudged forward exactly as the
        batch constructor's ``_uniquify_timestamps`` does.
        """
        src, dst, t = int(src), int(dst), int(t)
        if src < 0 or dst < 0:
            raise ValueError("node ids must be non-negative")
        if self._last_raw_t is not None and t < self._last_raw_t:
            raise ValueError(
                f"out-of-order edge: t={t} after t={self._last_raw_t} "
                "(the stream is append-only; sort or buffer upstream)"
            )
        self._last_raw_t = t
        if self._ts:
            t_adj = max(t, self._ts[-1] + 1)
        else:
            t_adj = t
        idx = len(self._ts)
        self._src.append(src)
        self._dst.append(dst)
        self._ts.append(t_adj)
        if src >= self._num_nodes or dst >= self._num_nodes:
            self._num_nodes = max(src, dst) + 1

        # Slide the window: evict edges older than t_adj - δ.
        ts, lo, horizon = self._ts, self._lo, window_horizon(t_adj, self.delta)
        while lo < idx and ts[lo] < horizon:
            lo += 1
        self._lo = lo
        if idx + 1 - lo > self._peak_window:
            self._peak_window = idx + 1 - lo
        return idx, t_adj

    # -- accessors -------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._ts)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def window_size(self) -> int:
        """Edges currently inside the sliding window ``[t_now - δ, t_now]``."""
        return len(self._ts) - self._lo

    @property
    def peak_window_size(self) -> int:
        return self._peak_window

    @property
    def t_now(self) -> int | None:
        """Adjusted timestamp of the most recent edge (None if empty)."""
        return self._ts[-1] if self._ts else None

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> TemporalGraph:
        """The accumulated prefix as an immutable :class:`TemporalGraph`.

        The edge log is adopted by :meth:`TemporalGraph.from_arrays` —
        already time-sorted and uniquified, so no re-sort — whose stable
        ``argsort`` plus ``bincount`` builds the same CSR arrays the
        batch constructor does, so any batch miner can run on the
        snapshot.
        """
        return TemporalGraph.from_arrays(
            np.array(self._src, dtype=np.int64),
            np.array(self._dst, dtype=np.int64),
            np.array(self._ts, dtype=np.int64),
            num_nodes=self._num_nodes,
        )

    def window_snapshot(self) -> TemporalGraph:
        """Only the edges inside the current window, as a graph.

        Node IDs are preserved (as in ``subgraph_by_time``) so counts on
        the window remain comparable with the full prefix.
        """
        lo = self._lo
        rows = list(zip(self._src[lo:], self._dst[lo:], self._ts[lo:]))
        return TemporalGraph(rows, num_nodes=self.num_nodes or None)

    def window_fingerprint(self) -> str:
        """``window_snapshot().fingerprint()`` in O(window) time and memory.

        The window's edges are already time-sorted with strictly
        increasing timestamps, so the canonical arrays the snapshot
        would hash are the log's suffix as it stands; no graph, and no
        CSR offsets sized by the largest node id, is built.
        """
        lo = self._lo
        return fingerprint_arrays(
            self._num_nodes, self._src[lo:], self._dst[lo:], self._ts[lo:]
        )

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        return (
            f"StreamBuffer(delta={self.delta}, num_edges={self.num_edges}, "
            f"window={self.window_size})"
        )
