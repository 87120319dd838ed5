"""Live edge ingestion: reorder buffer + versioned mutable graph.

The append path from ``POST /graphs/{id}/edges`` down to the streaming
engines:

1. :class:`ReorderBuffer` absorbs out-of-order arrival.  Feeds hand the
   service edges in roughly-chronological order (network reordering,
   sharded producers); the buffer holds up to ``capacity`` pending edges
   in a min-heap keyed ``(t, arrival_index)`` and releases an edge only
   once the **watermark** (``max_t_seen - lateness``) passes it or the
   buffer overflows.  Any edge arriving with a timestamp *below* the
   last released one is too late to reorder — it is dropped and counted
   (``late_dropped``), never silently interleaved, so the released
   stream is always non-decreasing and :class:`StreamBuffer`'s
   append-only invariant holds by construction.

2. :class:`LiveGraph` applies released edges atomically per batch: the
   whole batch is validated up front (one bad edge rejects the batch
   before any mutation), released edges flow through the shared
   :class:`~repro.streaming.window.StreamBuffer` (whose timestamp
   uniquification keeps snapshots byte-identical to an offline replay)
   and into one :class:`~repro.streaming.counter.FamilyStreamEngine`
   per attach position, with one
   :class:`~repro.live.subscriptions.SharedCounter` slot per (motif, δ)
   however many subscriptions read it — then the graph **version**
   bumps, each slot's window expires once and each
   :class:`~repro.live.subscriptions.EventGroup` (one per distinct
   query: slot, motif name, kind, threshold) is evaluated once,
   appending at most one event body to the log its members' outboxes
   view.  Nothing on the ack path runs once per subscriber.

   Slots are interned by ``(motif.canonical_key(), δ, edges released
   when the subscription attached)``, and the engine by the last of
   those.  The attach position is what keeps sharing exact: two
   subscriptions share a slot iff they have seen the same suffix of the
   released stream, so a subscriber that opens mid-feed gets a slot in
   a new engine and counts only matches lying wholly after it opened.
   An engine gains slots only before its first edge, which holds by
   construction: its attach position *is* the edge count.  For the
   same reason a group gains members only before its first event, so
   an event's position in the group's log is its seq for every member.

3. Ingestion is **idempotent per batch sequence number**: a retried
   batch (client timeout, killed worker) whose ``seq`` was already
   applied returns the original ack with ``duplicate: true`` instead of
   double-applying.  The ledger is a run of consecutive applied seqs
   (two integers) plus the stragglers outside it, so a producer that
   numbers its batches consecutively costs O(1) memory.  The two
   fault-injection sites bracket the commit — ``live.ingest`` fires
   *before* any mutation and ``live.ingest.ack`` *after* it — so a
   seeded crash at either point plus a retry proves
   no-loss/no-duplication (the `repro chaos --live` drill).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.live.subscriptions import EventGroup, SharedCounter, Subscription
from repro.resilience.faults import fault_point
from repro.streaming.counter import FamilyStreamEngine
from repro.streaming.window import StreamBuffer

Edge = Tuple[int, int, int]

#: Retained acks for duplicate-seq replay (per graph).
ACK_CACHE_SIZE = 1024


class ReorderBuffer:
    """Bounded min-heap that turns near-sorted arrival into sorted release.

    ``lateness`` is the reordering budget in timestamp units: an edge is
    released once ``max_t_seen - lateness`` reaches its timestamp.  Three
    regimes:

    - ``lateness=0`` (default): pass-through — every offered edge is
      releasable immediately, but a multi-edge batch still gets sorted
      *within itself* before release;
    - ``lateness=L > 0``: hold each edge until the stream has advanced
      ``L`` past it, tolerating displacement up to ``L`` timestamp units;
    - ``lateness=None``: never release on time alone — only on capacity
      overflow or explicit :meth:`flush` (full-shuffle replay mode).

    ``capacity`` bounds memory: when pending exceeds it, the smallest
    pending edges are force-released even if their watermark has not
    passed.  Ties release in arrival order (heap key includes a
    monotonic arrival index), so release order is deterministic.
    """

    def __init__(
        self, lateness: Optional[int] = 0, capacity: int = 1024
    ) -> None:
        if capacity < 1:
            raise ValueError("reorder capacity must be positive")
        if lateness is not None and lateness < 0:
            raise ValueError("lateness must be non-negative (or None)")
        self.lateness = lateness if lateness is None else int(lateness)
        self.capacity = int(capacity)
        self._heap: List[Tuple[int, int, int, int]] = []  # (t, arr, s, d)
        self._arrival = itertools.count()
        self._max_t: Optional[int] = None
        self._last_released_t: Optional[int] = None
        self.offered = 0
        self.released = 0
        self.late_dropped = 0
        self.reordered = 0

    @property
    def pending(self) -> int:
        return len(self._heap)

    def offer(self, src: int, dst: int, t: int) -> bool:
        """Admit one edge; returns False (and counts) if it is too late."""
        t = int(t)
        if self._last_released_t is not None and t < self._last_released_t:
            self.late_dropped += 1
            return False
        if self._max_t is not None and t < self._max_t:
            self.reordered += 1
        heapq.heappush(
            self._heap, (t, next(self._arrival), int(src), int(dst))
        )
        self.offered += 1
        if self._max_t is None or t > self._max_t:
            self._max_t = t
        return True

    def _pop(self) -> Edge:
        t, _, s, d = heapq.heappop(self._heap)
        self._last_released_t = t
        self.released += 1
        return (s, d, t)

    def release_ready(self) -> List[Edge]:
        """Edges whose watermark has passed (plus capacity overflow)."""
        out: List[Edge] = []
        heap = self._heap
        while heap:
            if len(heap) > self.capacity:
                out.append(self._pop())
                continue
            if self.lateness is None:
                break
            assert self._max_t is not None
            if heap[0][0] <= self._max_t - self.lateness:
                out.append(self._pop())
            else:
                break
        return out

    def flush(self) -> List[Edge]:
        """Drain everything pending, in timestamp order."""
        out: List[Edge] = []
        while self._heap:
            out.append(self._pop())
        return out

    def stats(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "released": self.released,
            "pending": len(self._heap),
            "late_dropped": self.late_dropped,
            "reordered": self.reordered,
            "capacity": self.capacity,
        }

    def __repr__(self) -> str:
        return (
            f"ReorderBuffer(lateness={self.lateness}, "
            f"capacity={self.capacity}, pending={self.pending})"
        )


class LiveGraph:
    """A named mutable temporal graph fed by edge batches.

    Owns the ingestion lock, the reorder buffer, the shared
    :class:`StreamBuffer` (edge log + δ-window ring), the standing
    subscriptions attached to it with the interned slots and event
    groups they read and the engines those slots belong to, and the
    per-batch idempotency ledger.
    The **version** counts applied snapshots: it bumps exactly when at
    least one edge reaches the edge log, so every version names distinct
    content and ``(name, version)`` is a stable cache key.
    """

    def __init__(
        self,
        name: str,
        delta: int,
        lateness: Optional[int] = 0,
        reorder_capacity: int = 1024,
        on_commit: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        if int(delta) < 0:
            raise ValueError("delta must be non-negative")
        self.name = name
        self.delta = int(delta)
        self.lock = threading.RLock()
        self.buffer = StreamBuffer(self.delta)
        self.reorder = ReorderBuffer(lateness, reorder_capacity)
        self.version = 0
        self.subscriptions: "OrderedDict[str, Subscription]" = OrderedDict()
        #: Interned incremental state, ref-counted by attach/detach: the
        #: slots, one engine per attach position holding them, and the
        #: event groups reading the slots.
        self._counters: Dict[Tuple, SharedCounter] = {}
        self._families: Dict[int, FamilyStreamEngine] = {}
        self._groups: Dict[Tuple, EventGroup] = {}
        #: seq -> ack for recently applied batches (bounded, FIFO evict).
        self._acks: "OrderedDict[int, Dict]" = OrderedDict()
        #: Applied seqs: every seq in [_run_lo, _run_hi), plus the sparse
        #: set of those applied outside that run.
        self._run_lo = self._run_hi = 0
        self._applied_seqs: set = set()
        self._auto_seq = itertools.count(1)
        #: Called with the ack of every committed batch, under the lock
        #: and before the crash-after-commit site, so what it charges
        #: counts each committed batch once even when its ack is lost
        #: (the counters live in the LiveManager, not here).
        self._on_commit = on_commit
        self.batches_applied = 0
        self.edges_ingested = 0

    # -- ingestion -------------------------------------------------------------

    @staticmethod
    def _validate(edges: Sequence) -> List[Edge]:
        clean: List[Edge] = []
        for i, edge in enumerate(edges):
            try:
                s, d, t = edge
                s, d, t = int(s), int(d), int(t)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"edge {i} is not an (src, dst, t) int triple: {edge!r}"
                ) from exc
            if s < 0 or d < 0:
                raise ValueError(f"edge {i}: node ids must be non-negative")
            clean.append((s, d, t))
        return clean

    def append_batch(
        self,
        edges: Iterable[Edge],
        seq: Optional[int] = None,
        flush: bool = False,
    ) -> Dict:
        """Apply one edge batch atomically; returns the ingest ack.

        The batch is validated before any state changes, so a malformed
        edge rejects the whole batch.  ``seq`` makes the call idempotent:
        re-sending an applied sequence number returns the original ack
        with ``duplicate: true``.  ``flush=True`` drains the reorder
        buffer after offering (end-of-feed).
        """
        batch = self._validate(list(edges))
        # Crash-before-commit site: nothing has mutated yet, so a retry
        # after an injected fault here applies the batch exactly once.
        fault_point("live.ingest", graph=self.name, batch=seq)
        with self.lock:
            if seq is not None:
                seq = int(seq)
                if self._is_applied(seq):
                    ack = self._acks.get(seq)
                    if ack is None:
                        ack = {"graph": self.name, "seq": seq,
                               "version": self.version}
                    ack = dict(ack)
                    ack["duplicate"] = True
                    fault_point(
                        "live.ingest.ack", graph=self.name, batch=seq
                    )
                    return ack
            else:
                seq = next(self._auto_seq)
                while self._is_applied(seq):
                    seq = next(self._auto_seq)
            ack = self._apply(batch, seq, flush)
            if self._on_commit is not None:
                self._on_commit(ack)
        # Crash-after-commit site: the batch is applied and remembered;
        # a retry hits the duplicate path above — no double-apply.
        fault_point("live.ingest.ack", graph=self.name, batch=seq)
        return ack

    def _is_applied(self, seq: int) -> bool:
        return self._run_lo <= seq < self._run_hi or seq in self._applied_seqs

    def _mark_applied(self, seq: int) -> None:
        if self._run_lo == self._run_hi:  # first batch: the run starts here
            self._run_lo, self._run_hi = seq, seq + 1
        else:
            self._applied_seqs.add(seq)
        while self._run_hi in self._applied_seqs:
            self._applied_seqs.remove(self._run_hi)
            self._run_hi += 1

    def _apply(self, batch: List[Edge], seq: int, flush: bool) -> Dict:
        accepted = 0
        for s, d, t in batch:
            if self.reorder.offer(s, d, t):
                accepted += 1
        released = self.reorder.flush() if flush else self.reorder.release_ready()

        counters = self._counters.values()  # stable: we hold the lock
        families = self._families.values()
        for counter in counters:
            counter.batch_completed = 0
        for s, d, t in released:
            _, t_adj = self.buffer.append(s, d, t)
            self.edges_ingested += 1
            for family in families:
                if family.step(s, d, t_adj):
                    tally: Dict[SharedCounter, int] = {}
                    for counter in family.completed:
                        tally[counter] = tally.get(counter, 0) + 1
                    for counter, completed in tally.items():
                        counter.window.record(t_adj, completed)
                        counter.batch_completed += completed

        events = 0
        if released:
            self.version += 1
            t_now = self.buffer.t_now
            window_edges = self.buffer.window_size
            for counter in counters:
                counter.window.expire(t_now)
            for group in self._groups.values():
                if group.evaluate(self.version, t_now, window_edges):
                    events += group.refs

        self.batches_applied += 1
        ack = {
            "graph": self.name,
            "seq": seq,
            "version": self.version,
            "duplicate": False,
            "accepted": accepted,
            "late_dropped": len(batch) - accepted,
            "released": len(released),
            "pending": self.reorder.pending,
            "num_edges": self.buffer.num_edges,
            "window_edges": self.buffer.window_size,
            "t_now": self.buffer.t_now,
            "events": events,
        }
        self._mark_applied(seq)
        self._acks[seq] = ack
        while len(self._acks) > ACK_CACHE_SIZE:
            self._acks.popitem(last=False)
        return dict(ack)

    # -- subscriptions ---------------------------------------------------------

    def attach(self, sub: Subscription) -> None:
        """Point ``sub`` at the event group for its query, opening the
        group (and its slot) if new.

        Subscriptions share a slot iff motif shape, δ and the number of
        edges released so far all agree — i.e. they will see exactly the
        same edges — so sharing never changes what any of them counts.
        They share a group iff they also agree on graph name, motif name,
        kind and threshold, i.e. on every event body.  A group's first
        event needs a released edge, which moves the attach position, so
        every member joins its group's log before that event.
        """
        with self.lock:
            if sub.sub_id in self.subscriptions:
                raise ValueError(
                    f"subscription {sub.sub_id!r} already attached"
                )
            position = self.buffer.num_edges
            key = (sub.motif.canonical_key(), sub.delta, position)
            counter = self._counters.get(key)
            if counter is None:
                family = self._families.get(position)
                if family is None:
                    family = self._families[position] = FamilyStreamEngine()
                counter = SharedCounter(key, sub.motif, sub.delta)
                # Raises if the engine had advanced; it cannot have, as
                # no edge was released since it opened at ``position``.
                family.add_slot(counter)
                self._counters[key] = counter
            counter.refs += 1
            group_key = (
                key, sub.graph_name, sub.motif.name, sub.kind, sub.threshold
            )
            group = self._groups.get(group_key)
            if group is None:
                group = EventGroup(group_key, counter, sub)
                self._groups[group_key] = group
            else:
                sub.outbox.join(group.log)
            group.refs += 1
            sub.group = group
            self.subscriptions[sub.sub_id] = sub

    def detach(self, sub_id: str) -> Subscription:
        with self.lock:
            sub = self.subscriptions.pop(sub_id, None)
            if sub is not None:
                group = sub.group
                group.refs -= 1
                if group.refs == 0:
                    del self._groups[group.key]
                counter = group.counter
                counter.refs -= 1
                if counter.refs == 0:
                    del self._counters[counter.key]
                    counter.engine.remove_slot(counter)
                    if not counter.engine.slots:
                        del self._families[counter.key[2]]
                # Under the lock, so no commit appends to the group's log
                # between leaving the group and closing the view.
                sub.close()
        if sub is None:
            raise KeyError(sub_id)
        return sub

    @property
    def shared_counters(self) -> int:
        """Distinct (motif, δ, attach position) slots the attached
        subscriptions are views over."""
        return len(self._counters)

    @property
    def event_groups(self) -> int:
        """Distinct standing queries: event bodies built per version."""
        return len(self._groups)

    # -- snapshots / introspection ---------------------------------------------

    def snapshot(self) -> TemporalGraph:
        """The full accumulated prefix as an immutable graph."""
        with self.lock:
            return self.buffer.snapshot()

    def window_snapshot(self) -> TemporalGraph:
        """Only the edges inside the current δ-window."""
        with self.lock:
            return self.buffer.window_snapshot()

    def status(self) -> Dict:
        with self.lock:
            return {
                "graph": self.name,
                "delta": self.delta,
                "version": self.version,
                "num_edges": self.buffer.num_edges,
                "num_nodes": self.buffer.num_nodes,
                "window_edges": self.buffer.window_size,
                "t_now": self.buffer.t_now,
                "batches_applied": self.batches_applied,
                "subscriptions": len(self.subscriptions),
                "counters": self.shared_counters,
                "groups": self.event_groups,
                "window_fingerprint": self.buffer.window_fingerprint(),
                "reorder": self.reorder.stats(),
            }

    def close(self) -> None:
        with self.lock:
            for sub in self.subscriptions.values():
                sub.close()
            self.subscriptions.clear()
            self._counters.clear()
            self._families.clear()
            self._groups.clear()

    def __repr__(self) -> str:
        return (
            f"LiveGraph({self.name!r}, delta={self.delta}, "
            f"version={self.version}, edges={self.buffer.num_edges})"
        )
