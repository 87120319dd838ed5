"""Standing motif queries over a live graph, evaluated per ingest batch.

A :class:`Subscription` is the streaming dual of a ``/query`` request:
instead of asking once, a client registers interest and the service
pushes.  Two kinds:

- ``"update"`` — fire on every ingest batch that released at least one
  edge, carrying the subscription's cumulative count, its count inside
  the trailing δ-window, and stream occupancy;
- ``"threshold"`` — the alerting form: fire when the number of matches
  completed inside the trailing δ-window rises **above** ``threshold``,
  then re-arm once it falls back to or below it (edge-triggered, so a
  sustained burst produces one alert, not one per batch).

Subscriptions are **views**.  The incremental state lives in a
:class:`SharedCounter` — one slot of a
:class:`~repro.streaming.counter.FamilyStreamEngine` (the same
continuation tables, under the same eviction bound, as the offline
streaming counters) plus a :class:`WindowTracker` deque of recent
completion times.  What the subscribers of one distinct query share
beyond the count — the alert latch and the events — lives in an
:class:`EventGroup`.  The owning ``LiveGraph`` keeps one engine per
attach position, one slot per (motif, δ) in it and one group per
(slot, motif name, kind, threshold), so a hundred subscriptions over
fourteen (motif, δ) pairs advance one engine per released edge, and a
thousand over thirty-five distinct queries build thirty-five event
bodies per version, each stored once in its group's log.  A
:class:`Subscription` keeps only what is the subscriber's own: id, the
query as the subscriber spelled it, and its
:class:`~repro.live.outbox.Outbox` — a view of the group's log with its
own capacity and read accounting.

Event payloads are built by the module-level builders below and alerts
armed by :func:`crossed`, all of which the offline oracle
(:mod:`repro.live.oracle`) shares — so "live firings byte-match offline
replay" compares the *state machines and the delivery plumbing*, not
two copies of a formatting function.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.graph.window import window_horizon
from repro.live.outbox import Outbox
from repro.motifs.motif import Motif
from repro.streaming.counter import Slot

#: Subscription kinds.
UPDATE = "update"
THRESHOLD = "threshold"
KINDS = (UPDATE, THRESHOLD)


def build_update_event(
    sub_id: str,
    graph: str,
    motif_name: str,
    delta: int,
    version: int,
    t_now: int,
    count: int,
    batch_completed: int,
    window_count: int,
    window_edges: int,
) -> Dict:
    """The canonical ``update`` event body (pre-seq)."""
    return {
        "type": UPDATE,
        "subscription": sub_id,
        "graph": graph,
        "motif": motif_name,
        "delta": int(delta),
        "version": int(version),
        "t_now": int(t_now),
        "count": int(count),
        "batch_completed": int(batch_completed),
        "window_count": int(window_count),
        "window_edges": int(window_edges),
    }


def build_alert_event(
    sub_id: str,
    graph: str,
    motif_name: str,
    delta: int,
    version: int,
    t_now: int,
    count: int,
    window_count: int,
    threshold: int,
) -> Dict:
    """The canonical ``alert`` event body (pre-seq)."""
    return {
        "type": "alert",
        "subscription": sub_id,
        "graph": graph,
        "motif": motif_name,
        "delta": int(delta),
        "version": int(version),
        "t_now": int(t_now),
        "count": int(count),
        "window_count": int(window_count),
        "threshold": int(threshold),
    }


class WindowTracker:
    """Matches completed in the trailing δ-window.

    One per :class:`SharedCounter` on the live side and one per spec in
    the offline oracle, so both sides expire completions by the same
    rule; what parity then proves is that the live engines saw exactly
    the edges the offline replay did, in the same order, at the same
    batch boundaries.
    """

    __slots__ = ("delta", "_recent", "window_count")

    def __init__(self, delta: int) -> None:
        self.delta = int(delta)
        #: (completion_time, completions) per completing edge, oldest first.
        self._recent: Deque[Tuple[int, int]] = deque()
        self.window_count = 0

    def record(self, t_completed: int, completions: int) -> None:
        if completions > 0:
            self._recent.append((int(t_completed), int(completions)))
            self.window_count += int(completions)

    def expire(self, t_now: int) -> None:
        horizon = window_horizon(t_now, self.delta)
        recent = self._recent
        while recent and recent[0][0] < horizon:
            self.window_count -= recent.popleft()[1]


def crossed(window_count: int, threshold: int, armed: bool) -> Tuple[bool, bool]:
    """The edge-triggered alert rule: ``(fired, armed afterwards)``.

    Fires when the window count is above the threshold and the latch is
    armed, disarms while it stays above, re-arms once it is back at or
    below.  The live subscriptions and the offline oracle both call
    this, each keeping its own latch.
    """
    if window_count > threshold:
        return armed, False
    return False, True


class SharedCounter(Slot):
    """The incremental state of one distinct standing query.

    A slot of the engine the owning
    :class:`~repro.live.ingest.LiveGraph` keeps for the subscription's
    attach position, interned under ``(motif.canonical_key(), δ, edges
    released at attach)``, plus one :class:`WindowTracker`; it counts
    once per released edge however many subscriptions point at it
    (``refs``).
    """

    __slots__ = ("key", "window", "batch_completed", "refs")

    def __init__(self, key: Tuple, motif: Motif, delta: int) -> None:
        super().__init__(motif, delta)
        self.key = key
        self.window = WindowTracker(delta)
        #: Completions since the current ingest batch began.
        self.batch_completed = 0
        self.refs = 0


class EventGroup:
    """What the subscribers of one distinct standing query share.

    Interned by the owning :class:`~repro.live.ingest.LiveGraph` under
    ``(slot key, graph name, motif name, kind, threshold)`` and
    ref-counted by attach/detach like the slots.  It is evaluated once
    per committed version: one alert latch, and one event body (without
    ``subscription`` or ``seq``, which a read stamps) appended to one
    bounded :class:`~repro.live.outbox.EventLog` that every member's
    outbox views.  The log is the opener's, so drops are charged through
    the opener's ``on_drop``; a :class:`~repro.live.manager.LiveManager`
    gives every subscription the same one.
    """

    __slots__ = (
        "key", "counter", "graph_name", "motif_name", "delta", "kind",
        "threshold", "armed", "log", "refs",
    )

    def __init__(
        self, key: Tuple, counter: SharedCounter, opener: "Subscription"
    ) -> None:
        self.key = key
        self.counter = counter
        self.graph_name = opener.graph_name
        self.motif_name = opener.motif.name
        self.delta = opener.delta
        self.kind = opener.kind
        self.threshold = opener.threshold
        self.armed = True
        self.log = opener.outbox.log
        self.refs = 0

    def evaluate(self, version: int, t_now: int, window_edges: int) -> bool:
        """End-of-batch evaluation; True when an event was appended.

        The counter has already been advanced and its window expired for
        this batch.
        """
        counter = self.counter
        window_count = counter.window.window_count
        if self.kind == UPDATE:
            body = build_update_event(
                None,
                self.graph_name,
                self.motif_name,
                self.delta,
                version,
                t_now,
                counter.count,
                counter.batch_completed,
                window_count,
                window_edges,
            )
        else:
            fired, self.armed = crossed(
                window_count, self.threshold, self.armed
            )
            if not fired:
                return False
            body = build_alert_event(
                None,
                self.graph_name,
                self.motif_name,
                self.delta,
                version,
                t_now,
                counter.count,
                window_count,
                self.threshold,
            )
        del body["subscription"]
        self.log.append(body)
        return True


class Subscription:
    """One standing motif query: what the subscriber asked for, and its
    outbox — a view, with its own capacity and read accounting, over
    the log of the :class:`EventGroup` it is attached to."""

    def __init__(
        self,
        sub_id: str,
        graph_name: str,
        motif: Motif,
        delta: int,
        kind: str = UPDATE,
        threshold: Optional[int] = None,
        outbox_capacity: int = 256,
        on_drop: Optional[Callable[[int], None]] = None,
        on_deliver: Optional[Callable[[int, float], None]] = None,
        on_gap: Optional[Callable[[int], None]] = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown subscription kind {kind!r}")
        if kind == THRESHOLD:
            if threshold is None or int(threshold) < 0:
                raise ValueError(
                    "threshold subscriptions need a non-negative threshold"
                )
            threshold = int(threshold)
        elif threshold is not None:
            raise ValueError("only threshold subscriptions take a threshold")
        self.sub_id = sub_id
        self.graph_name = graph_name
        self.motif = motif
        self.delta = int(delta)
        self.kind = kind
        self.threshold = threshold
        #: Set by :meth:`LiveGraph.attach` and kept after detach, when it
        #: moves only for as long as another subscription still reads it.
        self.group: Optional[EventGroup] = None
        self.outbox = Outbox(
            sub_id,
            capacity=outbox_capacity,
            on_drop=on_drop,
            on_deliver=on_deliver,
            on_gap=on_gap,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def counter(self) -> Optional[SharedCounter]:
        return self.group.counter if self.group else None

    @property
    def armed(self) -> bool:
        return self.group.armed if self.group else True

    @property
    def fires(self) -> int:
        """Events emitted to this subscription: its outbox's last seq."""
        return self.outbox.last_seq

    @property
    def count(self) -> int:
        """Cumulative matches completed since the subscription opened."""
        return self.group.counter.count if self.group else 0

    def status(self) -> Dict:
        counter = self.counter
        st = {
            "subscription": self.sub_id,
            "graph": self.graph_name,
            "motif": self.motif.name,
            "delta": self.delta,
            "kind": self.kind,
            "count": self.count,
            "window_count": counter.window.window_count if counter else 0,
            # The engine's: shared by every slot at this attach position.
            "live_partials": counter.engine.live_partials if counter else 0,
            "fires": self.fires,
            "outbox": self.outbox.stats(),
        }
        if self.kind == THRESHOLD:
            st["threshold"] = self.threshold
            st["armed"] = self.armed
        return st

    def close(self) -> None:
        self.outbox.close()

    def __repr__(self) -> str:
        return (
            f"Subscription({self.sub_id!r}, {self.motif.name!r}, "
            f"delta={self.delta}, kind={self.kind!r}, count={self.count})"
        )
