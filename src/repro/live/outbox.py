"""Event outboxes: bounded, at-least-once, gap-aware views over a shared log.

Push delivery must never let one slow consumer wedge ingestion or
starve its peers, and it must not cost the ingest thread one copy per
subscriber.  So the events of one distinct standing query are stored
once, in an :class:`EventLog`, and every subscriber reads it through an
:class:`Outbox` — its own cursor-free view with its own capacity and
read accounting —

- **appends never block**: the log is a bounded ring holding as many
  events as its largest view's capacity; a view whose reader falls more
  than ``capacity`` events behind loses the oldest ones (counted as that
  view's drops) rather than stalling the ingest thread;
- **delivery is at-least-once**: reads do not consume.  An event's
  ``seq`` is its position in the log (1, 2, ...), and every view joins
  its log before the first append, so it is also the event's position
  in the view's own stream.  A client reads "everything after seq N"
  and advances its own cursor, so a crashed or reconnecting client
  simply re-asks with its last seen seq and gets redelivered anything
  it missed;
- **losses are explicit**: when a client's cursor points below the
  oldest event its view retains, the read is fronted by a synthetic
  ``gap`` event naming the dropped seq range — the client knows exactly
  what it lost and can resync (e.g. re-query the live window) instead of
  silently missing alerts.

The log stores event bodies without ``subscription`` or ``seq``; a read
stamps both onto the copy it returns.  An append notifies the log's
condition only when a reader is waiting on it.  A standalone
``Outbox(owner, capacity)`` is a log with a single view.  A closed view
keeps the events it retained when it closed, so it reads and reports
what a private outbox would, however the log moves on.

Delivery lag (read time minus enqueue time) is recorded per delivered
event into a shared reservoir, surfacing the ``delivery_lag_p99``
metric at ``/metrics``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right, insort
from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional, Tuple


class EventLog:
    """The bounded ring of event bodies one or more outboxes read.

    It retains as many events as the largest capacity among its open
    views, and charges ``on_drop`` once per append with the number of
    views that append pushes over their capacity.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        on_drop: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.clock = clock
        self.on_drop = on_drop
        self.cond = threading.Condition()
        #: Retained ``(enqueue_t, body)``, oldest first; the newest has
        #: seq ``last_seq``.
        self.events: Deque[Tuple[float, Dict]] = deque()
        self.last_seq = 0
        #: Capacities of the open views, ascending.
        self.caps: List[int] = []
        #: Readers blocked in :meth:`Outbox.wait_events`.
        self.waiting = 0

    @property
    def first_seq(self) -> int:
        """Seq of the oldest retained event (``last_seq + 1`` if none)."""
        return self.last_seq - len(self.events) + 1

    def append(self, body: Dict) -> int:
        """Store one event body (never blocks); returns its seq."""
        with self.cond:
            caps, events = self.caps, self.events
            # A view of capacity c drops on this append iff it already
            # holds c events, i.e. c <= the events appended so far.
            dropped = bisect_right(caps, self.last_seq)
            keep = caps[-1] if caps else 1
            while len(events) >= keep:
                events.popleft()
            self.last_seq += 1
            events.append((self.clock(), body))
            if self.waiting:
                self.cond.notify_all()
            if dropped and self.on_drop is not None:
                self.on_drop(dropped)
            return self.last_seq


def _check_max_events(max_events: Optional[int]) -> None:
    """A page of fewer than one event can hold nothing: refuse it rather
    than wait out the timeout for an empty answer."""
    if max_events is not None and max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events}")


class Outbox:
    """One subscriber's bounded, drop-oldest view of an :class:`EventLog`."""

    def __init__(
        self,
        owner: str,
        capacity: int = 256,
        clock: Callable[[], float] = time.monotonic,
        on_drop: Optional[Callable[[int], None]] = None,
        on_deliver: Optional[Callable[[int, float], None]] = None,
        on_gap: Optional[Callable[[int], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("outbox capacity must be positive")
        self.owner = owner
        self.capacity = int(capacity)
        self._on_deliver = on_deliver
        self._on_gap = on_gap
        #: The log this view reads: its own until :meth:`join`.
        self.log = EventLog(clock, on_drop)
        self.log.caps.append(self.capacity)
        self._closed = False
        #: The log's last seq when this view closed, and the events this
        #: view still retained then.
        self._closed_at = 0
        self._frozen: Deque[Tuple[float, Dict]] = deque()
        self.delivered_total = 0
        self.gap_events_total = 0

    def join(self, log: EventLog) -> None:
        """Read ``log`` instead of this view's own log.

        Both must be empty: a view's seqs are positions in its log, so
        it has to see that log from its first event.
        """
        with log.cond:
            if self.log.last_seq or log.last_seq:
                raise ValueError(
                    f"outbox {self.owner!r} can only join an empty log"
                )
            insort(log.caps, self.capacity)
        self.log = log

    # -- producer side ---------------------------------------------------------

    def append(self, event: Dict) -> int:
        """Enqueue a copy of ``event`` (never blocks); returns its seq.

        When the view is full the oldest retained event is dropped — the
        next read below that point will surface a ``gap`` event instead.
        """
        with self.log.cond:
            if self._closed:
                raise RuntimeError(f"outbox {self.owner!r} is closed")
            return self.log.append(dict(event))

    # -- consumer side ---------------------------------------------------------

    def _last(self) -> int:
        return self._closed_at if self._closed else self.log.last_seq

    def _read_locked(self, after: int, max_events: Optional[int]) -> List[Dict]:
        if self._closed:
            events = self._frozen
            last = self._closed_at
            base = first_retained = last - len(events) + 1
        else:
            events = self.log.events
            last = self.log.last_seq
            base = last - len(events) + 1
            first_retained = max(base, last - self.capacity + 1)
        # A cursor at or past the last seq has nothing to read or lose.
        if after >= last:
            return []
        out: List[Dict] = []
        if after + 1 < first_retained:
            # The cursor points below the ring: everything in
            # (after, first_retained) is gone.  Say so explicitly.
            gap = {
                "type": "gap",
                "subscription": self.owner,
                "from_seq": after + 1,
                "to_seq": first_retained - 1,
                "dropped": first_retained - 1 - after,
                "seq": first_retained - 1,
            }
            out.append(gap)
            self.gap_events_total += 1
            if self._on_gap is not None:
                self._on_gap(1)
            after = first_retained - 1
        count = last - after
        if max_events is not None:
            count = min(count, max_events - len(out))
        if count <= 0:
            return out
        # Seqs are contiguous, so the cursor's successor sits at a known
        # index; the slice walks to it from the nearer end of the ring.
        owner, on_deliver = self.owner, self._on_deliver
        now = self.log.clock()
        seq = after
        for enq_t, body in _slice(events, after + 1 - base, count):
            seq += 1
            event = body.copy()
            event["subscription"] = owner
            event["seq"] = seq
            out.append(event)
            if on_deliver is not None:
                on_deliver(1, now - enq_t)
        self.delivered_total += count
        return out

    def read_after(
        self, after: int, max_events: Optional[int] = None
    ) -> List[Dict]:
        """Non-blocking: events with seq > ``after`` (gap event first if
        the cursor fell off the ring).  Reads never consume."""
        _check_max_events(max_events)
        with self.log.cond:
            return self._read_locked(int(after), max_events)

    def wait_events(
        self,
        after: int,
        timeout_s: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> List[Dict]:
        """Blocking read: wait until something past ``after`` exists (or
        the outbox closes, or ``timeout_s`` elapses — then [])."""
        _check_max_events(max_events)
        log = self.log
        deadline = log.clock() + timeout_s if timeout_s is not None else None
        with log.cond:
            while True:
                events = self._read_locked(int(after), max_events)
                if events or self._closed:
                    return events
                remaining = None
                if deadline is not None:
                    remaining = deadline - log.clock()
                    if remaining <= 0:
                        return []
                log.waiting += 1
                try:
                    log.cond.wait(remaining)
                finally:
                    log.waiting -= 1

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def last_seq(self) -> int:
        """Highest seq this view holds (0 before the first event)."""
        with self.log.cond:
            return self._last()

    @property
    def retained(self) -> int:
        with self.log.cond:
            return min(self._last(), self.capacity)

    @property
    def closed(self) -> bool:
        with self.log.cond:
            return self._closed

    def stats(self) -> Dict[str, int]:
        with self.log.cond:
            last = self._last()
            return {
                "appended": last,
                "retained": min(last, self.capacity),
                "dropped": max(0, last - self.capacity),
                "delivered": self.delivered_total,
                "gap_events": self.gap_events_total,
                "last_seq": last,
                "capacity": self.capacity,
            }

    def close(self) -> None:
        """Leave the log and wake every blocked reader; further appends
        raise.  The view keeps what it retained when it closed: later
        appends are not its events, and once its capacity leaves the log
        the log may trim below them."""
        with self.log.cond:
            if self._closed:
                return
            log = self.log
            self._closed = True
            self._closed_at = log.last_seq
            kept = min(log.last_seq, self.capacity)
            self._frozen = deque(
                _slice(log.events, len(log.events) - kept, kept)
            )
            log.caps.remove(self.capacity)
            log.cond.notify_all()


def _slice(events: Deque, start: int, count: int) -> List:
    """``events[start:start + count]``, walked from the nearer end.

    A deque has no O(1) slicing; walking from the right end makes a read
    near the newest event cost only the events it returns.
    """
    tail = len(events) - start - count
    if start <= tail:
        return list(islice(events, start, start + count))
    chunk = list(islice(reversed(events), tail, tail + count))
    chunk.reverse()
    return chunk
