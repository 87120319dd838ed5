"""Offline oracle: replay a live feed through ``repro.streaming``.

The live path and this oracle run the same engine class,
:class:`~repro.streaming.counter.FamilyStreamEngine`, wired
differently:

- **live** routes edges through a :class:`ReorderBuffer` and one shared
  :class:`StreamBuffer` (which computes adjusted timestamps once per
  graph), and hands ``(src, dst, t_adj)`` to one shared multi-slot
  engine per attach position, whose
  :class:`~repro.live.subscriptions.SharedCounter` slots — one per
  distinct ``(motif, δ)`` — any number of subscriptions read;
- **offline** feeds each subscription a *private*
  :class:`~repro.streaming.counter.StreamingCounter` — a family of one
  slot, owning its *own* buffer and its own timestamp adjustment — and
  its own completion window and alert latch, over the time-sorted edge
  sequence.

What they share beyond the engine class are the event builders, the
:class:`~repro.live.subscriptions.WindowTracker` expiry rule and the
:func:`~repro.live.subscriptions.crossed` arming rule, so a
byte-for-byte match between live firings and oracle events proves the
live data path (reordering, shared-buffer adjustment, slot and trie
sharing across motifs and δ, one event log per group of identical
queries, per-batch evaluation, seq stamping at read) is equivalent to
an unshared offline replay.  It does not prove the engine itself
right, since both sides run it: the engine's reference is the
per-edge, per-slot parity with
:class:`~repro.mining.mackey.MackeyMiner` prefix counts in
``tests/test_streaming_parity.py``.

The oracle consumes the ingest **schedule** — ``(version,
released_count)`` per committed batch, read off the live acks — so it
evaluates subscriptions at exactly the batch boundaries the live side
did.  The edge order it assumes is the reorder buffer's release order: a
stable timestamp sort of the arrival sequence (release ties break by
arrival index, which is what a stable sort preserves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.live.subscriptions import (
    THRESHOLD,
    UPDATE,
    WindowTracker,
    build_alert_event,
    build_update_event,
    crossed,
)
from repro.motifs.motif import Motif
from repro.streaming.counter import StreamingCounter
from repro.streaming.window import StreamBuffer

Edge = Tuple[int, int, int]


@dataclass(frozen=True)
class SubSpec:
    """A subscription as the oracle sees it (no outbox, no engine)."""

    sub_id: str
    motif: Motif
    delta: int
    kind: str = UPDATE
    threshold: Optional[int] = None


def sorted_arrivals(edges: Iterable[Edge]) -> List[Edge]:
    """Arrival sequence in reorder-buffer release order.

    A *stable* sort on timestamp: the heap releases equal timestamps in
    arrival order, which is exactly what stable sorting preserves.
    """
    return sorted(((int(s), int(d), int(t)) for s, d, t in edges),
                  key=lambda e: e[2])


def schedule_from_acks(acks: Sequence[Dict]) -> List[Tuple[int, int]]:
    """``(version, released_count)`` per committed (non-empty) batch."""
    schedule: List[Tuple[int, int]] = []
    for ack in acks:
        if ack.get("duplicate") or ack.get("released", 0) == 0:
            continue
        schedule.append((int(ack["version"]), int(ack["released"])))
    return schedule


def offline_replay(
    edges: Sequence[Edge],
    specs: Sequence[SubSpec],
    schedule: Sequence[Tuple[int, int]],
    graph_name: str,
    graph_delta: int,
) -> Dict:
    """Replay ``edges`` offline at the live side's batch boundaries.

    ``edges`` must already be in release order (see
    :func:`sorted_arrivals`); ``schedule`` says how many of them each
    version consumed.  Returns the expected per-subscription event
    streams (seq-stamped exactly as the live outbox stamps them), final
    counts, and the final window snapshot's fingerprint.
    """
    counters: Dict[str, StreamingCounter] = {}
    trackers: Dict[str, WindowTracker] = {}
    armed: Dict[str, bool] = {}
    seqs: Dict[str, int] = {}
    events: Dict[str, List[Dict]] = {}
    for spec in specs:
        counters[spec.sub_id] = StreamingCounter(spec.motif, int(spec.delta))
        trackers[spec.sub_id] = WindowTracker(int(spec.delta))
        armed[spec.sub_id] = True
        seqs[spec.sub_id] = 0
        events[spec.sub_id] = []

    graph_buffer = StreamBuffer(int(graph_delta))
    pos = 0
    for version, released in schedule:
        batch = edges[pos:pos + released]
        pos += released
        if len(batch) != released:
            raise ValueError(
                f"schedule consumes {pos} edges but only "
                f"{len(edges)} were provided"
            )
        batch_completed = {spec.sub_id: 0 for spec in specs}
        for s, d, t in batch:
            graph_buffer.append(s, d, t)
            for spec in specs:
                counter = counters[spec.sub_id]
                completed = counter.add_edge(s, d, t)
                # The counter's own buffer runs the same uniquification
                # recurrence over the same sequence, so its t_now *is*
                # this edge's adjusted timestamp.
                trackers[spec.sub_id].record(
                    counter.buffer.t_now, completed
                )
                batch_completed[spec.sub_id] += completed

        t_now = graph_buffer.t_now
        window_edges = graph_buffer.window_size
        for spec in specs:
            tracker = trackers[spec.sub_id]
            tracker.expire(t_now)
            event: Optional[Dict] = None
            if spec.kind == UPDATE:
                event = build_update_event(
                    spec.sub_id,
                    graph_name,
                    spec.motif.name,
                    spec.delta,
                    version,
                    t_now,
                    counters[spec.sub_id].count,
                    batch_completed[spec.sub_id],
                    tracker.window_count,
                    window_edges,
                )
            elif spec.kind == THRESHOLD:
                fired, armed[spec.sub_id] = crossed(
                    tracker.window_count, spec.threshold, armed[spec.sub_id]
                )
                if fired:
                    event = build_alert_event(
                        spec.sub_id,
                        graph_name,
                        spec.motif.name,
                        spec.delta,
                        version,
                        t_now,
                        counters[spec.sub_id].count,
                        tracker.window_count,
                        spec.threshold,
                    )
            if event is not None:
                seqs[spec.sub_id] += 1
                event["seq"] = seqs[spec.sub_id]
                events[spec.sub_id].append(event)

    if pos != len(edges):
        raise ValueError(
            f"schedule consumed {pos} of {len(edges)} edges — the live "
            "side must have buffered or dropped the rest"
        )
    return {
        "graph": graph_name,
        "events": events,
        "counts": {
            spec.sub_id: counters[spec.sub_id].count for spec in specs
        },
        "num_edges": graph_buffer.num_edges,
        "t_now": graph_buffer.t_now,
        "window_edges": graph_buffer.window_size,
        "window_fingerprint": graph_buffer.window_fingerprint(),
    }
