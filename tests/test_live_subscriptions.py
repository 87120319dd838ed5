"""Standing subscriptions: window tracking, threshold arming, and the
bounded at-least-once outbox."""

import sys
import threading

import pytest

from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.live.ingest import LiveGraph
from repro.live.outbox import Outbox
from repro.live.subscriptions import (
    THRESHOLD,
    UPDATE,
    Subscription,
    WindowTracker,
    crossed,
)
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import motif_by_name
from repro.service.query import payload_bytes
from repro.streaming.counter import Slot


class TestWindowTracker:
    def test_counts_only_completions_inside_window(self):
        w = WindowTracker(delta=10)
        w.record(5, 2)
        w.record(12, 1)
        w.expire(14)  # horizon 4: both survive
        assert w.window_count == 3
        w.expire(20)  # horizon 10: t=5 falls out
        assert w.window_count == 1

    def test_zero_completions_not_recorded(self):
        w = WindowTracker(delta=10)
        w.record(5, 0)
        assert w.window_count == 0

    def test_crossed_is_edge_triggered(self):
        w = WindowTracker(delta=100)
        w.record(1, 3)
        fired, armed = crossed(w.window_count, 2, True)
        assert fired and not armed   # 3 > 2, armed -> fires
        w.record(2, 1)
        fired, armed = crossed(w.window_count, 2, armed)
        assert not fired and not armed  # still above, disarmed
        w.expire(200)                # window empties -> re-arms at <= k
        fired, armed = crossed(w.window_count, 2, armed)
        assert not fired and armed
        w.record(201, 5)
        fired, armed = crossed(w.window_count, 2, armed)
        assert fired                 # fires again after re-arm


class TestSubscription:
    def make(self, **kw):
        kw.setdefault("sub_id", "sub-1")
        kw.setdefault("graph_name", "g")
        kw.setdefault("motif", motif_by_name("M2"))
        kw.setdefault("delta", 50)
        return Subscription(**kw)

    def test_threshold_requires_threshold_value(self):
        with pytest.raises(ValueError):
            self.make(kind=THRESHOLD)
        with pytest.raises(ValueError):
            self.make(kind=UPDATE, threshold=3)
        with pytest.raises(ValueError):
            self.make(kind="bogus")

    def test_update_kind_fires_every_evaluation(self):
        live = LiveGraph("g", 50)
        sub = self.make()
        live.attach(sub)
        assert live.append_batch([(0, 1, 10)], seq=0)["events"] == 1
        assert live.append_batch([], seq=1)["events"] == 0  # nothing released
        assert live.append_batch([(1, 2, 11)], seq=2)["events"] == 1
        queued = sub.outbox.read_after(0)
        assert [e["type"] for e in queued] == ["update", "update"]
        assert [(e["seq"], e["version"]) for e in queued] == [(1, 1), (2, 2)]
        assert sub.status()["fires"] == 2

    def test_threshold_kind_fires_only_on_crossing(self):
        # ping-pong (a->b, b->a) completes once per returning edge.
        live = LiveGraph("g", 50)
        sub = self.make(motif=motif_by_name("ping-pong"), kind=THRESHOLD,
                        threshold=1)
        live.attach(sub)
        fired = []
        for t, (s, d) in enumerate([(0, 1), (1, 0), (0, 1), (1, 0)], start=1):
            fired.append(live.append_batch([(s, d, t)], seq=t)["events"])
        # Window count goes 0,1,2,4: crosses 1 exactly once and stays above.
        assert fired == [0, 0, 1, 0]
        (alert,) = sub.outbox.read_after(0)
        assert alert["type"] == "alert" and alert["threshold"] == 1
        assert alert["window_count"] > 1 and alert["version"] == 3
        assert sub.status()["armed"] is False

    def test_counts_match_live_graph_feed(self):
        g = make_dataset("email-eu", scale=0.03, seed=7)
        delta = max(1, g.time_span // 20)
        live = LiveGraph("g", delta)
        sub = self.make(delta=delta)
        live.attach(sub)
        edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
        live.append_batch(edges, seq=0, flush=True)
        serial = MackeyMiner(g, sub.motif, delta).mine()
        assert sub.count == serial.count

    def test_status_shape(self):
        sub = self.make(kind=THRESHOLD, threshold=4)
        st = sub.status()
        assert st["kind"] == "threshold" and st["threshold"] == 4
        assert "armed" in st and "outbox" in st and st["count"] == 0


class TestSharedCounters:
    """Subscriptions are views over counters interned per (motif shape,
    δ, attach position); these pin when they share and when they must not."""

    @staticmethod
    def feed():
        g = make_dataset("email-eu", scale=0.03, seed=7)
        edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
        return edges, max(1, g.time_span // 20)

    @staticmethod
    def sub(sub_id, delta, **kw):
        return Subscription(sub_id, "g", motif_by_name("M2"), delta, **kw)

    @staticmethod
    def push(live, edges, start, stop, size=10):
        for i in range(start, stop, size):
            live.append_batch(edges[i:min(i + size, stop)], seq=i)

    def test_mid_feed_subscriber_gets_its_own_counter(self):
        edges, delta = self.feed()
        cut = len(edges) // 2
        live = LiveGraph("g", delta)
        early = self.sub("early", delta)
        live.attach(early)
        self.push(live, edges, 0, cut)
        assert early.count > 0
        late = self.sub("late", delta)
        twin = self.sub("twin", delta)
        live.attach(late)
        live.attach(twin)
        # Same (motif, δ), different suffix of the stream: no sharing with
        # the version-0 subscriber, sharing with the one beside it.
        assert late.counter is not early.counter
        assert late.counter is twin.counter
        assert live.status()["counters"] == 2
        assert late.count == 0 and late.status()["live_partials"] == 0
        self.push(live, edges, cut, len(edges))
        # The late count is exactly the matches lying wholly after it
        # opened: a match begun before the cut is not half-counted.
        snap = live.snapshot()
        suffix = TemporalGraph(list(zip(
            snap.src[cut:].tolist(), snap.dst[cut:].tolist(),
            snap.ts[cut:].tolist())))
        tail = MackeyMiner(suffix, late.motif, delta).mine().count
        whole = MackeyMiner(snap, early.motif, delta).mine().count
        assert 0 < late.count == tail < early.count == whole
        first = late.outbox.read_after(0)[0]
        assert first["count"] == first["batch_completed"]  # started from 0

    def test_detach_leaves_the_survivor_untouched(self):
        edges, delta = self.feed()
        cut = len(edges) // 2

        def run(detach_at_cut):
            live = LiveGraph("g", delta)
            keep = self.sub("keep", delta, outbox_capacity=len(edges))
            gone = self.sub("gone", delta, outbox_capacity=len(edges))
            live.attach(keep)
            live.attach(gone)
            assert keep.counter is gone.counter and keep.counter.refs == 2
            self.push(live, edges, 0, cut)
            if detach_at_cut:
                assert live.detach("gone") is gone and gone.outbox.closed
                assert live.shared_counters == 1 and keep.counter.refs == 1
            self.push(live, edges, cut, len(edges))
            return live, keep, gone

        live, keep, gone = run(detach_at_cut=True)
        _, reference, reference_gone = run(detach_at_cut=False)
        assert [payload_bytes(e) for e in keep.outbox.read_after(0)] == [
            payload_bytes(e) for e in reference.outbox.read_after(0)]
        # The detached view is closed: it fired nothing after the cut.
        assert gone.fires < reference_gone.fires
        # The last detach frees the counter; close frees whatever is left.
        live.detach("keep")
        assert live.shared_counters == 0 and live.status()["counters"] == 0
        live.attach(self.sub("again", delta))
        live.attach(self.sub("other", max(1, delta // 2)))
        assert live.shared_counters == 2
        live.close()
        assert live.shared_counters == 0 and not live.subscriptions


    def test_attach_after_edges_opens_a_new_engine(self):
        """Slots at one attach position share one engine; a later
        position gets its own, and an engine that has advanced refuses
        new slots."""
        edges, delta = self.feed()
        live = LiveGraph("g", delta)
        early = self.sub("early", delta)
        other = Subscription("other", "g", motif_by_name("M4"), delta // 2)
        live.attach(early)
        live.attach(other)
        assert other.counter is not early.counter
        assert other.counter.engine is early.counter.engine
        self.push(live, edges, 0, 20)
        late = self.sub("late", delta)
        live.attach(late)
        engine = early.counter.engine
        assert late.counter.engine is not engine
        assert late.counter.engine.num_edges == 0 and engine.num_edges == 20
        assert live.status()["counters"] == 3
        with pytest.raises(ValueError, match="before its first edge"):
            engine.add_slot(Slot(motif_by_name("M1"), delta))
        assert engine.slots == [early.counter, other.counter]

    def test_detached_widest_and_unique_slots_stop_costing(self):
        """Detaching the widest-δ and a unique-motif subscription mid-feed
        drops the shared engine, by the next edge, to exactly the
        partials an engine of the survivors alone holds, and leaves the
        survivors' events byte-identical to a run without the two."""
        edges, delta = self.feed()
        cut = len(edges) // 2
        half = max(1, delta // 2)
        kept = [("m1", "M1", half), ("m2", "M2", half),
                ("m2-quarter", "M2", max(1, delta // 4))]
        extra = [("wide", "M1", delta), ("unique", "M4", half)]

        def run(plan, detach):
            live = LiveGraph("g", delta)
            subs = {
                sub_id: Subscription(sub_id, "g", motif_by_name(name), d,
                                     outbox_capacity=len(edges))
                for sub_id, name, d in plan
            }
            for sub in subs.values():
                live.attach(sub)
            self.push(live, edges, 0, cut)
            before = subs["m1"].status()["live_partials"]
            for sub_id in detach:
                live.detach(sub_id)
            live.append_batch(edges[cut:cut + 1], seq=cut)
            after = subs["m1"].status()["live_partials"]
            self.push(live, edges, cut + 1, len(edges))
            return subs, before, after

        shared, before, after = run(kept + extra, ["wide", "unique"])
        alone, _, alone_after = run(kept, [])
        assert after == alone_after < before
        for sub_id, _, _ in kept:
            assert [payload_bytes(e) for e in shared[sub_id].outbox.read_after(0)] \
                == [payload_bytes(e) for e in alone[sub_id].outbox.read_after(0)]

    def test_attach_detach_racing_ingest_keeps_refs_exact(self):
        """More threads than cores churn subscriptions while a feeder
        appends: every counter's refs must equal the views pointing at
        it, and a sharer that stayed attached throughout must match a
        quiet run byte for byte."""
        edges, delta = self.feed()
        edges = edges[:200]

        def quiet_run():
            live = LiveGraph("g", delta)
            sub = self.sub("steady", delta, outbox_capacity=len(edges))
            live.attach(sub)
            self.push(live, edges, 0, len(edges), size=5)
            return [payload_bytes(e) for e in sub.outbox.read_after(0)]

        live = LiveGraph("g", delta)
        steady = self.sub("steady", delta, outbox_capacity=len(edges))
        live.attach(steady)
        stop = threading.Event()
        errors = []

        def churn(worker):
            try:
                i = 0
                while not stop.is_set():
                    sub_id = f"churn-{worker}-{i}"
                    live.attach(self.sub(sub_id, delta if i % 2 else delta // 2))
                    live.detach(sub_id)
                    i += 1
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
        try:
            for w in workers:
                w.start()
            self.push(live, edges, 0, len(edges), size=5)
        finally:
            stop.set()
            for w in workers:
                w.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not errors and not any(w.is_alive() for w in workers)
        assert list(live.subscriptions) == ["steady"]
        assert live.shared_counters == 1 and steady.counter.refs == 1
        assert [payload_bytes(e) for e in steady.outbox.read_after(0)] == \
            quiet_run()


class TestOutbox:
    def test_append_stamps_monotonic_seq_without_mutating_input(self):
        box = Outbox("sub-1", capacity=4)
        ev = {"type": "update"}
        assert box.append(ev) == 1
        assert box.append({"type": "update"}) == 2
        assert "seq" not in ev  # caller's dict untouched
        assert [e["seq"] for e in box.read_after(0)] == [1, 2]

    def test_reads_do_not_consume(self):
        box = Outbox("sub-1", capacity=4)
        box.append({"type": "update"})
        assert len(box.read_after(0)) == 1
        assert len(box.read_after(0)) == 1  # at-least-once: still there

    def test_drop_oldest_and_gap_synthesis(self):
        drops, gaps = [], []
        box = Outbox("sub-1", capacity=3, on_drop=lambda n: drops.append(n),
                     on_gap=lambda n: gaps.append(n))
        for i in range(5):
            box.append({"type": "update", "i": i})
        assert box.retained == 3 and sum(drops) == 2
        events = box.read_after(0)
        gap, rest = events[0], events[1:]
        assert gap["type"] == "gap"
        assert gap["from_seq"] == 1 and gap["to_seq"] == 2
        assert gap["dropped"] == 2
        assert [e["seq"] for e in rest] == [3, 4, 5]
        assert gaps == [1]
        # A reader already past the drop horizon sees no gap.
        assert [e["seq"] for e in box.read_after(3)] == [4, 5]

    def test_max_events_limits_page(self):
        box = Outbox("sub-1", capacity=8)
        for i in range(6):
            box.append({"i": i})
        page = box.read_after(0, max_events=2)
        assert [e["seq"] for e in page] == [1, 2]
        rest = box.read_after(page[-1]["seq"])
        assert [e["seq"] for e in rest] == [3, 4, 5, 6]

    def test_wait_events_wakes_on_append(self):
        box = Outbox("sub-1", capacity=4)
        got = []

        def reader():
            got.extend(box.wait_events(after=0, timeout_s=5.0))

        t = threading.Thread(target=reader)
        t.start()
        box.append({"type": "update"})
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert [e["seq"] for e in got] == [1]

    def test_wait_events_times_out_empty(self):
        box = Outbox("sub-1", capacity=4)
        assert box.wait_events(after=0, timeout_s=0.05) == []

    def test_close_wakes_waiters_and_blocks_appends(self):
        box = Outbox("sub-1", capacity=4)
        results = []

        def reader():
            results.append(box.wait_events(after=0, timeout_s=10.0))

        t = threading.Thread(target=reader)
        t.start()
        box.close()
        t.join(timeout=5.0)
        assert not t.is_alive() and results == [[]]
        with pytest.raises(RuntimeError):
            box.append({"type": "update"})

    def test_delivery_counter_and_lag_hook(self):
        lags = []
        box = Outbox("sub-1", capacity=4,
                     on_deliver=lambda n, lag: lags.append(lag))
        box.append({"type": "update"})
        box.read_after(0)
        box.read_after(0)
        stats = box.stats()
        assert stats["delivered"] == 2
        assert len(lags) == 2 and all(lag >= 0 for lag in lags)
