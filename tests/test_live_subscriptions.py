"""Standing subscriptions: window tracking, threshold arming, and the
bounded at-least-once outbox."""

import sys
import threading

import pytest

from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.live import subscriptions
from repro.live.driver import plan_subscriptions
from repro.live.ingest import LiveGraph
from repro.live.outbox import Outbox
from repro.live.subscriptions import (
    THRESHOLD,
    UPDATE,
    EventGroup,
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
        drops = []
        steady = self.sub("steady", delta, outbox_capacity=len(edges),
                          on_drop=drops.append)
        live.attach(steady)
        stop = threading.Event()
        errors = []
        churned = []

        def churn(worker):
            try:
                i = 0
                while not stop.is_set():
                    sub_id = f"churn-{worker}-{i}"
                    # Capacity 1: a churner that sees two events drops one.
                    sub = self.sub(sub_id, delta if i % 2 else delta // 2,
                                   outbox_capacity=1, on_drop=drops.append)
                    live.attach(sub)
                    live.detach(sub_id)
                    churned.append(sub)
                    i += 1
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
        try:
            for w in workers:
                w.start()
            acks = [live.append_batch(edges[i:i + 5], seq=i)
                    for i in range(0, len(edges), 5)]
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
        # A detached view gets no event committed after it left, and its
        # drops are charged exactly while it is attached: the acks count
        # every event any view holds, and the drop callbacks every drop
        # the views report.
        views = [steady] + churned
        assert sum(ack["events"] for ack in acks) == \
            sum(sub.fires for sub in views)
        assert sum(drops) == \
            sum(sub.outbox.stats()["dropped"] for sub in views)


class TestEventGroups:
    def test_one_evaluation_and_at_most_one_body_per_group_per_commit(
        self, monkeypatch
    ):
        """On live_subs' feed (wiki-talk x0.04, δ = span/40, ten edges a
        batch), 100 and 1,000 subscriptions are the same 35 distinct
        queries: each commit evaluates each once and builds one body per
        group that fires, never one per subscriber."""
        g = make_dataset("wiki-talk", scale=0.04, seed=1127)
        edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
        delta = max(1, g.time_span // 40)
        built, evaluated = [], []
        for name in ("build_update_event", "build_alert_event"):
            real = getattr(subscriptions, name)
            monkeypatch.setattr(
                subscriptions, name,
                lambda *args, _real=real: built.append(args[0]) or _real(*args))
        evaluate = EventGroup.evaluate
        monkeypatch.setattr(
            EventGroup, "evaluate",
            lambda group, *args: evaluated.append(group) or evaluate(group, *args))

        def run(num_subs):
            live = LiveGraph("feed", delta)
            for i, body in enumerate(plan_subscriptions(num_subs, delta)):
                live.attach(Subscription(
                    f"sub-{i}", "feed", motif_by_name(body["motif"]),
                    body["delta"], kind=body["kind"],
                    threshold=body.get("threshold"),
                    outbox_capacity=len(edges)))
            assert live.event_groups == 35 and live.shared_counters == 14
            groups = {sub.group for sub in live.subscriptions.values()}
            per_commit = []
            for i in range(0, len(edges), 10):
                built.clear()
                evaluated.clear()
                before = {group: group.log.last_seq for group in groups}
                ack = live.append_batch(edges[i:i + 10], seq=i)
                fired = [group for group in groups
                         if group.log.last_seq > before[group]]
                assert ack["released"] and len(evaluated) == 35
                assert set(evaluated) == groups
                assert len(built) == len(fired) and set(built) == {None}
                assert ack["events"] == sum(group.refs for group in fired)
                per_commit.append(len(built))
            return per_commit

        hundred, thousand = run(100), run(1000)
        assert hundred == thousand
        assert min(hundred) >= 14 and max(hundred) <= 35

    def test_a_group_is_ref_counted_like_its_slot(self):
        live = LiveGraph("g", 50)
        a, b = (Subscription(s, "g", motif_by_name("M1"), 50) for s in "ab")
        c = Subscription("c", "g", motif_by_name("M1"), 50, kind=THRESHOLD,
                         threshold=1)
        for sub in (a, b, c):
            live.attach(sub)
        assert (live.shared_counters, live.event_groups) == (1, 2)
        assert a.group is b.group is not c.group and a.group.refs == 2
        assert a.outbox.log is b.outbox.log
        live.detach("a")
        assert live.event_groups == 2 and b.group.refs == 1
        live.detach("b")
        assert (live.shared_counters, live.event_groups) == (1, 1)
        live.detach("c")
        assert (live.shared_counters, live.event_groups) == (0, 0)
        assert live.status()["groups"] == 0

    def test_a_commit_racing_detach_is_not_the_detached_views(self):
        """A commit that lands while ``detach`` closes a member's view
        goes to the members that stay, not to the one leaving, so the
        acks' ``events`` still equal the members' ``fires``."""
        edges, delta = TestSharedCounters.feed()
        live = LiveGraph("g", delta)
        drops = []
        leaving, staying = (
            Subscription(s, "g", motif_by_name("M2"), delta,
                         outbox_capacity=1, on_drop=drops.append)
            for s in ("leaving", "staying"))
        live.attach(leaving)
        live.attach(staying)
        acks = [live.append_batch(edges[:5], seq=0)]
        feeder = threading.Thread(
            target=lambda: acks.append(live.append_batch(edges[5:10], seq=5)))
        close = leaving.close

        def close_while_a_commit_lands():
            feeder.start()
            feeder.join(timeout=0.2)
            close()

        leaving.close = close_while_a_commit_lands
        live.detach("leaving")
        feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert (leaving.fires, staying.fires) == (1, 2)
        assert [ack["events"] for ack in acks] == [2, 1]
        assert leaving.outbox.stats()["dropped"] == 0 and drops == [1]

    def test_a_view_joins_only_an_empty_log(self):
        box = Outbox("a", capacity=4)
        box.append({"type": "update"})
        with pytest.raises(ValueError, match="empty log"):
            Outbox("b", capacity=4).join(box.log)


class TestOutbox:
    def test_reads_start_at_the_cursor(self):
        """Four cursors — below the ring, inside it, at the last seq and
        past it — on a view alone in its log and on a wider view beside
        it: the same events, gap event and delivered and lag accounting
        as a scan of every retained event gave."""
        now = [0.0]
        drops = []
        seen = {"a": [], "b": []}
        gaps = {"a": [], "b": []}

        def view(owner, capacity):
            return Outbox(owner, capacity=capacity, clock=lambda: now[0],
                          on_drop=drops.append,
                          on_deliver=lambda n, lag: seen[owner].append(lag),
                          on_gap=gaps[owner].append)

        narrow, wide = view("a", 4), view("b", 6)
        wide.join(narrow.log)
        for i in range(10):  # seq i + 1 enqueued at t = i + 1
            now[0] = float(i + 1)
            narrow.append({"type": "update", "i": i})
        now[0] = 20.0
        # Drops per append: the views already full (a from seq 5, b from 7).
        assert drops == [1, 1, 2, 2, 2, 2]

        def expect(owner, after, first):
            out = []
            if after + 1 < first:
                out.append({"type": "gap", "subscription": owner,
                            "from_seq": after + 1, "to_seq": first - 1,
                            "dropped": first - 1 - after, "seq": first - 1})
            out += [{"type": "update", "i": seq - 1, "subscription": owner,
                     "seq": seq}
                    for seq in range(max(after + 1, first), 11)]
            return out

        for box, first in ((narrow, 7), (wide, 5)):
            owner = box.owner
            delivered = 0
            for after in (2, 8, 10, 13):
                lags = len(seen[owner])
                got = box.read_after(after)
                assert got == expect(owner, after, first)
                sent = [e["seq"] for e in got if e["type"] == "update"]
                assert seen[owner][lags:] == [20.0 - seq for seq in sent]
                delivered += len(sent)
            assert gaps[owner] == [1]
            stats = box.stats()
            assert (stats["delivered"], stats["gap_events"]) == (delivered, 1)
            assert stats["dropped"] == 10 - box.capacity
            assert box.read_after(2, max_events=2) == \
                expect(owner, 2, first)[:2]

    def test_a_closed_view_keeps_what_it_retained(self):
        """A wide view that closes beside a narrow one, while events keep
        flowing, reads and reports exactly what an outbox of its own
        capacity fed the same events up to its close would."""
        narrow, wide = Outbox("a", capacity=2), Outbox("b", capacity=5)
        wide.join(narrow.log)
        alone = Outbox("b", capacity=5)
        for i in range(7):
            narrow.append({"type": "update", "i": i})
            alone.append({"type": "update", "i": i})
        wide.close()
        alone.close()
        for i in range(7, 20):
            narrow.append({"type": "update", "i": i})
        assert narrow.log.caps == [2] and len(narrow.log.events) == 2
        for after in (0, 2, 3, 6, 7, 9):
            assert wide.read_after(after) == alone.read_after(after)
        assert wide.stats() == alone.stats()
        assert (wide.last_seq, wide.retained) == (7, 5)
        assert wide.wait_events(7, timeout_s=5) == []
        assert [(e["type"], e["seq"]) for e in narrow.read_after(0)] == \
            [("gap", 18), ("update", 19), ("update", 20)]

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

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_a_page_of_fewer_than_one_event_is_refused(self, max_events):
        box = Outbox("sub-1", capacity=8)
        for i in range(2):
            box.append({"i": i})
        with pytest.raises(ValueError, match="max_events"):
            box.wait_events(0, timeout_s=0, max_events=max_events)
        with pytest.raises(ValueError, match="max_events"):
            box.read_after(0, max_events=max_events)

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
