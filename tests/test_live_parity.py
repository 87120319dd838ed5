"""Differential parity: live incremental ingestion vs offline replay.

For every dataset generator x batch size (1, 7, all-at-once) the full
event stream of a panel of standing subscriptions — update payloads and
threshold alerts — must be byte-identical to ``repro.live.oracle``'s
offline replay, which recounts from scratch with the independent
``repro.streaming`` machinery.  Shuffled arrival orders route through
the reorder buffer and must converge to the same bytes.
"""

import pytest

from repro.graph.generators import DATASET_NAMES, make_dataset
from repro.live.driver import _shuffled
from repro.live.ingest import LiveGraph
from repro.live.manager import LiveManager
from repro.live.oracle import (
    SubSpec,
    offline_replay,
    schedule_from_acks,
    sorted_arrivals,
)
from repro.live.outbox import Outbox
from repro.live.subscriptions import THRESHOLD, UPDATE, Subscription
from repro.motifs.catalog import motif_by_name
from repro.motifs.motif import Motif
from repro.motifs.parse import parse_motif
from repro.service.cache import ResultCache
from repro.service.query import payload_bytes
from repro.service.registry import GraphRegistry
from repro.streaming.window import StreamBuffer

SCALES = {
    "email-eu": 0.03,
    "mathoverflow": 0.025,
    "ask-ubuntu": 0.02,
    "superuser": 0.015,
    "wiki-talk": 0.012,
    "stackoverflow": 0.008,
}

BATCH_SIZES = (1, 7, None)  # None = single all-at-once batch


def make_panel(delta):
    """A small mixed panel: update + threshold, full-delta + half-delta."""
    return [
        ("M1", delta, UPDATE, None),
        ("M2", max(1, delta // 2), UPDATE, None),
        ("M3", delta, THRESHOLD, 0),
        ("ping-pong", delta, THRESHOLD, 2),
        ("fan-in", delta, UPDATE, None),
    ]


def sharing_panel(delta):
    """Twelve subscriptions over three distinct (motif, δ) counters:
    every kind and several thresholds on one pair, the same motif under
    three spellings (catalog name, the ``motif_spec`` DSL, relabelled
    nodes), and a half-δ twin that must *not* share with the full-δ one."""
    spec = parse_motif("x->y, y->z, z->x", name="custom")
    relabelled = Motif([(2, 0), (0, 1), (1, 2)], name="relabelled")
    half = max(1, delta // 2)
    return [
        ("M1", delta, UPDATE, None),
        ("M1", delta, THRESHOLD, 0),
        ("M1", delta, THRESHOLD, 2),
        ("M1", delta, UPDATE, None),
        (spec, delta, UPDATE, None),
        (spec, delta, THRESHOLD, 1),
        (relabelled, delta, UPDATE, None),
        ("M1", half, UPDATE, None),
        (relabelled, half, THRESHOLD, 0),
        ("ping-pong", delta, THRESHOLD, 0),
        ("ping-pong", delta, THRESHOLD, 5),
        ("ping-pong", delta, UPDATE, None),
    ]


def run_case(dataset, batch_size, shuffle="none", seed=3):
    return feed_case(dataset, batch_size, shuffle, seed)[1]


def feed_case(dataset, batch_size, shuffle="none", seed=3, panel=make_panel):
    """Feed one case live, check it against the oracle; (live, expected)."""
    g = make_dataset(dataset, scale=SCALES[dataset], seed=11)
    delta = max(1, g.time_span // 40)
    edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
    size = len(edges) if batch_size is None else batch_size
    block = 4 * size
    arrivals = _shuffled(edges, shuffle, seed, block)

    opts = {}
    if shuffle == "full":
        opts = {"lateness": None, "reorder_capacity": len(arrivals) + 1}
    elif shuffle == "block":
        opts = {"lateness": None, "reorder_capacity": block}
    live = LiveGraph(dataset, delta, **opts)

    specs, outbox_capacity = [], (len(arrivals) // size) + 16
    for i, (motif, sub_delta, kind, threshold) in enumerate(panel(delta)):
        sub_id = f"sub-{i}"
        if isinstance(motif, str):
            motif = motif_by_name(motif)
        live.attach(
            Subscription(sub_id, dataset, motif, sub_delta,
                         kind=kind, threshold=threshold,
                         outbox_capacity=outbox_capacity)
        )
        specs.append(SubSpec(sub_id, motif, sub_delta, kind, threshold))

    acks = []
    for i in range(0, len(arrivals), size):
        acks.append(live.append_batch(arrivals[i:i + size], seq=i))
    acks.append(live.append_batch([], seq=len(arrivals) + 1, flush=True))
    assert live.reorder.late_dropped == 0

    expected = offline_replay(
        sorted_arrivals(arrivals), specs, schedule_from_acks(acks),
        dataset, delta,
    )
    for spec in specs:
        got = live.subscriptions[spec.sub_id].outbox.read_after(0)
        want = expected["events"][spec.sub_id]
        assert [payload_bytes(e) for e in got] == [
            payload_bytes(e) for e in want
        ], f"{dataset} batch={batch_size} shuffle={shuffle}: {spec.sub_id}"
    assert live.status()["window_fingerprint"] == \
        expected["window_fingerprint"]
    return live, expected


def test_scales_cover_every_generator_family():
    assert set(SCALES) == set(DATASET_NAMES)


@pytest.mark.parametrize("batch_size", BATCH_SIZES,
                         ids=lambda b: f"batch-{b or 'all'}")
@pytest.mark.parametrize("dataset", sorted(SCALES))
def test_in_order_parity(dataset, batch_size):
    expected = run_case(dataset, batch_size, shuffle="none")
    # Not a vacuous pass: the panel must actually complete instances.
    assert sum(expected["counts"].values()) > 0


@pytest.mark.parametrize("dataset", sorted(SCALES))
def test_block_shuffled_arrival_parity(dataset):
    run_case(dataset, 7, shuffle="block")


@pytest.mark.parametrize("dataset", ["email-eu", "wiki-talk"])
def test_fully_shuffled_arrival_parity(dataset):
    run_case(dataset, 7, shuffle="full")


def test_batch_size_does_not_change_bytes():
    """Same dataset through different batchings yields identical final
    windows (event streams differ only in how they are sliced)."""
    fps = set()
    for batch_size in BATCH_SIZES:
        expected = run_case("email-eu", batch_size)
        fps.add(expected["window_fingerprint"])
    assert len(fps) == 1


@pytest.mark.parametrize(
    "batch_size,shuffle", [(1, "none"), (7, "none"), (None, "none"),
                           (7, "block")],
    ids=lambda v: str(v or "all"))
def test_shared_counters_match_the_unshared_oracle(batch_size, shuffle):
    """Many views over few counters: the oracle recounts every
    subscription privately, so equal bytes mean sharing changed nothing."""
    live, expected = feed_case(
        "email-eu", batch_size, shuffle, panel=sharing_panel)
    subs = list(live.subscriptions.values())
    assert len(subs) == 12 and live.status()["counters"] == 3
    m1_full = {id(sub.counter) for sub in subs[:7]}
    assert len(m1_full) == 1, "three spellings of M1 at one δ share"
    assert subs[7].counter is subs[8].counter        # the half-δ pair
    assert subs[7].counter is not subs[0].counter    # δ is in the key
    assert subs[0].counter.refs == 7
    # One engine, yet every event names the motif as its subscriber did.
    names = [sub.outbox.read_after(0)[0]["motif"] for sub in subs[3:7:3]]
    assert names == ["M1", "relabelled"]
    assert subs[4].outbox.read_after(0)[0]["motif"] == "custom"
    # Independent latches: thresholds 0 and 2 read one window count yet
    # alert at different versions (one batch has only one version).
    assert expected["counts"]["sub-0"] > 0
    if batch_size is not None:
        low, high = ([e["version"] for e in sub.outbox.read_after(0)]
                     for sub in subs[1:3])
        assert low and high and low != high


@pytest.mark.parametrize("dataset", sorted(SCALES))
def test_window_fingerprint_equals_the_snapshot_digest(dataset):
    """The window's digest, hashed from the ring, is the digest of the
    window graph the oracle used to build: empty, and after every
    seventh edge of each parity feed."""
    g = make_dataset(dataset, scale=SCALES[dataset], seed=11)
    buffer = StreamBuffer(max(1, g.time_span // 40))
    assert buffer.window_fingerprint() == \
        buffer.window_snapshot().fingerprint()
    edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
    for i, (s, d, t) in enumerate(edges):
        buffer.append(s, d, t)
        if i % 7 == 0 or i == len(edges) - 1:
            assert buffer.window_fingerprint() == \
                buffer.window_snapshot().fingerprint()
    assert 0 < buffer.window_size < len(edges)


def test_window_fingerprint_with_a_large_node_id():
    buffer = StreamBuffer(3)
    for s, d, t in [(0, 10**6, 1), (10**6, 2, 1), (2, 0, 4), (5, 10**6, 9)]:
        buffer.append(s, d, t)
        assert buffer.window_fingerprint() == \
            buffer.window_snapshot().fingerprint()
    assert buffer.window_size == 1 and buffer.num_nodes == 10**6 + 1


def private_outbox(owner, capacity, events):
    """The delivery each subscription had when it owned its outbox: a
    private log of ``capacity`` that every one of its events entered."""
    box = Outbox(owner, capacity=capacity)
    for event in events:
        box.append(event)
    return box


def read_bytes(box, after=0):
    return [payload_bytes(e) for e in box.read_after(after)]


class TestGroupedDelivery:
    """Subscribers of one query share one event group, whose log they
    read through views of their own.  Each case is checked against the
    oracle's private replay per subscription and against a private
    outbox per subscription fed the oracle's events: the delivery each
    subscription had before groups."""

    CUT = 60  # edges released before a mid-feed detach or attach

    @staticmethod
    def feed():
        g = make_dataset("email-eu", scale=0.03, seed=7)
        edges = list(zip(g.src.tolist(), g.dst.tolist(), g.ts.tolist()))
        return edges, max(1, g.time_span // 20)

    @staticmethod
    def manager(delta):
        manager = LiveManager(GraphRegistry(), ResultCache())
        manager.create_graph("g", delta)
        return manager

    @staticmethod
    def subscribe(manager, plan):
        """``plan``: (motif, δ, kind, threshold, capacity) rows."""
        subs, specs = [], []
        for motif, delta, kind, threshold, capacity in plan:
            if isinstance(motif, str):
                motif = motif_by_name(motif)
            sub = manager.subscribe("g", motif, delta=delta, kind=kind,
                                    threshold=threshold,
                                    outbox_capacity=capacity)
            subs.append(sub)
            specs.append(SubSpec(sub.sub_id, motif, delta, kind, threshold))
        return subs, specs

    @staticmethod
    def push(manager, edges, start, stop, size=5):
        return [manager.append("g", edges[i:min(i + size, stop)], seq=i)
                for i in range(start, stop, size)]

    def test_members_with_different_capacities(self):
        edges, delta = self.feed()
        manager = self.manager(delta)
        subs, specs = self.subscribe(manager, [
            ("M1", delta, UPDATE, None, 3),
            ("M1", delta, UPDATE, None, 7),
            ("M1", delta, UPDATE, None, len(edges)),
            ("M1", delta, UPDATE, None, 7),
            ("ping-pong", delta, THRESHOLD, 0, 1),
            ("ping-pong", delta, THRESHOLD, 0, len(edges)),
        ])
        live = manager.get("g")
        assert (live.shared_counters, live.event_groups) == (2, 2)
        acks = self.push(manager, edges, 0, len(edges))
        want = offline_replay(edges, specs, schedule_from_acks(acks),
                              "g", delta)["events"]
        refs = {sub.sub_id: private_outbox(sub.sub_id,
                                           sub.outbox.capacity,
                                           want[sub.sub_id])
                for sub in subs}
        stats = [ref.stats() for ref in refs.values()]
        assert min(s["dropped"] for s in stats) == 0 < \
            max(s["dropped"] for s in stats)
        counters = manager.counters
        assert counters.get("events_dropped") == \
            sum(s["dropped"] for s in stats)
        assert counters.get("subscription_fires") == \
            sum(len(events) for events in want.values())
        for sub in subs:
            ref, events = refs[sub.sub_id], want[sub.sub_id]
            assert sub.status()["outbox"] == ref.stats()
            assert sub.fires == len(events) > 1
            n = len(events)
            for after in (0, 2, n - 7, n - 3, n - 1, n, n + 2):
                assert read_bytes(sub.outbox, after) == \
                    read_bytes(ref, after)
            # The oracle's events, from where the view still holds them.
            kept = min(n, sub.outbox.capacity)
            assert read_bytes(sub.outbox, n - kept) == \
                read_bytes(ref, n - kept) == \
                [payload_bytes(e) for e in events[n - kept:]]
        assert counters.get("events_delivered") == \
            sum(ref.stats()["delivered"] for ref in refs.values())
        assert counters.get("gap_events") == \
            sum(ref.stats()["gap_events"] for ref in refs.values()) > 0
        manager.close()

    def test_member_unsubscribed_mid_feed(self):
        edges, delta = self.feed()
        manager = self.manager(delta)
        big = len(edges)
        subs, specs = self.subscribe(manager, [
            ("M2", delta, UPDATE, None, big),
            ("M2", delta, UPDATE, None, big),
            ("M2", delta, UPDATE, None, 4),
            ("M3", delta, THRESHOLD, 1, big),
        ])
        live = manager.get("g")
        acks = self.push(manager, edges, 0, self.CUT)
        cut_version = live.version
        manager.unsubscribe(subs[1].sub_id)
        assert subs[1].outbox.closed and live.event_groups == 2
        assert subs[0].counter.refs == 2
        acks += self.push(manager, edges, self.CUT, len(edges))
        want = offline_replay(edges, specs, schedule_from_acks(acks),
                              "g", delta)["events"]
        for sub in (subs[0], subs[3]):
            assert read_bytes(sub.outbox) == \
                [payload_bytes(e) for e in want[sub.sub_id]]
        gone = [e for e in want[subs[1].sub_id]
                if e["version"] <= cut_version]
        assert 0 < len(gone) < len(want[subs[1].sub_id])
        ref = private_outbox(subs[1].sub_id, big, gone)
        assert read_bytes(subs[1].outbox) == read_bytes(ref) == \
            [payload_bytes(e) for e in gone]
        assert subs[1].fires == len(gone)
        assert subs[1].status()["outbox"] == ref.stats()
        small = private_outbox(subs[2].sub_id, 4, want[subs[2].sub_id])
        assert read_bytes(subs[2].outbox) == read_bytes(small)
        assert subs[2].status()["outbox"] == small.stats()
        # Each ack counted one event per subscriber attached when it fired.
        for ack in acks:
            attached = [sub for sub in subs
                        if sub is not subs[1] or ack["version"] <= cut_version]
            assert ack["events"] == sum(
                any(e["version"] == ack["version"] for e in want[s.sub_id])
                for s in attached)
        for sub in subs[:1] + subs[2:3]:
            manager.unsubscribe(sub.sub_id)
        assert live.event_groups == 1
        manager.close()

    def test_mid_feed_subscriber_opens_a_new_group(self):
        edges, delta = self.feed()
        manager = self.manager(delta)
        big = len(edges)
        (early,), _ = self.subscribe(manager, [("M1", delta, UPDATE, None, big)])
        self.push(manager, edges, 0, self.CUT)
        live = manager.get("g")
        late, specs = self.subscribe(manager, [
            ("M1", delta, UPDATE, None, big),
            ("M1", delta, UPDATE, None, 5),
        ])
        assert live.event_groups == 2
        assert late[0].outbox.log is late[1].outbox.log is not early.outbox.log
        acks = self.push(manager, edges, self.CUT, len(edges))
        # The oracle over the suffix, in the live graph's adjusted
        # timestamps (strictly increasing, so its own adjustment is the
        # identity); its window is the suffix alone, so window_edges
        # comes from the early subscriber's event at the same version.
        snap = live.snapshot()
        suffix = list(zip(snap.src[self.CUT:].tolist(),
                          snap.dst[self.CUT:].tolist(),
                          snap.ts[self.CUT:].tolist()))
        want = offline_replay(suffix, specs, schedule_from_acks(acks),
                              "g", delta)["events"]
        window = {e["version"]: e["window_edges"]
                  for e in early.outbox.read_after(0)}
        for events in want.values():
            for event in events:
                event["window_edges"] = window[event["version"]]
        for sub in late:
            events = want[sub.sub_id]
            assert events[0]["seq"] == 1 and events[-1]["count"] > 0
            ref = private_outbox(sub.sub_id, sub.outbox.capacity, events)
            assert read_bytes(sub.outbox) == read_bytes(ref)
            assert sub.status()["outbox"] == ref.stats()
        assert read_bytes(late[0].outbox) == \
            [payload_bytes(e) for e in want[late[0].sub_id]]
        manager.close()

    def test_name_and_motif_spec_share_a_slot_not_a_group(self):
        edges, delta = self.feed()
        manager = self.manager(delta)
        spec = parse_motif("x->y, y->z, z->x", name="custom")
        subs, specs = self.subscribe(manager, [
            ("M1", delta, UPDATE, None, 256),
            (spec, delta, UPDATE, None, 256),
            ("M1", delta, THRESHOLD, 0, 256),
            (spec, delta, THRESHOLD, 0, 256),
        ])
        live = manager.get("g")
        assert (live.shared_counters, live.event_groups) == (1, 4)
        assert subs[0].counter is subs[1].counter
        assert subs[0].outbox.log is not subs[1].outbox.log
        acks = self.push(manager, edges, 0, len(edges))
        want = offline_replay(edges, specs, schedule_from_acks(acks),
                              "g", delta)["events"]
        for sub in subs:
            assert read_bytes(sub.outbox) == \
                [payload_bytes(e) for e in want[sub.sub_id]]
            assert read_bytes(sub.outbox) == read_bytes(private_outbox(
                sub.sub_id, 256, want[sub.sub_id]))
        assert {e["motif"] for e in subs[1].outbox.read_after(0)} == {"custom"}
        manager.close()
