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
from repro.live.oracle import (
    SubSpec,
    offline_replay,
    schedule_from_acks,
    sorted_arrivals,
)
from repro.live.subscriptions import THRESHOLD, UPDATE, Subscription
from repro.motifs.catalog import motif_by_name
from repro.motifs.motif import Motif
from repro.motifs.parse import parse_motif
from repro.service.query import payload_bytes

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
