"""repro.live ingestion: reorder buffer, versioning, idempotency, and
the (fingerprint, version) registry/cache consistency contract."""

import threading
import time

import pytest

from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph, fingerprint_arrays
from repro.live.ingest import LiveGraph, ReorderBuffer
from repro.live.subscriptions import Subscription
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import motif_by_name
from repro.service.query import UnknownGraph
from repro.service.service import MotifService


def edges_of(graph):
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))


class TestReorderBuffer:
    def test_pass_through_sorts_within_batch(self):
        buf = ReorderBuffer(lateness=0, capacity=8)
        for s, d, t in [(0, 1, 30), (1, 2, 10), (2, 3, 20)]:
            assert buf.offer(s, d, t)
        assert buf.release_ready() == [(1, 2, 10), (2, 3, 20), (0, 1, 30)]
        assert buf.pending == 0

    def test_lateness_window_holds_recent_edges(self):
        buf = ReorderBuffer(lateness=5, capacity=100)
        buf.offer(0, 1, 10)
        assert buf.release_ready() == []  # watermark 10-5 < 10
        buf.offer(0, 1, 16)
        assert buf.release_ready() == [(0, 1, 10)]  # watermark 11 passed it
        assert buf.pending == 1
        assert buf.flush() == [(0, 1, 16)]

    def test_late_edge_dropped_and_counted(self):
        buf = ReorderBuffer(lateness=0, capacity=8)
        buf.offer(0, 1, 100)
        buf.release_ready()
        assert not buf.offer(9, 9, 50)  # below last released timestamp
        assert buf.late_dropped == 1
        assert buf.stats()["late_dropped"] == 1

    def test_capacity_overflow_force_releases_smallest(self):
        buf = ReorderBuffer(lateness=None, capacity=2)
        buf.offer(0, 1, 30)
        buf.offer(0, 1, 10)
        assert buf.release_ready() == []  # within capacity, no watermark
        buf.offer(0, 1, 20)
        assert buf.release_ready() == [(0, 1, 10)]  # overflow pops the min

    def test_ties_release_in_arrival_order(self):
        buf = ReorderBuffer(lateness=0, capacity=8)
        buf.offer(7, 8, 5)
        buf.offer(1, 2, 5)
        assert buf.release_ready() == [(7, 8, 5), (1, 2, 5)]

    def test_none_lateness_only_flush_releases(self):
        buf = ReorderBuffer(lateness=None, capacity=100)
        for t in (3, 1, 2):
            buf.offer(0, 1, t)
        assert buf.release_ready() == []
        assert [e[2] for e in buf.flush()] == [1, 2, 3]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReorderBuffer(capacity=0)
        with pytest.raises(ValueError):
            ReorderBuffer(lateness=-1)


class TestLiveGraph:
    def test_version_bumps_only_when_edges_land(self):
        live = LiveGraph("g", delta=10, lateness=5)
        ack = live.append_batch([(0, 1, 100)], seq=1)
        assert ack["released"] == 0 and ack["version"] == 0  # still buffered
        ack = live.append_batch([(1, 2, 110)], seq=2)
        assert ack["released"] == 1 and ack["version"] == 1
        ack = live.append_batch([], seq=3, flush=True)
        assert ack["released"] == 1 and ack["version"] == 2

    def test_batch_validation_is_atomic(self):
        live = LiveGraph("g", delta=10)
        with pytest.raises(ValueError):
            live.append_batch([(0, 1, 5), (-1, 2, 6)], seq=1)
        assert live.buffer.num_edges == 0
        assert live.version == 0
        # The failed batch did not consume its sequence number.
        ack = live.append_batch([(0, 1, 5)], seq=1)
        assert not ack["duplicate"] and ack["released"] == 1

    def test_malformed_edges_rejected(self):
        live = LiveGraph("g", delta=10)
        for bad in [[(1,)], [("a", "b")], [(0, 1, "x", 9)], [None]]:
            with pytest.raises(ValueError):
                live.append_batch(bad, seq=1)

    def test_duplicate_seq_returns_original_ack(self):
        live = LiveGraph("g", delta=10)
        first = live.append_batch([(0, 1, 5), (1, 2, 6)], seq=9)
        again = live.append_batch([(0, 1, 5), (1, 2, 6)], seq=9)
        assert not first["duplicate"] and again["duplicate"]
        assert again["version"] == first["version"]
        assert again["released"] == first["released"]
        assert live.buffer.num_edges == 2  # applied exactly once

    def test_auto_seq_skips_explicitly_used_numbers(self):
        live = LiveGraph("g", delta=10)
        live.append_batch([(0, 1, 5)], seq=1)
        ack = live.append_batch([(1, 2, 6)])  # auto seq must not collide
        assert ack["seq"] != 1 and not ack["duplicate"]

    def test_ledger_is_constant_size_for_consecutive_seqs(self):
        for first in (0, 1):  # the driver numbers from 0, auto-seq from 1
            live = LiveGraph("g", delta=10)
            for seq in range(first, first + 10_000):
                live.append_batch([], seq=seq)
            assert live._applied_seqs == set()
            for seq in (first, first + 5_000, first + 9_999):
                assert live.append_batch([(0, 1, 5)], seq=seq)["duplicate"]
            assert live.buffer.num_edges == 0
        auto = LiveGraph("g", delta=10)
        assert [auto.append_batch([])["seq"] for _ in range(3)] == [1, 2, 3]
        assert auto._applied_seqs == set()

    def test_ledger_out_of_order_and_resent_seqs(self):
        live = LiveGraph("g", delta=10)
        for seq in (5, 3, 7, 4):  # a gap at 6; 3 arrives below the run
            assert not live.append_batch([], seq=seq)["duplicate"]
        for seq in (3, 4, 5, 7):
            assert live.append_batch([(0, 1, 5)], seq=seq)["duplicate"]
        assert live.buffer.num_edges == 0
        ack = live.append_batch([(0, 1, 5)], seq=6)  # the gap was never applied
        assert not ack["duplicate"] and ack["released"] == 1
        assert live.append_batch([], seq=6)["duplicate"]
        assert live._applied_seqs == {3, 4}  # 5..7 folded into the run
        # An ack evicted from the replay cache still answers duplicate.
        live._acks.clear()
        again = live.append_batch([], seq=5)
        assert again == {"graph": "g", "seq": 5, "version": 1,
                         "duplicate": True}

    def test_snapshot_matches_offline_construction(self):
        g = make_dataset("email-eu", scale=0.03, seed=1)
        live = LiveGraph("g", delta=int(g.time_span // 10))
        live.append_batch(edges_of(g), seq=0)
        assert live.snapshot().fingerprint() == g.fingerprint()

    def test_one_huge_node_id_appends_in_constant_time(self):
        """Ingest keeps the node count as one integer, so a single edge
        to node 10**7 costs what any edge does; only a snapshot pays
        for the id range (two CSR offset arrays)."""
        big = 10**7
        live = LiveGraph("g", delta=5)
        live.attach(Subscription("s", "g", motif_by_name("M1"), 5))
        started = time.perf_counter()
        live.append_batch([(0, big, 1)], seq=0)
        assert time.perf_counter() - started < 0.05
        assert live.buffer.num_nodes == big + 1
        assert live.snapshot().fingerprint() == \
            TemporalGraph([(0, big, 1)]).fingerprint()

    def test_status_hashes_the_window_without_building_a_graph(
        self, monkeypatch
    ):
        """``status()`` hashes the window in O(window): a node id of 10**9
        would need CSR offsets of 16 GB in a window graph."""
        big = 10**9
        live = LiveGraph("g", delta=6)
        live.append_batch([(0, big, 1), (big, 1, 3), (2, 0, 9)], seq=0)

        def no_graph(*args, **kwargs):
            raise AssertionError("status() built a graph")

        monkeypatch.setattr(TemporalGraph, "__init__", no_graph)
        monkeypatch.setattr(TemporalGraph, "from_arrays", no_graph)
        status = live.status()
        assert status["window_edges"] == 2
        assert status["window_fingerprint"] == \
            fingerprint_arrays(big + 1, [big, 2], [1, 0], [3, 9])


class TestVersionedServing:
    """Satellite: registry/cache must never mix versions mid-ingest."""

    DELTA_DIV = 20

    @pytest.fixture()
    def feed(self):
        g = make_dataset("email-eu", scale=0.04, seed=3)
        delta = max(1, g.time_span // self.DELTA_DIV)
        with MotifService(max_queue=16) as svc:
            svc.create_live_graph("feed", delta)
            yield svc, edges_of(g), delta

    def test_query_sees_exactly_one_version(self, feed):
        svc, edges, delta = feed
        half = len(edges) // 2
        svc.append_live("feed", edges[:half], seq=0)
        q1 = svc.query("feed", "M2", delta)
        svc.append_live("feed", edges[half:], seq=1)
        q2 = svc.query("feed", "M2", delta)

        fp1, fp2 = q1.payload["graph"], q2.payload["graph"]
        assert fp1 != fp2
        # Each answer equals serial mining of exactly that version's
        # snapshot — counts from a mix of versions cannot satisfy both.
        for fp, q in ((fp1, q1), (fp2, q2)):
            snap = svc.registry.get(fp)
            serial = MackeyMiner(snap, svc._resolve_motif("M2"), delta).mine()
            assert q.payload["count"] == serial.count

    def test_mid_ingest_queries_never_mix_versions(self, feed):
        svc, edges, delta = feed
        motif = svc._resolve_motif("M2")
        stop = threading.Event()
        errors = []

        def ingest():
            try:
                for i in range(0, len(edges), 10):
                    if stop.is_set():
                        return
                    svc.append_live("feed", edges[i:i + 10], seq=i)
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        t = threading.Thread(target=ingest)
        t.start()
        try:
            for _ in range(6):
                q = svc.query("feed", "M2", delta)
                snap = svc.registry.get(q.payload["graph"])
                serial = MackeyMiner(snap, motif, delta).mine()
                # Snapshot-consistency: the served count is the count of
                # the one snapshot the query's fingerprint names.
                assert q.payload["count"] == serial.count
        finally:
            stop.set()
            t.join()
        assert not errors

    def test_cache_hit_on_unchanged_version_and_miss_after(self, feed):
        svc, edges, delta = feed
        svc.append_live("feed", edges[:80], seq=0)
        first = svc.query("feed", "M1", delta)
        repeat = svc.query("feed", "M1", delta)
        assert repeat.source == "cache"
        assert repeat.payload == first.payload
        svc.append_live("feed", edges[80:], seq=1)
        fresh = svc.query("feed", "M1", delta)
        assert fresh.source != "cache"
        assert fresh.payload["graph"] != first.payload["graph"]

    def test_superseded_versions_invalidated_incrementally(self, feed):
        svc, edges, delta = feed
        cache = svc.cache
        third = max(1, len(edges) // 3)
        fps = []
        for i in range(3):
            svc.append_live("feed", edges[i * third:(i + 1) * third], seq=i)
            q = svc.query("feed", "M2", delta)
            fps.append(q.payload["graph"])
        # KEEP_VERSIONS = 2: version 1's pin is dropped (idle,
        # eviction-eligible) and its entries are gone; the two newest
        # stay pinned.
        assert svc.live_status("feed")["pinned_versions"] == [2, 3]
        assert svc.registry.refcount(fps[0]) == 0
        assert cache.invalidate_fingerprint(fps[0]) == 0
        for fp in fps[1:]:
            assert svc.registry.refcount(fp) > 0
        # Other graphs' cache entries survive (not a wholesale clear).
        assert svc.query("feed", "M2", delta).source == "cache"

    def test_registry_version_of_tracks_head(self, feed):
        svc, edges, delta = feed
        svc.append_live("feed", edges[:50], seq=0)
        v1 = svc.query("feed", "M1", delta).payload["graph"]
        assert svc.live_status("feed")["pinned_versions"] == [1]
        assert svc.registry.resolve("feed") == v1
        svc.append_live("feed", edges[50:100], seq=1)
        v2 = svc.query("feed", "M1", delta).payload["graph"]
        assert svc.live_status("feed")["pinned_versions"] == [1, 2]
        assert svc.registry.resolve("feed") == v2 != v1

    def test_drop_live_graph_releases_everything(self, feed):
        svc, edges, delta = feed
        svc.append_live("feed", edges[:50], seq=0)
        fp = svc.query("feed", "M1", delta).payload["graph"]
        svc.drop_live_graph("feed")
        assert "feed" not in svc.live_graphs()
        assert svc.registry.refcount(fp) == 0
        assert svc.cache.invalidate_fingerprint(fp) == 0
        with pytest.raises(UnknownGraph):
            svc.live_status("feed")

    def test_live_name_collision_rejected(self, feed):
        svc, _, delta = feed
        with pytest.raises(ValueError):
            svc.create_live_graph("feed", delta)
