"""Unit tests for the serving layer's building blocks.

Covers the pieces below the scheduler: the ref-counted
:class:`GraphRegistry`, the bytes-bounded :class:`ResultCache`, the
latency/metrics helpers and the query/payload records.  Scheduler and
end-to-end behaviour live in ``test_service_scheduler.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import threading
import tracemalloc

import pytest

from parity_matrix import own_children
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.results import SearchCounters
from repro.motifs.catalog import M1, M2, motif_by_name
from repro.motifs.motif import Motif
from repro.motifs.parse import parse_motif
from repro.service import (
    GraphRegistry,
    LatencyReservoir,
    MotifQuery,
    ResultCache,
    ServiceMetrics,
    UnknownGraph,
    build_payload,
    payload_bytes,
    percentile,
)
from repro.service.cache import _nbytes
from repro.service.metrics import METRICS


def make_graph(shift: int = 0) -> TemporalGraph:
    """A small distinct graph per ``shift`` (distinct fingerprints)."""
    return TemporalGraph(
        [(0, 1, 5 + shift), (1, 2, 10 + shift), (2, 0, 20 + shift)]
    )


class TestGraphRegistry:
    def test_register_returns_fingerprint(self):
        reg = GraphRegistry()
        g = make_graph()
        assert reg.register(g) == g.fingerprint()
        assert g.fingerprint() in reg

    def test_register_same_content_is_idempotent(self):
        reg = GraphRegistry()
        fp1 = reg.register(make_graph())
        fp2 = reg.register(make_graph())  # same content, new object
        assert fp1 == fp2
        assert reg.resident_count == 1
        assert reg.refcount(fp1) == 2

    def test_release_decrements_then_idles(self):
        reg = GraphRegistry()
        fp = reg.register(make_graph())
        reg.register(make_graph())
        reg.release(fp)
        assert reg.refcount(fp) == 1
        assert reg.idle_count == 0
        reg.release(fp)
        assert reg.refcount(fp) == 0
        assert reg.idle_count == 1
        # Idle graphs are still resident and fetchable.
        assert reg.get(fp).num_edges == 3

    def test_idle_lru_eviction_fires_listeners(self):
        reg = GraphRegistry(max_idle=2)
        evicted = []
        reg.add_evict_listener(evicted.append)
        fps = []
        for i in range(3):
            fp = reg.register(make_graph(i))
            reg.release(fp)
            fps.append(fp)
        # Three idle graphs, limit two: the oldest idle one is evicted.
        assert evicted == [fps[0]]
        assert fps[0] not in reg
        assert fps[1] in reg and fps[2] in reg
        assert reg.evicted_total == 1

    def test_get_touches_idle_lru(self):
        reg = GraphRegistry(max_idle=2)
        evicted = []
        reg.add_evict_listener(evicted.append)
        fps = []
        for i in range(2):
            fp = reg.register(make_graph(i))
            reg.release(fp)
            fps.append(fp)
        reg.get(fps[0])  # touch the older idle graph
        fp2 = reg.register(make_graph(2))
        reg.release(fp2)
        # fps[1] is now least recently used and goes first.
        assert evicted == [fps[1]]
        assert fps[0] in reg

    def test_reregister_rescues_idle_graph(self):
        reg = GraphRegistry(max_idle=1)
        fp = reg.register(make_graph())
        reg.release(fp)
        assert reg.idle_count == 1
        assert reg.register(make_graph()) == fp
        assert reg.idle_count == 0
        assert reg.refcount(fp) == 1

    def test_names_resolve_and_evict_with_graph(self):
        reg = GraphRegistry(max_idle=0)
        fp = reg.register(make_graph(), name="wiki")
        assert reg.resolve("wiki") == fp
        assert reg.resolve(fp) == fp
        assert reg.names() == {"wiki": fp}
        reg.release(fp)  # max_idle=0: immediate eviction
        assert reg.names() == {}
        with pytest.raises(UnknownGraph):
            reg.resolve("wiki")

    def test_unknown_lookups_raise(self):
        reg = GraphRegistry()
        with pytest.raises(UnknownGraph):
            reg.get("no-such-fp")
        with pytest.raises(UnknownGraph):
            reg.release("no-such-fp")
        with pytest.raises(UnknownGraph):
            reg.resolve("no-such-name")
        with pytest.raises(UnknownGraph):
            reg.refcount("no-such-fp")

    def test_negative_max_idle_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GraphRegistry(max_idle=-1)


def key_for(fp: str, motif: Motif = M1, delta: int = 10):
    return (fp, motif.canonical_key(), delta)


def booked(key, count, counters) -> int:
    """What one entry is booked at (entries of one shape book alike)."""
    cache = ResultCache()
    assert cache.put(key, count, counters)
    return cache.bytes_used


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        k = key_for("fp-a")
        assert cache.get(k) is None
        assert cache.put(k, 7, {"edges": 3})
        got = cache.get(k)
        assert got.count == 7
        assert got.counters == {"edges": 3}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_under_byte_budget(self):
        k1, k2 = key_for("fp-a"), key_for("fp-b")
        # Room for one entry, not two.
        cache = ResultCache(max_bytes=booked(k1, 1, {}) * 3 // 2)
        assert cache.put(k1, 1, {})
        assert cache.put(k2, 2, {})
        assert cache.entry_count == 1
        assert cache.get(k1) is None
        assert cache.get(k2).count == 2
        assert cache.evictions == 1

    def test_get_refreshes_lru_order(self):
        k1, k2 = key_for("fp-a"), key_for("fp-b")
        # Room for two entries, not three.
        cache = ResultCache(max_bytes=booked(k1, 1, {}) * 5 // 2)
        assert cache.put(k1, 1, {})
        assert cache.put(k2, 2, {})
        assert cache.entry_count == 2
        cache.get(k1)  # k2 becomes the LRU victim
        cache.put(key_for("fp-c"), 3, {})
        assert cache.get(k1) is not None
        assert cache.get(k2) is None

    def test_oversized_entry_refused(self):
        cache = ResultCache(max_bytes=10)
        assert not cache.put(key_for("fp-a"), 1, {"edges": 3})
        assert cache.entry_count == 0
        assert cache.bytes_used == 0

    def test_refresh_same_key_does_not_leak_bytes(self):
        cache = ResultCache()
        k = key_for("fp-a")
        cache.put(k, 1, {"edges": 3})
        before = cache.bytes_used
        cache.put(k, 2, {"edges": 3})
        assert cache.bytes_used == before
        assert cache.entry_count == 1
        assert cache.get(k).count == 2

    def test_invalidate_fingerprint(self):
        cache = ResultCache()
        cache.put(key_for("fp-a", M1), 1, {})
        cache.put(key_for("fp-a", M2), 2, {})
        cache.put(key_for("fp-b", M1), 3, {})
        assert cache.invalidate_fingerprint("fp-a") == 2
        assert cache.entry_count == 1
        assert cache.get(key_for("fp-b", M1)).count == 3
        assert cache.bytes_used == cache.get(key_for("fp-b", M1)).nbytes

    def test_concurrent_put_get_stays_consistent(self):
        cache = ResultCache(max_bytes=4096)  # small: constant eviction
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(200):
                    k = key_for(f"fp-{worker}-{i % 17}")
                    cache.put(k, i, {"edges": i})
                    got = cache.get(k)
                    if got is not None and got.count % 1 != 0:
                        errors.append("corrupt entry")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert 0 <= cache.bytes_used <= cache.max_bytes
        # Byte accounting must agree with the surviving entries.
        total = sum(_nbytes(k, v) for k, v in list(cache._entries.items()))
        assert total == cache.bytes_used

    def test_clear(self):
        cache = ResultCache()
        cache.put(key_for("fp-a"), 1, {})
        cache.clear()
        assert cache.entry_count == 0 and cache.bytes_used == 0

    def test_exact_entry_round_trips_through_the_packed_form(self):
        """A miner's result is stored packed; the view a hit gets is
        indistinguishable from the unpacked entry it replaced."""
        cache = ResultCache()
        counters = SearchCounters(searches=5, bytes_touched=2**40, matches=7)
        k = key_for("fp-a")
        shuffled = dict(reversed(list(counters.as_dict().items())))
        assert cache.put(k, 7, shuffled)
        assert isinstance(cache._entries[k], bytes)
        got = cache.get(k)
        assert got.count == 7
        # A fresh dict each time, in SearchCounters field order.
        assert list(got.counters.items()) == list(counters.as_dict().items())
        assert got.counters is not cache.get(k).counters
        per_entry = ServiceMetrics(**cache.stats()).cache_bytes_per_entry
        assert got.nbytes == cache.bytes_used == per_entry

    @pytest.mark.parametrize("count, counters", [
        (2**63, SearchCounters().as_dict()),  # count past int64
        (1, dict(SearchCounters().as_dict(), searches=-(2**63) - 1)),
        (1, {"edges": 3}),  # not the SearchCounters fields
        (1, dict(SearchCounters().as_dict(), extra=1)),
    ])
    def test_what_does_not_pack_is_kept_unpacked_not_truncated(self, count, counters):
        cache = ResultCache()
        k = key_for("fp-a")
        assert cache.put(k, count, counters)
        assert not isinstance(cache._entries[k], bytes)
        got = cache.get(k)
        assert got.count == count and got.counters == counters
        assert got.nbytes == cache.bytes_used > booked(k, 1, SearchCounters().as_dict())

    def test_booked_bytes_are_the_resident_bytes(self):
        """The byte budget is honest: for 5,000 distinct exact entries
        (fresh key tuples, canonical keys and counter dicts each time,
        as queries build them) what ``bytes_used`` books is what
        ``tracemalloc`` sees the cache keep, within allocator rounding
        and the table's resize cycle — it booked under a third of it
        when an entry was a dataclass over a dict of boxed ints."""
        entries = 5000
        counters = SearchCounters(
            searches=123456, candidates_scanned=7654321, binary_searches=4321,
            binary_search_steps=54321, neighbor_items_touched=987654,
            bookkeeps=34567, backtracks=45678, matches=1234, root_tasks=2000,
            bytes_touched=123456789,
        )
        cache = ResultCache()
        fingerprint = "f" * 64
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for d in range(entries):
                motif = (M1, M2)[d % 2]
                key = (str(fingerprint), motif.canonical_key(), 100_000 + d)
                assert cache.put(key, 1000 + d, counters.as_dict())
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cache.entry_count == entries
        assert 0.7 <= resident / cache.bytes_used <= 1.5
        assert resident / entries <= 600
        per_entry = ServiceMetrics(**cache.stats()).cache_bytes_per_entry
        assert per_entry == cache.bytes_used / entries


class TestPercentile:
    def test_nearest_rank(self):
        vals = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(vals, 50) == 5
        assert percentile(vals, 99) == 10
        assert percentile(vals, 0) == 1
        assert percentile(vals, 100) == 10

    def test_unsorted_input(self):
        assert percentile([5, 1, 3], 50) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            percentile([1.0], 101)


class TestLatencyReservoir:
    def test_bounded_capacity(self):
        res = LatencyReservoir(capacity=4)
        for i in range(10):
            res.record(float(i))
        assert res.snapshot() == [6.0, 7.0, 8.0, 9.0]
        assert res.recorded_total == 10

    def test_quantiles_empty_is_zero(self):
        assert LatencyReservoir().quantiles() == {"p50_s": 0.0, "p99_s": 0.0}

    def test_quantiles(self):
        res = LatencyReservoir()
        for v in [0.1, 0.2, 0.3, 0.4]:
            res.record(v)
        q = res.quantiles()
        assert q["p50_s"] == pytest.approx(0.2)
        assert q["p99_s"] == pytest.approx(0.4)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyReservoir(capacity=0)


class TestServiceMetrics:
    def test_ratios(self):
        m = ServiceMetrics(admitted=10, coalesced=4, cache_hits=3, cache_misses=1)
        assert m.coalesce_ratio == pytest.approx(0.4)
        assert m.cache_hit_rate == pytest.approx(0.75)

    def test_ratios_zero_denominator(self):
        m = ServiceMetrics()
        assert m.coalesce_ratio == 0.0
        assert m.cache_hit_rate == 0.0
        assert m.cache_bytes_per_entry == 0.0

    def test_unreported_rows_are_their_zeros(self):
        d = ServiceMetrics(chunks_completed=5).as_dict()
        assert list(d) == [m.name for m in METRICS]
        assert d == {m.name: m.zero for m in METRICS}
        assert d["engine"] == "batched" and d["degraded"] is False
        with pytest.raises(AttributeError):
            ServiceMetrics().chunks_completed

    def test_as_dict_carries_derived_fields(self):
        d = ServiceMetrics(admitted=2, coalesced=1, respawns=3).as_dict()
        assert d["coalesce_ratio"] == pytest.approx(0.5)
        assert "cache_hit_rate" in d
        assert d["admitted"] == 2
        # The dispatchers count ``respawns``; /metrics has always said
        # ``worker_respawns``.
        assert d["worker_respawns"] == 3 and "respawns" not in d
        assert ServiceMetrics(breakers_open=1).degraded is True

    def test_render_has_the_report_table_layout(self):
        """``render`` lays out its own table so serving loads nothing of
        ``repro.analysis``; its bytes are ``format_table``'s."""
        from repro.analysis.reporting import format_table

        metrics = ServiceMetrics(shed=3, admitted=12_345, latency_p99_s=0.25)
        values = metrics.as_dict()
        rows = [[m.label, m.show(values[m.name])] for m in METRICS]
        assert metrics.render() == format_table(["metric", "value"], rows)

    def test_render_mentions_key_metrics(self):
        text = ServiceMetrics(shed=3).render()
        assert "coalesce ratio" in text
        assert "shed (rejected)" in text
        assert "latency p99 (ms)" in text

    def test_render_shows_every_field(self):
        """Every row of the table is one line of the text body, in table
        order, under its label: each reported row gets a number no other
        row has (seconds rows render as milliseconds), and it must show
        up on its own line."""
        reported = [m for m in METRICS if m.derive is None and m.name != "engine"]
        values = {
            m.name: (100 + i) / 1e3 if m.name.endswith("_s") else 100 + i
            for i, m in enumerate(reported)
        }
        lines = ServiceMetrics(**values).render().splitlines()[2:]
        rows = [[cell.strip() for cell in line.split(" | ")] for line in lines]
        assert [label for label, _ in rows] == [m.label for m in METRICS]
        shown = dict(rows)
        missing = [
            m.name for i, m in enumerate(reported)
            if not re.fullmatch(rf"{100 + i}(\.0+)?", shown[m.label])
        ]
        assert missing == []


class TestMotifQuery:
    def test_key_triple(self):
        q = MotifQuery("fp", M1, 10)
        assert q.key == ("fp", M1.canonical_key(), 10)

    def test_identical_spec_shares_key_with_catalog(self):
        # An inline spec identical to catalog M1 must coalesce with it.
        spec = "; ".join(f"n{u}->n{v}" for u, v in M1.edges)
        inline = parse_motif(spec, name="custom")
        assert MotifQuery("fp", inline, 10).key == MotifQuery("fp", M1, 10).key

    def test_different_motifs_different_keys(self):
        assert MotifQuery("fp", M1, 10).key != MotifQuery("fp", M2, 10).key

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            MotifQuery("fp", M1, -1)
        with pytest.raises(ValueError, match="positive"):
            MotifQuery("fp", M1, 10, timeout_s=0)


class TestPayload:
    def test_build_payload_coerces_ints(self):
        p = build_payload("fp", motif_by_name("M1"), 10, 3, {"edges": 2.0})
        assert p == {
            "graph": "fp",
            "motif": "M1",
            "delta": 10,
            "count": 3,
            "counters": {"edges": 2},
            "accuracy": "exact",
        }

    def test_payload_bytes_deterministic(self):
        p1 = {"b": 1, "a": 2}
        p2 = {"a": 2, "b": 1}
        assert payload_bytes(p1) == payload_bytes(p2)
        assert payload_bytes(p1) == b'{"a":2,"b":1}'


def _shm() -> set:
    return set(os.listdir("/dev/shm"))


class TestPoolExecutor:
    def test_validation(self):
        from repro.service import PoolExecutor

        with pytest.raises(ValueError, match="at least one worker"):
            PoolExecutor(0)

    def test_second_graph_ships_into_the_same_processes(self):
        """One graph-agnostic pool: a graph is shipped on first use,
        reused afterwards, and a second graph joins it in the same
        worker processes instead of spawning a pool of its own."""
        from repro.mining.mackey import count_motifs
        from repro.service import PoolExecutor

        g1, g2 = make_graph(0), make_graph(1)
        before = multiprocessing.active_children()
        executor = PoolExecutor(2)
        try:
            workers = own_children(before)
            assert len(workers) == 2
            (count1, _), = executor.count_batch(g1, [M1], 100, None)
            assert count1 == count_motifs(g1, M1, 100)
            assert executor.counters.get("graph_ships") == 2  # once per worker
            # Same graph again: resident, nothing shipped.
            executor.count_batch(g1, [M1], 100, None)
            assert executor.counters.get("graph_ships") == 2
            (count2, _), = executor.count_batch(g2, [M1], 100, None)
            assert count2 == count_motifs(g2, M1, 100)
            assert executor.counters.get("graph_ships") == 4
            assert own_children(before) == workers  # no new children
            assert executor.worker_liveness() == {"pool": {"live": 2, "target": 2}}
        finally:
            executor.close()
        assert own_children(before) == []

    def test_release_graph_unlinks_its_segment(self):
        from repro.service import PoolExecutor

        g1, g2 = make_graph(0), make_graph(1)
        before = _shm()
        executor = PoolExecutor(1)
        try:
            executor.count_batch(g1, [M1], 100, None)
            only_g1 = _shm() - before
            executor.count_batch(g2, [M1], 100, None)
            assert len(_shm() - before) == 2
            executor.release_graph(g2.fingerprint())
            assert _shm() - before == only_g1
            # The pool itself stays up and re-ships on demand.
            executor.count_batch(g2, [M1], 100, None)
            assert len(_shm() - before) == 2
            # Releasing an unknown fingerprint is a no-op.
            executor.release_graph("nope")
        finally:
            executor.close()
        assert _shm() == before

    def test_inline_executor_cancel_between_motifs(self, tiny_graph):
        """A per-motif run in the calling thread polls between motifs
        (the executor co-mines multi-motif batches, so this is the
        inline runner it runs on)."""
        from repro.mining.chunks import INLINE
        from repro.mining.results import MiningCancelled

        calls = iter([False, True])
        with pytest.raises(MiningCancelled):
            INLINE.count_many(tiny_graph, [M1, M2], 100, cancel_check=lambda: next(calls))

    def test_inline_executor_comine_cancel(self, tiny_graph):
        from repro.mining.results import MiningCancelled
        from repro.service import InlineExecutor

        with pytest.raises(MiningCancelled):
            InlineExecutor().count_batch(
                tiny_graph, [M1, M2], 100, lambda: True
            )

    def test_inline_executor_comine_matches_per_motif(self, tiny_graph):
        from repro.service import InlineExecutor

        executor = InlineExecutor()
        comined = executor.count_batch(tiny_graph, [M1, M2], 100)
        assert executor.counters.get("comined_batches") == 1
        looped = [
            item for m in (M1, M2) for item in executor.count_batch(tiny_graph, [m], 100)
        ]
        assert executor.counters.get("comined_batches") == 1
        assert comined == looped
