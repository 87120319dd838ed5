"""Scheduler and end-to-end service behaviour.

The load-shaped acceptance test lives in ``test_service_load.py``; this
module pins the scheduler's individual guarantees deterministically:

- **differential parity** — every served payload (mined, coalesced or
  cached) is byte-identical to a direct miner run, across the whole
  motif catalog;
- **single-flight coalescing** — identical in-flight queries execute
  once (forced deterministically with the ``pause``/``resume`` hook);
- **batching** — compatible queries reach the backend as one call;
- **deadlines** — expiry cancels queued work without mining it and
  stops running batches at the next cancellation poll;
- **failure isolation** — one backend crash is absorbed by the single
  batch retry; persistent crashes yield ``"error"`` results and the
  scheduler keeps serving;
- **answer accounting** — every waiter gets one answer, and ``/metrics``
  counts exactly the answers clients received, whichever thread (the
  waiter's at its deadline, or the lane) got there first.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import MackeyMiner
from repro.mining.results import MiningCancelled
from repro.motifs.catalog import EVALUATION_MOTIFS, EXTRA_MOTIFS, M1, M2
from repro.service import (
    GraphRegistry,
    InlineExecutor,
    MotifService,
    QueryRejected,
    QueryScheduler,
    ResultCache,
    ServiceClosed,
    UnknownGraph,
    build_payload,
    payload_bytes,
)
from repro.service.query import MotifQuery

DELTA = 30


@pytest.fixture
def graph(burst_graph) -> TemporalGraph:
    return burst_graph


def direct_payload(graph: TemporalGraph, motif, delta: int) -> bytes:
    """The ground truth: a fresh serial miner run, canonically encoded."""
    result = MackeyMiner(graph, motif, delta).mine()
    return payload_bytes(
        build_payload(
            graph.fingerprint(), motif, delta, result.count,
            result.counters.as_dict(),
        )
    )


class RecordingExecutor(InlineExecutor):
    """Inline backend that records every batch it executes."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def count_batch(self, graph, motifs, delta, cancel_check=None):
        self.calls.append((graph.fingerprint(), [m.name for m in motifs], delta))
        return super().count_batch(graph, motifs, delta, cancel_check)


class CrashingExecutor(InlineExecutor):
    """Fails the first ``crashes`` batches, then behaves normally."""

    def __init__(self, crashes: int = 1) -> None:
        super().__init__()
        self.remaining = crashes

    def count_batch(self, graph, motifs, delta, cancel_check=None):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("worker crashed mid-query")
        return super().count_batch(graph, motifs, delta, cancel_check)


class BlockingExecutor(InlineExecutor):
    """Blocks in the cancellation poll until ``cancel_check`` fires."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()

    def count_batch(self, graph, motifs, delta, cancel_check=None):
        self.entered.set()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if cancel_check is not None and cancel_check():
                raise MiningCancelled("cancelled at poll")
            time.sleep(0.005)
        raise AssertionError("cancel_check never fired")


class CancellingExecutor(InlineExecutor):
    """Every batch is cancelled while running."""

    def count_batch(self, graph, motifs, delta, cancel_check=None):
        raise MiningCancelled("cancelled while running")


class GatedExecutor(InlineExecutor):
    """Holds every batch at a gate the test opens; ignores cancellation,
    so a run outlives its waiters' deadlines."""

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def count_batch(self, graph, motifs, delta, cancel_check=None):
        self.entered.set()
        assert self.gate.wait(10.0), "gate never opened"
        return super().count_batch(graph, motifs, delta)


def make_scheduler(executor, **kwargs):
    registry = GraphRegistry()
    scheduler = QueryScheduler(registry, ResultCache(), executor, **kwargs)
    return registry, scheduler


class TestDifferentialParity:
    def test_served_payloads_match_direct_miner_across_catalog(self, graph):
        """Acceptance: served bytes == direct-miner bytes, whole catalog."""
        with MotifService() as svc:
            for motif in EVALUATION_MOTIFS + EXTRA_MOTIFS:
                expected = direct_payload(graph, motif, DELTA)
                mined = svc.query(graph, motif, DELTA)
                assert mined.ok and mined.source == "mined"
                assert payload_bytes(mined.payload) == expected, motif.name
                cached = svc.query(graph, motif, DELTA)
                assert cached.ok and cached.source == "cache"
                assert payload_bytes(cached.payload) == expected, motif.name

    def test_coalesced_payloads_match_direct_miner(self, graph):
        with MotifService() as svc:
            svc.scheduler.pause()
            pending = [svc.submit(graph, M1, DELTA) for _ in range(5)]
            svc.scheduler.resume()
            expected = direct_payload(graph, M1, DELTA)
            results = [p.result() for p in pending]
            assert all(r.ok for r in results)
            assert {r.source for r in results} == {"mined", "coalesced"}
            assert sum(r.source == "coalesced" for r in results) == 4
            for r in results:
                assert payload_bytes(r.payload) == expected

    def test_pool_backed_parity(self, graph):
        with MotifService(num_workers=2) as svc:
            for motif in (M1, M2):
                r = svc.query(graph, motif, DELTA)
                assert r.ok
                assert payload_bytes(r.payload) == direct_payload(
                    graph, motif, DELTA
                )


class TestCoalescing:
    def test_identical_inflight_queries_execute_once(self, graph):
        executor = RecordingExecutor()
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        scheduler.pause()
        q = MotifQuery(graph.fingerprint(), M1, DELTA)
        pending = [scheduler.submit(q) for _ in range(4)]
        assert scheduler.queue_depth == 1  # one entry, four waiters
        scheduler.resume()
        results = [p.result() for p in pending]
        scheduler.close()
        assert all(r.ok for r in results)
        assert len(executor.calls) == 1
        m = scheduler.metrics()
        assert m.admitted == 4 and m.coalesced == 3
        assert m.coalesce_ratio == pytest.approx(0.75)

    def test_different_deltas_do_not_coalesce(self, graph):
        executor = RecordingExecutor()
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        scheduler.pause()
        p1 = scheduler.submit(MotifQuery(graph.fingerprint(), M1, 10))
        p2 = scheduler.submit(MotifQuery(graph.fingerprint(), M1, 20))
        scheduler.resume()
        assert p1.result().payload["count"] is not None
        assert p2.result().payload["delta"] == 20
        scheduler.close()
        assert scheduler.coalesced == 0


class TestBatching:
    def test_same_graph_same_delta_batches_into_one_call(self, graph):
        executor = RecordingExecutor()
        registry, scheduler = make_scheduler(executor, max_batch=8)
        registry.register(graph)
        from repro.service.query import MotifQuery

        scheduler.pause()
        pending = [
            scheduler.submit(MotifQuery(graph.fingerprint(), m, DELTA))
            for m in EVALUATION_MOTIFS
        ]
        scheduler.resume()
        results = [p.result() for p in pending]
        scheduler.close()
        assert all(r.ok for r in results)
        assert len(executor.calls) == 1
        assert executor.calls[0][1] == [m.name for m in EVALUATION_MOTIFS]
        # Each waiter got its own motif's answer.
        for motif, r in zip(EVALUATION_MOTIFS, results):
            assert payload_bytes(r.payload) == direct_payload(
                graph, motif, DELTA
            )


class TestDeadlines:
    def test_expired_queued_work_is_never_mined(self, graph):
        executor = RecordingExecutor()
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        scheduler.pause()
        pending = scheduler.submit(
            MotifQuery(graph.fingerprint(), M1, DELTA, timeout_s=0.02)
        )
        result = pending.result()  # blocks past the deadline, expires
        assert result.status == "deadline_exceeded"
        scheduler.resume()
        for _ in range(1000):  # let the dispatcher drain the dead entry
            metrics = scheduler.metrics()
            if metrics.queue_depth == 0 and metrics.inflight == 0:
                break
            time.sleep(0.01)
        scheduler.close()
        assert executor.calls == []  # cancelled *before* mining
        assert scheduler.cancelled >= 1

    def test_running_batch_cancelled_at_poll(self, graph):
        executor = BlockingExecutor()
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        pending = scheduler.submit(
            MotifQuery(graph.fingerprint(), M1, DELTA, timeout_s=0.05)
        )
        assert executor.entered.wait(2.0)  # batch is running
        result = pending.result()
        assert result.status == "deadline_exceeded"
        scheduler.close()
        assert scheduler.cancelled >= 1
        assert scheduler.errors == 0

    def test_no_deadline_waiter_keeps_batch_alive(self, graph):
        with MotifService() as svc:
            svc.scheduler.pause()
            timed = svc.submit(graph, M1, DELTA, timeout_s=0.01)
            forever = svc.submit(graph, M1, DELTA)  # coalesces, no deadline
            assert timed.result().status == "deadline_exceeded"
            svc.scheduler.resume()
            result = forever.result()
            assert result.ok
            assert payload_bytes(result.payload) == direct_payload(
                graph, M1, DELTA
            )


class TestFailureIsolation:
    def test_transient_backend_crash_is_retried_transparently(self, graph):
        # One crash is absorbed by the scheduler's single batch retry:
        # the client still gets a correct answer, and the retry is
        # visible in the resilience counters.
        executor = CrashingExecutor(crashes=1)
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        result = scheduler.submit(MotifQuery(graph.fingerprint(), M1, DELTA)).result()
        scheduler.close()
        assert result.ok
        assert payload_bytes(result.payload) == direct_payload(graph, M1, DELTA)
        assert scheduler.counters.get("batch_retries") == 1
        assert scheduler.errors == 0

    def test_backend_crash_yields_error_and_scheduler_survives(self, graph):
        # Two consecutive crashes exhaust the single retry: the group
        # errors, but the scheduler keeps serving.
        executor = CrashingExecutor(crashes=2)
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        bad = scheduler.submit(MotifQuery(graph.fingerprint(), M1, DELTA))
        result = bad.result()
        assert result.status == "error"
        assert "worker crashed mid-query" in result.error
        assert "RuntimeError" in result.error
        # The scheduler is not wedged: the next query mines normally.
        good = scheduler.submit(MotifQuery(graph.fingerprint(), M1, DELTA))
        ok = good.result()
        scheduler.close()
        assert ok.ok
        assert payload_bytes(ok.payload) == direct_payload(graph, M1, DELTA)
        assert scheduler.errors == 1
        assert scheduler.counters.get("batch_retries") == 1

    def test_unknown_graph_is_an_error_result(self, graph):
        registry, scheduler = make_scheduler(InlineExecutor())
        registry.register(graph)  # so the fingerprint below is truly absent
        from repro.service.query import MotifQuery

        pending = scheduler.submit(MotifQuery("deadbeef" * 4, M1, DELTA))
        result = pending.result()
        scheduler.close()
        assert result.status == "error"
        assert "unknown graph" in result.error

    def test_crash_does_not_poison_cache(self, graph):
        executor = CrashingExecutor(crashes=2)
        registry, scheduler = make_scheduler(executor)
        registry.register(graph)
        from repro.service.query import MotifQuery

        q = MotifQuery(graph.fingerprint(), M1, DELTA)
        assert scheduler.submit(q).result().status == "error"
        retry = scheduler.submit(q).result()
        scheduler.close()
        assert retry.ok and retry.source == "mined"  # not a cache hit


class TestOverload:
    def test_full_queue_sheds_with_retry_hint(self, graph):
        registry, scheduler = make_scheduler(InlineExecutor(), max_queue=2)
        registry.register(graph)
        from repro.service.query import MotifQuery

        scheduler.pause()
        fp = graph.fingerprint()
        scheduler.submit(MotifQuery(fp, M1, 10))
        scheduler.submit(MotifQuery(fp, M1, 20))
        with pytest.raises(QueryRejected) as exc_info:
            scheduler.submit(MotifQuery(fp, M1, 30))
        assert exc_info.value.retry_after_s > 0
        assert "queue full" in str(exc_info.value)
        # Identical to an in-flight key: coalesces instead of shedding.
        coalesced = scheduler.submit(MotifQuery(fp, M1, 10))
        scheduler.resume()
        assert coalesced.result().ok
        scheduler.close()
        assert scheduler.shed == 1


class TestLifecycle:
    def test_submit_after_close_raises(self, graph):
        registry, scheduler = make_scheduler(InlineExecutor())
        registry.register(graph)
        scheduler.close()
        from repro.service.query import MotifQuery

        with pytest.raises(ServiceClosed):
            scheduler.submit(MotifQuery(graph.fingerprint(), M1, DELTA))

    def test_close_drains_queued_entries_as_closed(self, graph):
        registry, scheduler = make_scheduler(InlineExecutor())
        registry.register(graph)
        from repro.service.query import MotifQuery

        scheduler.pause()
        pending = scheduler.submit(MotifQuery(graph.fingerprint(), M1, DELTA))
        scheduler.close()
        result = pending.result()
        assert result.status == "closed"
        assert "closed" in result.error

    def test_close_is_idempotent(self):
        _, scheduler = make_scheduler(InlineExecutor())
        scheduler.close()
        scheduler.close()


class TestServiceFrontEnd:
    def test_motif_by_name_and_graph_by_name(self, graph):
        with MotifService() as svc:
            fp = svc.register_graph(graph, name="burst")
            r = svc.query("burst", "M1", DELTA)
            assert r.ok
            assert r.payload["graph"] == fp
            assert r.payload["motif"] == "M1"

    def test_transient_graph_rides_idle_lru(self, graph):
        with MotifService(max_idle_graphs=2) as svc:
            r = svc.query(graph, M1, DELTA)  # never registered explicitly
            assert r.ok
            assert svc.registry.refcount(graph.fingerprint()) == 0
            assert svc.registry.idle_count == 1

    def test_registry_eviction_invalidates_cache_and_pool(self):
        with MotifService(max_idle_graphs=1) as svc:
            g1 = TemporalGraph([(0, 1, 1), (1, 2, 2), (2, 0, 3)])
            g2 = TemporalGraph([(0, 1, 4), (1, 2, 5), (2, 0, 6)])
            assert svc.query(g1, M1, 10).ok
            assert svc.cache.entry_count == 1
            assert svc.query(g2, M1, 10).ok  # evicts g1 from the idle LRU
            assert g1.fingerprint() not in svc.registry
            # g1's cache entries went with it: a re-query re-mines.
            again = svc.query(g1, M1, 10)
            assert again.ok and again.source == "mined"

    def test_live_window_query_matches_direct_window_mine(self, graph):
        with MotifService() as svc:
            svc.create_live_graph("live", DELTA)
            sub = svc.subscribe("live", M1)
            edges = list(zip(graph.src.tolist(), graph.dst.tolist(),
                             graph.ts.tolist()))
            svc.append_live("live", edges)
            # The running count comes from the subscription.
            assert sub.count == MackeyMiner(graph, M1, DELTA).mine().count
            r = svc.live_window_query("live", M2)
            assert r.ok
            # Ground truth: mine M2 on the live graph's current window.
            window = svc.live.get("live").window_snapshot()
            assert payload_bytes(r.payload) == direct_payload(
                window, M2, DELTA
            )
            # Unchanged window, same question: served from cache.
            again = svc.live_window_query("live", M2)
            assert again.ok and again.source == "cache"
            with pytest.raises(UnknownGraph):
                svc.live_window_query("nope", M2)


class TestAnswerAccounting:
    """One cell per way a waiter can be answered.  Each cell asserts
    that ``/metrics`` counts exactly what the clients received, and
    that asking a handle twice neither changes its answer nor moves a
    counter.  Deterministic: ``pause()`` holds queued work, the fake
    executors decide how a run ends, and a deadline is only ever waited
    out by a handle whose run cannot answer first."""

    def setup(self, graph, executor=None, **kwargs):
        registry, scheduler = make_scheduler(executor or InlineExecutor(), **kwargs)
        registry.register(graph)
        return scheduler

    def settle(self, scheduler, pending, results):
        scheduler.close()  # every lane has answered by now
        m = scheduler.metrics()
        statuses = [r.status for r in results]
        assert m.completed + m.cancelled + m.errors == m.admitted
        assert m.completed == statuses.count("ok")
        assert m.cancelled == statuses.count("deadline_exceeded")
        assert m.errors == statuses.count("error") + statuses.count("closed")
        assert m.latency_samples == m.completed
        for p, r in zip(pending, results):
            assert p.result() is r
        assert scheduler.metrics().as_dict() == m.as_dict()
        return m

    def query(self, graph, **kwargs):
        return MotifQuery(graph.fingerprint(), M1, DELTA, **kwargs)

    def test_exact_cache_hit(self, graph):
        scheduler = self.setup(graph)
        pending, results = [], []
        for _ in range(2):
            pending.append(scheduler.submit(self.query(graph)))
            results.append(pending[-1].result())
        assert [r.source for r in results] == ["mined", "cache"]
        self.settle(scheduler, pending, results)

    def test_mined(self, graph):
        scheduler = self.setup(graph)
        pending = [scheduler.submit(self.query(graph))]
        results = [p.result() for p in pending]
        assert results[0].source == "mined"
        self.settle(scheduler, pending, results)

    def test_coalesced(self, graph):
        scheduler = self.setup(graph)
        scheduler.pause()
        pending = [scheduler.submit(self.query(graph)) for _ in range(3)]
        scheduler.resume()
        results = [p.result() for p in pending]
        assert [r.source for r in results] == ["mined", "coalesced", "coalesced"]
        self.settle(scheduler, pending, results)

    def test_overload_without_cached_entry_sheds(self, graph):
        scheduler = self.setup(graph, max_queue=1)
        scheduler.pause()
        pending = [scheduler.submit(MotifQuery(graph.fingerprint(), M2, DELTA))]
        with pytest.raises(QueryRejected):
            scheduler.submit(self.query(graph))
        scheduler.resume()
        results = [p.result() for p in pending]
        m = self.settle(scheduler, pending, results)
        assert (m.admitted, m.shed) == (1, 1)

    def test_deadline_while_queued_without_cached_entry(self, graph):
        """A 504'd leader and its no-deadline follower: one 504, one 200."""
        scheduler = self.setup(graph)
        scheduler.pause()
        pending = [
            scheduler.submit(self.query(graph, timeout_s=0.01)),
            scheduler.submit(self.query(graph)),
        ]
        leader = pending[0].result()
        assert leader.status == "deadline_exceeded"
        scheduler.resume()
        results = [leader, pending[1].result()]
        assert results[1].ok
        m = self.settle(scheduler, pending, results)
        assert (m.completed, m.cancelled, m.latency_samples) == (1, 1, 1)

    def test_deadline_while_running_then_lane_completes(self, graph):
        executor = GatedExecutor()
        scheduler = self.setup(graph, executor)
        scheduler.pause()
        pending = [
            scheduler.submit(self.query(graph, timeout_s=0.05)),
            scheduler.submit(self.query(graph)),
        ]
        scheduler.resume()
        assert executor.entered.wait(10.0)
        leader = pending[0].result()
        assert leader.status == "deadline_exceeded"
        executor.gate.set()
        results = [leader, pending[1].result()]
        assert results[1].ok and results[1].source == "coalesced"
        # The lane answered both; the leader's answer was already given,
        # so the lane's was dropped and not counted.
        assert pending[0].result() is leader
        m = self.settle(scheduler, pending, results)
        assert (m.completed, m.cancelled, m.latency_samples) == (1, 1, 1)

    def test_lane_cancelled_without_cached_entry(self, graph):
        scheduler = self.setup(graph, CancellingExecutor())
        pending = [scheduler.submit(self.query(graph))]
        results = [p.result() for p in pending]
        assert results[0].status == "deadline_exceeded"
        assert results[0].error == "cancelled while running"
        self.settle(scheduler, pending, results)

    def test_backend_error_twice(self, graph):
        scheduler = self.setup(graph, CrashingExecutor(crashes=2))
        pending = [scheduler.submit(self.query(graph))]
        results = [p.result() for p in pending]
        assert results[0].status == "error"
        self.settle(scheduler, pending, results)

    def test_closed_before_execution(self, graph):
        scheduler = self.setup(graph)
        scheduler.pause()
        pending = [scheduler.submit(self.query(graph)) for _ in range(2)]
        scheduler.close()
        results = [p.result() for p in pending]
        assert [r.status for r in results] == ["closed", "closed"]
        assert self.settle(scheduler, pending, results).errors == 2

