"""Degraded-mode serving: breakers, broken-pool eviction, crash guards.

The serving layer's failure contract — *shed throughput, never
correctness* — pinned deterministically:

- a pool found broken/closed at checkout is rebuilt, not handed out
  again;
- an injected backend failure trips the per-graph breaker; while open,
  queries are mined serially inline (correct answers, degraded flag
  up); after the cooldown one probe closes it again;
- an unexpected dispatcher exception errors only the group in hand —
  the dispatch thread survives and later queries are served;
- ``/healthz`` reports 200 + ``degraded`` truthfully while serving and
  503 once the service genuinely cannot answer.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import time
from contextlib import closing
from http.client import HTTPConnection

import pytest

from parity_matrix import kill, own_children
from repro.mining.mackey import MackeyMiner
from repro.mining.results import MiningCancelled
from repro.motifs.catalog import M1, M2
from repro.resilience import CLOSED, HALF_OPEN, OPEN, FaultPlan
from repro.service import (
    MotifService,
    PoolExecutor,
    build_payload,
    payload_bytes,
)
from tests.conftest import random_temporal_graph, serving

DELTA = 50


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(31)
    return random_temporal_graph(rng, 30, 400, time_range=400)


@pytest.fixture(scope="module")
def expected(graph):
    out = {}
    for motif in (M1, M2):
        r = MackeyMiner(graph, motif, DELTA).mine()
        out[motif.name] = payload_bytes(
            build_payload(
                graph.fingerprint(), motif, DELTA, r.count,
                r.counters.as_dict(),
            )
        )
    return out


def assert_ok_and_correct(result, expected, motif):
    assert result.ok, result
    assert payload_bytes(result.payload) == expected[motif.name]


@pytest.mark.timeout(180)
class TestBrokenPoolCheckout:
    def test_closed_pool_is_evicted_and_rebuilt(self, graph, expected):
        before = multiprocessing.active_children()
        executor = PoolExecutor(2, respawn_budget=0)
        try:
            fp = graph.fingerprint()
            first = executor.count_batch(graph, [M1], DELTA)
            assert first[0][0] is not None
            # Break the pool from outside: no worker left, no budget.
            kill(own_children(before))
            assert executor.worker_liveness() == {"pool": {"live": 0, "target": 2}}
            again = executor.count_batch(graph, [M2], DELTA)
            payload = payload_bytes(
                build_payload(fp, M2, DELTA, again[0][0], again[0][1])
            )
            assert payload == expected[M2.name]
            assert executor.counters.get("pools_rebuilt") == 1
            # It was found broken at checkout, so the batch ran on the
            # rebuilt pool — not on the inline fallback.
            assert executor.counters.get("backend_failures") == 0
            assert executor.worker_liveness() == {"pool": {"live": 2, "target": 2}}
        finally:
            executor.close()


@pytest.mark.timeout(180)
class TestBreakerDegradation:
    def test_backend_failure_falls_back_inline_same_call(self, graph, expected):
        # breaker_failures=2: the first failure must NOT open the
        # breaker, yet the answer still arrives (inline fallback).
        executor = PoolExecutor(2, breaker_failures=2)
        plan = FaultPlan.raise_at("executor.batch", [1])
        try:
            with plan.installed():
                batch = executor.count_batch(graph, [M1], DELTA)
            payload = payload_bytes(
                build_payload(graph.fingerprint(), M1, DELTA,
                              batch[0][0], batch[0][1])
            )
            assert payload == expected[M1.name]
            assert executor.counters.get("backend_failures") == 1
            assert executor.counters.get("degraded_queries") == 1
            assert executor.breaker_states()[graph.fingerprint()] == CLOSED
            assert not executor.degraded
        finally:
            executor.close()

    def test_breaker_opens_then_probes_closed(self, graph, expected):
        executor = PoolExecutor(2, breaker_failures=1, breaker_cooldown_s=0.2)
        fp = graph.fingerprint()
        plan = FaultPlan.raise_at("executor.batch", [1])
        try:
            with plan.installed():
                executor.count_batch(graph, [M1], DELTA)  # trips it open
                assert executor.breaker_states()[fp] == OPEN
                assert executor.degraded
                # While open the pool is skipped entirely: the injected
                # site is never reached, the answer is mined inline.
                batch = executor.count_batch(graph, [M2], DELTA)
                payload = payload_bytes(
                    build_payload(fp, M2, DELTA, batch[0][0], batch[0][1])
                )
                assert payload == expected[M2.name]
                assert executor.counters.get("degraded_queries") >= 2
                assert len(plan.fired) == 1
                # Past the cooldown, one probe goes back through the
                # pool and closes the breaker.
                time.sleep(0.25)
                executor.count_batch(graph, [M1], DELTA)
            assert executor.breaker_states()[fp] == CLOSED
            assert executor.counters.get("breaker_opens") == 1
            assert executor.counters.get("breaker_half_opens") == 1
            assert executor.counters.get("breaker_closes") == 1
        finally:
            executor.close()

    def test_cancelled_probe_does_not_wedge_the_breaker(self, graph, expected):
        executor = PoolExecutor(2, breaker_failures=1, breaker_cooldown_s=0.2)
        fp = graph.fingerprint()
        plan = FaultPlan.raise_at("executor.batch", [1])
        try:
            with plan.installed():
                executor.count_batch(graph, [M1], DELTA)  # trips it open
                assert executor.breaker_states()[fp] == OPEN
                time.sleep(0.25)
                # The half-open probe is cancelled by its deadline: the
                # backend is judged neither good nor bad, and the probe
                # slot must be released — not held in flight forever.
                with pytest.raises(MiningCancelled):
                    executor.count_batch(
                        graph, [M1], DELTA, cancel_check=lambda: True
                    )
                assert executor.breaker_states()[fp] == HALF_OPEN
                # The next caller gets the re-armed probe; its success
                # closes the breaker instead of falling back inline.
                batch = executor.count_batch(graph, [M2], DELTA)
            payload = payload_bytes(
                build_payload(fp, M2, DELTA, batch[0][0], batch[0][1])
            )
            assert payload == expected[M2.name]
            assert executor.breaker_states()[fp] == CLOSED
        finally:
            executor.close()


@pytest.mark.timeout(180)
class TestDispatcherCrashGuard:
    def test_dispatcher_survives_unexpected_exceptions(self, graph, expected):
        with MotifService() as svc:
            svc.register_graph(graph, name="g")
            real_submit = svc.scheduler._lane_pool.submit
            calls = {"n": 0}

            def exploding_submit(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("lane pool exploded")
                return real_submit(*args, **kwargs)

            svc.scheduler._lane_pool.submit = exploding_submit
            bad = svc.query("g", M1, DELTA)
            assert bad.status == "error"
            assert "dispatcher error" in bad.error
            assert "lane pool exploded" in bad.error
            # The dispatch thread survived the crash and keeps serving.
            assert svc.scheduler.dispatcher_alive
            good = svc.query("g", M2, DELTA)
            assert_ok_and_correct(good, expected, M2)
            m = svc.metrics()
            assert m.dispatcher_crashes == 1
            assert svc.health()["ok"]


@pytest.mark.timeout(180)
class TestDegradedService:
    def test_injected_backend_failure_degrades_then_recovers(
        self, graph, expected
    ):
        executor = PoolExecutor(2, breaker_failures=1, breaker_cooldown_s=0.3)
        plan = FaultPlan.raise_at("executor.batch", [1])
        with plan.installed():
            with MotifService(executor=executor, cache_bytes=0) as svc:
                svc.register_graph(graph, name="g")
                # The failure is absorbed: correct answer, breaker open.
                r = svc.query("g", M1, DELTA)
                assert_ok_and_correct(r, expected, M1)
                health = svc.health()
                assert health["ok"] and health["degraded"]
                m = svc.metrics()
                assert m.degraded and m.breakers_open == 1
                assert m.backend_failures == 1
                assert m.degraded_queries >= 1
                # Recovery: past cooldown the probe closes the breaker.
                time.sleep(0.35)
                r2 = svc.query("g", M2, DELTA)
                assert_ok_and_correct(r2, expected, M2)
                health = svc.health()
                assert health["ok"] and not health["degraded"]
                assert not svc.metrics().degraded

    def test_render_includes_resilience_rows(self, graph):
        with MotifService() as svc:
            svc.register_graph(graph, name="g")
            svc.query("g", M1, DELTA)
            rendered = svc.render_metrics()
            for row in ("worker deaths", "chunk retries", "backend failures",
                        "degraded queries", "breaker opens", "degraded"):
                assert row in rendered


@pytest.mark.timeout(180)
class TestHealthEndpoint:
    @pytest.fixture()
    def served(self, graph):
        svc = MotifService()
        svc.register_graph(graph, name="g")
        with serving(svc) as address, closing(
            HTTPConnection(*address, timeout=10)
        ) as conn:
            yield conn, svc
        svc.close()

    @staticmethod
    def get_health(conn):
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    def test_healthz_degrades_to_503_when_not_serving(self, served):
        conn, svc = served
        status, body = self.get_health(conn)
        assert status == 200 and body["ok"]
        # Simulate a dead dispatcher (the one state where the service
        # cannot answer anything): healthz must flip to 503.
        svc.scheduler._dispatcher = _DeadThread()
        status, body = self.get_health(conn)
        assert status == 503
        assert body["ok"] is False
        assert body["dispatcher_alive"] is False


class _DeadThread:
    @staticmethod
    def is_alive() -> bool:
        return False

    @staticmethod
    def join(timeout=None) -> None:
        return None
