"""Tiered approximate serving through the service layer.

Contract under test — *every answer is labelled, exact is always
preferred, degradation never serves unlabelled bytes*:

- ``mode="approx"`` queries run adaptive sampling through the normal
  admit → coalesce → batch path and serve payloads carrying
  ``{estimate, stderr, ci, confidence, achieved_eps, accuracy}``;
- the cache tiers accuracy: exact entries are never downgraded,
  approximate entries are replaced by exact (a *refinement*) or by a
  tighter-ε estimate, and an exact hit satisfies an approx query;
- the degradation ladder (open breaker, full queue, missed deadline)
  serves the best available labelled estimate where the service would
  otherwise 504 / 429;
- the new counters flow into ``/metrics``.
"""

from __future__ import annotations

import json
import random
import threading
from http.client import HTTPConnection

import pytest

from repro.approx.engine import estimate_inline
from repro.approx.estimate import APPROX, EXACT, ApproxSpec, build_approx_payload
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1, M2
from repro.resilience import OPEN, FaultPlan
from repro.service import (
    MotifService,
    PoolExecutor,
    ResultCache,
    build_payload,
    payload_bytes,
    make_server,
)
from repro.service.query import MotifQuery, QueryRejected
from tests.conftest import random_temporal_graph

DELTA = 50
#: Cheap sampling contract used throughout: wide error budget, small cap.
SPEC = ApproxSpec(max_error=0.5, seed=1, base_samples=16, max_samples=64)


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(31)
    return random_temporal_graph(rng, 30, 400, time_range=400)


@pytest.fixture()
def service(graph):
    with MotifService() as svc:
        svc.register_graph(graph, name="g")
        yield svc


APPROX_FIELDS = {
    "estimate", "stderr", "ci", "confidence", "achieved_eps",
    "num_samples", "seed", "truncated", "accuracy",
}


def assert_labelled_approx(payload):
    assert APPROX_FIELDS <= set(payload)
    assert payload["accuracy"].startswith("approx(eps=")
    lo, hi = payload["ci"]
    assert lo <= payload["estimate"] <= hi


class TestQueryValidation:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown mode"):
            MotifQuery("fp", M1, 10, mode="fuzzy")
        with pytest.raises(ValueError, match="cannot carry an ApproxSpec"):
            MotifQuery("fp", M1, 10, mode=EXACT, approx=ApproxSpec())

    def test_approx_mode_defaults_spec(self):
        q = MotifQuery("fp", M1, 10, mode=APPROX)
        assert q.approx == ApproxSpec()

    def test_key_is_mode_independent(self):
        # Both modes fill the same cache slot.
        exact = MotifQuery("fp", M1, 10)
        approx = MotifQuery("fp", M1, 10, mode=APPROX)
        assert exact.key == approx.key


class TestApproxQueryMode:
    def test_approx_answer_is_labelled_and_deterministic(self, graph, service):
        r = service.query("g", M1, DELTA, approx=SPEC)
        assert r.ok and r.source == "mined"
        assert_labelled_approx(r.payload)
        # Byte parity with the inline engine (and hence the CLI): the
        # service's adaptive path walks the identical sample prefix.
        est = estimate_inline(graph, M1, DELTA, SPEC)
        expected = build_approx_payload(graph.fingerprint(), M1, DELTA, est)
        assert payload_bytes(r.payload) == payload_bytes(expected)

    def test_approx_result_is_cached(self, service):
        first = service.query("g", M1, DELTA, approx=SPEC)
        again = service.query("g", M1, DELTA, approx=SPEC)
        assert again.source == "cache"
        assert payload_bytes(again.payload) == payload_bytes(first.payload)

    def test_exact_query_never_accepts_approx_entry(self, graph, service):
        service.query("g", M1, DELTA, approx=SPEC)
        r = service.query("g", M1, DELTA)
        assert r.source == "mined"
        assert r.payload["accuracy"] == EXACT
        expected = MackeyMiner(graph, M1, DELTA).mine()
        assert r.payload["count"] == expected.count

    def test_exact_entry_satisfies_approx_query(self, service):
        service.query("g", M1, DELTA)  # exact, cached
        r = service.query("g", M1, DELTA, approx=SPEC)
        assert r.source == "cache"
        assert r.payload["accuracy"] == EXACT

    def test_tighter_request_remines(self, service):
        service.query("g", M1, DELTA, approx=SPEC)
        eps = service.cache.peek(
            MotifQuery(service.graphs()["g"], M1, DELTA).key
        ).achieved_eps
        tighter = ApproxSpec(
            max_error=eps / 4, seed=1, base_samples=16, max_samples=4096
        )
        r = service.query("g", M1, DELTA, approx=tighter)
        assert r.source == "mined"
        assert r.payload["achieved_eps"] <= eps / 4

    def test_exact_and_approx_do_not_coalesce(self, graph, service):
        service.scheduler.pause()
        try:
            exact = service.submit("g", M2, DELTA)
            approx = service.submit("g", M2, DELTA, approx=SPEC)
            assert service.scheduler.queue_depth == 2
            assert service.scheduler.coalesced == 0
        finally:
            service.scheduler.resume()
        assert exact.result().payload["accuracy"] == EXACT
        assert_labelled_approx(approx.result().payload)

    def test_identical_approx_queries_coalesce(self, service):
        service.scheduler.pause()
        try:
            a = service.submit("g", M2, DELTA, approx=SPEC)
            b = service.submit("g", M2, DELTA, approx=SPEC)
            assert service.scheduler.queue_depth == 1
            assert service.scheduler.coalesced == 1
        finally:
            service.scheduler.resume()
        assert payload_bytes(a.result().payload) == payload_bytes(
            b.result().payload
        )


class TestCacheTiers:
    def key(self):
        return ("fp", (), 10)

    def test_exact_never_downgraded(self):
        cache = ResultCache()
        cache.put(self.key(), 5, {})
        cache.put(
            self.key(), 6, {}, accuracy="approx(eps=0.01,alpha=0.05)",
            approx={"achieved_eps": 0.01, "confidence": 0.95},
        )
        entry = cache.peek(self.key())
        assert entry.is_exact and entry.count == 5

    def test_tighter_approx_replaces_looser(self):
        cache = ResultCache()
        loose = {"achieved_eps": 0.2, "confidence": 0.95}
        tight = {"achieved_eps": 0.05, "confidence": 0.95}
        cache.put(self.key(), 5, {}, accuracy="approx(a)", approx=loose)
        cache.put(self.key(), 6, {}, accuracy="approx(b)", approx=tight)
        assert cache.peek(self.key()).achieved_eps == 0.05
        # The looser estimate never displaces the tighter one.
        cache.put(self.key(), 7, {}, accuracy="approx(a)", approx=loose)
        assert cache.peek(self.key()).achieved_eps == 0.05

    def test_exact_upgrade_counts_as_refinement(self):
        cache = ResultCache()
        cache.put(
            self.key(), 5, {}, accuracy="approx(a)",
            approx={"achieved_eps": 0.2, "confidence": 0.95},
        )
        assert cache.stats()["approx_cache_entries"] == 1
        cache.put(self.key(), 6, {})
        stats = cache.stats()
        assert stats["refinements"] == 1
        assert stats["approx_cache_entries"] == 0
        assert cache.peek(self.key()).is_exact

    def test_exact_get_misses_approx_entry(self):
        cache = ResultCache()
        cache.put(
            self.key(), 5, {}, accuracy="approx(a)",
            approx={"achieved_eps": 0.2, "confidence": 0.95},
        )
        assert cache.get(self.key()) is None
        assert cache.get(self.key(), accept_approx=True) is not None
        stats = cache.stats()
        assert stats["cache_misses"] == 1 and stats["cache_hits"] == 1
        # The miss must not evict the entry.
        assert stats["cache_entries"] == 1

    def test_peek_does_not_touch_accounting(self):
        cache = ResultCache()
        cache.put(self.key(), 5, {})
        before = cache.stats()
        assert cache.peek(self.key()) is not None
        assert cache.peek(("other", (), 1)) is None
        after = cache.stats()
        assert (after["cache_hits"], after["cache_misses"]) == (
            before["cache_hits"], before["cache_misses"]
        )


class TestDegradedServing:
    def test_open_breaker_still_serves_labelled_estimate(self, graph):
        executor = PoolExecutor(2, breaker_failures=1, breaker_cooldown_s=60.0)
        plan = FaultPlan.raise_at("executor.batch", [1])
        fp = graph.fingerprint()
        with plan.installed():
            with MotifService(executor=executor, cache_bytes=0) as svc:
                svc.register_graph(graph, name="g")
                r = svc.query("g", M1, DELTA, approx=SPEC)  # trips the breaker
                assert r.ok
                assert_labelled_approx(r.payload)
                assert executor.breaker_states()[fp] == OPEN
                # While open, sampling runs inline — still labelled, and
                # byte-identical to the pooled path by construction.
                r2 = svc.query("g", M2, DELTA, approx=SPEC)
                assert r2.ok
                assert_labelled_approx(r2.payload)
                est = estimate_inline(graph, M2, DELTA, SPEC)
                assert payload_bytes(r2.payload) == payload_bytes(
                    build_approx_payload(fp, M2, DELTA, est)
                )
                m = svc.metrics()
                assert m.degraded_queries >= 1
                assert m.backend_failures == 1

    def test_queue_full_serves_stale_labelled_entry(self, graph):
        with MotifService(max_queue=1) as svc:
            svc.register_graph(graph, name="g")
            first = svc.query("g", M1, DELTA, approx=SPEC)
            svc.scheduler.pause()
            try:
                filler = svc.submit("g", M2, DELTA)  # occupies the queue
                # A stricter contract cannot take the cached entry as a
                # hit; under overload it is served anyway — labelled.
                tighter = ApproxSpec(
                    max_error=1e-6, seed=1, base_samples=16, max_samples=64
                )
                r = svc.query("g", M1, DELTA, approx=tighter)
                assert r.ok and r.source == "degraded"
                assert payload_bytes(r.payload) == payload_bytes(
                    first.payload
                )
                m = svc.metrics()
                assert m.degraded_estimates == 1
                # With nothing cached for the key, overload still sheds.
                with pytest.raises(QueryRejected):
                    svc.submit("g", "path3", DELTA, approx=SPEC)
            finally:
                svc.scheduler.resume()
            assert filler.result().ok

    def test_deadline_serves_truncated_partial(self, graph):
        # An unreachable error target with a huge budget: the run can
        # only end by deadline.  The first rounds complete in
        # milliseconds, so the expiring waiter finds a partial estimate
        # and is served it — labelled truncated — instead of a 504.
        endless = ApproxSpec(
            max_error=1e-12, seed=1, base_samples=16, max_samples=1 << 30
        )
        with MotifService() as svc:
            svc.register_graph(graph, name="g")
            r = svc.query("g", M1, DELTA, timeout_s=0.5, approx=endless)
            assert r.ok and r.source == "degraded"
            assert_labelled_approx(r.payload)
            assert r.payload["truncated"] is True
            m = svc.metrics()
            assert m.approx_served >= 1
            assert m.degraded_estimates >= 1

    def test_deadline_with_cached_entry_serves_it(self, graph):
        # A cached entry too loose for the new contract is not a cache
        # hit at admission — but when the stricter run misses its
        # deadline before producing any round, the fallback peeks the
        # cache and serves the stale estimate, labelled.
        with MotifService() as svc:
            svc.register_graph(graph, name="g")
            loose = svc.query("g", M1, DELTA, approx=SPEC)
            svc.scheduler.pause()  # the new query can never run
            try:
                r = svc.query("g", M1, DELTA, timeout_s=0.1, approx=ApproxSpec(
                    max_error=1e-6, seed=1, base_samples=16, max_samples=64
                ))
                assert r.ok and r.source == "degraded"
                assert_labelled_approx(r.payload)
                assert payload_bytes(r.payload) == payload_bytes(loose.payload)
            finally:
                svc.scheduler.resume()

    def test_deadline_without_anything_still_504s(self, graph):
        # The old contract is preserved when the ladder is empty.
        with MotifService() as svc:
            svc.register_graph(graph, name="g")
            svc.scheduler.pause()
            try:
                r = svc.query("g", M1, DELTA, timeout_s=0.1)
                assert not r.ok and r.status == "deadline_exceeded"
            finally:
                svc.scheduler.resume()


class TestMetricsPlumbing:
    def test_approx_counters_in_snapshot_and_render(self, service):
        service.query("g", M1, DELTA, approx=SPEC)
        service.query("g", M1, DELTA, approx=SPEC)  # cache hit, still approx
        m = service.metrics()
        assert m.approx_served == 2
        assert m.approx_eps_samples == 2
        assert m.approx_eps_p50 > 0
        assert m.approx_cache_entries == 1
        rendered = service.render_metrics()
        for row in ("approx served", "degraded estimates", "approx eps p50",
                    "approx cache entries"):
            assert row in rendered


class TestHTTPApprox:
    @pytest.fixture()
    def served(self, graph):
        svc = MotifService()
        svc.register_graph(graph, name="g")
        server = make_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = HTTPConnection(*server.server_address, timeout=30)
        try:
            yield conn, svc
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            svc.close()
            thread.join(timeout=5)

    @staticmethod
    def post_query(conn, body):
        conn.request("POST", "/query", json.dumps(body),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    def test_mode_approx_route(self, served):
        conn, _ = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M1", "delta": DELTA, "mode": "approx",
            "max_error": 0.5, "seed": 1, "max_samples": 64,
        })
        assert status == 200
        assert_labelled_approx(body)

    def test_error_fields_imply_approx_mode(self, served):
        conn, _ = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M1", "delta": DELTA, "max_error": 0.5,
        })
        assert status == 200
        assert_labelled_approx(body)

    def test_exact_route_labelled_exact(self, served, graph):
        conn, _ = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M2", "delta": DELTA,
        })
        assert status == 200
        assert body["accuracy"] == "exact"
        expected = MackeyMiner(graph, M2, DELTA).mine()
        assert body["count"] == expected.count

    def test_unknown_mode_is_400(self, served):
        conn, _ = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M1", "delta": DELTA, "mode": "fuzzy",
        })
        assert status == 400 and "unknown mode" in body["error"]

    def test_bad_approx_params_is_400(self, served):
        conn, _ = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M1", "delta": DELTA, "max_error": -1,
        })
        assert status == 400 and "bad approx parameters" in body["error"]
