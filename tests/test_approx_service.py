"""The service answers exactly, whatever approximation a request asks for.

Contract under test — *the service never samples*:

- ``mode="approx"`` and any other mode but ``"exact"`` is a 400 over
  HTTP;
- the error-bound fields an estimate would take (``max_error``,
  ``confidence``, ``seed``, ``max_samples``) are unread, so a body that
  carries them is served the exact payload;
- the exact payload is labelled ``accuracy: "exact"``;
- a missed deadline with nothing dispatched is still
  ``deadline_exceeded``: there is no estimate to degrade to.
"""

from __future__ import annotations

import json
import random
from contextlib import closing
from http.client import HTTPConnection

import pytest

from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1, M2
from repro.service import MotifService, build_payload, payload_bytes
from tests.conftest import random_temporal_graph, serving

DELTA = 50


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(31)
    return random_temporal_graph(rng, 30, 400, time_range=400)


class TestDegradedServing:
    def test_deadline_without_anything_still_504s(self, graph):
        with MotifService() as svc:
            svc.register_graph(graph, name="g")
            svc.scheduler.pause()
            try:
                r = svc.query("g", M1, DELTA, timeout_s=0.1)
                assert not r.ok and r.status == "deadline_exceeded"
            finally:
                svc.scheduler.resume()


class TestHTTPApprox:
    @pytest.fixture()
    def served(self, graph):
        svc = MotifService()
        fp = svc.register_graph(graph, name="g")
        with serving(svc) as address, closing(
            HTTPConnection(*address, timeout=30)
        ) as conn:
            yield conn, fp
        svc.close()

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
        assert status == 400 and "unknown mode" in body["error"]

    def test_error_fields_imply_approx_mode(self, served, graph):
        # The fields are unread: the body is served the exact payload.
        conn, fp = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M1", "delta": DELTA, "max_error": 0.1,
            "confidence": 0.9, "seed": 3, "max_samples": 8,
        })
        assert status == 200
        result = MackeyMiner(graph, M1, DELTA).mine()
        assert payload_bytes(body) == payload_bytes(build_payload(
            fp, M1, DELTA, result.count, result.counters.as_dict()
        ))

    def test_exact_route_labelled_exact(self, served, graph):
        conn, _ = served
        status, body = self.post_query(conn, {
            "graph": "g", "motif": "M2", "delta": DELTA, "mode": "exact",
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
