"""HTTP endpoint tests for ``repro serve``.

Binds a real :class:`ServiceHTTPServer` to an ephemeral port, drives it
with ``http.client`` from the same process and checks every route plus
the error mapping (400 bad input, 404 unknown, 429 overload with
``Retry-After``, 504 missed deadline).
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1
from repro.service import MotifService, build_payload, make_server, payload_bytes

DELTA = 30

#: The ``/metrics`` JSON keys, sorted.
METRIC_NAMES = [
    "admitted", "approx_cache_entries", "approx_eps_p50", "approx_eps_p99",
    "approx_eps_samples", "approx_served", "backend_failures",
    "batch_retries", "breaker_closes", "breaker_half_opens", "breaker_opens",
    "breakers_open", "cache_bytes", "cache_bytes_per_entry", "cache_entries",
    "cache_evictions", "cache_hit_rate", "cache_hits", "cache_misses",
    "cancelled", "chunk_retries", "coalesce_ratio", "coalesced",
    "comined_batches", "completed", "degraded", "degraded_estimates",
    "degraded_queries", "delivery_lag_p50_s", "delivery_lag_p99_s",
    "delivery_lag_samples", "dispatcher_crashes", "duplicate_batches",
    "edges_ingested", "engine", "errors", "events_delivered",
    "events_dropped", "failovers", "gap_events", "graph_ships", "inflight",
    "ingest_batches", "late_edges_dropped", "latency_p50_s", "latency_p99_s",
    "latency_samples", "live_graphs", "live_shared_counters",
    "live_subscriptions", "node_deaths", "pools_rebuilt", "queue_depth",
    "resident_graphs", "shed", "subscription_fires",
    "wedged_kills", "worker_deaths", "worker_respawns",
]

#: The ``/metrics?format=text`` label column, in row order.
METRIC_LABELS = [
    "queue depth", "in flight", "admitted", "coalesced", "coalesce ratio",
    "shed (rejected)", "completed", "errors", "cancelled (deadline)",
    "cache hits", "cache misses", "cache hit rate", "cache entries",
    "cache bytes", "cache bytes per entry", "cache evictions",
    "resident graphs", "latency p50 (ms)", "latency p99 (ms)",
    "latency samples", "engine", "worker deaths", "wedged kills",
    "chunk retries", "worker respawns", "node deaths", "graph ships",
    "failovers", "backend failures", "degraded queries", "co-mined batches",
    "batch retries", "dispatcher crashes", "pools rebuilt", "breaker opens",
    "breaker half-opens", "breaker closes", "breakers open (now)", "degraded",
    "approx served", "degraded estimates",
    "approx eps p50", "approx eps p99", "approx eps samples",
    "approx cache entries", "edges ingested", "ingest batches",
    "duplicate batches", "late edges dropped", "subscription fires",
    "events delivered", "events dropped", "gap events", "live graphs (now)",
    "live subscriptions (now)", "live shared counters (now)",
    "delivery lag p50 (ms)", "delivery lag p99 (ms)", "delivery lag samples",
]


@pytest.fixture
def served_graph(burst_graph):
    """A live server with one registered graph; yields (conn, graph, fp)."""
    service = MotifService(max_queue=4)
    fp = service.register_graph(burst_graph, name="burst")
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    conn = HTTPConnection(host, port, timeout=10)
    try:
        yield conn, burst_graph, fp, service
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


def request(conn, method, path, body=None):
    payload = None if body is None else json.dumps(body)
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    return resp, json.loads(raw) if raw else {}


class TestRoutes:
    def test_healthz(self, served_graph):
        conn, *_ = served_graph
        resp, body = request(conn, "GET", "/healthz")
        assert resp.status == 200
        assert body["ok"] is True
        assert body["degraded"] is False
        assert body["dispatcher_alive"] is True
        assert body["queue_depth"] == 0
        assert body["breakers"] == {}
        assert body["dispatcher_crashes"] == 0
        assert body["engine"] == "batched"

    def test_query_matches_direct_miner(self, served_graph):
        conn, graph, fp, _ = served_graph
        resp, body = request(
            conn, "POST", "/query",
            {"graph": "burst", "motif": "M1", "delta": DELTA},
        )
        assert resp.status == 200
        result = MackeyMiner(graph, M1, DELTA).mine()
        expected = build_payload(fp, M1, DELTA, result.count,
                                 result.counters.as_dict())
        assert payload_bytes(body) == payload_bytes(expected)

    def test_query_by_fingerprint_and_motif_spec(self, served_graph):
        conn, graph, fp, _ = served_graph
        resp, body = request(
            conn, "POST", "/query",
            {"graph": fp, "motif_spec": "A->B, B->C, C->A", "delta": DELTA},
        )
        assert resp.status == 200
        # Same canonical key as M1: the count agrees.
        assert body["count"] == MackeyMiner(graph, M1, DELTA).mine().count

    def test_graphs_listing(self, served_graph):
        conn, graph, fp, _ = served_graph
        resp, body = request(conn, "GET", "/graphs")
        assert resp.status == 200
        assert body["graphs"]["burst"]["fingerprint"] == fp
        assert body["graphs"]["burst"]["num_edges"] == graph.num_edges

    def test_graph_upload_then_query(self, served_graph):
        conn, *_ = served_graph
        edges = [[0, 1, 5], [1, 2, 10], [2, 0, 20]]
        resp, body = request(
            conn, "POST", "/graphs", {"name": "tri", "edges": edges}
        )
        assert resp.status == 200
        expected_fp = TemporalGraph(
            [tuple(e) for e in edges]
        ).fingerprint()
        assert body["fingerprint"] == expected_fp
        resp, body = request(
            conn, "POST", "/query",
            {"graph": "tri", "motif": "M1", "delta": 100},
        )
        assert resp.status == 200 and body["count"] == 1

    def test_metrics_json_and_text(self, served_graph):
        conn, *_ = served_graph
        request(conn, "POST", "/query",
                {"graph": "burst", "motif": "M1", "delta": DELTA})
        resp, body = request(conn, "GET", "/metrics")
        assert resp.status == 200
        metrics = body["metrics"]
        assert metrics["admitted"] >= 1
        assert "coalesce_ratio" in metrics
        # The engine that answered, and what its answer costs the cache:
        # one packed exact entry, booked at what it keeps resident.
        assert metrics["engine"] == "batched"
        assert metrics["cache_entries"] == 1
        assert metrics["cache_bytes_per_entry"] == metrics["cache_bytes"]
        assert 200 <= metrics["cache_bytes"] <= 400
        conn.request("GET", "/metrics?format=text")
        resp = conn.getresponse()
        text = resp.read().decode()
        assert resp.status == 200
        assert "coalesce ratio" in text
        assert re.search(r"engine\s*\| batched", text)
        assert re.search(r"cache bytes per entry\s*\| \d+\.\d", text)

    def test_metrics_surface_is_pinned(self, served_graph):
        """Every name ``/metrics`` reports, and every text-body label in
        order: a metric is added, renamed or dropped only on purpose."""
        conn, *_ = served_graph
        _, body = request(conn, "GET", "/metrics")
        assert sorted(body["metrics"]) == METRIC_NAMES
        conn.request("GET", "/metrics?format=text")
        lines = conn.getresponse().read().decode().splitlines()
        assert lines[0].split(" | ")[0].rstrip() == "metric"
        labels = [line.split(" | ")[0].rstrip() for line in lines[2:]]
        assert labels == METRIC_LABELS


class TestStreamsRoutes:
    def test_stream_lifecycle(self, served_graph):
        conn, graph, _, service = served_graph
        resp, body = request(
            conn, "POST", "/streams",
            {"name": "live", "motif": "M1", "delta": DELTA},
        )
        assert resp.status == 200 and body["stream"] == "live"
        edges = list(zip(graph.src.tolist(), graph.dst.tolist(),
                         graph.ts.tolist()))
        resp, body = request(
            conn, "POST", "/streams/live/edges", {"edges": edges}
        )
        assert resp.status == 200
        assert body["appended"] == graph.num_edges
        resp, body = request(conn, "GET", "/streams/live")
        assert resp.status == 200
        assert body["motif"] == "M1" and body["num_edges"] == graph.num_edges
        resp, body = request(
            conn, "POST", "/streams/live/window-query",
            {"motif": "M2"},
        )
        assert resp.status == 200
        window = service._stream("live").counter.window_snapshot()
        assert body["graph"] == window.fingerprint()

    def test_unknown_stream_404(self, served_graph):
        conn, *_ = served_graph
        resp, body = request(conn, "GET", "/streams/nope")
        assert resp.status == 404 and "unknown stream" in body["error"]


class TestErrorMapping:
    def test_unknown_route_404(self, served_graph):
        conn, *_ = served_graph
        resp, _ = request(conn, "GET", "/nope")
        assert resp.status == 404
        resp, _ = request(conn, "POST", "/nope", {"x": 1})
        assert resp.status == 404

    def test_unknown_graph_404(self, served_graph):
        conn, *_ = served_graph
        resp, body = request(
            conn, "POST", "/query",
            {"graph": "missing", "motif": "M1", "delta": DELTA},
        )
        assert resp.status == 404 and "unknown graph" in body["error"]

    def test_unknown_motif_404(self, served_graph):
        conn, *_ = served_graph
        resp, _ = request(
            conn, "POST", "/query",
            {"graph": "burst", "motif": "M99", "delta": DELTA},
        )
        assert resp.status == 404

    def test_missing_body_400(self, served_graph):
        conn, *_ = served_graph
        conn.request("POST", "/query")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 400 and "body" in body["error"]

    def test_invalid_json_400(self, served_graph):
        conn, *_ = served_graph
        conn.request("POST", "/query", body="{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        assert "invalid JSON" in json.loads(resp.read())["error"]

    def test_missing_field_400(self, served_graph):
        conn, *_ = served_graph
        resp, body = request(conn, "POST", "/query", {"graph": "burst"})
        assert resp.status == 400 and "delta" in body["error"]

    def test_bad_motif_spec_400(self, served_graph):
        conn, *_ = served_graph
        resp, body = request(
            conn, "POST", "/query",
            {"graph": "burst", "motif_spec": "A=>B", "delta": DELTA},
        )
        assert resp.status == 400 and "motif_spec" in body["error"]

    def test_deadline_maps_to_504(self, served_graph):
        conn, _, _, service = served_graph
        service.scheduler.pause()  # nothing dispatches: deadline must fire
        try:
            resp, body = request(
                conn, "POST", "/query",
                {"graph": "burst", "motif": "M1", "delta": DELTA,
                 "timeout_s": 0.05},
            )
            assert resp.status == 504
            assert "deadline" in body["error"]
        finally:
            service.scheduler.resume()

    def test_deadline_inside_the_mine_cancels_it_at_a_tile(
        self, served_graph, monkeypatch
    ):
        """A miss whose deadline passes while the family walker is
        mining is answered 504, and the mine itself stops at its next
        cancellation poll — a frontier tile, since a graph smaller than
        one root block has a single per-block poll, the first."""
        from repro.comine.engine import CoMiner
        from repro.mining.parallel import MiningCancelled

        conn, _, _, service = served_graph
        polls, cancelled_at, release = [], [], threading.Event()
        poll = CoMiner._poll_cancel

        def held_poll(miner):
            polls.append(len(polls) + 1)
            if len(polls) == 2:
                assert release.wait(10.0)  # the mine outlasts its deadline
            try:
                poll(miner)
            except MiningCancelled:
                cancelled_at.append(len(polls))
                raise

        monkeypatch.setattr(CoMiner, "_poll_cancel", held_poll)
        try:
            resp, body = request(
                conn, "POST", "/query",
                {"graph": "burst", "motif": "M1", "delta": DELTA,
                 "timeout_s": 0.05},
            )
        finally:
            release.set()
        assert resp.status == 504 and "deadline" in body["error"]
        for _ in range(1000):
            if service.scheduler.metrics().inflight == 0:
                break
            time.sleep(0.01)
        assert cancelled_at == [2]
        metrics = service.metrics()
        assert metrics.cancelled == 1 and metrics.errors == 0
        assert metrics.cache_entries == 0  # nothing half-mined was kept

    def test_overload_maps_to_429_with_retry_after(self, served_graph):
        conn, _, fp, service = served_graph
        service.scheduler.pause()
        try:
            # Fill the (size 4) admission queue with distinct keys.
            from repro.service.query import MotifQuery

            for delta in range(1, 5):
                service.scheduler.submit(MotifQuery(fp, M1, delta))
            resp, body = request(
                conn, "POST", "/query",
                {"graph": "burst", "motif": "M1", "delta": 999},
            )
            assert resp.status == 429
            assert body["retry_after_s"] > 0
            assert int(resp.getheader("Retry-After")) >= 1
        finally:
            service.scheduler.resume()


class TestKeepAliveFraming:
    """A request body no route read must not become the next request."""

    @staticmethod
    def healthz_on_same_socket(conn, sock):
        resp, body = request(conn, "GET", "/healthz")
        assert resp.status == 200 and body["ok"] is True
        assert resp.getheader("Content-Type") == "application/json"
        assert conn.sock is sock, "the connection was reused, not reopened"

    def test_unknown_route_post_with_body_then_get(self, served_graph):
        conn, *_ = served_graph
        resp, _ = request(conn, "POST", "/nope", {"graph": "burst", "x": [1] * 50})
        assert resp.status == 404 and resp.getheader("Connection") is None
        self.healthz_on_same_socket(conn, conn.sock)

    def test_delete_and_get_with_bodies_then_get(self, served_graph):
        conn, *_ = served_graph
        resp, _ = request(conn, "DELETE", "/subscriptions/sub-9", {"why": "x"})
        assert resp.status == 404
        sock = conn.sock
        resp, _ = request(conn, "GET", "/graphs", {"unexpected": True})
        assert resp.status == 200
        self.healthz_on_same_socket(conn, sock)

    def test_undrainable_body_closes_the_connection(self, served_graph,
                                                   monkeypatch):
        import repro.service.http as http_mod

        conn, *_ = served_graph
        monkeypatch.setattr(http_mod, "MAX_DRAIN_BYTES", 8)
        resp, _ = request(conn, "POST", "/nope", {"longer": "than eight"})
        assert resp.status == 404
        assert resp.getheader("Connection") == "close"
        # A length that cannot be parsed cannot be drained either.
        conn.putrequest("POST", "/query")
        conn.putheader("Content-Length", "ten")
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400 and resp.getheader("Connection") == "close"
        assert "error" in json.loads(resp.read())
        resp, body = request(conn, "GET", "/healthz")  # http.client reconnects
        assert resp.status == 200 and body["ok"] is True


class TestServeCLIBuilder:
    def test_build_serve_server_registers_and_binds(self, tmp_path, capsys):
        from repro.cli import _build_parser, build_serve_server
        from repro.graph.loaders import save_snap_text

        g = TemporalGraph([(0, 1, 5), (1, 2, 10), (2, 0, 20)])
        path = tmp_path / "tri.txt"
        save_snap_text(g, path)
        args = _build_parser().parse_args(
            ["serve", f"tri={path}", "--port", "0"]
        )
        service, server = build_serve_server(args)
        try:
            assert "registered 'tri'" in capsys.readouterr().out
            assert service.graphs() == {"tri": g.fingerprint()}
            assert server.server_address[1] != 0  # a real port was bound
        finally:
            server.server_close()
            service.close()

    def test_bare_path_uses_stem_as_name(self, tmp_path, capsys):
        from repro.cli import _build_parser, build_serve_server
        from repro.graph.loaders import save_snap_text

        g = TemporalGraph([(0, 1, 5), (1, 2, 10)])
        path = tmp_path / "mygraph.txt"
        save_snap_text(g, path)
        args = _build_parser().parse_args(["serve", str(path), "--port", "0"])
        service, server = build_serve_server(args)
        try:
            assert "mygraph" in service.graphs()
        finally:
            server.server_close()
            service.close()
