"""HTTP surface of repro.live: ingest routes, long-poll, SSE push, and
the bounded-outbox slow-consumer guarantees."""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import closing
from http.client import HTTPConnection

import pytest

from repro.graph.generators import make_dataset
from repro.resilience.faults import FaultPlan
from conftest import serving
from repro.service import MotifService
from repro.service.http import ServiceRequestHandler

DELTA = 1_000_000


@pytest.fixture
def live_server():
    service = MotifService(max_queue=8)
    with serving(service) as address, closing(
        HTTPConnection(*address, timeout=30)
    ) as conn:
        yield conn, service, address
    service.close()


def request(conn, method, path, body=None, headers=None):
    payload = None if body is None else json.dumps(body)
    hdrs = dict(headers or {})
    if payload:
        hdrs.setdefault("Content-Type", "application/json")
    conn.request(method, path, body=payload, headers=hdrs)
    resp = conn.getresponse()
    raw = resp.read()
    return resp, json.loads(raw) if raw else {}


def create_feed(conn, name="feed", delta=DELTA, **extra):
    body = {"name": name, "delta": delta}
    body.update(extra)
    resp, out = request(conn, "POST", "/live", body)
    assert resp.status == 200, out
    return out


def parse_sse(raw):
    """Split an SSE byte stream into frames ({'id','event','data'}) and
    comment lines (heartbeats)."""
    frames, comments = [], []
    for chunk in raw.decode("utf-8").split("\n\n"):
        if not chunk.strip():
            continue
        frame = {}
        for line in chunk.splitlines():
            if line.startswith(":"):
                comments.append(line)
                continue
            key, _, value = line.partition(":")
            frame[key] = value.strip()
        if frame:
            frames.append(frame)
    return frames, comments


class TestLiveRoutes:
    def test_create_list_status_drop(self, live_server):
        conn, _, _ = live_server
        out = create_feed(conn, lateness=5, reorder_capacity=64)
        assert out["graph"] == "feed" and out["version"] == 0
        resp, listing = request(conn, "GET", "/live")
        assert resp.status == 200 and listing["live"] == ["feed"]
        resp, status = request(conn, "GET", "/live/feed")
        assert resp.status == 200
        assert status["reorder"]["capacity"] == 64
        resp, _ = request(conn, "DELETE", "/live/feed")
        assert resp.status == 200
        resp, _ = request(conn, "GET", "/live/feed")
        assert resp.status == 404

    def test_create_rejects_collisions_and_bad_input(self, live_server):
        conn, service, _ = live_server
        g = make_dataset("email-eu", scale=0.02, seed=0)
        service.register_graph(g, name="static")
        resp, _ = request(conn, "POST", "/live",
                          {"name": "static", "delta": DELTA})
        assert resp.status == 400
        create_feed(conn)
        resp, _ = request(conn, "POST", "/live",
                          {"name": "feed", "delta": DELTA})
        assert resp.status == 400
        resp, _ = request(conn, "POST", "/live", {"name": "x"})
        assert resp.status == 400  # missing delta

    @pytest.mark.parametrize("delta", [True, "10", 10.7, 2**70],
                             ids=["bool", "string", "10.7", "2^70"])
    @pytest.mark.parametrize("route,body", [
        ("/live", {"name": "other"}),
        ("/subscriptions", {"graph": "feed", "motif": "M1"}),
        ("/live/feed/window-query", {"motif": "M1"}),
    ], ids=["live", "subscriptions", "window-query"])
    def test_a_bad_delta_is_a_400_on_every_route(
        self, live_server, route, body, delta
    ):
        conn, _, _ = live_server
        create_feed(conn)
        resp, out = request(conn, "POST", route, {**body, "delta": delta})
        assert resp.status == 400 and "delta" in out["error"]
        resp, listing = request(conn, "GET", "/live")
        assert listing["live"] == ["feed"]

    @pytest.mark.parametrize("field,value,route,body", [
        ("seq", 7.9, "/graphs/feed/edges", {"edges": [[1, 2, 20]]}),
        ("threshold", True, "/subscriptions", {"graph": "feed", "motif": "M1"}),
        ("lateness", True, "/live", {"name": "other", "delta": DELTA}),
        ("reorder_capacity", 2**70, "/live", {"name": "other", "delta": DELTA}),
        ("outbox_capacity", 2**70, "/subscriptions", {"graph": "feed", "motif": "M1"}),
        ("flush", "false", "/graphs/feed/edges", {"edges": [[1, 2, 20]]}),
    ], ids=["seq", "threshold", "lateness", "reorder_capacity", "outbox_capacity",
            "flush"])
    def test_a_bad_integer_or_flag_field_is_a_400(
        self, live_server, field, value, route, body
    ):
        """Checked, not coerced: ``int(7.9)`` would ack a new batch as a
        duplicate of ``seq`` 7 and drop its edge."""
        conn, _, _ = live_server
        create_feed(conn)
        resp, ack = request(conn, "POST", "/graphs/feed/edges",
                            {"edges": [[0, 1, 10]], "seq": 7})
        assert resp.status == 200 and not ack["duplicate"]
        resp, out = request(conn, "POST", route, {**body, field: value})
        assert resp.status == 400 and field in out["error"], out
        resp, status = request(conn, "GET", "/live/feed")
        assert (status["num_edges"], status["subscriptions"]) == (1, 0)
        resp, listing = request(conn, "GET", "/live")
        assert listing["live"] == ["feed"]

    def test_a_query_string_does_not_change_a_delete_route(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        resp, out = request(conn, "DELETE", "/live/feed?x=1")
        assert resp.status == 200 and out == {"dropped": "feed"}
        resp, _ = request(conn, "GET", "/live/feed")
        assert resp.status == 404

    def test_append_acks_and_idempotency(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        batch = {"edges": [[0, 1, 10], [1, 2, 20]], "seq": 1}
        resp, ack = request(conn, "POST", "/graphs/feed/edges", batch)
        assert resp.status == 200
        assert ack["released"] == 2 and ack["version"] == 1
        assert not ack["duplicate"]
        resp, dup = request(conn, "POST", "/graphs/feed/edges", batch)
        assert resp.status == 200
        assert dup["duplicate"] and dup["version"] == 1
        resp, status = request(conn, "GET", "/live/feed")
        assert status["num_edges"] == 2  # applied exactly once

    def test_append_error_mapping(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        resp, _ = request(conn, "POST", "/graphs/nope/edges",
                          {"edges": [[0, 1, 1]]})
        assert resp.status == 404
        resp, _ = request(conn, "POST", "/graphs/feed/edges",
                          {"edges": [[0, -1, 1]]})
        assert resp.status == 400
        resp, _ = request(conn, "POST", "/graphs/feed/edges",
                          {"edges": "nope"})
        assert resp.status == 400

    @pytest.mark.parametrize("edge", [
        [0, 1, 2**70], [0, 1, 2.9], [0, 1, True], [2**63, 1, 5],
    ], ids=["t-2^70", "t-2.9", "t-bool", "src-2^63"])
    def test_a_bad_edge_value_is_a_400_on_both_routes(self, live_server, edge):
        conn, _, _ = live_server
        resp, out = request(conn, "POST", "/graphs",
                            {"name": "static", "edges": [[0, 1, 5], edge]})
        assert resp.status == 400, out
        create_feed(conn)
        resp, out = request(conn, "POST", "/graphs/feed/edges",
                            {"edges": [edge], "seq": 0})
        assert resp.status == 400, out
        # Nothing was stored: the feed still reads, and an in-range edge
        # is released rather than late-dropped behind the bad one.
        resp, status = request(conn, "GET", "/live/feed")
        assert resp.status == 200 and status["num_edges"] == 0
        resp, ack = request(conn, "POST", "/graphs/feed/edges",
                            {"edges": [[0, 1, 10]], "seq": 0, "flush": True})
        assert resp.status == 200 and ack["released"] == 1, ack

    def test_integral_float_edge_values_are_taken(self, live_server):
        conn, _, _ = live_server
        resp, out = request(conn, "POST", "/graphs",
                            {"name": "static", "edges": [[0, 1, 5.0]]})
        assert resp.status == 200 and out["num_edges"] == 1, out

    def test_a_dropped_live_graph_frees_its_name(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        request(conn, "POST", "/graphs/feed/edges",
                {"edges": [[0, 1, 10]], "seq": 0})
        resp, _ = request(conn, "POST", "/query",
                          {"graph": "feed", "motif": "M1", "delta": DELTA})
        assert resp.status == 200
        resp, _ = request(conn, "DELETE", "/live/feed")
        assert resp.status == 200
        resp, listing = request(conn, "GET", "/graphs")
        assert resp.status == 200 and "feed" not in json.dumps(listing)
        assert create_feed(conn)["version"] == 0

    def test_unmapped_exception_answers_500_and_retry_applies_once(
        self, live_server
    ):
        conn, _, _ = live_server
        create_feed(conn)
        batch = {"edges": [[0, 1, 10], [1, 2, 20]], "seq": 0}
        with FaultPlan.raise_at("live.ingest", [1]).installed():
            resp, out = request(conn, "POST", "/graphs/feed/edges", batch)
            assert resp.status == 500
            assert "InjectedFault" in out["error"]
            # The same keep-alive connection carries the retry.
            resp, ack = request(conn, "POST", "/graphs/feed/edges", batch)
        assert resp.status == 200 and not ack["duplicate"]
        resp, dup = request(conn, "POST", "/graphs/feed/edges", batch)
        assert resp.status == 200 and dup["duplicate"]
        resp, status = request(conn, "GET", "/live/feed")
        assert status["num_edges"] == 2 and status["version"] == 1

    def test_live_graph_answers_queries(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        # M1 = triangle a->b, b->c, c->a within delta.
        edges = [[0, 1, 10], [1, 2, 20], [2, 0, 30]]
        request(conn, "POST", "/graphs/feed/edges",
                {"edges": edges, "seq": 0})
        resp, body = request(conn, "POST", "/query",
                             {"graph": "feed", "motif": "M1", "delta": DELTA})
        assert resp.status == 200
        assert body["count"] == 1


class TestSubscriptionRoutes:
    def subscribe(self, conn, **body):
        body.setdefault("graph", "feed")
        body.setdefault("motif", "M1")
        resp, out = request(conn, "POST", "/subscriptions", body)
        assert resp.status == 200, out
        return out

    def test_subscribe_kind_defaulting(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        plain = self.subscribe(conn)
        assert plain["kind"] == "update" and plain["delta"] == DELTA
        alert = self.subscribe(conn, threshold=3)
        assert alert["kind"] == "threshold" and alert["threshold"] == 3
        resp, listing = request(conn, "GET", "/subscriptions")
        ids = set(listing["subscriptions"])
        assert {plain["subscription"], alert["subscription"]} <= ids

    def test_subscribe_error_mapping(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        resp, _ = request(conn, "POST", "/subscriptions",
                          {"graph": "nope", "motif": "M1"})
        assert resp.status == 404
        resp, _ = request(conn, "POST", "/subscriptions",
                          {"graph": "feed", "motif": "no-such-motif"})
        assert resp.status == 404  # same mapping as /query's motif lookup
        resp, _ = request(conn, "POST", "/subscriptions",
                          {"graph": "feed", "motif": "M1",
                           "kind": "threshold"})
        assert resp.status == 400  # threshold kind without threshold
        resp, _ = request(conn, "GET", "/subscriptions/sub-999")
        assert resp.status == 404

    def test_unsubscribe(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        sub = self.subscribe(conn)
        sid = sub["subscription"]
        resp, _ = request(conn, "DELETE", f"/subscriptions/{sid}")
        assert resp.status == 200
        resp, _ = request(conn, "GET", f"/subscriptions/{sid}")
        assert resp.status == 404

    def test_long_poll_returns_queued_events(self, live_server):
        conn, _, _ = live_server
        create_feed(conn)
        sid = self.subscribe(conn)["subscription"]
        request(conn, "POST", "/graphs/feed/edges",
                {"edges": [[0, 1, 10]], "seq": 0})
        resp, out = request(
            conn, "GET", f"/subscriptions/{sid}/poll?after=0&timeout_s=5")
        assert resp.status == 200
        assert out["subscription"] == sid
        assert [e["seq"] for e in out["events"]] == [1]
        assert out["next_after"] == 1 and not out["closed"]
        # Cursor past the end + tiny timeout: clean empty page.
        resp, out = request(
            conn, "GET", f"/subscriptions/{sid}/poll?after=1&timeout_s=0")
        assert out["events"] == [] and out["next_after"] == 1

    def test_long_poll_wakes_on_ingest(self, live_server):
        conn, service, addr = live_server
        create_feed(conn)
        sid = self.subscribe(conn)["subscription"]
        log = service.subscription(sid).outbox.log

        def feed_later():
            for _ in range(1000):  # feed once the poller is seen waiting
                if log.waiting > 0:
                    break
                time.sleep(0.005)
            side = HTTPConnection(*addr, timeout=10)
            try:
                request(side, "POST", "/graphs/feed/edges",
                        {"edges": [[0, 1, 10]], "seq": 0})
            finally:
                side.close()

        t = threading.Thread(target=feed_later)
        t.start()
        t0 = time.monotonic()
        resp, out = request(
            conn, "GET", f"/subscriptions/{sid}/poll?after=0&timeout_s=10")
        waited = time.monotonic() - t0
        t.join()
        assert len(out["events"]) == 1
        assert waited < 8  # woke on the append, not the timeout

    def test_sse_stream_and_resume(self, live_server):
        conn, _, addr = live_server
        create_feed(conn)
        sid = self.subscribe(conn)["subscription"]
        for i in range(3):
            request(conn, "POST", "/graphs/feed/edges",
                    {"edges": [[0, 1, 10 * (i + 1)]], "seq": i})

        sse = HTTPConnection(*addr, timeout=30)
        try:
            sse.request("GET", f"/subscriptions/{sid}/events?max_events=3")
            resp = sse.getresponse()
            assert resp.status == 200
            assert resp.getheader("Content-Type").startswith(
                "text/event-stream")
            frames, _ = parse_sse(resp.read())
        finally:
            sse.close()
        assert [f["id"] for f in frames] == ["1", "2", "3"]
        assert all(f["event"] == "update" for f in frames)
        payloads = [json.loads(f["data"]) for f in frames]
        assert [p["version"] for p in payloads] == [1, 2, 3]

        # Resume via Last-Event-ID skips already-seen events.
        sse = HTTPConnection(*addr, timeout=30)
        try:
            sse.request("GET", f"/subscriptions/{sid}/events?max_events=1",
                        headers={"Last-Event-ID": "2"})
            frames, _ = parse_sse(sse.getresponse().read())
        finally:
            sse.close()
        assert [f["id"] for f in frames] == ["3"]

    def test_sse_heartbeats_while_idle(self, live_server):
        conn, _, addr = live_server
        create_feed(conn)
        sid = self.subscribe(conn)["subscription"]
        request(conn, "POST", "/graphs/feed/edges",
                {"edges": [[0, 1, 10]], "seq": 0})
        sse = HTTPConnection(*addr, timeout=30)
        try:
            # One event is pending; the second never comes, so the
            # stream idles and must emit heartbeat comments meanwhile.
            sse.request(
                "GET",
                f"/subscriptions/{sid}/events?max_events=2&heartbeat_s=0.1",
            )
            resp = sse.getresponse()
            raw = b""
            deadline = time.monotonic() + 5
            while b": heartbeat" not in raw and time.monotonic() < deadline:
                raw += resp.read1(4096)
        finally:
            sse.close()
        frames, comments = parse_sse(raw)
        assert frames and frames[0]["id"] == "1"
        assert any("heartbeat" in c for c in comments)

    @pytest.mark.parametrize("heartbeat", ["0", "-1", "inf", "nan"])
    def test_sse_rejects_a_heartbeat_that_is_not_positive_and_finite(
        self, live_server, heartbeat
    ):
        """0 or less would spin the handler thread on heartbeats; inf or
        nan would kill it after the 200.  Either is a 400 before any
        stream header, and the connection still serves."""
        conn, _, _ = live_server
        create_feed(conn)
        sid = self.subscribe(conn)["subscription"]
        conn.request("GET", f"/subscriptions/{sid}/events?heartbeat_s={heartbeat}")
        resp = conn.getresponse()
        # Checked before reading: an accepted stream's body never ends.
        assert resp.status == 400
        assert "heartbeat_s" in json.loads(resp.read())["error"]
        resp, _ = request(conn, "GET", "/healthz")
        assert resp.status == 200


    @pytest.mark.parametrize(
        "route", ["poll?timeout_s=5&", "events?"], ids=["poll", "events"]
    )
    @pytest.mark.parametrize("max_events", ["0", "-1"])
    def test_a_read_of_fewer_than_one_event_is_rejected(
        self, live_server, route, max_events
    ):
        """``max_events`` below 1 would hold the connection thread for
        the whole timeout (poll) or open a stream that can carry
        nothing (SSE), even with events queued: a 400 before any
        stream header, and the connection still serves."""
        conn, _, _ = live_server
        create_feed(conn)
        sid = self.subscribe(conn)["subscription"]
        request(conn, "POST", "/graphs/feed/edges",
                {"edges": [[0, 1, 10]], "seq": 0})
        t0 = time.monotonic()
        conn.request("GET", f"/subscriptions/{sid}/{route}max_events={max_events}")
        resp = conn.getresponse()
        assert resp.status == 400
        assert "max_events" in json.loads(resp.read())["error"]
        assert time.monotonic() - t0 < 4  # answered, not timed out
        resp, _ = request(conn, "GET", "/healthz")
        assert resp.status == 200


class TestSharingGauges:
    def test_counters_beside_subscriptions(self, live_server):
        conn, service, _ = live_server
        create_feed(conn)
        create_feed(conn, name="other")
        for body in (
            {"motif": "M1"},
            {"motif": "M1", "threshold": 2},
            {"motif_spec": "x->y, y->z, z->x"},      # M1 by another name
            {"motif": "M1", "delta": DELTA // 2},    # δ is in the key
            {"motif": "M1", "graph": "other"},       # counters are per graph
        ):
            body.setdefault("graph", "feed")
            resp, _ = request(conn, "POST", "/subscriptions", body)
            assert resp.status == 200
        _, status = request(conn, "GET", "/live/feed")
        assert (status["subscriptions"], status["counters"]) == (4, 2)
        _, out = request(conn, "GET", "/metrics")
        assert out["metrics"]["live_subscriptions"] == 5
        assert out["metrics"]["live_shared_counters"] == 3
        assert "live shared counters (now)" in service.render_metrics()
        # A subscriber arriving after edges landed cannot share with those
        # that saw them; dropping the graph gives every counter back.
        request(conn, "POST", "/graphs/feed/edges",
                {"edges": [[0, 1, 10]], "seq": 0})
        request(conn, "POST", "/subscriptions", {"graph": "feed", "motif": "M1"})
        assert service.live.gauges()["live_shared_counters"] == 4
        request(conn, "DELETE", "/live/feed")
        assert service.live.gauges()["live_shared_counters"] == 1


class TestFrontDoor:
    """No timing here: count the writes.  ``wfile`` is unbuffered, so one
    ``write`` is one ``sendall``; a response split over two of them is
    what used to wait ~40 ms for the client's delayed ACK."""

    @pytest.fixture
    def tapped(self, live_server):
        conn, service, _ = live_server
        writes, nodelay = [], []

        class Tapped(ServiceRequestHandler):
            def setup(self):
                super().setup()
                nodelay.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))
                sendall = self.wfile.write

                def write(data):
                    writes.append(bytes(data))
                    return sendall(data)

                self.wfile.write = write

        assert ServiceRequestHandler.wbufsize == 0
        with serving(service, Tapped) as address, closing(
            HTTPConnection(*address, timeout=30)
        ) as side:
            yield side, service, writes, nodelay

    def test_each_response_is_one_write_on_a_nodelay_socket(self, tapped):
        conn, service, writes, nodelay = tapped
        g = make_dataset("email-eu", scale=0.02, seed=0)
        service.register_graph(g, name="static")
        query = {"graph": "static", "motif": "M1", "delta": g.time_span // 20}
        replies = [
            request(conn, "GET", "/healthz"),
            request(conn, "POST", "/query", query),
            request(conn, "POST", "/query", query),       # the cache hit
            request(conn, "POST", "/query", {"graph": "nope"}),
        ]
        assert [r.status for r, _ in replies] == [200, 200, 200, 400]
        assert replies[2][1]["count"] == replies[1][1]["count"]
        conn.request("GET", "/metrics?format=text")
        assert b"cache hits" in conn.getresponse().read()
        assert nodelay and all(nodelay)
        assert len(writes) == len(replies) + 1
        for raw in writes:
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            assert f"Content-Length: {len(body)}".encode() in head

    def test_sse_writes_once_per_batch_of_frames(self, tapped):
        conn, service, writes, nodelay = tapped
        service.create_live_graph("feed", DELTA)
        sid = service.subscribe("feed", "M1").sub_id
        for i in range(3):
            service.append_live("feed", [(0, 1, 10 * (i + 1))], seq=i)
        conn.request("GET", f"/subscriptions/{sid}/events?max_events=3")
        frames, _ = parse_sse(conn.getresponse().read())
        assert [f["id"] for f in frames] == ["1", "2", "3"]
        assert all(f["event"] == "update" for f in frames)
        assert [json.loads(f["data"])["version"] for f in frames] == [1, 2, 3]
        # The header block, then all three queued frames in one segment.
        assert len(writes) == 2 and all(nodelay)
        assert writes[0].endswith(b"\r\n\r\n")
        assert writes[1].count(b"\n\n") == 3


class TestSlowConsumer:
    """Satellite: a wedged subscriber must not block ingest or peers."""

    NUM_SUBS = 64
    CAPACITY = 8
    BATCHES = 40

    def test_wedged_subscriber_is_isolated(self):
        with MotifService(max_queue=8) as svc:
            svc.create_live_graph("feed", DELTA)
            subs = [
                svc.subscribe("feed", "M1", outbox_capacity=self.CAPACITY)
                for _ in range(self.NUM_SUBS)
            ]
            wedged, keeper, peers = subs[0], subs[1], subs[2:]

            kept = []
            t0 = time.monotonic()
            for i in range(self.BATCHES):
                svc.append_live("feed", [(0, 1, 10 * (i + 1))], seq=i)
                # The diligent consumer drains after every batch.
                kept.extend(
                    keeper.outbox.read_after(
                        kept[-1]["seq"] if kept else 0)
                )
            elapsed = time.monotonic() - t0

            # Ingest ran at full speed: nothing waited on the wedged
            # subscriber (64 subs x 40 batches in well under a minute).
            assert elapsed < 30
            status = svc.live_status("feed")
            assert status["version"] == self.BATCHES

            # The diligent consumer saw every event, gapless.
            assert [e["seq"] for e in kept] == \
                list(range(1, self.BATCHES + 1))
            assert not any(e["type"] == "gap" for e in kept)

            # The wedged outbox stayed bounded and its eventual read
            # starts with an honest gap notification.
            stats = wedged.outbox.stats()
            assert stats["retained"] <= self.CAPACITY
            assert stats["dropped"] == self.BATCHES - self.CAPACITY
            events = wedged.outbox.read_after(0)
            assert events[0]["type"] == "gap"
            assert events[0]["dropped"] == self.BATCHES - self.CAPACITY
            assert [e["seq"] for e in events[1:]] == list(
                range(self.BATCHES - self.CAPACITY + 1, self.BATCHES + 1))

            # Peers all received the full tail independently.
            for sub in peers:
                tail = sub.outbox.read_after(0)
                assert tail[-1]["seq"] == self.BATCHES

            # Drop/gap accounting reaches the service metrics.
            m = svc.metrics()
            assert m.events_dropped >= self.BATCHES - self.CAPACITY
            assert m.gap_events >= 1
            assert m.live_subscriptions == self.NUM_SUBS
