"""The raw bytes ``repro serve`` answers, request by request.

Each case writes a request on a raw socket and compares the whole
response — status line, every header in order, body — with the bytes
pinned in :data:`PINNED`.  Only two things are normalised: the ``Date``
value and the Python version in ``Server``.  Whatever parses and writes
HTTP in ``service.http`` must keep these bytes.
"""

from __future__ import annotations

import re
import socket
from contextlib import closing

import pytest

from conftest import serving
from repro.graph.temporal_graph import TemporalGraph
from repro.motifs.catalog import M1
from repro.resilience.faults import FaultPlan
from repro.service import MotifService
from repro.service.query import MotifQuery

EDGES = [(0, 1, 1), (1, 2, 2), (2, 0, 3), (0, 1, 4), (1, 2, 5), (2, 0, 6)]
DELTA = 10
JSON = b"Content-Type: application/json\r\n"

#: Only an RFC 7231 IMF-fixdate is normalised; any other Date fails the bytes.
_DATE = re.compile(
    rb"\r\nDate: (Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    rb"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} \d\d:\d\d:\d\d GMT\r\n"
)
_SERVER = re.compile(rb"\r\nServer: mint-repro-serve/1\.0 Python/[^\r]*\r\n")


def normalise(raw: bytes) -> bytes:
    raw = _DATE.sub(b"\r\nDate: <date>\r\n", raw)
    return _SERVER.sub(b"\r\nServer: mint-repro-serve/1.0 Python/<v>\r\n", raw)


def post(path: str, body: bytes, head: bytes = b"") -> bytes:
    return (
        b"POST " + path.encode() + b" HTTP/1.1\r\nHost: t\r\n" + JSON + head
        + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def get(path: str, head: bytes = b"", method: str = "GET") -> bytes:
    return method.encode() + b" " + path.encode() + b" HTTP/1.1\r\nHost: t\r\n" + head + b"\r\n"


class Wire:
    """One raw client socket; reads responses by their own framing."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=30)
        self.file = self.sock.makefile("rb")

    def response(self) -> bytes:
        """One response: a 1xx head alone, a body of ``Content-Length``
        bytes, or — with no length — everything up to the close."""
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = self.file.readline()
            if not line:
                break
            head += line
        match = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
        if head.startswith(b"HTTP/1.1 1"):
            body = b""
        elif match:
            body = self.file.read(int(match.group(1)))
        else:
            body = self.file.read()
        return normalise(head + body)

    def exchange(self, raw: bytes, answers: int = 1) -> bytes:
        self.sock.sendall(raw)
        return b"".join(self.response() for _ in range(answers))

    def at_eof(self) -> bool:
        try:
            return self.file.read(1) == b""
        except ConnectionResetError:  # closed with request bytes unread
            return True

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@pytest.fixture
def wire():
    """A raw connection to a fresh service with graph ``g`` registered."""
    service = MotifService(max_queue=4)
    service.register_graph(TemporalGraph(EDGES), name="g")
    try:
        with serving(service) as address, closing(Wire(address)) as w:
            yield w, service
    finally:
        service.close()


def check(case: str, got: bytes) -> None:
    assert got == PINNED[case], f"{case}: {got!r}"


#: Every route, in the order one keep-alive connection walks them.
ROUTE_WALK = [
    ("GET /metrics", get("/metrics")),
    ("GET /metrics?format=text", get("/metrics?format=text")),
    ("GET /healthz", get("/healthz")),
    ("GET /graphs", get("/graphs")),
    ("POST /query", post("/query", b'{"graph": "g", "motif": "M1", "delta": 10}')),
    ("POST /query (hit)", post("/query", b'{"graph": "g", "motif": "M1", "delta": 10}')),
    ("POST /graphs", post("/graphs", b'{"name": "up", "edges": [[0, 1, 5], [1, 0, 6]]}')),
    ("POST /live", post("/live", b'{"name": "feed", "delta": 10}')),
    ("GET /live", get("/live")),
    ("POST /subscriptions", post("/subscriptions", b'{"graph": "feed", "motif": "M1"}')),
    ("GET /subscriptions", get("/subscriptions")),
    ("GET /subscriptions/<id>", get("/subscriptions/sub-1")),
    ("POST /graphs/<name>/edges", post(
        "/graphs/feed/edges",
        b'{"edges": [[0, 1, 1], [1, 2, 2], [2, 0, 3]], "seq": 0, "flush": true}')),
    ("GET /live/<name>", get("/live/feed")),
    ("GET /subscriptions/<id>/poll", get("/subscriptions/sub-1/poll?after=0&timeout_s=0")),
    ("POST /live/<name>/window-query", post("/live/feed/window-query", b'{"motif": "M1"}')),
    ("DELETE /subscriptions/<id>", get("/subscriptions/sub-1", method="DELETE")),
    ("DELETE /live/<name>", get("/live/feed", method="DELETE")),
]


def test_every_route(wire):
    w, _ = wire
    for case, raw in ROUTE_WALK:
        check(case, w.exchange(raw))


def test_sse_header_block_and_first_frame(wire):
    w, service = wire
    service.create_live_graph("feed", DELTA)
    sid = service.subscribe("feed", "M1").sub_id
    service.append_live("feed", [(0, 1, 1), (1, 2, 2), (2, 0, 3)], seq=0, flush=True)
    check("SSE", w.exchange(get(f"/subscriptions/{sid}/events?max_events=1")))
    assert w.at_eof()


#: Each maps one rejection to its status; all on one connection.
ERRORS = [
    ("404 GET route", get("/nope")),
    ("404 POST route", post("/nope", b"{}")),
    ("404 DELETE route", get("/graphs", method="DELETE")),
    ("400 no body", get("/query", method="POST")),
    ("400 bad JSON", post("/query", b"{nope")),
    ("400 not an object", post("/query", b"[1, 2]")),
    ("400 missing field", post("/query", b'{"motif": "M1"}')),
    ("400 bad delta", post("/query", b'{"graph": "g", "motif": "M1", "delta": 10.5}')),
    ("400 unknown mode", post(
        "/query", b'{"graph": "g", "motif": "M1", "delta": 10, "mode": "approx"}')),
    ("400 bad motif_spec", post(
        "/query", b'{"graph": "g", "motif_spec": "A->", "delta": 10}')),
    ("404 unknown motif", post("/query", b'{"graph": "g", "motif": "M99", "delta": 10}')),
    ("404 unknown graph", post("/query", b'{"graph": "h", "motif": "M1", "delta": 10}')),
    ("404 unknown live graph", get("/live/none")),
    ("404 unknown subscription", get("/subscriptions/sub-9")),
    ("400 max_events", get("/subscriptions/sub-1/poll?max_events=0")),
    ("400 ValueError", post("/live", b'{"name": "feed", "delta": 10}')),
]


def test_error_mappings(wire):
    w, service = wire
    service.create_live_graph("feed", DELTA)
    sid = service.subscribe("feed", "M1").sub_id
    assert sid == "sub-1"
    for case, raw in ERRORS:
        check(case, w.exchange(raw))
    check("400 heartbeat", w.exchange(get("/subscriptions/sub-1/events?heartbeat_s=0")))


def test_overload_is_429_with_retry_after(wire):
    w, service = wire
    fp = service.graphs()["g"]
    service.scheduler.pause()
    try:
        for delta in range(1, 5):
            service.scheduler.submit(MotifQuery(fp, M1, delta))
        check("429", w.exchange(post(
            "/query", b'{"graph": "g", "motif": "M1", "delta": 999}')))
    finally:
        service.scheduler.resume()


def test_missed_deadline_is_504(wire):
    w, service = wire
    service.scheduler.pause()
    try:
        check("504", w.exchange(post(
            "/query",
            b'{"graph": "g", "motif": "M1", "delta": 10, "timeout_s": 0.01}')))
    finally:
        service.scheduler.resume()


def test_unmapped_exception_is_500(wire):
    w, service = wire
    service.create_live_graph("feed", DELTA)
    with FaultPlan.raise_at("live.ingest", [1]).installed():
        check("500", w.exchange(post("/graphs/feed/edges", b'{"edges": [[0, 1, 1]]}')))


def test_a_closed_service_is_503(wire):
    w, service = wire
    service.close()
    check("503", w.exchange(get("/healthz")))


class TestKeepAlive:
    def test_an_unread_body_is_drained(self, wire):
        w, _ = wire
        raw = post("/nope", b'{"x": [1, 1, 1, 1, 1, 1, 1, 1]}') + get("/healthz")
        check("drain", w.exchange(raw, answers=2))
        check("GET /healthz", w.exchange(get("/healthz")))

    def test_a_body_over_the_drain_limit_closes(self, wire, monkeypatch):
        import repro.service.http as http_mod

        w, _ = wire
        monkeypatch.setattr(http_mod, "MAX_DRAIN_BYTES", 8)
        check("undrainable", w.exchange(post("/nope", b'{"longer": "than eight"}')))
        assert w.at_eof()

    def test_a_length_that_does_not_parse_closes(self, wire):
        w, _ = wire
        raw = b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: ten\r\n\r\n"
        check("bad length", w.exchange(raw))
        assert w.at_eof()

    def test_a_negative_length_closes(self, wire):
        w, _ = wire
        raw = post("/query", b"{}").replace(b"Content-Length: 2", b"Content-Length: -2")
        check("negative length", w.exchange(raw + get("/healthz")))
        assert w.at_eof()

    @pytest.mark.parametrize("spelled", [b"+37", b"3_7"])
    def test_a_length_int_reads_but_is_not_digits_closes(self, wire, spelled):
        w, _ = wire
        body = b'{"graph":"g","motif":"M1","delta":10}'
        assert len(body) == 37
        raw = post("/query", body).replace(b"Content-Length: 37", b"Content-Length: " + spelled)
        check("unframed length", w.exchange(raw + get("/healthz")))
        assert w.at_eof()

    def test_a_body_read_that_fails_closes(self, wire):
        # Asking the socket for 10**12 bytes fails at once: nothing is allocated.
        w, _ = wire
        raw = (b"POST /query HTTP/1.1\r\nHost: t\r\n" + JSON
               + b"Content-Length: 1000000000000\r\n\r\n" + get("/healthz"))
        check("failed body read", w.exchange(raw))
        assert w.at_eof()

    def test_connection_close_is_honoured(self, wire):
        w, _ = wire
        check("GET /healthz", w.exchange(get("/healthz", b"Connection: close\r\n")))
        assert w.at_eof()


class TestHTTP10:
    def test_closes_by_default(self, wire):
        w, _ = wire
        check("GET /healthz", w.exchange(b"GET /healthz HTTP/1.0\r\n\r\n"))
        assert w.at_eof()

    def test_keep_alive_on_request(self, wire):
        w, _ = wire
        raw = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        check("GET /healthz", w.exchange(raw))
        check("GET /healthz", w.exchange(raw))


def test_expect_100_continue(wire):
    w, _ = wire
    body = b'{"graph": "g", "motif": "M1", "delta": 10}'
    raw = post("/query", body, b"Expect: 100-continue\r\n")
    w.sock.sendall(raw[:-len(body)])  # the head alone: the body waits for the 100
    assert w.response() == b"HTTP/1.1 100 Continue\r\n\r\n"
    check("POST /query", w.exchange(body))


class TestRefusedHeads:
    """A head the server cannot frame is answered with a status line and a
    JSON error, and the connection is closed: nothing after it is read."""

    def test_a_chunked_body_is_refused_not_parsed_as_the_next_request(self, wire):
        w, _ = wire
        body = b'{"graph": "g", "motif": "M1", "delta": 10}'
        raw = (b"POST /query HTTP/1.1\r\nHost: t\r\n" + JSON
               + b"Transfer-Encoding: chunked\r\n\r\n"
               + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n" + get("/healthz"))
        check("chunked", w.exchange(raw))
        assert w.at_eof()

    def test_differing_lengths_are_a_400(self, wire):
        w, _ = wire
        body = b'{"graph":"g","motif":"M1","delta":10}'
        raw = post("/query", body, b"Content-Length: 37\r\n").replace(
            b"Content-Length: 37\r\n\r\n", b"Content-Length: 3\r\n\r\n")
        check("differing lengths", w.exchange(raw + get("/healthz")))
        assert w.at_eof()

    def test_whitespace_before_a_colon_is_a_400(self, wire):
        w, _ = wire
        body = b'{"graph":"g","motif":"M1","delta":10}'
        raw = post("/query", body).replace(b"Content-Length:", b"Content-Length :")
        check("space before colon", w.exchange(raw + get("/healthz")))
        assert w.at_eof()

    def test_a_malformed_request_line_is_a_400(self, wire):
        w, _ = wire
        check("malformed", w.exchange(b"GARBAGE\r\n\r\n"))
        assert w.at_eof()

    def test_a_header_line_without_a_colon_is_a_400(self, wire):
        w, _ = wire
        check("no colon", w.exchange(b"GET /healthz HTTP/1.1\r\nHost t\r\n\r\n"))
        assert w.at_eof()

    def test_a_request_line_over_64_kib_is_a_414(self, wire):
        w, _ = wire
        line = b"GET /" + b"a" * 65521 + b" HTTP/1.1\r\n"
        assert len(line) == 65537
        check("414", w.exchange(line))
        assert w.at_eof()

    def test_a_header_line_over_64_kib_is_a_431(self, wire):
        w, _ = wire
        header = b"X-Long: " + b"a" * 65527 + b"\r\n"
        assert len(header) == 65537
        check("431 line", w.exchange(b"GET /healthz HTTP/1.1\r\n" + header))
        assert w.at_eof()

    def test_more_than_100_header_lines_is_a_431(self, wire):
        w, _ = wire
        headers = b"".join(b"X-%d: y\r\n" % i for i in range(101))
        check("431 count", w.exchange(b"GET /healthz HTTP/1.1\r\n" + headers))
        assert w.at_eof()

    def test_100_header_lines_are_taken(self, wire):
        w, _ = wire
        headers = b"".join(b"X-%d: y\r\n" % i for i in range(99))  # and Host
        check("GET /healthz", w.exchange(get("/healthz", headers)))


def test_an_unsupported_method_is_a_501(wire):
    w, _ = wire
    check("501", w.exchange(get("/healthz", method="PUT")))
    check("GET /healthz", w.exchange(get("/healthz")))


#: The pinned responses, normalised by :func:`normalise`.
PINNED = {
    'GET /metrics': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 1113\r\n'
        b'\r\n'
        b'{"metrics": {"admitted": 0, "backend_failures": 0, "batch_re'
        b'tries": 0, "breaker_closes": 0, "breaker_half_opens": 0, "br'
        b'eaker_opens": 0, "breakers_open": 0, "cache_bytes": 0, "cach'
        b'e_bytes_per_entry": 0.0, "cache_entries": 0, "cache_eviction'
        b's": 0, "cache_hit_rate": 0.0, "cache_hits": 0, "cache_misses'
        b'": 0, "cancelled": 0, "chunk_retries": 0, "coalesce_ratio": '
        b'0.0, "coalesced": 0, "comined_batches": 0, "completed": 0, "'
        b'degraded": false, "degraded_queries": 0, "delivery_lag_p50_s'
        b'": 0.0, "delivery_lag_p99_s": 0.0, "delivery_lag_samples": 0'
        b', "dispatcher_crashes": 0, "duplicate_batches": 0, "edges_in'
        b'gested": 0, "engine": "batched", "errors": 0, "events_delive'
        b'red": 0, "events_dropped": 0, "failovers": 0, "gap_events": '
        b'0, "graph_ships": 0, "inflight": 0, "ingest_batches": 0, "la'
        b'te_edges_dropped": 0, "latency_p50_s": 0.0, "latency_p99_s":'
        b' 0.0, "latency_samples": 0, "live_graphs": 0, "live_shared_c'
        b'ounters": 0, "live_subscriptions": 0, "node_deaths": 0, "poo'
        b'ls_rebuilt": 0, "queue_depth": 0, "resident_graphs": 1, "she'
        b'd": 0, "subscription_fires": 0, "wedged_kills": 0, "worker_d'
        b'eaths": 0, "worker_respawns": 0}}'
    ),
    'GET /metrics?format=text': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: text/plain; charset=utf-8\r\n'
        b'Content-Length: 2034\r\n'
        b'\r\n'
        b'metric                     | value  \n-----------------------'
        b'----+--------\nqueue depth                | 0      \nin flight'
        b'                  | 0      \nadmitted                   | 0  '
        b'    \ncoalesced                  | 0      \ncoalesce ratio    '
        b'         | 0.000  \nshed (rejected)            | 0      \ncomp'
        b'leted                  | 0      \nerrors                     '
        b'| 0      \ncancelled (deadline)       | 0      \ncache hits   '
        b'              | 0      \ncache misses               | 0      '
        b'\ncache hit rate             | 0.000  \ncache entries         '
        b'     | 0      \ncache bytes                | 0      \ncache by'
        b'tes per entry      | 0.0    \ncache evictions            | 0 '
        b'     \nresident graphs            | 1      \nlatency p50 (ms) '
        b'          | 0.00   \nlatency p99 (ms)           | 0.00   \nlat'
        b'ency samples            | 0      \nengine                    '
        b' | batched\nworker deaths              | 0      \nwedged kills'
        b'               | 0      \nchunk retries              | 0     '
        b' \nworker respawns            | 0      \nnode deaths          '
        b'      | 0      \ngraph ships                | 0      \nfailove'
        b'rs                  | 0      \nbackend failures           | 0'
        b'      \ndegraded queries           | 0      \nco-mined batches'
        b'           | 0      \nbatch retries              | 0      \ndi'
        b'spatcher crashes         | 0      \npools rebuilt            '
        b'  | 0      \nbreaker opens              | 0      \nbreaker hal'
        b'f-opens         | 0      \nbreaker closes             | 0    '
        b'  \nbreakers open (now)        | 0      \ndegraded            '
        b'       | false  \nedges ingested             | 0      \ningest'
        b' batches             | 0      \nduplicate batches          | '
        b'0      \nlate edges dropped         | 0      \nsubscription fi'
        b'res         | 0      \nevents delivered           | 0      \ne'
        b'vents dropped             | 0      \ngap events              '
        b'   | 0      \nlive graphs (now)          | 0      \nlive subsc'
        b'riptions (now)   | 0      \nlive shared counters (now) | 0   '
        b'   \ndelivery lag p50 (ms)      | 0.00   \ndelivery lag p99 (m'
        b's)      | 0.00   \ndelivery lag samples       | 0      '
    ),
    'GET /healthz': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 152\r\n'
        b'\r\n'
        b'{"breakers": {}, "degraded": false, "dispatcher_alive": true'
        b', "dispatcher_crashes": 0, "engine": "batched", "ok": true, '
        b'"queue_depth": 0, "workers": {}}'
    ),
    'GET /graphs': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 102\r\n'
        b'\r\n'
        b'{"graphs": {"g": {"fingerprint": "7accc41dec4463fc38d6d58602'
        b'ac24e5", "num_edges": 6, "num_nodes": 3}}}'
    ),
    'POST /query': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 330\r\n'
        b'\r\n'
        b'{"accuracy": "exact", "count": 6, "counters": {"backtracks":'
        b' 19, "binary_search_steps": 26, "binary_searches": 13, "book'
        b'keeps": 19, "bytes_touched": 208, "candidates_scanned": 13, '
        b'"matches": 6, "neighbor_items_touched": 13, "root_tasks": 6,'
        b' "searches": 13}, "delta": 10, "graph": "7accc41dec4463fc38d'
        b'6d58602ac24e5", "motif": "M1"}'
    ),
    'POST /query (hit)': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 330\r\n'
        b'\r\n'
        b'{"accuracy": "exact", "count": 6, "counters": {"backtracks":'
        b' 19, "binary_search_steps": 26, "binary_searches": 13, "book'
        b'keeps": 19, "bytes_touched": 208, "candidates_scanned": 13, '
        b'"matches": 6, "neighbor_items_touched": 13, "root_tasks": 6,'
        b' "searches": 13}, "delta": 10, "graph": "7accc41dec4463fc38d'
        b'6d58602ac24e5", "motif": "M1"}'
    ),
    'POST /graphs': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 97\r\n'
        b'\r\n'
        b'{"fingerprint": "31112d6f4e8ec6d0f51730490a685ec4", "name": '
        b'"up", "num_edges": 2, "num_nodes": 2}'
    ),
    'POST /live': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 44\r\n'
        b'\r\n'
        b'{"delta": 10, "graph": "feed", "version": 0}'
    ),
    'GET /live': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 18\r\n'
        b'\r\n'
        b'{"live": ["feed"]}'
    ),
    'POST /subscriptions': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 272\r\n'
        b'\r\n'
        b'{"count": 0, "delta": 10, "fires": 0, "graph": "feed", "kind'
        b'": "update", "live_partials": 0, "motif": "M1", "outbox": {"'
        b'appended": 0, "capacity": 256, "delivered": 0, "dropped": 0,'
        b' "gap_events": 0, "last_seq": 0, "retained": 0}, "subscripti'
        b'on": "sub-1", "window_count": 0}'
    ),
    'GET /subscriptions': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 28\r\n'
        b'\r\n'
        b'{"subscriptions": ["sub-1"]}'
    ),
    'GET /subscriptions/<id>': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 272\r\n'
        b'\r\n'
        b'{"count": 0, "delta": 10, "fires": 0, "graph": "feed", "kind'
        b'": "update", "live_partials": 0, "motif": "M1", "outbox": {"'
        b'appended": 0, "capacity": 256, "delivered": 0, "dropped": 0,'
        b' "gap_events": 0, "last_seq": 0, "retained": 0}, "subscripti'
        b'on": "sub-1", "window_count": 0}'
    ),
    'POST /graphs/<name>/edges': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 184\r\n'
        b'\r\n'
        b'{"accepted": 3, "duplicate": false, "events": 1, "graph": "f'
        b'eed", "late_dropped": 0, "num_edges": 3, "pending": 0, "rele'
        b'ased": 3, "seq": 0, "t_now": 3, "version": 1, "window_edges"'
        b': 3}'
    ),
    'GET /live/<name>': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 398\r\n'
        b'\r\n'
        b'{"batches_applied": 1, "counters": 1, "delta": 10, "graph": '
        b'"feed", "groups": 1, "num_edges": 3, "num_nodes": 3, "pinned'
        b'_versions": [], "reorder": {"capacity": 1024, "late_dropped"'
        b': 0, "offered": 3, "pending": 0, "released": 3, "reordered":'
        b' 0}, "subscription_ids": ["sub-1"], "subscriptions": 1, "t_n'
        b'ow": 3, "version": 1, "window_edges": 3, "window_fingerprint'
        b'": "d35393e9f165f1ffd3d4aeacbfd79edf"}'
    ),
    'GET /subscriptions/<id>/poll': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 269\r\n'
        b'\r\n'
        b'{"closed": false, "events": [{"batch_completed": 1, "count":'
        b' 1, "delta": 10, "graph": "feed", "motif": "M1", "seq": 1, "'
        b'subscription": "sub-1", "t_now": 3, "type": "update", "versi'
        b'on": 1, "window_count": 1, "window_edges": 3}], "next_after"'
        b': 1, "subscription": "sub-1"}'
    ),
    'POST /live/<name>/window-query': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 322\r\n'
        b'\r\n'
        b'{"accuracy": "exact", "count": 1, "counters": {"backtracks":'
        b' 8, "binary_search_steps": 5, "binary_searches": 5, "bookkee'
        b'ps": 6, "bytes_touched": 48, "candidates_scanned": 3, "match'
        b'es": 1, "neighbor_items_touched": 3, "root_tasks": 3, "searc'
        b'hes": 5}, "delta": 10, "graph": "d35393e9f165f1ffd3d4aeacbfd'
        b'79edf", "motif": "M1"}'
    ),
    'DELETE /subscriptions/<id>': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 22\r\n'
        b'\r\n'
        b'{"cancelled": "sub-1"}'
    ),
    'DELETE /live/<name>': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 19\r\n'
        b'\r\n'
        b'{"dropped": "feed"}'
    ),
    'SSE': (
        b'HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: text/event-stream\r\n'
        b'Cache-Control: no-cache\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'id: 1\nevent: update\ndata: {"batch_completed": 1, "count": 1,'
        b' "delta": 10, "graph": "feed", "motif": "M1", "seq": 1, "sub'
        b'scription": "sub-1", "t_now": 3, "type": "update", "version"'
        b': 1, "window_count": 1, "window_edges": 3}\n\n'
    ),
    '404 GET route': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 34\r\n'
        b'\r\n'
        b'{"error": "no such route \'/nope\'"}'
    ),
    '404 POST route': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 34\r\n'
        b'\r\n'
        b'{"error": "no such route \'/nope\'"}'
    ),
    '404 DELETE route': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 36\r\n'
        b'\r\n'
        b'{"error": "no such route \'/graphs\'"}'
    ),
    '400 no body': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 44\r\n'
        b'\r\n'
        b'{"error": "a JSON request body is required"}'
    ),
    '400 bad JSON': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 107\r\n'
        b'\r\n'
        b'{"error": "invalid JSON body: Expecting property name enclos'
        b'ed in double quotes: line 1 column 2 (char 1)"}'
    ),
    '400 not an object': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 47\r\n'
        b'\r\n'
        b'{"error": "request body must be a JSON object"}'
    ),
    '400 missing field': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 43\r\n'
        b'\r\n'
        b'{"error": "missing required field \'graph\'"}'
    ),
    '400 bad delta': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 47\r\n'
        b'\r\n'
        b'{"error": "delta must be an integer, got 10.5"}'
    ),
    '400 unknown mode': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 52\r\n'
        b'\r\n'
        b'{"error": "unknown mode \'approx\'; expected \'exact\'"}'
    ),
    '400 bad motif_spec': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 77\r\n'
        b'\r\n'
        b'{"error": "bad motif_spec: cannot parse edge \'A->\'; expected'
        b' \'label->label\'"}'
    ),
    '404 unknown motif': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 131\r\n'
        b'\r\n'
        b'{"error": "unknown motif \'M99\'; known: [\'2cycle-return\', \'M1'
        b"', 'M2', 'M3', 'M4', 'bifan', 'edge', 'fan-in', 'path3', 'pi"
        b'ng-pong\']"}'
    ),
    '404 unknown graph': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 30\r\n'
        b'\r\n'
        b'{"error": "unknown graph \'h\'"}'
    ),
    '404 unknown live graph': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 38\r\n'
        b'\r\n'
        b'{"error": "unknown live graph \'none\'"}'
    ),
    '404 unknown subscription': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 41\r\n'
        b'\r\n'
        b'{"error": "unknown subscription \'sub-9\'"}'
    ),
    '400 max_events': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 49\r\n'
        b'\r\n'
        b'{"error": "max_events must be at least 1, got 0"}'
    ),
    '400 ValueError': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 45\r\n'
        b'\r\n'
        b'{"error": "graph name \'feed\' already in use"}'
    ),
    '400 heartbeat': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 59\r\n'
        b'\r\n'
        b'{"error": "heartbeat_s must be a positive number, got 0.0"}'
    ),
    '429': (
        b'HTTP/1.1 429 Too Many Requests\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 93\r\n'
        b'Retry-After: 1\r\n'
        b'\r\n'
        b'{"error": "admission queue full (4 queries queued); retry af'
        b'ter 0.10s", "retry_after_s": 0.1}'
    ),
    '504': (
        b'HTTP/1.1 504 Gateway Timeout\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 48\r\n'
        b'\r\n'
        b'{"error": "deadline exceeded before completion"}'
    ),
    '500': (
        b'HTTP/1.1 500 Internal Server Error\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 71\r\n'
        b'\r\n'
        b'{"error": "InjectedFault: injected backend failure (site=liv'
        b'e.ingest)"}'
    ),
    '503': (
        b'HTTP/1.1 503 Service Unavailable\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 154\r\n'
        b'\r\n'
        b'{"breakers": {}, "degraded": false, "dispatcher_alive": fals'
        b'e, "dispatcher_crashes": 0, "engine": "batched", "ok": false'
        b', "queue_depth": 0, "workers": {}}'
    ),
    'drain': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 34\r\n'
        b'\r\n'
        b'{"error": "no such route \'/nope\'"}HTTP/1.1 200 OK\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 152\r\n'
        b'\r\n'
        b'{"breakers": {}, "degraded": false, "dispatcher_alive": true'
        b', "dispatcher_crashes": 0, "engine": "batched", "ok": true, '
        b'"queue_depth": 0, "workers": {}}'
    ),
    'undrainable': (
        b'HTTP/1.1 404 Not Found\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 34\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "no such route \'/nope\'"}'
    ),
    'bad length': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 58\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "invalid literal for int() with base 10: \'ten\'"}'
    ),
    # Heads that cannot be framed, and a method no route has.
    'chunked': (
        b'HTTP/1.1 411 Length Required\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 70\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "Transfer-Encoding is not supported; send a Conten'
        b't-Length"}'
    ),
    'malformed': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 45\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "malformed request line \'GARBAGE\'"}'
    ),
    '414': (
        b'HTTP/1.1 414 Request-URI Too Long\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 42\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "request line over 65536 bytes"}'
    ),
    '431 line': (
        b'HTTP/1.1 431 Request Header Fields Too Large\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 41\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "header line over 65536 bytes"}'
    ),
    '431 count': (
        b'HTTP/1.1 431 Request Header Fields Too Large\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 39\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "more than 100 header lines"}'
    ),
    '501': (
        b'HTTP/1.1 501 Not Implemented\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 37\r\n'
        b'\r\n'
        b'{"error": "unsupported method \'PUT\'"}'
    ),
    'no colon': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 43\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "malformed header line \'Host t\'"}'
    ),
    'negative length': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 44\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "a JSON request body is required"}'
    ),
    'unframed length': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 44\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "a JSON request body is required"}'
    ),
    'failed body read': (
        b'HTTP/1.1 500 Internal Server Error\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 26\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "MemoryError: "}'
    ),
    'differing lengths': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 45\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "differing Content-Length headers"}'
    ),
    'space before colon': (
        b'HTTP/1.1 400 Bad Request\r\n'
        b'Server: mint-repro-serve/1.0 Python/<v>\r\n'
        b'Date: <date>\r\n'
        b'Content-Type: application/json\r\n'
        b'Content-Length: 56\r\n'
        b'Connection: close\r\n'
        b'\r\n'
        b'{"error": "malformed header line \'Content-Length : 37\'"}'
    ),
}
