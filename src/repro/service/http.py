"""Stdlib JSON/HTTP endpoint over a :class:`MotifService`.

A deliberately dependency-free front door: a small HTTP/1.1 reader of
its own on a ``socketserver.ThreadingTCPServer`` (one daemon thread per
connection feeding the shared scheduler, ``TCP_NODELAY`` on every
socket) and one route table, :attr:`ServiceRequestHandler.ROUTES`, from
method and path pattern to handler.  ``http.server``, ``email`` and
``http.client`` are not imported: their request parsing cost more CPU
than a cache hit does.

The reader takes a request line of at most 65,536 bytes (414 past it),
then at most 100 header lines of at most 65,536 bytes each (431 past
either) into a dict keyed by lower-cased name.  A body is framed by
``Content-Length`` alone: a request carrying ``Transfer-Encoding`` is
refused with 411, since its body could not be told apart from the next
request.  These answers, and the 400 for a malformed request line,
carry a JSON error and ``Connection: close``.  HTTP/1.1 keeps the
connection open unless the client sends ``Connection: close``; HTTP/1.0
closes it unless the client sends ``Connection: keep-alive``.  ``Expect:
100-continue`` is answered ``100 Continue`` before the route runs.

Every response leaves through :meth:`_respond` as **one write** —
header block and body in a single segment; the SSE stream writes its
header block once and then one segment per batch of frames.  (Headers
and body as two small writes on a keep-alive socket cost every response
~40 ms: Nagle holds the second until the client's delayed ACK of the
first.)  A request body no route consumed is drained before the
response, or the connection is closed, so the next request on a
keep-alive connection is never parsed out of leftover bytes.  An
exception no route maps to a 4xx answers ``500 {"error": ...}`` instead
of dropping the connection, so a producer can retry.  Routes:

- ``GET  /healthz`` — health probe: queue depth, per-graph breaker
  states, worker liveness and the degraded flag.  200 while the
  service can answer queries (even degraded), 503 once it cannot
  (closed, or the dispatcher thread is gone).
- ``GET  /metrics`` — JSON metrics snapshot; ``?format=text`` renders
  the operator table instead.
- ``GET  /graphs`` — registered aliases with node/edge counts.
- ``POST /graphs`` — ``{"name": ..., "edges": [[src, dst, t], ...]}``
  registers an uploaded graph; returns its fingerprint.
- ``POST /query`` — ``{"graph": name-or-fingerprint, "motif": name,
  "motif_spec": optional DSL, "delta": int, "timeout_s": optional,
  "mode": optional, ``"exact"`` only}``; answers the canonical payload,
  an exact count.  Any other ``mode`` is a 400, and so is a ``delta``
  (on this route or any below) that is not an integer in ``[0, 2**63)``;
  fields the route does not read are ignored.  Overload maps to HTTP
  429 with a ``Retry-After`` header; a missed deadline maps to 504.

Live graphs and standing subscriptions (:mod:`repro.live`):

- ``POST /live`` — ``{"name", "delta", "lateness"?, "reorder_capacity"?}``
  creates a mutable graph; ``DELETE /live/<name>`` drops it; ``GET
  /live`` lists names, ``GET /live/<name>`` returns status (version,
  window fingerprint, reorder-buffer stats).  ``POST
  /live/<name>/window-query`` — ``{"motif" | "motif_spec", "delta"?,
  "timeout_s"?}`` mines the edges inside the current δ-window as an
  ordinary query.
- ``POST /graphs/<name>/edges`` — the append path: ``{"edges": [[src,
  dst, t], ...], "seq"?: int, "flush"?: bool}``.  ``seq`` makes the
  batch idempotent (a retry returns the original ack with
  ``duplicate: true``); the ack carries the new graph version.
- ``POST /subscriptions`` — ``{"graph", "motif" | "motif_spec",
  "delta"?, "kind"?: "update"|"threshold", "threshold"?,
  "outbox_capacity"?}`` registers a standing query; ``DELETE
  /subscriptions/<id>`` cancels it; ``GET /subscriptions/<id>`` reads
  its status.
- ``GET /subscriptions/<id>/events`` — SSE push: one ``id:``/
  ``event:``/``data:`` frame per event, heartbeat comments while idle.
  Resume with ``?after=N`` or the standard ``Last-Event-ID`` header;
  ``?max_events=K`` closes the stream after K events (testing/scripts;
  K below 1 is a 400); ``?heartbeat_s=S`` sets the idle heartbeat
  (default 5, capped at 60; not a positive finite number is a 400).
- ``GET /subscriptions/<id>/poll?after=N&timeout_s=S&max_events=K`` —
  long-poll fallback: blocks until events past ``N`` exist (or timeout),
  returns ``{"events": [...], "next_after": M}`` (``K`` below 1 is a
  400).  Delivery everywhere is at-least-once: reads never consume,
  clients advance their own cursor, and a cursor that fell off the
  bounded outbox gets an explicit ``gap`` event first.

``seq``, ``threshold``, ``lateness`` and the two capacities are checked
like ``delta`` (:func:`~repro.graph.window.checked_integer`), and
``flush`` must be a JSON boolean: a bad one is a 400, never coerced.
"""

from __future__ import annotations

import json
import math
import socketserver
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.graph.window import checked_delta, checked_integer
from repro.motifs.motif import Motif
from repro.service.query import QueryRejected, QueryResult, UnknownGraph
from repro.service.service import MotifService


#: Largest unread request body drained to keep a connection reusable;
#: past it the response carries ``Connection: close`` instead.
MAX_DRAIN_BYTES = 1 << 20
#: Longest request line, and longest header line (414 / 431 past them).
MAX_LINE = 65536
#: Most header lines one request may carry (431 past it).
MAX_HEADERS = 100

SERVER = f"mint-repro-serve/1.0 Python/{sys.version.split()[0]}"
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 411: "Length Required",
    414: "Request-URI Too Long", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable", 504: "Gateway Timeout",
}

class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _result_to_response(result: QueryResult) -> Tuple[int, Dict]:
    if result.ok:
        return 200, dict(result.payload or {})
    if result.status == "deadline_exceeded":
        return 504, {"error": result.error or "deadline exceeded"}
    return 500, {"error": result.error or result.status}


class ServiceRequestHandler(socketserver.StreamRequestHandler):
    """Reads HTTP/1.1 requests off one connection and routes each to
    the shared :class:`MotifService`."""

    #: ``wfile`` stays unbuffered, so one ``write`` is one ``sendall``.
    wbufsize = 0
    #: socketserver's name for TCP_NODELAY on every accepted socket.
    disable_nagle_algorithm = True

    @property
    def service(self) -> MotifService:
        return self.server.service  # type: ignore[attr-defined]

    # -- the reader ------------------------------------------------------------

    def handle(self) -> None:
        """Answer requests until one closes the connection or it drops."""
        try:
            while self._answer_one():
                pass
        except ConnectionError:
            pass

    def _answer_one(self) -> bool:
        """Read and answer one request; False once the connection is done."""
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        self.requestline = line.rstrip(b"\r\n").decode("latin-1")
        self.headers: Dict[str, str] = {}
        self.close_connection = True
        try:
            method, target = self._read_head(line)
        except _HTTPError as exc:
            self._unread = math.inf  # nothing after a bad head can be framed
            self._send_json(exc.status, {"error": exc.message})
            return False
        self._answer(method, target)
        return not self.close_connection

    def _read_head(self, line: bytes) -> Tuple[str, str]:
        """The request line's method and target; the headers into
        :attr:`headers`.  Raises :class:`_HTTPError` for a head that
        cannot be answered on a connection kept open."""
        if len(line) > MAX_LINE:
            raise _HTTPError(414, f"request line over {MAX_LINE} bytes")
        words = self.requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            raise _HTTPError(400, f"malformed request line {self.requestline!r}")
        for _ in range(MAX_HEADERS + 1):
            raw = self.rfile.readline(MAX_LINE + 1)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > MAX_LINE:
                raise _HTTPError(431, f"header line over {MAX_LINE} bytes")
            name, colon, value = raw.decode("latin-1").partition(":")
            if not colon:
                raise _HTTPError(400, f"malformed header line {name.rstrip()!r}")
            self.headers.setdefault(name.strip().lower(), value.strip())
        else:
            raise _HTTPError(431, f"more than {MAX_HEADERS} header lines")
        if "transfer-encoding" in self.headers:
            raise _HTTPError(411, "Transfer-Encoding is not supported; "
                                  "send a Content-Length")
        length = self.headers.get("content-length", "0")
        # Only digits frame a body; past a length like "ten" or "-5" the
        # next request cannot be found, so the answer closes.
        self._unread = int(length) if length.isascii() and length.isdigit() else math.inf
        connection = self.headers.get("connection", "").lower()
        http10 = words[2] == "HTTP/1.0"
        self.close_connection = connection == "close" or (
            http10 and connection != "keep-alive"
        )
        if not http10 and self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return words[0], words[1]

    # -- the writer ------------------------------------------------------------

    def _respond(self, status: int, fields: Dict[str, str], raw: bytes = b"") -> None:
        """The one way a response leaves: headers + body in one write."""
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: {SERVER}\r\n"
                f"Date: {self.server.http_date()}\r\n")  # type: ignore[attr-defined]
        head += "".join(f"{name}: {value}\r\n" for name, value in fields.items())
        if self.server.verbose:  # type: ignore[attr-defined]
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(
                f'{self.client_address[0]} - - [{stamp}] "{self.requestline}" {status} -\n'
            )
        self.wfile.write(head.encode("latin-1") + b"\r\n" + raw)

    def _send(self, status: int, content_type: str, raw: bytes,
              headers: Optional[Dict[str, str]] = None) -> None:
        fields = {"Content-Type": content_type, "Content-Length": str(len(raw))}
        fields.update(headers or {})
        if not self._discard_unread_body():
            fields["Connection"] = "close"
            self.close_connection = True
        self._respond(status, fields, raw)

    def _send_json(self, status: int, body: Dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send(status, "application/json", json.dumps(body, sort_keys=True).encode(),
                   headers)

    def _discard_unread_body(self) -> bool:
        """False when a declared request body is still on the socket.

        A route that answered without reading its body (unknown path, an
        error raised first, DELETE) would otherwise leave those bytes to
        be parsed as the next request line.  Small ones are drained.
        """
        if self._unread > MAX_DRAIN_BYTES:
            return False
        if self._unread > 0:
            self.rfile.read(self._unread)
        self._unread = 0
        return True

    def _read_body(self) -> Dict:
        length = int(self.headers.get("content-length") or 0)
        if length <= 0:
            raise _HTTPError(400, "a JSON request body is required")
        self._unread = 0
        try:
            body = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return body

    @staticmethod
    def _require(body: Dict, field: str):
        if field not in body:
            raise _HTTPError(400, f"missing required field {field!r}")
        return body[field]

    def _resolve_motif(self, body: Dict) -> Motif:
        from repro.motifs.catalog import motif_by_name
        from repro.motifs.parse import parse_motif

        if body.get("motif_spec"):
            try:
                return parse_motif(body["motif_spec"], name="custom")
            except ValueError as exc:
                raise _HTTPError(400, f"bad motif_spec: {exc}") from None
        name = self._require(body, "motif")
        try:
            return motif_by_name(name)
        except KeyError as exc:
            raise _HTTPError(404, str(exc.args[0])) from None

    # -- routes ----------------------------------------------------------------

    def _answer(self, method: str, target: str) -> None:
        """Run the route for one request and map every exception it
        raises to an answer.

        Every method's route sees the path without its query string,
        which it reads from :attr:`query_string`.  An exception no
        clause below names is a 500 carrying the error, so the client
        gets a status it can retry on, not a dropped connection.
        """
        path, _, self.query_string = target.partition("?")
        try:
            handler, args = _route(method, path)
            handler(self, *args)
        except _HTTPError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except QueryRejected as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": f"{max(1, round(exc.retry_after_s))}"},
            )
        except UnknownGraph as exc:
            self._send_json(404, {"error": str(exc.args[0])})
        except (ValueError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _healthz(self) -> None:
        health = self.service.health()
        self._send_json(200 if health["ok"] else 503, health)

    def _metrics(self) -> None:
        if "format=text" in self.query_string:
            raw = self.service.render_metrics().encode()
            self._send(200, "text/plain; charset=utf-8", raw)
        else:
            self._send_json(200, {"metrics": self.service.metrics().as_dict()})

    def _list_graphs(self) -> None:
        out = {}
        for name, fp in self.service.graphs().items():
            g = self.service.registry.get(fp)
            out[name] = {"fingerprint": fp, "num_nodes": g.num_nodes,
                         "num_edges": g.num_edges}
        self._send_json(200, {"graphs": out})

    def _handle_query(self) -> None:
        body = self._read_body()
        graph = self._require(body, "graph")
        delta = checked_delta(self._require(body, "delta"))
        motif = self._resolve_motif(body)
        mode = body.get("mode", "exact")
        if mode != "exact":
            raise _HTTPError(400, f"unknown mode {mode!r}; expected 'exact'")
        result = self.service.query(graph, motif, delta, timeout_s=body.get("timeout_s"))
        self._send_json(*_result_to_response(result))

    def _handle_register_graph(self) -> None:
        from repro.graph.temporal_graph import TemporalGraph, checked_edges

        body = self._read_body()
        name = self._require(body, "name")
        graph = TemporalGraph(checked_edges(self._require(body, "edges")))
        fp = self.service.register_graph(graph, name=str(name))
        self._send_json(200, {"name": name, "fingerprint": fp,
                              "num_nodes": graph.num_nodes, "num_edges": graph.num_edges})

    # -- live graphs + subscriptions (repro.live) ------------------------------

    def _handle_window_query(self, name: str) -> None:
        body = self._read_body()
        delta = body.get("delta")
        result = self.service.live_window_query(
            name,
            self._resolve_motif(body),
            delta=None if delta is None else checked_delta(delta),
            timeout_s=body.get("timeout_s"),
        )
        self._send_json(*_result_to_response(result))

    def _unsubscribe(self, sub_id: str) -> None:
        self.service.unsubscribe(sub_id)
        self._send_json(200, {"cancelled": sub_id})

    def _drop_live(self, name: str) -> None:
        self.service.drop_live_graph(name)
        self._send_json(200, {"dropped": name})

    def _handle_create_live(self) -> None:
        body = self._read_body()
        name = str(self._require(body, "name"))
        delta = checked_delta(self._require(body, "delta"))
        lateness = body.get("lateness", 0)
        out = self.service.create_live_graph(
            name,
            delta,
            lateness=None if lateness is None else checked_integer(lateness, "lateness"),
            reorder_capacity=checked_integer(
                body.get("reorder_capacity", 1024), "reorder_capacity", least=1
            ),
        )
        self._send_json(200, out)

    def _handle_append_live(self, name: str) -> None:
        body = self._read_body()
        edges = self._require(body, "edges")
        if not isinstance(edges, list):
            raise _HTTPError(400, "'edges' must be a list of [src, dst, t]")
        seq = body.get("seq")
        flush = body.get("flush", False)
        if not isinstance(flush, bool):
            raise _HTTPError(400, f"flush must be true or false, got {flush!r}")
        ack = self.service.append_live(
            name,
            edges,
            seq=None if seq is None else checked_integer(seq, "seq"),
            flush=flush,
        )
        self._send_json(200, ack)

    def _handle_subscribe(self) -> None:
        body = self._read_body()
        graph = str(self._require(body, "graph"))
        motif = self._resolve_motif(body)
        delta = body.get("delta")
        threshold = body.get("threshold")
        kind = str(body.get("kind", "threshold" if threshold is not None else "update"))
        sub = self.service.subscribe(
            graph,
            motif,
            delta=None if delta is None else checked_delta(delta),
            kind=kind,
            threshold=None if threshold is None else checked_integer(threshold, "threshold"),
            outbox_capacity=checked_integer(
                body.get("outbox_capacity", 256), "outbox_capacity", least=1
            ),
        )
        self._send_json(200, sub.status())

    @staticmethod
    def _qs_int(params: Dict[str, List[str]], name: str, default=None):
        if name not in params:
            return default
        return int(params[name][0])

    def _max_events(self, params: Dict[str, List[str]]) -> Optional[int]:
        """``?max_events=K``: a read of fewer than one event would wait
        out its whole timeout for nothing, so K < 1 is a 400."""
        max_events = self._qs_int(params, "max_events")
        if max_events is not None and max_events < 1:
            raise _HTTPError(400, f"max_events must be at least 1, got {max_events}")
        return max_events

    def _handle_poll(self, sub_id: str) -> None:
        """Long-poll fallback: block until events past ``after`` exist."""
        params = parse_qs(self.query_string)
        sub = self.service.subscription(sub_id)
        after = self._qs_int(params, "after", 0)
        max_events = self._max_events(params)
        timeout_s = float(params.get("timeout_s", ["10"])[0])
        events = sub.outbox.wait_events(
            after, timeout_s=max(0.0, min(timeout_s, 60.0)),
            max_events=max_events,
        )
        next_after = max([after] + [e["seq"] for e in events])
        self._send_json(200, {"subscription": sub_id, "events": events,
                              "next_after": next_after, "closed": sub.outbox.closed})

    def _handle_sse(self, sub_id: str) -> None:
        """Server-sent events: push each outbox event as one SSE frame.

        The stream is chunked-free HTTP/1.1 (no Content-Length,
        ``Connection: close``); while idle it emits comment heartbeats
        so proxies and clients can tell the connection is alive.  A
        reconnecting client resumes via ``Last-Event-ID`` (or
        ``?after=``) and the at-least-once outbox redelivers from there.
        """
        params = parse_qs(self.query_string)
        sub = self.service.subscription(sub_id)
        after = self._qs_int(params, "after", 0)
        last_id = self.headers.get("last-event-id")
        if last_id is not None:
            after = int(last_id)
        max_events = self._max_events(params)
        heartbeat_s = float(params.get("heartbeat_s", ["5"])[0])
        if not (math.isfinite(heartbeat_s) and heartbeat_s > 0):
            # 0 or less spins this thread on heartbeats; inf/nan kill it
            # in the outbox wait after the 200 is already out.
            raise _HTTPError(
                400, f"heartbeat_s must be a positive number, got {heartbeat_s}"
            )
        heartbeat_s = min(heartbeat_s, 60.0)
        self.close_connection = True
        # One write: the whole header block, then one per batch of frames.
        self._respond(200, {"Content-Type": "text/event-stream",
                            "Cache-Control": "no-cache", "Connection": "close"})
        sent = 0
        try:
            while True:
                remaining = None if max_events is None else max_events - sent
                if remaining is not None and remaining <= 0:
                    return
                events = sub.outbox.wait_events(
                    after, timeout_s=heartbeat_s, max_events=remaining
                )
                if not events:
                    if sub.outbox.closed:
                        return
                    self.wfile.write(b": heartbeat\n\n")
                    continue
                frames = [
                    f"id: {event['seq']}\n"
                    f"event: {event['type']}\n"
                    f"data: {json.dumps(event, sort_keys=True)}\n\n"
                    for event in events
                ]
                self.wfile.write("".join(frames).encode())
                after = max(after, *(int(event["seq"]) for event in events))
                sent += len(events)
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; the outbox keeps their cursor safe

    #: Method and path pattern to handler.  ``{}`` is whatever lies
    #: between the pattern's prefix and suffix, passed as the handler's
    #: one argument; patterns are tried in this order, after the exact
    #: paths.
    ROUTES: Dict[str, Callable] = {
        "GET /healthz": _healthz,
        "GET /metrics": _metrics,
        "GET /graphs": _list_graphs,
        "GET /live": lambda h: h._send_json(200, {"live": h.service.live_graphs()}),
        "GET /live/{}": lambda h, name: h._send_json(200, h.service.live_status(name)),
        "GET /subscriptions": lambda h: h._send_json(
            200, {"subscriptions": h.service.live.subscriptions()}
        ),
        "GET /subscriptions/{}/events": _handle_sse,
        "GET /subscriptions/{}/poll": _handle_poll,
        "GET /subscriptions/{}": lambda h, sub_id: h._send_json(
            200, h.service.subscription(sub_id).status()
        ),
        "POST /query": _handle_query,
        "POST /graphs": _handle_register_graph,
        "POST /live": _handle_create_live,
        "POST /subscriptions": _handle_subscribe,
        "POST /graphs/{}/edges": _handle_append_live,
        "POST /live/{}/window-query": _handle_window_query,
        "DELETE /subscriptions/{}": _unsubscribe,
        "DELETE /live/{}": _drop_live,
    }


def _compile(routes: Dict[str, Callable]):
    """Split the route table into exact paths and ``{}`` patterns."""
    exact: Dict[Tuple[str, str], Callable] = {}
    patterns: List[Tuple[str, str, str, Callable]] = []
    for key, handler in routes.items():
        method, _, pattern = key.partition(" ")
        prefix, hole, suffix = pattern.partition("{}")
        if hole:
            patterns.append((method, prefix, suffix, handler))
        else:
            exact[method, pattern] = handler
    return exact, patterns


_EXACT, _PATTERNS = _compile(ServiceRequestHandler.ROUTES)
_METHODS = {key.partition(" ")[0] for key in ServiceRequestHandler.ROUTES}


def _route(method: str, path: str) -> Tuple[Callable, Tuple[str, ...]]:
    """The handler for ``method`` on ``path`` and its arguments."""
    handler = _EXACT.get((method, path))
    if handler is not None:
        return handler, ()
    for want, prefix, suffix, handler in _PATTERNS:
        if want == method and path.startswith(prefix) and path.endswith(suffix):
            return handler, (path[len(prefix):len(path) - len(suffix)],)
    if method not in _METHODS:
        raise _HTTPError(501, f"unsupported method {method!r}")
    raise _HTTPError(404, f"no such route {path!r}")


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """A threading HTTP server bound to one :class:`MotifService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: MotifService, host: str = "127.0.0.1", port: int = 8300,
                 verbose: bool = False) -> None:
        super().__init__((host, port), ServiceRequestHandler)
        self.service = service
        self.verbose = verbose
        self._date = (0, "")

    def http_date(self) -> str:
        """The ``Date`` value (RFC 7231 IMF-fixdate), formatted once a second."""
        now = int(time.time())
        if self._date[0] != now:  # C-locale day and month names: Python never sets LC_TIME
            self._date = (now, time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(now)))
        return self._date[1]


def make_server(service: MotifService, host: str = "127.0.0.1", port: int = 8300,
                verbose: bool = False) -> ServiceHTTPServer:
    """Bind (port 0 picks a free port) without starting to serve."""
    return ServiceHTTPServer(service, host, port, verbose=verbose)
