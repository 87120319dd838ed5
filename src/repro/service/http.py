"""Stdlib JSON/HTTP endpoint over a :class:`MotifService`.

A deliberately dependency-free front door (``http.server`` +
``ThreadingHTTPServer``; one thread per connection feeding the shared
scheduler).  Every response leaves through :meth:`_send` as **one
write** — header block and body in a single segment — on a socket with
``TCP_NODELAY`` set; the SSE stream writes its header block once and
then one segment per batch of frames.  (Headers and body as two small
writes on a keep-alive socket cost every response ~40 ms: Nagle holds
the second until the client's delayed ACK of the first.)  A request
body no route consumed is drained before the response, or the
connection is closed, so the next request on a keep-alive connection is
never parsed out of leftover bytes.  An exception no route maps to a
4xx answers ``500 {"error": ...}`` instead of dropping the connection,
so a producer can retry.  Routes:

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
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.graph.window import checked_delta
from repro.motifs.motif import Motif
from repro.service.query import QueryRejected, QueryResult, UnknownGraph
from repro.service.service import MotifService


#: Largest unread request body drained to keep a connection reusable;
#: past it the response carries ``Connection: close`` instead.
MAX_DRAIN_BYTES = 1 << 20


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


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the shared :class:`MotifService`."""

    server_version = "mint-repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: ``wfile`` stays unbuffered, so one ``write`` is one ``sendall``.
    wbufsize = 0
    #: socketserver's name for TCP_NODELAY on every accepted socket.
    disable_nagle_algorithm = True

    @property
    def service(self) -> MotifService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # -- plumbing --------------------------------------------------------------

    def parse_request(self) -> bool:
        self._body_read = False
        return super().parse_request()

    def _send(
        self,
        status: int,
        content_type: str,
        raw: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """The one way a response leaves: headers + body in one write."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if not self._discard_unread_body():
            self.send_header("Connection", "close")
        # end_headers() would flush the header block as a segment of its
        # own; ride the body on the same buffer instead.
        self._headers_buffer.append(b"\r\n" + raw)
        self.flush_headers()

    def _send_json(
        self, status: int, body: Dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        raw = json.dumps(body, sort_keys=True).encode()
        self._send(status, "application/json", raw, headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, "text/plain; charset=utf-8", text.encode())

    def _discard_unread_body(self) -> bool:
        """False when a declared request body is still on the socket.

        A route that answered without reading its body (unknown path, an
        error raised first, DELETE) would otherwise leave those bytes to
        be parsed as the next request line.  Small ones are drained.
        """
        if self._body_read:
            return True
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return False
        if length > MAX_DRAIN_BYTES:
            return False
        if length > 0:
            self.rfile.read(length)
        self._body_read = True
        return True

    def _read_body(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HTTPError(400, "a JSON request body is required")
        self._body_read = True
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

    def do_GET(self) -> None:  # noqa: N802
        self._answer(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._answer(self._route_post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._answer(self._route_delete)

    def _answer(self, route: Callable[[str, str], None]) -> None:
        """Run one route and map every exception it raises to an answer.

        The route gets the path and the query string apart, for every
        method.  An exception no clause below names is a 500 carrying
        the error, so the client gets a status it can retry on, not a
        dropped connection.
        """
        path, _, query_string = self.path.partition("?")
        try:
            route(path, query_string)
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

    def _route_get(self, path: str, query_string: str) -> None:
        if path == "/healthz":
            health = self.service.health()
            self._send_json(200 if health["ok"] else 503, health)
        elif path == "/metrics":
            if "format=text" in query_string:
                self._send_text(200, self.service.render_metrics())
            else:
                self._send_json(200, {"metrics": self.service.metrics().as_dict()})
        elif path == "/graphs":
            names = self.service.graphs()
            out = {}
            for name, fp in names.items():
                g = self.service.registry.get(fp)
                out[name] = {
                    "fingerprint": fp,
                    "num_nodes": g.num_nodes,
                    "num_edges": g.num_edges,
                }
            self._send_json(200, {"graphs": out})
        elif path == "/live":
            self._send_json(200, {"live": self.service.live_graphs()})
        elif path.startswith("/live/"):
            name = path[len("/live/"):]
            self._send_json(200, self.service.live_status(name))
        elif path == "/subscriptions":
            self._send_json(
                200, {"subscriptions": self.service.live.subscriptions()}
            )
        elif path.startswith("/subscriptions/") and path.endswith("/events"):
            sub_id = path[len("/subscriptions/"):-len("/events")]
            self._handle_sse(sub_id, query_string)
        elif path.startswith("/subscriptions/") and path.endswith("/poll"):
            sub_id = path[len("/subscriptions/"):-len("/poll")]
            self._handle_poll(sub_id, query_string)
        elif path.startswith("/subscriptions/"):
            sub_id = path[len("/subscriptions/"):]
            self._send_json(200, self.service.subscription(sub_id).status())
        else:
            raise _HTTPError(404, f"no such route {path!r}")

    def _route_post(self, path: str, query_string: str) -> None:
        if path == "/query":
            self._handle_query()
        elif path == "/graphs":
            self._handle_register_graph()
        elif path == "/live":
            self._handle_create_live()
        elif path == "/subscriptions":
            self._handle_subscribe()
        elif path.startswith("/graphs/") and path.endswith("/edges"):
            self._handle_append_live(path[len("/graphs/"):-len("/edges")])
        elif path.startswith("/live/") and path.endswith("/window-query"):
            body = self._read_body()
            delta = body.get("delta")
            result = self.service.live_window_query(
                path[len("/live/"):-len("/window-query")],
                self._resolve_motif(body),
                delta=None if delta is None else checked_delta(delta),
                timeout_s=body.get("timeout_s"),
            )
            self._send_json(*_result_to_response(result))
        else:
            raise _HTTPError(404, f"no such route {path!r}")

    def _handle_query(self) -> None:
        body = self._read_body()
        graph = self._require(body, "graph")
        delta = checked_delta(self._require(body, "delta"))
        motif = self._resolve_motif(body)
        mode = body.get("mode", "exact")
        if mode != "exact":
            raise _HTTPError(400, f"unknown mode {mode!r}; expected 'exact'")
        result = self.service.query(
            graph, motif, delta, timeout_s=body.get("timeout_s")
        )
        self._send_json(*_result_to_response(result))

    def _handle_register_graph(self) -> None:
        from repro.graph.temporal_graph import TemporalGraph, checked_edges

        body = self._read_body()
        name = self._require(body, "name")
        graph = TemporalGraph(checked_edges(self._require(body, "edges")))
        fp = self.service.register_graph(graph, name=str(name))
        self._send_json(
            200,
            {
                "name": name,
                "fingerprint": fp,
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
            },
        )

    # -- live graphs + subscriptions (repro.live) ------------------------------

    def _route_delete(self, path: str, query_string: str) -> None:
        if path.startswith("/subscriptions/"):
            sub_id = path[len("/subscriptions/"):]
            self.service.unsubscribe(sub_id)
            self._send_json(200, {"cancelled": sub_id})
        elif path.startswith("/live/"):
            name = path[len("/live/"):]
            self.service.drop_live_graph(name)
            self._send_json(200, {"dropped": name})
        else:
            raise _HTTPError(404, f"no such route {path!r}")

    def _handle_create_live(self) -> None:
        body = self._read_body()
        name = str(self._require(body, "name"))
        delta = checked_delta(self._require(body, "delta"))
        lateness = body.get("lateness", 0)
        out = self.service.create_live_graph(
            name,
            delta,
            lateness=None if lateness is None else int(lateness),
            reorder_capacity=int(body.get("reorder_capacity", 1024)),
        )
        self._send_json(200, out)

    def _handle_append_live(self, name: str) -> None:
        body = self._read_body()
        edges = self._require(body, "edges")
        if not isinstance(edges, list):
            raise _HTTPError(400, "'edges' must be a list of [src, dst, t]")
        seq = body.get("seq")
        ack = self.service.append_live(
            name,
            edges,
            seq=None if seq is None else int(seq),
            flush=bool(body.get("flush", False)),
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
            threshold=None if threshold is None else int(threshold),
            outbox_capacity=int(body.get("outbox_capacity", 256)),
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

    def _handle_poll(self, sub_id: str, query_string: str) -> None:
        """Long-poll fallback: block until events past ``after`` exist."""
        params = parse_qs(query_string)
        sub = self.service.subscription(sub_id)
        after = self._qs_int(params, "after", 0)
        max_events = self._max_events(params)
        timeout_s = float(params.get("timeout_s", ["10"])[0])
        events = sub.outbox.wait_events(
            after, timeout_s=max(0.0, min(timeout_s, 60.0)),
            max_events=max_events,
        )
        next_after = max([after] + [e["seq"] for e in events])
        self._send_json(
            200,
            {
                "subscription": sub_id,
                "events": events,
                "next_after": next_after,
                "closed": sub.outbox.closed,
            },
        )

    def _handle_sse(self, sub_id: str, query_string: str) -> None:
        """Server-sent events: push each outbox event as one SSE frame.

        The stream is chunked-free HTTP/1.1 (no Content-Length,
        ``Connection: close``); while idle it emits comment heartbeats
        so proxies and clients can tell the connection is alive.  A
        reconnecting client resumes via ``Last-Event-ID`` (or
        ``?after=``) and the at-least-once outbox redelivers from there.
        """
        params = parse_qs(query_string)
        sub = self.service.subscription(sub_id)
        after = self._qs_int(params, "after", 0)
        last_id = self.headers.get("Last-Event-ID")
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
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()  # one write: the whole header block
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


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`MotifService`."""

    daemon_threads = True

    def __init__(
        self,
        service: MotifService,
        host: str = "127.0.0.1",
        port: int = 8300,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), ServiceRequestHandler)
        self.service = service
        self.verbose = verbose


def make_server(
    service: MotifService,
    host: str = "127.0.0.1",
    port: int = 8300,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (port 0 picks a free port) without starting to serve."""
    return ServiceHTTPServer(service, host, port, verbose=verbose)
