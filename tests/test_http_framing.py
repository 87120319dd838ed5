"""The HTTP reader's one framing rule, checked against a reference model.

:func:`repro.service.http.parse_head` turns the bytes a connection has
received so far into a head, a refusal, or "need more bytes".
Hypothesis generates request streams: valid GETs and POSTs, every
framing fault the reader knows, pipelining, and random split points,
one byte at a time included.  :func:`model` states the rule over each
request's parts rather than its bytes: what the request frames to, and
after how many of its bytes the buffer shows that.  The pure function is
driven without a socket, a live server over a raw socket, and both must
agree with the model: every request gets exactly one response starting
with a status line (a ``100 Continue`` first when it asked for one), or
the connection closes after the first request that cannot be framed.
A body here is itself a request (``SMUGGLED``), so a body byte parsed as
a request line shows up as one answer too many.

The limits are shrunk to ``LINE`` and ``HEADERS`` for the run, so the
414 and 431 cases stay a few bytes long; the 64 KiB ones are pinned in
``test_http_wire.py``.  Seeded (``derandomize``), no sleeps.
"""

from __future__ import annotations

import io
import re
import socket
from contextlib import closing
from types import SimpleNamespace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.http as http
from conftest import serving
from repro.graph.temporal_graph import TemporalGraph
from repro.service import MotifService

LINE, HEADERS = 64, 6
QUERY = b'{"graph":"g","motif":"M1","delta":10}'
SMUGGLED = b"GET /healthz?smuggled HTTP/1.1\r\n\r\n"
HUGE = 10 ** 12  # a length whose read fails at once: nothing is allocated


class Request(NamedTuple):
    line: bytes
    fields: Tuple[bytes, ...]
    body: bytes = b""
    #: Where the stream stops inside this request; None: it is whole.
    cut: Optional[int] = None

    @property
    def raw(self) -> bytes:
        head = b"".join(f + b"\r\n" for f in (self.line, *self.fields))
        return (head + b"\r\n" + self.body)[:self.cut]


class Framed(NamedTuple):
    method: str
    target: str
    length: Optional[int]
    keep_alive: bool
    expect_continue: bool
    size: int


class Refusal(NamedTuple):
    status: int


# -- the model ---------------------------------------------------------------


def model(req: Request) -> Tuple[object, int]:
    """What ``req`` frames to under the rule, and how many of its bytes
    the buffer must hold before that shows."""
    pos, lengths = 0, []
    for n, line in enumerate((req.line, *req.fields)):
        if n > HEADERS:  # its first byte is one header line too many
            return Refusal(431), pos + 1
        if len(line) + 2 > LINE:  # no newline among the first LINE bytes
            return Refusal(431 if n else 414), pos + LINE
        pos += len(line) + 2
        if n == 0:
            if not re.fullmatch(rb"\S+ \S+ HTTP/1\.\S*", line):
                return Refusal(400), pos
            continue
        field = re.fullmatch(rb"([^\s:]+):(.*)", line)  # no space before the colon
        if field is None:
            return Refusal(400), pos
        name, value = field.groups()
        if name.lower() == b"content-length":
            lengths.append(value.strip())
            if len(set(lengths)) > 1:
                return Refusal(400), pos
    pos += 2
    names = [f.split(b":")[0].lower() for f in req.fields]
    if b"transfer-encoding" in names:
        return Refusal(411), pos
    spelled = lengths[0] if lengths else b"0"
    if re.fullmatch(rb"[0-9]+", spelled):
        length: Optional[int] = int(spelled)
    elif re.fullmatch(rb"[+-]?[0-9]+(_[0-9]+)*", spelled):
        length = None  # a number, but not digits: answered, then closed
    else:
        return Refusal(400), pos
    method, target, version = req.line.decode().split()
    connection = dict(f.lower().split(b": ", 1) for f in req.fields).get(b"connection")
    keep = connection == b"keep-alive" if version == "HTTP/1.0" else connection != b"close"
    expect = version == "HTTP/1.1" and b"Expect: 100-continue" in req.fields
    return Framed(method, target, length, length is not None and keep, expect, pos), pos


def frames(stream: Sequence[Request]) -> List[Tuple[object, int]]:
    """Each request's model outcome with the stream offset it shows at,
    up to the first after which nothing more is framed."""
    out, offset = [], 0
    for req in stream:
        outcome, shown = model(req)
        out.append((outcome, offset + shown))
        if not (isinstance(outcome, Framed) and outcome.keep_alive
                and outcome.length == len(req.body)):
            break  # refused, closed, or the rest of the stream is its body
        offset += len(req.raw)
    return out


def answers(stream: Sequence[Request]) -> List[Tuple[int, bool]]:
    """The responses a live server sends: (status, carries ``Connection:
    close``), until the connection closes."""
    out = []
    for (outcome, _), req in zip(frames(stream), stream):
        if isinstance(outcome, Refusal):
            return out + [(outcome.status, True)]
        if outcome.expect_continue:
            out.append((100, False))
        unframed = outcome.length is None
        if outcome.target == "/healthz":
            out.append((200, unframed))
        elif outcome.target == "/nope":
            out.append((404, unframed))
        elif not outcome.length:
            out.append((400, unframed))  # a JSON body is required
        elif outcome.length == HUGE:
            out.append((500, True))  # the body read failed: close
        else:
            out.append((200, False))
        if not outcome.keep_alive or outcome.length == HUGE:
            break
    return out


# -- the streams -------------------------------------------------------------


def post(target: str, body: bytes, *fields: bytes, length: Optional[bytes] = None):
    spelled = b"%d" % len(body) if length is None else length
    return Request(b"POST " + target.encode() + b" HTTP/1.1",
                   (b"Host: t", *fields, b"Content-Length: " + spelled), body)


FAULTS = {
    "signed": post("/query", SMUGGLED, length=b"+%d" % len(SMUGGLED)),
    "underscored": post("/query", SMUGGLED, length=b"3_%d" % (len(SMUGGLED) - 30)),
    "negative": post("/query", SMUGGLED, length=b"-5"),
    "not a number": post("/query", SMUGGLED, length=b"ten"),
    "differing": post("/query", SMUGGLED, b"Content-Length: %d" % (len(SMUGGLED) - 1)),
    "space before colon": Request(b"POST /query HTTP/1.1",
                                  (b"Content-Length : %d" % len(SMUGGLED),), SMUGGLED),
    "chunked": Request(b"POST /query HTTP/1.1", (b"Host: t", b"Transfer-Encoding: chunked"),
                       b"%x\r\n" % len(SMUGGLED) + SMUGGLED + b"\r\n0\r\n\r\n"),
    "huge": post("/query", SMUGGLED, length=b"%d" % HUGE),
    "malformed": Request(b"GARBAGE", ()),
    "long request line": Request(b"GET /" + b"a" * LINE + b" HTTP/1.1", ()),
    "long header": Request(b"GET /healthz HTTP/1.1", (b"X-Long: " + b"a" * LINE,)),
    "many headers": Request(b"GET /healthz HTTP/1.1",
                            tuple(b"X-%d: y" % i for i in range(HEADERS + 1))),
}
#: Cut short where the buffer first shows the limit, so no newline helps.
OPEN_FAULTS = {
    "open request line": FAULTS["long request line"]._replace(cut=LINE),
    "open header line": FAULTS["long header"]._replace(cut=23 + LINE),
    "open header past the count": FAULTS["many headers"]._replace(cut=23 + 8 * HEADERS + 1),
}


@st.composite
def valid_requests(draw) -> Request:
    kind = draw(st.sampled_from(["get", "get 1.0", "query", "nope"]))
    connection = draw(st.sampled_from([(), (b"Connection: close",),
                                       (b"Connection: keep-alive",)]))
    if kind.startswith("get"):
        version = b"HTTP/1.0" if kind == "get 1.0" else b"HTTP/1.1"
        req = Request(b"GET /healthz " + version, (b"Host: t", *connection))
    elif kind == "query":
        expect = draw(st.sampled_from([(), (b"Expect: 100-continue",)]))
        req = post("/query", QUERY, b"Content-Type: application/json", *expect, *connection)
    else:
        req = post("/nope", SMUGGLED, *connection)
    fields = draw(st.permutations(req.fields))
    filler = draw(st.integers(0, HEADERS - len(fields)))
    return req._replace(fields=(*fields, *(b"X-%d: y" % i for i in range(filler))))


#: Each case runs once per fault (and once with none), so every fault
#: is drawn, pipelined among valid requests.
CASES = pytest.mark.parametrize("fault", [None, *FAULTS, *OPEN_FAULTS])


@st.composite
def split_streams(draw, fault: Optional[str]) -> Tuple[List[Request], List[int]]:
    """Valid requests with ``fault`` among them, and the offsets the
    stream is cut at: one byte at a time, or random cuts."""
    reqs = draw(st.lists(valid_requests(), min_size=1, max_size=4))
    if fault in FAULTS:
        reqs.insert(draw(st.integers(0, len(reqs))), FAULTS[fault])
    elif fault in OPEN_FAULTS:
        reqs.append(OPEN_FAULTS[fault])  # nothing can follow it
    size = len(b"".join(r.raw for r in reqs))
    if draw(st.booleans()):
        return reqs, list(range(1, size))
    return reqs, sorted(draw(st.sets(st.integers(1, size - 1), max_size=12)))


@pytest.fixture(scope="module", autouse=True)
def small_limits():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(http, "MAX_LINE", LINE)
        patch.setattr(http, "MAX_HEADERS", HEADERS)
        yield


# -- the pure function -------------------------------------------------------


def test_the_faults_are_what_they_say():
    assert FAULTS["underscored"].fields[-1] == b"Content-Length: 3_4"
    assert len(SMUGGLED) == 34
    # An open fault stops exactly where the model says the buffer shows it.
    assert [model(r)[1] for r in OPEN_FAULTS.values()] == [r.cut for r in OPEN_FAULTS.values()]


def feed(raw: bytes, cuts: List[int]) -> List[Tuple[object, int]]:
    """Frame ``raw`` as a connection does, handing it to ``parse_head``
    cut at ``cuts``: each result with the offset the buffer had reached."""
    out, buf, skip = [], bytearray(), 0
    for start, end in zip([0, *cuts], [*cuts, len(raw)]):
        buf += raw[start:end]
        while True:
            taken = min(skip, len(buf))
            del buf[:taken]
            skip -= taken
            head = http.parse_head(buf) if not skip else None
            if head is None:
                break
            if isinstance(head, http.Refused):
                return out + [(Refusal(head.status), end)]
            assert "smuggled" not in head.target, "a body byte was read as a request line"
            out.append((Framed(head.method, head.target, head.length, head.keep_alive,
                               head.expect_continue, head.size), end))
            if not head.keep_alive:
                return out
            del buf[:head.size]
            skip = head.length
    return out


@CASES
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_parse_head_frames_as_the_model(fault, data):
    reqs, cuts = data.draw(split_streams(fault))
    got = feed(b"".join(r.raw for r in reqs), cuts)
    bounds = [*cuts, len(b"".join(r.raw for r in reqs))]
    # Each result is given at the first cut at or past the byte that shows it.
    want = [(outcome, min(b for b in bounds if b >= shown)) for outcome, shown in frames(reqs)]
    assert got == want


# -- the handler, and a live server ------------------------------------------


@pytest.fixture(scope="module")
def service():
    service = MotifService(max_queue=16)
    service.register_graph(TemporalGraph([(0, 1, 1), (1, 2, 2), (2, 0, 3)]), name="g")
    yield service
    service.close()


@pytest.fixture(scope="module")
def address(service):
    with serving(service) as addr:
        yield addr


class Scripted:
    """A connection whose ``recv`` hands the stream out exactly in the
    pieces given, then end of stream: the handler's splits, pinned."""

    def __init__(self, pieces: List[bytes]) -> None:
        self.pieces = pieces[::-1]

    def recv(self, size: int) -> bytes:
        piece = self.pieces.pop() if self.pieces else b""
        if len(piece) > size:
            self.pieces.append(piece[size:])
        return piece[:size]


def exchange(address, raw: bytes, cuts: List[int]) -> bytes:
    """Send ``raw`` cut at ``cuts``, half-close, and read to the end."""
    with closing(socket.create_connection(address, timeout=30)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for start, end in zip([0, *cuts], [*cuts, len(raw)]):
                sock.sendall(raw[start:end])
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # EPIPE, ECONNRESET, ENOTCONN: the server has closed
            pass
        got = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                return got
            got += chunk
        return got


def parse_responses(raw: bytes) -> List[Tuple[int, bool]]:
    out = []
    while raw:
        match = re.match(rb"HTTP/1\.1 (\d{3}) [^\r\n]*\r\n((?:[^\r\n]+\r\n)*)\r\n", raw)
        assert match, f"not a status line: {raw[:60]!r}"
        status, fields = int(match.group(1)), match.group(2)
        length = re.search(rb"Content-Length: (\d+)\r\n", fields)
        end = match.end() + (int(length.group(1)) if length and status >= 200 else 0)
        out.append((status, b"Connection: close\r\n" in fields))
        raw = raw[end:]
    return out


@CASES
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_handler_answers_as_the_model(service, fault, data):
    reqs, cuts = data.draw(split_streams(fault))
    raw = b"".join(r.raw for r in reqs)
    handler = http.ServiceRequestHandler.__new__(http.ServiceRequestHandler)
    handler.connection = Scripted([raw[a:b] for a, b in zip([0, *cuts], [*cuts, len(raw)])])
    handler.wfile, handler.client_address = io.BytesIO(), ("127.0.0.1", 0)
    handler.server = SimpleNamespace(service=service, verbose=False, http_date=lambda: "-")
    handler.handle()
    assert parse_responses(handler.wfile.getvalue()) == answers(reqs)


@CASES
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_live_server_answers_as_the_model(address, fault, data):
    reqs, cuts = data.draw(split_streams(fault))
    got = exchange(address, b"".join(r.raw for r in reqs), cuts)
    assert parse_responses(got) == answers(reqs)
