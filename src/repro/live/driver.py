"""The one feed driver: replay a dataset as a live feed and verify it.

:func:`run_live_feed` self-hosts a :class:`~repro.service.service
.MotifService` and its HTTP server on a free port and drives them
through the public HTTP surface: create a live graph, register standing
subscriptions, POST the dataset as sequence-numbered edge batches, then
read every fired event back and check the whole run byte-for-byte
against the offline :mod:`repro.streaming` replay
(:func:`repro.live.oracle.offline_replay`).

The producer retries: a 5xx answer re-sends the same ``seq`` (up to
:data:`MAX_ATTEMPTS` times), and the ingest idempotency ledger applies
each batch once.  ``repro live`` runs the feed as it is; ``repro chaos
--live`` runs it with a :func:`build_live_chaos_plan` fault plan
installed, which crashes the ingest path before or after commit on
seeded batches.  The server runs in the same process, so the plan
fires inside its handlers, and every crash reaches the producer as an
HTTP 500.  The report's checks hold in both cases: no edge lost or
duplicated, every planned fault fired once and was retried once, every
post-commit retry was deduplicated, and the subscriptions fired exactly
the offline event stream.
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.client import HTTPConnection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.live.oracle import SubSpec, offline_replay, sorted_arrivals
from repro.motifs.catalog import motif_by_name
from repro.resilience.faults import FaultPlan, FaultSpec, active_plan
from repro.service.query import payload_bytes

Edge = Tuple[int, int, int]

#: Motif names cycled across standing subscriptions.
SUBSCRIPTION_MOTIFS = ("M1", "M2", "M3", "M4", "ping-pong", "fan-in", "path3")

#: Every Nth subscription is a threshold alert instead of plain updates.
ALERT_EVERY = 4

#: Sends per batch: a 5xx answer re-sends the same ``seq`` until this
#: many attempts have failed.
MAX_ATTEMPTS = 3


class ServerError(RuntimeError):
    """A 5xx answer: the request may be sent again."""


class LiveClient:
    """Minimal stdlib HTTP client for the live endpoints."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)

    def request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
        try:
            raw = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if raw else {}
            conn.request(method, path, body=raw, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, (json.loads(data) if data else {})
        finally:
            conn.close()

    def _ok(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        status, payload = self.request(method, path, body)
        if status != 200:
            error = ServerError if status >= 500 else RuntimeError
            raise error(
                f"{method} {path} -> HTTP {status}: {payload.get('error', payload)}"
            )
        return payload

    def create_live(self, name: str, delta: int, **opts) -> Dict:
        body = {"name": name, "delta": int(delta)}
        body.update(opts)
        return self._ok("POST", "/live", body)

    def append(
        self,
        name: str,
        edges: Sequence[Edge],
        seq: Optional[int] = None,
        flush: bool = False,
    ) -> Dict:
        body: Dict = {"edges": [list(e) for e in edges]}
        if seq is not None:
            body["seq"] = int(seq)
        if flush:
            body["flush"] = True
        return self._ok("POST", f"/graphs/{name}/edges", body)

    def subscribe(self, **body) -> Dict:
        return self._ok("POST", "/subscriptions", body)

    def poll(
        self,
        sub_id: str,
        after: int = 0,
        timeout_s: float = 0.1,
        max_events: Optional[int] = None,
    ) -> Dict:
        path = f"/subscriptions/{sub_id}/poll?after={after}&timeout_s={timeout_s}"
        if max_events is not None:
            path += f"&max_events={max_events}"
        return self._ok("GET", path)

    def read_all_events(self, sub_id: str) -> List[Dict]:
        """Every retained event from seq 0 (at-least-once: never consumes)."""
        return self.poll(sub_id, after=0, timeout_s=0.05)["events"]

    def live_status(self, name: str) -> Dict:
        return self._ok("GET", f"/live/{name}")

    def metrics(self) -> Dict:
        return self._ok("GET", "/metrics")["metrics"]


def plan_subscriptions(
    num_subs: int, delta: int
) -> List[Dict]:
    """The standing-query mix for a feed of ``num_subs`` subscriptions.

    Cycles the catalog motifs, varies δ (every third uses δ/2) and makes
    every :data:`ALERT_EVERY`-th a low-threshold alert so both kinds
    fire on real data.  Returns request bodies for ``POST
    /subscriptions`` (graph to be filled in by the caller).
    """
    plans: List[Dict] = []
    for i in range(num_subs):
        body: Dict = {
            "motif": SUBSCRIPTION_MOTIFS[i % len(SUBSCRIPTION_MOTIFS)],
            "delta": max(1, delta // 2) if i % 3 == 2 else int(delta),
        }
        if i % ALERT_EVERY == ALERT_EVERY - 1:
            body["kind"] = "threshold"
            body["threshold"] = i % 3  # 0..2: low enough to trip
        else:
            body["kind"] = "update"
        plans.append(body)
    return plans


def _shuffled(edges: List[Edge], mode: str, seed: int, block: int) -> List[Edge]:
    if mode == "none":
        return list(edges)
    rng = random.Random(seed)
    if mode == "full":
        out = list(edges)
        rng.shuffle(out)
        return out
    if mode == "block":
        out = []
        for i in range(0, len(edges), block):
            chunk = list(edges[i:i + block])
            rng.shuffle(chunk)
            out.extend(chunk)
        return out
    raise ValueError(f"unknown shuffle mode {mode!r}")


def check_feed(
    num_edges: int, *, delta: int, num_subs: int, batch_size: int
) -> int:
    """Reject arguments no feed can run; returns the number of batches."""
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    if num_subs < 0:
        raise ValueError(f"subscriptions must be 0 or more, got {num_subs}")
    if delta < 0:
        raise ValueError(f"delta must be 0 or more, got {delta}")
    return -(-num_edges // batch_size)


def run_live_feed(
    graph: TemporalGraph,
    *,
    delta: int,
    graph_name: str = "feed",
    num_subs: int = 100,
    batch_size: int = 50,
    seed: int = 0,
    shuffle: str = "none",
    verify: bool = True,
) -> Dict:
    """Replay ``graph`` as a live feed; verify firings against offline.

    A :class:`MotifService` + HTTP server is hosted in-process on a free
    port for the duration of the run.  Returns a report dict whose
    ``checks`` name each invariant and whose ``ok`` is their
    conjunction; ``verify=False`` skips the two that need the offline
    replay (``event_parity`` and ``window_fingerprint_ok``).  The fault
    checks read the installed :class:`FaultPlan` (none: a clean run
    must see no retry and no duplicate ack).
    """
    from repro.service.http import make_server
    from repro.service.service import MotifService

    edges = list(
        zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist())
    )
    num_batches = check_feed(
        len(edges), delta=delta, num_subs=num_subs, batch_size=batch_size
    )
    block = 4 * batch_size
    arrivals = _shuffled(edges, shuffle, seed, block)

    service = MotifService(max_queue=64)
    server = make_server(service, port=0)
    # A short poll lets shutdown() return promptly instead of waiting
    # out serve_forever's default 0.5 s.
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()
    client = LiveClient(*server.server_address[:2])

    try:
        live_opts: Dict = {}
        if shuffle == "full":
            # Unbounded displacement: hold everything, release on flush.
            live_opts = {"lateness": None,
                         "reorder_capacity": len(arrivals) + 1}
        elif shuffle == "block":
            # Displacement < block, so a block-sized buffer re-sorts
            # exactly; release is driven by capacity overflow.
            live_opts = {"lateness": None, "reorder_capacity": block}
        client.create_live(graph_name, delta, **live_opts)

        specs: List[SubSpec] = []
        outbox_capacity = num_batches + 16  # nothing drops in a clean run
        for body in plan_subscriptions(num_subs, delta):
            body.update(graph=graph_name, outbox_capacity=outbox_capacity)
            sub = client.subscribe(**body)
            specs.append(
                SubSpec(
                    sub["subscription"],
                    motif_by_name(sub["motif"]),
                    sub["delta"],
                    sub["kind"],
                    sub.get("threshold"),
                )
            )

        # A live consumer during the replay: long-polls the first
        # subscription so delivery-lag metrics reflect real push timing.
        stop = threading.Event()
        poller_exc: List[BaseException] = []

        def _poll_loop() -> None:
            cursor = 0
            try:
                while not stop.is_set():
                    out = client.poll(
                        specs[0].sub_id, after=cursor, timeout_s=0.25
                    )
                    cursor = out["next_after"]
            except BaseException as exc:  # surfaced after the replay
                poller_exc.append(exc)

        poller = threading.Thread(target=_poll_loop, daemon=True)
        if specs:
            poller.start()

        # One ack per seq; the last seq is the empty end-of-feed flush.
        acks: List[Dict] = []
        retried: List[int] = []
        t0 = time.monotonic()
        for i in range(num_batches + 1):
            batch = arrivals[i * batch_size:(i + 1) * batch_size]
            for attempt in range(1, MAX_ATTEMPTS + 1):
                try:
                    acks.append(client.append(
                        graph_name, batch, seq=i, flush=i == num_batches
                    ))
                    break
                except ServerError:
                    if attempt == MAX_ATTEMPTS:
                        raise
                    retried.append(i)
        elapsed_s = time.monotonic() - t0
        stop.set()
        if specs:
            poller.join(timeout=5)
        if poller_exc:
            raise RuntimeError(f"poller failed: {poller_exc[0]!r}")

        status = client.live_status(graph_name)
        late_dropped = status["reorder"]["late_dropped"]
        # Snapshot metrics now: the verification pass below re-reads
        # every outbox from seq 0, and those drains would otherwise
        # swamp the delivery-lag reservoir with verify-time samples.
        metrics = client.metrics()
        # The batch schedule, straight off the final acks.  A duplicate
        # ack replays the original's fields, so it still carries the
        # (version, released) the crashed-then-committed attempt earned.
        schedule = [
            (a["version"], a["released"]) for a in acks if a.get("released")
        ]
        plan = active_plan()
        fired = plan.fired if plan is not None else []
        planned = len(plan.specs) if plan is not None else 0
        ack_faults = sum(s.site == "live.ingest.ack" for s in fired)
        duplicate_acks = sum(bool(a.get("duplicate")) for a in acks)
        checks = {
            "all_batches_acked": len(acks) == num_batches + 1,
            "no_edge_lost_or_duplicated": (
                status["num_edges"] + late_dropped == len(arrivals)
                and status["version"] == len(schedule)
            ),
            # Every planned crash fired once and cost exactly one resend.
            "faults_fired": len(fired) == planned == len(retried),
            "post_commit_retries_deduped": duplicate_acks == ack_faults,
        }
        mismatched: List[str] = []
        events_total = alerts_total = subs_fired = 0
        if verify:
            if late_dropped:
                raise RuntimeError(
                    f"{late_dropped} late edges dropped — the reorder "
                    "buffer was too small for this arrival order; parity "
                    "is undefined"
                )
            expected = offline_replay(
                sorted_arrivals(arrivals), specs, schedule, graph_name, delta
            )
            for spec in specs:
                got = client.read_all_events(spec.sub_id)
                want = expected["events"][spec.sub_id]
                if [payload_bytes(e) for e in got] != [
                    payload_bytes(e) for e in want
                ]:
                    mismatched.append(spec.sub_id)
                events_total += len(got)
                alerts_total += sum(1 for e in got if e["type"] == "alert")
                subs_fired += bool(got)
            checks["event_parity"] = not mismatched
            checks["window_fingerprint_ok"] = (
                status["window_fingerprint"] == expected["window_fingerprint"]
            )
        return {
            "graph": graph_name,
            "edges": len(arrivals),
            "batches": num_batches,
            "batch_size": batch_size,
            "shuffle": shuffle,
            "subscriptions": num_subs,
            "version": status["version"],
            "late_dropped": late_dropped,
            "elapsed_s": elapsed_s,
            "edges_per_s": len(arrivals) / elapsed_s if elapsed_s else 0.0,
            "injected_faults": len(fired),
            "retries": len(retried),
            "failures": {
                b: "ack" if acks[b].get("duplicate") else "begin"
                for b in retried
            },
            "duplicate_acks": duplicate_acks,
            "mismatched_subs": mismatched,
            "events_total": events_total,
            "alerts_total": alerts_total,
            "subs_fired": subs_fired,
            "metrics": metrics,
            "checks": checks,
            "ok": all(checks.values()),
        }
    finally:
        server.shutdown()
        server.server_close()
        service.close()


# -- fault plan for `repro chaos --live` -------------------------------------

def build_live_chaos_plan(
    num_batches: int, kills: int, seed: int
) -> Tuple[FaultPlan, Dict[int, str]]:
    """A seeded plan crashing ingest on ``kills`` distinct batches.

    Victim batches alternate (seeded) between dying at the ``begin``
    site (before any mutation — the retry must apply the batch once)
    and the ``ack`` site (after commit — the retry must hit the
    idempotency ledger and answer ``duplicate``).  ``at_call`` numbers
    are computed by simulating the retrying driver, because every fired
    fault inserts an extra call at its site.
    """
    if not 0 <= kills <= num_batches:
        raise ValueError("kills must be in [0, num_batches]")
    rng = random.Random(seed)
    victims = sorted(rng.sample(range(num_batches), kills))
    failures = {b: rng.choice(("begin", "ack")) for b in victims}
    specs: List[FaultSpec] = []
    ingest_calls = ack_calls = 0
    for b in range(num_batches):
        mode = failures.get(b)
        if mode == "begin":
            ingest_calls += 1  # attempt 1 dies before mutating
            specs.append(
                FaultSpec("live.ingest", "raise", ingest_calls,
                          message=f"injected pre-commit crash (batch {b})")
            )
            ingest_calls += 1  # the retry commits normally
            ack_calls += 1
        elif mode == "ack":
            ingest_calls += 1  # attempt 1 commits...
            ack_calls += 1     # ...then dies acking
            specs.append(
                FaultSpec("live.ingest.ack", "raise", ack_calls,
                          message=f"injected post-commit crash (batch {b})")
            )
            ingest_calls += 1  # the retry dedups (both sites still count)
            ack_calls += 1
        else:
            ingest_calls += 1
            ack_calls += 1
    return FaultPlan(specs), failures
