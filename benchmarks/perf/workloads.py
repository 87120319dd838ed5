"""The six workloads: set-up, closed-loop drive, and reference checks.

Each workload drives the public surface only (``grid_family_census``,
``MiningPool``, a ``python -m repro serve`` subprocess over real HTTP,
and the live ingest and subscription endpoints) and checks every answer
against a reference.  ``BENCHMARK.json`` records why each one exists; the
README holds the measurements that fixed their sizes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from harness import (
    OUT, Client, Server, block_rates, call_once, edge_list, pct, seeded_graph,
)
from spans import Tracer

from repro.graph.loaders import load_snap_text, save_snap_text
from repro.live.driver import plan_subscriptions
from repro.live.oracle import (
    SubSpec, offline_replay, schedule_from_acks, sorted_arrivals,
)
from repro.mining.mackey import MackeyMiner
from repro.mining.multi import grid_family_census
from repro.mining.parallel import MiningPool
from repro.motifs.catalog import EVALUATION_MOTIFS, motif_by_name
from repro.motifs.grid import paranjape_grid
from repro.service.query import build_payload, payload_bytes

NPROC = os.cpu_count() or 1
GRID = [motif for _, motif in sorted(paranjape_grid().items())]

#: serve_hit: 16 hot keys, M1-M4 at each of these fractions of the span.
#: A hit costs the same whatever the key, so the windows are narrow and
#: the warm-up pass in set-up stays under a second.
HOT_DIVISORS = (80, 160, 320, 640)
#: serve_miss: each motif at the span fraction where the mackey engine
#: needs 50-70 ms for it on this graph.  One cost for all four keeps the
#: latency distribution in one piece, so p50 and p90 sit inside it and
#: not on the edge between a cheap motif and a dear one.
MISS_KEYS = (("M1", 40), ("M2", 40), ("M3", 80), ("M4", 160))
#: live_subs: ten edges to a POST.
LIVE_BATCH = 10


def live_shape(quick: bool) -> Tuple[float, int]:
    """Dataset scale of the feed and number of standing subscriptions.

    wiki-talk x0.04 is 480 edges: a replay plus the next feed's set-up
    takes about 3.5 s, so three fit a 12 s run with two seconds to spare
    and a somewhat slower or faster box does not flip the count.
    """
    return (0.02, 12) if quick else (0.04, 100)


def live_prefix(edges: List) -> List:
    """The head of the feed that ``probes.live_layer`` pushes through each
    layer alone; ``ack_prefix_p50_ms`` covers the same batches over HTTP."""
    return edges[:len(edges) // 2 // LIVE_BATCH * LIVE_BATCH]


@dataclass
class Measured:
    """What one timed drive produced, before it is reduced to metrics."""

    #: Units of work per second, one value per stretch of the timed
    #: drive; throughput is their median, so a few seconds of a noisy
    #: neighbour on this box do not move it (README, "Bounds, and the noise").
    rates: List[float]
    latencies_ms: List[float]        # one per operation a caller waited for
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Workload-specific numbers the uniform metric set has no slot for.
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Workload:
    """Set up, drive for a number of seconds, verify, tear down."""

    name = ""
    #: Highest percentile this workload's sample count supports with ten
    #: samples beyond it; fixed so the metric never changes meaning.
    tail_pct = 50
    work_unit = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self, seconds: float, tracer: Tracer) -> Measured:
        raise NotImplementedError

    def verify(self, m: Measured) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def rss_pid(self) -> int:
        """Root of the process tree whose peak memory the user pays for."""
        return os.getpid()


# -- census --------------------------------------------------------------------

def _digest(rows: List) -> str:
    return hashlib.blake2b(
        json.dumps(rows, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


class Census(Workload):
    """One full 36-motif grid census per operation, batched engine."""

    work_unit = "motifs"

    def __init__(self, name, dataset, scale, delta_of, pooled, seed):
        super().__init__(seed)
        self.name = name
        self.dataset, self.scale = dataset, scale
        self.delta_of = delta_of
        self.pooled = pooled
        self.pool: Optional[MiningPool] = None

    def setup(self) -> None:
        self.graph = seeded_graph(self.dataset, self.scale, self.seed)
        self.delta = self.delta_of(self.graph)
        if self.pooled:
            self.pool = MiningPool(self.graph, NPROC)
        self.rows = self._census(self.pool)  # warm-up, and the spot-check subject

    def _census(self, pool: Optional[MiningPool]) -> List:
        """Per grid motif: name, count, and the full SearchCounters."""
        if pool is not None:
            results = pool.count_many(GRID, self.delta, engine="batched")
            return [
                [m.name, r.count, r.counters.as_dict()]
                for m, r in zip(GRID, results)
            ]
        census = grid_family_census(self.graph, self.delta, engine="batched")
        return [
            [m.name, census.counts[m.name], census.per_motif[m.name].as_dict()]
            for m in GRID
        ]

    def drive(self, seconds: float, tracer: Tracer) -> Measured:
        layer = "mining.parallel.count_many" if self.pooled else "mining.multi.census"
        digests, walls = [], []
        t_end = time.perf_counter() + seconds
        while True:
            with tracer.span(layer):
                t0 = time.perf_counter()
                rows = self._census(self.pool)
                walls.append(time.perf_counter() - t0)
            digests.append(_digest(rows))
            if time.perf_counter() + walls[-1] > t_end:  # the next would not fit
                break
        m = Measured(
            rates=[len(GRID) / w for w in walls],
            latencies_ms=[w * 1e3 for w in walls],
        )
        for i, d in enumerate(digests):
            m.check(d == digests[0], f"census repeat {i} digest differs")
        m.info["census_digest"] = digests[0]
        return m

    def verify(self, m: Measured) -> None:
        if self.pooled:
            m.check(
                _digest(self._census(None)) == m.info["census_digest"],
                "pooled census differs from the inline census",
            )
        by_name = {r[0]: r for r in self.rows}
        for motif in random.Random(self.seed).sample(GRID, 2):
            ref = MackeyMiner(self.graph, motif, self.delta).mine()
            _, count, counters = by_name[motif.name]
            m.check(
                count == ref.count and counters == ref.counters.as_dict(),
                f"{motif.name} differs from MackeyMiner",
            )

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


# -- serve ---------------------------------------------------------------------

class Serve(Workload):
    """Two keep-alive clients against ``repro serve`` over real HTTP."""

    work_unit = "queries"
    clients = min(2, NPROC)

    def __init__(self, name: str, hit: bool, seed: int, quick: bool) -> None:
        super().__init__(seed)
        self.name = name
        self.hit = hit
        self.tail_pct = 95 if hit else 90
        self.scale = 0.12 if quick else 0.5
        self.server: Optional[Server] = None
        self.dir = OUT / "tmp" / f"{name}-{os.getpid()}"

    def setup(self) -> None:
        graph = seeded_graph("email-eu", self.scale, self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / "g.txt"
        save_snap_text(graph, self.path)
        self.span = graph.time_span
        self.server = Server([f"g={self.path}"])
        warm = Client(self.server.port)
        try:
            if self.hit:
                self.hot = [
                    (m.name, self.span // div)
                    for div in HOT_DIVISORS
                    for m in EVALUATION_MOTIFS
                ]
                self.hot_raw = {key: self._query(warm, key)[1] for key in self.hot}
            else:
                # One throwaway miss, so the server's lazy imports and
                # first-query paths are paid before timing.
                self._query(warm, ("M1", 1))
        finally:
            warm.close()

    @staticmethod
    def _query(client: Client, key: Tuple[str, int]) -> Tuple[int, bytes]:
        body = {"graph": "g", "motif": key[0], "delta": key[1]}
        return client.call("POST", "/query", body)

    def _next_key(self, rng: random.Random, client_no: int, i: int):
        if self.hit:
            return self.hot[rng.randrange(len(self.hot))]
        # The clients walk the motifs in turn, half a cycle apart, and a
        # delta never repeats across clients or iterations.
        name, div = MISS_KEYS[(i + 2 * client_no) % len(MISS_KEYS)]
        return name, self.span // div + self.clients * i + client_no

    def drive(self, seconds: float, tracer: Tracer) -> Measured:
        port = self.server.port
        before = call_once(port, "GET", "/metrics")["metrics"]
        start = threading.Barrier(self.clients + 1)
        results: List[List] = [[] for _ in range(self.clients)]
        errors: List[BaseException] = []
        t_end = [0.0]

        def client_loop(no: int, tr: Tracer) -> None:
            client = Client(port)
            rng = random.Random(f"{self.seed}/{no}")
            try:
                start.wait(timeout=60)
                i = 0
                while time.perf_counter() < t_end[0]:
                    key = self._next_key(rng, no, i)
                    with tr.span("service.http.query"):
                        t0 = time.perf_counter()
                        status, raw = self._query(client, key)
                        t1 = time.perf_counter()
                    if self.hit:  # compare now, keep nothing
                        raw = status == 200 and raw == self.hot_raw[key]
                    results[no].append((key, status, raw, t1 - t0, t1))
                    i += 1
            except Exception as exc:  # re-raised by the caller below
                errors.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=client_loop, args=(no, tracer.fork()))
            for no in range(self.clients)
        ]
        for t in threads:
            t.start()
        t_end[0] = time.perf_counter() + seconds
        start.wait(timeout=60)
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        after = call_once(port, "GET", "/metrics")["metrics"]

        done = [r for per_client in results for r in per_client]
        # Each client is a closed loop of its own, so its completions are
        # evenly spaced; the service's rate is the sum over clients.
        per_client = [block_rates([r[4] for r in rs]) for rs in results]
        m = Measured(
            rates=[sum(rates) for rates in zip(*per_client)],
            latencies_ms=[r[3] * 1e3 for r in done],
        )
        if self.hit:
            m.attempted = len(done)
            m.failed = sum(1 for r in done if r[2] is not True)
            if m.failed:
                m.failures.append(f"{m.failed} hit payloads differ or non-200")
        else:
            for key, status, *_ in done:
                m.check(status == 200, f"{key} -> HTTP {status}")
            self.misses = [(key, raw) for key, status, raw, *_ in done if status == 200]

        delta = {k: after[k] - before[k] for k in (
            "cache_hits", "cache_misses", "coalesced", "admitted", "shed")}
        lookups = delta["cache_hits"] + delta["cache_misses"]
        hit_rate = delta["cache_hits"] / lookups if lookups else 0.0
        m.extras["service.cache.hit_rate"] = (hit_rate, "ratio")
        m.extras["service.scheduler.coalesce_ratio"] = (
            delta["coalesced"] / delta["admitted"] if delta["admitted"] else 0.0,
            "ratio",
        )
        m.extras["service.metrics.shed"] = (delta["shed"], "count")
        # The workload is what its name says, or the numbers mean nothing.
        m.check(
            hit_rate >= 0.99 if self.hit else hit_rate <= 0.01,
            f"cache hit rate {hit_rate:.3f} on {self.name}",
        )
        m.check(delta["shed"] == 0, f"{delta['shed']} queries shed")
        return m

    def verify(self, m: Measured) -> None:
        graph = load_snap_text(self.path)  # what the server registered
        if self.hit:
            sample = [(key, self.hot_raw[key]) for key in self.hot]
        else:
            rng = random.Random(self.seed)
            sample = rng.sample(self.misses, min(12, len(self.misses)))
        fingerprint = graph.fingerprint()
        for (name, delta), raw in sample:
            motif = motif_by_name(name)
            ref = MackeyMiner(graph, motif, delta).mine()
            want = build_payload(
                fingerprint, motif, delta, ref.count, ref.counters.as_dict())
            m.check(
                payload_bytes(json.loads(raw)) == payload_bytes(want),
                f"{name}@{delta} differs from MackeyMiner",
            )

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.dir, ignore_errors=True)

    def rss_pid(self) -> int:
        return self.server.pid


# -- live ----------------------------------------------------------------------

class LiveSubs(Workload):
    """One writer, one long-poll consumer, 100 standing subscriptions."""

    name = "live_subs"
    tail_pct = 90
    work_unit = "edges"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed)
        self.scale, self.num_subs = live_shape(quick)
        self.server: Optional[Server] = None

    def setup(self) -> None:
        graph = seeded_graph("wiki-talk", self.scale, self.seed)
        self.edges = edge_list(graph)
        self.delta = max(1, graph.time_span // 40)
        self.batches = [
            self.edges[i:i + LIVE_BATCH]
            for i in range(0, len(self.edges), LIVE_BATCH)
        ]
        self.server = Server()
        self.feeds = 0
        self.feed: Optional[Tuple[str, List[SubSpec]]] = None
        self._prepare_feed()

    def _prepare_feed(self) -> None:
        """A fresh live graph with the full panel attached (untimed).

        The previous one is dropped first, so the server holds one feed
        whatever the number of replays and its peak memory does not
        depend on how many fitted into the run.
        """
        port = self.server.port
        if self.feed is not None:
            call_once(port, "DELETE", f"/live/{self.feed[0]}")
        name = f"feed-{self.feeds}"
        self.feeds += 1
        call_once(port, "POST", "/live", {"name": name, "delta": self.delta})
        specs = []
        for body in plan_subscriptions(self.num_subs, self.delta):
            body.update(graph=name, outbox_capacity=len(self.batches) + 16)
            sub = call_once(port, "POST", "/subscriptions", body)
            specs.append(SubSpec(
                sub["subscription"], motif_by_name(sub["motif"]),
                sub["delta"], sub["kind"], sub.get("threshold"),
            ))
        self.feed = (name, specs)

    def _replay(self, tracer: Tracer, consumer_tracer: Tracer) -> Dict:
        """Post the whole feed; stamps come from this process's clock."""
        name, specs = self.feed
        port = self.server.port
        recv: Dict[int, float] = {}      # event version -> time it was read
        final: Dict[str, int] = {}       # "version" once the flush is acked
        writer_failed = threading.Event()
        errors: List[BaseException] = []
        give_up = time.perf_counter() + 150

        def consume() -> None:
            client = Client(port)
            cursor = 0
            path = f"/subscriptions/{specs[0].sub_id}/poll?timeout_s=0.25&after="
            try:
                while not writer_failed.is_set() and final.get("version") not in recv:
                    if time.perf_counter() > give_up:
                        raise TimeoutError("consumer never saw the last event")
                    with consumer_tracer.span("live.outbox.poll"):
                        out = client.ok("GET", path + str(cursor))
                    now = time.perf_counter()
                    for event in out["events"]:
                        recv.setdefault(event["version"], now)
                    cursor = out["next_after"]
            except Exception as exc:  # re-raised by the caller below
                errors.append(exc)
            finally:
                client.close()

        consumer = threading.Thread(target=consume)
        consumer.start()
        writer = Client(port)
        sends, acks, ack_ms = [], [], []
        path = f"/graphs/{name}/edges"
        try:
            for seq, batch in enumerate(self.batches):
                with tracer.span("live.ingest.post_edges"):
                    t0 = time.perf_counter()
                    ack = writer.ok("POST", path, {"edges": batch, "seq": seq})
                    ack_ms.append((time.perf_counter() - t0) * 1e3)
                sends.append(t0)
                acks.append(ack)
            sends.append(time.perf_counter())
            acks.append(writer.ok(
                "POST", path,
                {"edges": [], "seq": len(self.batches), "flush": True},
            ))
            t_flushed = time.perf_counter()
            final["version"] = acks[-1]["version"]
        except BaseException:
            writer_failed.set()
            raise
        finally:
            writer.close()
            consumer.join()
        if errors:
            raise errors[0]
        fired = [(t, a["version"]) for t, a in zip(sends, acks) if a["released"]]
        return {
            "name": name, "specs": specs, "acks": acks, "ack_ms": ack_ms,
            "elapsed_s": max(t_flushed, recv[final["version"]]) - sends[0],
            "event_ms": [(recv[v] - t) * 1e3 for t, v in fired if v in recv],
            "ack_prefix_ms": ack_ms[:len(live_prefix(self.edges)) // LIVE_BATCH],
            "events_ok": sorted(v for v in recv if v) == [v for _, v in fired],
        }

    def drive(self, seconds: float, tracer: Tracer) -> Measured:
        consumer_tracer = tracer.fork()
        replays: List[Dict] = []
        t_end = time.perf_counter() + seconds
        while True:
            t_cycle = time.perf_counter()
            if replays:
                self._prepare_feed()
            replays.append(self._replay(tracer, consumer_tracer))
            now = time.perf_counter()
            if now + (now - t_cycle) > t_end:  # the next one would not fit
                break
        self.last = replays[-1]
        m = Measured(
            rates=[len(self.edges) / r["elapsed_s"] for r in replays],
            latencies_ms=[x for r in replays for x in r["ack_ms"]],
        )
        m.attempted = sum(len(r["acks"]) for r in replays)  # all answered 200
        for i, r in enumerate(replays):
            m.check(r["events_ok"], f"replay {i}: consumer events != fired batches")
            ingested = r["acks"][-1]["num_edges"]
            m.check(ingested == len(self.edges), f"replay {i}: {ingested} edges")
        event_ms = [x for r in replays for x in r["event_ms"]]
        m.extras["event_latency_p50_ms"] = (pct(event_ms, 50), "ms")
        m.extras["event_latency_p90_ms"] = (pct(event_ms, 90), "ms")
        m.extras["event_latency_samples"] = (len(event_ms), "count")
        m.extras["ack_prefix_p50_ms"] = (
            pct([x for r in replays for x in r["ack_prefix_ms"]], 50), "ms")
        return m

    def verify(self, m: Measured) -> None:
        """Last replay against ``repro.live.oracle``: the window
        fingerprint and every subscription's events, byte for byte."""
        last = self.last
        want = offline_replay(
            sorted_arrivals(self.edges), last["specs"],
            schedule_from_acks(last["acks"]), last["name"], self.delta,
        )
        port = self.server.port
        for spec in last["specs"]:
            got = call_once(
                port, "GET", f"/subscriptions/{spec.sub_id}/poll?after=0&timeout_s=0")
            m.check(
                [payload_bytes(e) for e in got["events"]]
                == [payload_bytes(e) for e in want["events"][spec.sub_id]],
                f"{spec.sub_id} events differ from the offline oracle",
            )
        status = call_once(port, "GET", f"/live/{last['name']}")
        m.check(
            status["window_fingerprint"] == want["window_fingerprint"],
            "window fingerprint differs from the offline oracle",
        )

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def rss_pid(self) -> int:
        return self.server.pid


# -- the table -----------------------------------------------------------------

def make(name: str, seed: int, quick: bool) -> Workload:
    dense = lambda g: max(1, g.time_span // 20)  # noqa: E731
    sparse = lambda g: max(1, 30 * g.time_span // g.num_edges)  # noqa: E731
    if name == "census_dense":
        return Census(name, "email-eu", 0.15 if quick else 0.6, dense, False, seed)
    if name == "census_sparse":
        return Census(name, "wiki-talk", 0.1 if quick else 1.0, sparse, False, seed)
    if name == "census_pool":
        return Census(name, "wiki-talk", 0.1 if quick else 1.0, sparse, True, seed)
    if name == "serve_hit":
        return Serve(name, True, seed, quick)
    if name == "serve_miss":
        return Serve(name, False, seed, quick)
    if name == "live_subs":
        return LiveSubs(seed, quick)
    raise KeyError(name)
