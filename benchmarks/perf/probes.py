"""Per-layer probes: time public calls into each module of ``src/repro``.

Every traced run executes the whole battery, so every per-layer name in
``BENCHMARK.json`` is a real measurement on every workload.  Sizes are a
fraction of the workloads' so the battery stays near fifteen seconds; the
README lists, for each number, the end-to-end metric it should move.
"""

from __future__ import annotations

import random
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Tuple

import numpy as np

from harness import (
    GRAPH_SEED, OUT, Client, call_once, edge_list, pct, seeded_graph,
)
from spans import Tracer
from workloads import GRID, LIVE_BATCH, NPROC, live_prefix, live_shape

from repro.approx.engine import estimate_inline
from repro.approx.estimate import ApproxSpec
from repro.cluster import MiningCluster
from repro.comine.engine import CoMiner
from repro.comine.trie import MotifTrie
from repro.graph.generators import make_dataset
from repro.graph.loaders import load_snap_text, save_snap_text
from repro.graph.temporal_graph import TemporalGraph
from repro.live.driver import plan_subscriptions
from repro.live.ingest import LiveGraph
from repro.live.manager import LiveManager
from repro.live.outbox import Outbox
from repro.mining.batched import BatchedMiner
from repro.mining.mackey import MackeyMiner
from repro.mining.multi import grid_family_census
from repro.mining.parallel import MiningPool
from repro.motifs.catalog import EVALUATION_MOTIFS, M1, motif_by_name
from repro.resilience.supervisor import SupervisedMiningPool
from repro.service import MotifService, make_server
from repro.service.cache import ResultCache
from repro.service.query import build_payload, payload_bytes
from repro.service.registry import GraphRegistry
from repro.sim.accelerator import MintSimulator
from repro.streaming.counter import MotifStreamEngine, StreamingCounter
from repro.streaming.window import StreamBuffer

Metrics = Dict[str, Tuple[float, str]]


def _timed(tr: Tracer, name: str, fn: Callable):
    """Seconds and result of one call, recorded as a span."""
    with tr.span(name):
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result


def _each_ms(tr: Tracer, name: str, calls: List[Callable]) -> List[float]:
    """Milliseconds of each call, all under one span."""
    out = []
    with tr.span(name):
        for call in calls:
            t0 = time.perf_counter()
            call()
            out.append((time.perf_counter() - t0) * 1e3)
    return out


# -- graph ---------------------------------------------------------------------

def graph_layer(tr: Tracer, seed: int, quick: bool) -> Metrics:
    scale = 0.1 if quick else 0.5
    make_s, g = _timed(tr, "graph.generators.make_dataset", lambda: make_dataset(
        "wiki-talk", scale=scale, seed=GRAPH_SEED))
    fresh: List[TemporalGraph] = []
    build_ms = _each_ms(tr, "graph.temporal_graph.build", [
        lambda: fresh.append(TemporalGraph.from_arrays(
            g.src, g.dst, g.ts, num_nodes=g.num_nodes))
    ] * 5)
    fp_ms = _each_ms(tr, "graph.temporal_graph.fingerprint",
                     [f.fingerprint for f in fresh])
    path = OUT / "tmp" / f"probe-{seed}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_snap_text(g, path)
    try:
        load_s, _ = _timed(tr, "graph.loaders.load_snap_text",
                           lambda: load_snap_text(path))
    finally:
        path.unlink()
    return {
        "graph.generators.make_dataset_s": (make_s, "s"),
        "graph.temporal_graph.build_s": (median(build_ms) / 1e3, "s"),
        "graph.temporal_graph.fingerprint_s": (median(fp_ms) / 1e3, "s"),
        "graph.loaders.load_snap_text_s": (load_s, "s"),
    }


# -- mining and the three dispatchers ------------------------------------------

def _dispatch(tr: Tracer, layer: str, start: Callable, count: Callable) -> Tuple:
    """Start a dispatcher, one warm-up wave, one timed wave, close."""
    start_s, pool = _timed(tr, f"{layer}.start", start)
    try:
        count(pool)
        dispatch_s, results = _timed(tr, f"{layer}.dispatch", lambda: count(pool))
    finally:
        pool.close()
    return start_s, dispatch_s, results


def mining_layer(tr: Tracer, seed: int, quick: bool) -> Metrics:
    """The sparse census job, whole, in chunks, and through each dispatcher."""
    g = seeded_graph("wiki-talk", 0.1 if quick else 0.5, seed)
    delta = max(1, 30 * g.time_span // g.num_edges)
    construct_s, miners = _timed(tr, "mining.batched.construct", lambda: [
        BatchedMiner(g, m, delta) for m in GRID])
    mine_s, results = _timed(tr, "mining.batched.mine", lambda: [
        miner.mine() for miner in miners])
    candidates = sum(r.counters.candidates_scanned for r in results)
    census_s, _ = _timed(tr, "mining.multi.census", lambda: grid_family_census(
        g, delta, engine="batched"))

    def wave(pool):
        return pool.count_many(GRID, delta, engine="batched")

    start_s, dispatch_s, pooled = _dispatch(
        tr, "mining.parallel", lambda: MiningPool(g, NPROC), wave)
    chunks = pooled[0].num_chunks
    edges = np.linspace(0, g.num_edges, chunks + 1).astype(int)
    chunked_s, _ = _timed(tr, "mining.batched.chunked_mine", lambda: [
        miner.mine_range(int(lo), int(hi))
        for miner in miners for lo, hi in zip(edges[:-1], edges[1:])])
    sup_start_s, sup_dispatch_s, _ = _dispatch(
        tr, "resilience.supervisor", lambda: SupervisedMiningPool(g, NPROC), wave)

    cl_start_s, cluster = _timed(
        tr, "cluster.coordinator.start", lambda: MiningCluster(NPROC))
    try:
        ship_s, _ = _timed(tr, "cluster.coordinator.ship",
                           lambda: cluster.ensure_graph(g))
        cluster.count_many(g, GRID, delta, engine="batched")
        cl_dispatch_s, _ = _timed(
            tr, "cluster.coordinator.dispatch",
            lambda: cluster.count_many(g, GRID, delta, engine="batched"))
    finally:
        cluster.close()

    trie_ms = _each_ms(tr, "comine.trie.build", [lambda: MotifTrie(GRID)] * 5)
    slice_s, _ = _timed(tr, "comine.engine.slice_mine", lambda: CoMiner(
        g, GRID, delta).mine_range(0, min(2000, g.num_edges)))
    return {
        "mining.batched.construct_s": (construct_s, "s"),
        "mining.batched.mine_s": (mine_s, "s"),
        "mining.batched.chunked_mine_s": (chunked_s, "s"),
        "mining.batched.full_over_chunked": (mine_s / chunked_s, "ratio"),
        "mining.batched.candidates_scanned": (candidates, "count"),
        "mining.batched.candidates_per_s": (candidates / mine_s, "1/s"),
        "mining.multi.overhead_s": (census_s - construct_s - mine_s, "s"),
        "mining.parallel.start_s": (start_s, "s"),
        "mining.parallel.dispatch_s": (dispatch_s, "s"),
        "mining.parallel.chunks": (chunks, "count"),
        # Worker-seconds the wave held, minus the mining they had to do.
        "mining.parallel.overhead_share": (
            1 - chunked_s / (NPROC * dispatch_s), "ratio"),
        "mining.parallel.efficiency": (census_s / (NPROC * dispatch_s), "ratio"),
        "resilience.supervisor.start_s": (sup_start_s, "s"),
        "resilience.supervisor.dispatch_s": (sup_dispatch_s, "s"),
        "cluster.coordinator.start_s": (cl_start_s, "s"),
        "cluster.coordinator.ship_s": (ship_s, "s"),
        "cluster.coordinator.dispatch_s": (cl_dispatch_s, "s"),
        "comine.trie.build_s": (median(trie_ms) / 1e3, "s"),
        "comine.engine.slice_mine_s": (slice_s, "s"),
    }


# -- streaming and live --------------------------------------------------------

def live_layer(tr: Tracer, seed: int, quick: bool) -> Metrics:
    """The live feed's edges through each layer alone, innermost first."""
    scale, num_subs = live_shape(quick)
    feed = edge_list(seeded_graph("wiki-talk", scale, seed))
    delta = max(1, (feed[-1][2] - feed[0][2]) // 40)
    prefix = live_prefix(feed)  # the panel costs ~7 ms an edge
    batches = [prefix[i:i + LIVE_BATCH] for i in range(0, len(prefix), LIVE_BATCH)]
    panel = plan_subscriptions(num_subs, delta)

    single = StreamingCounter(M1, delta)
    single_s, _ = _timed(tr, "streaming.counter.single",
                         lambda: single.add_batch(feed))

    engines = [MotifStreamEngine(motif_by_name(b["motif"]), b["delta"])
               for b in panel]
    buffer = StreamBuffer(delta)

    def advance_panel(batch: List) -> None:
        for s, d, t in batch:
            _, t_adj = buffer.append(s, d, t)
            for engine in engines:
                engine.advance(s, d, t_adj)

    # Batch by batch, so its median compares with append100's below.
    panel_ms = _each_ms(tr, "streaming.counter.panel", [
        lambda b=b: advance_panel(b) for b in batches])

    bare = LiveGraph("bare", delta)
    append0 = _each_ms(tr, "live.ingest.append_batch[0 subs]", [
        lambda b=b, i=i: bare.append_batch(b, seq=i)
        for i, b in enumerate(batches)])
    bare.close()

    manager = LiveManager(GraphRegistry(), ResultCache())
    manager.create_graph("panel", delta)
    for body in panel:
        manager.subscribe(
            "panel", motif_by_name(body["motif"]), delta=body["delta"],
            kind=body["kind"], threshold=body.get("threshold"),
            outbox_capacity=len(batches) + 16)
    acks: List[Dict] = []
    try:
        append100 = _each_ms(tr, "live.manager.append[panel]", [
            lambda b=b, i=i: acks.append(manager.append("panel", b, seq=i))
            for i, b in enumerate(batches)])
    finally:
        manager.close()
    committed = [a for a in acks if a["released"]]

    outbox = Outbox("probe", capacity=256)
    event = {"type": "update", "count": 1}
    n = 2000
    pair_s, _ = _timed(tr, "live.outbox.append_read", lambda: [
        outbox.read_after(outbox.append(event) - 1) for _ in range(n)])
    outbox.close()

    a0, a100 = median(append0), median(append100)
    return {
        "streaming.counter.single_edges_per_s": (len(feed) / single_s, "1/s"),
        "streaming.counter.panel_edges_per_s": (
            LIVE_BATCH / median(panel_ms) * 1e3, "1/s"),
        "streaming.counter.peak_live_partials": (
            sum(e.peak_live for e in engines), "count"),
        "live.ingest.append0_ms": (a0, "ms"),
        "live.ingest.append100_ms": (a100, "ms"),
        "live.subscriptions.eval_share": (1 - a0 / a100, "ratio"),
        "live.outbox.append_read_us": (pair_s / n * 1e6, "us"),
        "live.events_per_batch": (
            sum(a["events"] for a in committed) / len(committed), "count"),
    }


# -- service, approx, sim ------------------------------------------------------

def service_layer(tr: Tracer, seed: int, quick: bool) -> Metrics:
    """The serve graph's hit and miss paths in-process, layer by layer."""
    g = seeded_graph("email-eu", 0.12 if quick else 0.5, seed)
    fp = g.fingerprint()
    base = g.time_span // 80
    rng = random.Random(seed)
    misses = [(EVALUATION_MOTIFS[rng.randrange(4)], base + i) for i in range(12)]
    mackey_ms = _each_ms(tr, "mining.mackey.mine", [
        lambda m=m, d=d: MackeyMiner(g, m, d).mine() for m, d in misses])

    with MotifService() as svc:
        svc.register_graph(g, name="g")
        miss_ms = _each_ms(tr, "service.scheduler.query[miss]", [
            lambda m=m, d=d: svc.query("g", m, d) for m, d in misses])
        cold = svc.metrics()
        hit_ms = _each_ms(tr, "service.scheduler.query[hit]", [
            lambda: svc.query("g", misses[0][0], misses[0][1])] * 300)
        warm = svc.metrics()
        # Twin queries for a key nobody has asked for: the second of each
        # pair should ride the first one's execution.
        with tr.span("service.scheduler.query[twins]"):
            for i in range(6):
                twins = [threading.Thread(
                    target=svc.query, args=("g", misses[0][0], base + 100 + i))
                    for _ in range(2)]
                for t in twins:
                    t.start()
                for t in twins:
                    t.join()
        done = svc.metrics()
        server = make_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        port = server.server_address[1]
        client = Client(port)
        try:
            calls = 8 if quick else 30  # 44 ms each on a kept-alive connection
            healthz_ms = _each_ms(tr, "service.http.healthz", [
                lambda: client.call("GET", "/healthz")] * calls)
            fresh_ms = _each_ms(tr, "service.http.healthz[fresh]", [
                lambda: call_once(port, "GET", "/healthz")] * calls)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            thread.join()

    cache = ResultCache()
    keys = [(fp, M1.canonical_key(), d) for d in range(2000)]
    counters = MackeyMiner(g, M1, 1).mine().counters.as_dict()
    put_s, _ = _timed(tr, "service.cache.put", lambda: [
        cache.put(k, 7, counters) for k in keys])
    get_s, _ = _timed(tr, "service.cache.get", lambda: [
        cache.get(k) for k in keys])
    payload_s, _ = _timed(tr, "service.query.payload", lambda: [
        payload_bytes(build_payload(fp, M1, d, 7, counters)) for d in range(2000)])

    approx_s, est = _timed(tr, "approx.engine.estimate", lambda: estimate_inline(
        g, M1, g.time_span // 40, ApproxSpec(max_error=0.3, seed=seed)))

    small = seeded_graph("email-eu", 0.05 if quick else 0.1, seed)
    sim_s, report = _timed(tr, "sim.accelerator.run", lambda: MintSimulator(
        small, M1, small.time_span // 40).run())
    return {
        "mining.mackey.mine_ms": (median(mackey_ms), "ms"),
        "service.scheduler.hit_ms": (median(hit_ms), "ms"),
        "service.scheduler.miss_overhead_ms": (
            median(miss_ms) - median(mackey_ms), "ms"),
        "service.http.healthz_ms": (median(healthz_ms), "ms"),
        "service.http.healthz_fresh_ms": (median(fresh_ms), "ms"),
        "service.cache.hit_rate": (
            (warm.cache_hits - cold.cache_hits) / len(hit_ms), "ratio"),
        "service.scheduler.coalesce_ratio": (
            (done.coalesced - warm.coalesced) / (done.admitted - warm.admitted),
            "ratio"),
        "service.metrics.shed": (done.shed, "count"),
        "service.cache.put_us": (put_s / len(keys) * 1e6, "us"),
        "service.cache.get_us": (get_s / len(keys) * 1e6, "us"),
        "service.query.payload_us": (payload_s / 2000 * 1e6, "us"),
        "approx.engine.estimate_ms": (approx_s * 1e3, "ms"),
        "approx.estimate.achieved_eps": (est.achieved_eps, "ratio"),
        "sim.accelerator.run_s": (sim_s, "s"),
        "sim.accelerator.cycles": (report.cycles, "count"),
        "sim.accelerator.cycles_per_host_s": (report.cycles / sim_s, "1/s"),
    }


def run_all(tr: Tracer, seed: int, quick: bool) -> Metrics:
    out: Metrics = {}
    for layer in (graph_layer, mining_layer, live_layer, service_layer):
        with tr.span(f"probe.{layer.__name__}"):
            out.update(layer(tr, seed, quick))
    return out
