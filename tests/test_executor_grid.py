"""The service executor, as one declared grid.

There is one executor (``repro.service.executor.InlineExecutor``), one
engine behind it (the family walker: a singleton batch is a family of
one) and the pool / cluster backends only hand it a dispatcher, so
coverage is a grid rather than a file per backend:

    oracle   = mackey | batched
    executor = inline | pool | owned-cluster | shared-cluster
    batch    = singleton | multi-motif
    mode     = exact | approx | degraded

The oracle axis is what a cell's served
payload bytes (count, counters and all) must equal: ``mackey`` is the
byte oracle, the scalar ``MackeyMiner`` run serially one motif at a time
(:func:`cluster_harness.serial_reference`); ``batched`` is the unchunked
in-process family walk, i.e. what the executor's own same-call inline
fallback serves.  ``degraded`` is the exact mode with the dispatched
attempt failed by an injected ``executor.batch`` fault, so the answer
comes from that fallback.  After the grid: the recovery and health
behaviour every dispatching cell shares because the wrapper is shared —
rebuild of an owned dispatcher that broke mid-batch, dispatched sampling
on a cluster, ``/healthz`` worker liveness — and the leak check for the
service-lifetime pool under seeded worker kills.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from collections import Counter

import pytest

from cluster_harness import (
    EXECUTORS,
    approx_reference,
    kill,
    make_executor,
    mine,
    own_children,
    payloads,
    serial_reference,
    serve,
    worker_kill_plan,
)
from conftest import random_temporal_graph
from repro.approx.estimate import ApproxSpec
from repro.cluster import MiningCluster
from repro.motifs.catalog import M1, M2, M3
from repro.resilience.faults import FaultPlan
from repro.service import MotifService
from repro.service.query import payload_bytes

DELTA = 50
#: Cheap sampling contract: wide error budget, two rounds at most.
SPEC = ApproxSpec(max_error=0.5, seed=1, base_samples=16, max_samples=32)
BATCHES = {"singleton": [M1], "multi-motif": [M1, M2, M3]}
#: oracle -> per-motif ``(count, counters)`` of one batch, mined without
#: any executor.
ORACLES = {
    "mackey": serial_reference,
    "batched": lambda graph, motifs, delta: mine("serial", graph, motifs, delta),
}


@pytest.fixture(scope="module")
def graph():
    return random_temporal_graph(random.Random(31), 30, 400, time_range=400)


def served_by(oracle, graph):
    """(batch, mode) -> the bytes ``oracle`` says must be served."""
    out = {}
    for name, motifs in BATCHES.items():
        out[name, "exact"] = out[name, "degraded"] = payloads(
            graph, motifs, DELTA, ORACLES[oracle](graph, motifs, DELTA)
        )
        out[name, "approx"] = approx_reference(graph, motifs, DELTA, SPEC)
    return out


@pytest.fixture(scope="module", params=("mackey", "batched"))
def oracle(request, graph):
    return served_by(request.param, graph)


@pytest.fixture(scope="module")
def reference(graph):
    return served_by("mackey", graph)


@pytest.fixture(scope="module")
def shared_cluster():
    with MiningCluster(2) as cluster:
        yield cluster


@pytest.fixture(scope="module", params=EXECUTORS)
def kind(request):
    return request.param


@pytest.fixture(scope="module")
def executor(kind, shared_cluster):
    """One executor per kind, serving that kind's cells."""
    executor = make_executor(kind, cluster=shared_cluster)
    yield executor
    executor.close()


@pytest.mark.timeout(300)
class TestExecutorGrid:
    @pytest.mark.parametrize("mode", ("exact", "approx", "degraded"))
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_served_bytes_match_serial_reference(
        self, oracle, executor, kind, batch, mode, graph
    ):
        motifs = BATCHES[batch]
        before = executor.counters.snapshot()
        if mode == "degraded":
            with FaultPlan.raise_at("executor.batch", [1]).installed():
                served = serve(executor, graph, motifs, DELTA)
        else:
            served = serve(
                executor, graph, motifs, DELTA, SPEC if mode == "approx" else None
            )
        assert served == oracle[batch, mode]
        after = executor.counters.snapshot()
        grew = Counter(after)
        grew.subtract(before)
        # Not vacuous: a dispatching executor really ran it on workers —
        # or, degraded, really failed over to its inline fallback.
        fell_back = mode == "degraded" and kind != "inline"
        assert grew["backend_failures"] == fell_back
        assert grew["degraded_queries"] == fell_back * len(motifs)
        if kind == "shared-cluster":
            # The cluster's owner, not this facade, hears its events.
            assert executor.worker_liveness() == {"cluster": {"live": 2, "target": 2}}
        else:
            assert (grew["chunks_completed"] > 0) == (
                kind != "inline" and not fell_back
            )
        assert grew["comined_batches"] == (mode != "approx" and batch == "multi-motif")

    def test_shared_cluster_outlives_its_facades(self, shared_cluster):
        make_executor("shared-cluster", cluster=shared_cluster).close()
        assert not shared_cluster.closed


@pytest.mark.timeout(300)
class TestSharedWrapperOnTheClusterBackend:
    def test_owned_cluster_that_broke_mid_batch_is_rebuilt(self, graph, reference):
        """The only node dies mid-batch with no respawn budget: that
        batch is served inline, the broken cluster is rebuilt at the
        next checkout, and the next batch runs on nodes again — instead
        of failing and re-mining inline on every later batch."""
        before = multiprocessing.active_children()
        executor = make_executor("owned-cluster", workers=1, respawn_budget=0)
        try:
            node = own_children(before)

            def kill_once() -> bool:
                kill(node)
                node.clear()
                return False  # never a cancellation

            served = payloads(graph, [M1], DELTA, executor.count_batch(
                graph, [M1], DELTA, cancel_check=kill_once
            ))
            assert served == reference["singleton", "exact"]
            counters = executor.counters
            assert counters.get("backend_failures") == 1
            assert counters.get("degraded_queries") == 1
            assert executor.worker_liveness() == {"cluster": {"live": 0, "target": 1}}

            chunks = counters.get("chunks_completed")
            assert serve(executor, graph, [M1], DELTA) == reference["singleton", "exact"]
            assert counters.get("pools_rebuilt") == 1
            assert counters.get("backend_failures") == 1
            assert counters.get("chunks_completed") > chunks
            assert executor.worker_liveness() == {"cluster": {"live": 1, "target": 1}}
        finally:
            executor.close()

    def test_shared_cluster_that_broke_is_left_to_its_owner(self, graph, reference):
        """A facade never rebuilds a cluster it was handed: the graph's
        breaker — the same one the pool backend has — opens after three
        failed attempts and keeps its batches inline while it is down."""
        before = multiprocessing.active_children()
        with MiningCluster(1, respawn_budget=0) as cluster:
            executor = make_executor("shared-cluster", cluster=cluster)
            kill(own_children(before))
            for _ in range(5):
                assert serve(executor, graph, [M1], DELTA) == reference[
                    "singleton", "exact"
                ]
            assert executor.counters.get("pools_rebuilt") == 0
            assert executor.counters.get("backend_failures") == 3
            assert executor.counters.get("breaker_opens") == 1
            assert executor.counters.get("degraded_queries") == 5
            assert executor.degraded
            executor.close()
            assert not cluster.closed

    def test_approx_query_through_a_cluster_is_dispatched(self, graph, reference):
        with MotifService(executor=make_executor("owned-cluster", workers=1)) as svc:
            svc.register_graph(graph, name="g")
            result = svc.query("g", M1, DELTA, approx=SPEC)
            assert result.ok and result.source == "mined"
            assert [payload_bytes(result.payload)] == reference["singleton", "approx"]
            metrics = svc.metrics()
            assert metrics.backend_failures == 0
            assert svc.resilience.get("chunks_completed") > 0  # sample chunks ran on the node


@pytest.mark.timeout(300)
class TestHealthReportsTheDispatcher:
    def test_inline_service_reports_no_workers(self):
        with MotifService() as svc:
            assert svc.health()["workers"] == {}

    def test_lost_worker_without_budget_shows_live_below_target(self, graph):
        before = multiprocessing.active_children()
        executor = make_executor("pool", workers=2, respawn_budget=0)
        with MotifService(executor=executor) as svc:
            svc.register_graph(graph, name="g")
            assert svc.query("g", M1, DELTA).ok
            health = svc.health()
            assert health["workers"] == {"pool": {"live": 2, "target": 2}}
            assert health["ok"] and not health["degraded"]
            kill(own_children(before)[:1])
            health = svc.health()
            assert health["workers"] == {"pool": {"live": 1, "target": 2}}
            assert health["ok"] and health["degraded"]
            # Still serving, on the survivor.
            assert svc.query("g", M2, DELTA).ok


@pytest.mark.timeout(300)
class TestServiceLifetimePoolLeavesNothingBehind:
    def test_pool_under_seeded_kills_over_two_graphs(self, graph, reference):
        """The pool now lives as long as the service, so the leak check
        ``benchmarks/perf/test_smoke.py`` applies to ``MiningPool`` is
        applied to it: seeded worker kills, two graphs, byte parity,
        then no child process and no shared-memory segment left."""
        other = random_temporal_graph(random.Random(32), 30, 400, time_range=400)
        children = multiprocessing.active_children()
        shm_before = set(os.listdir("/dev/shm"))
        plan = worker_kill_plan(seed=7, num_workers=2, kills=2)
        executor = make_executor("pool", fault_plan=plan)
        try:
            for g in (graph, other, graph):
                for motifs in BATCHES.values():
                    expected = payloads(
                        g, motifs, DELTA, serial_reference(g, motifs, DELTA)
                    )
                    assert serve(executor, g, motifs, DELTA) == expected
            assert executor.counters.get("worker_deaths") == 2
            assert executor.counters.get("backend_failures") == 0
        finally:
            executor.close()
        assert own_children(children) == []
        assert set(os.listdir("/dev/shm")) - shm_before == set()
