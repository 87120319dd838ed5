"""The service executor, as one declared grid.

There is one executor (``repro.service.executor.InlineExecutor``), one
engine behind it (the family walker: a singleton batch is a family of
one) and the pool / cluster backends only hand it a dispatcher, so
coverage is a grid rather than a file per backend:

    oracle   = mackey | batched
    executor = inline | pool | owned-cluster | shared-cluster
    batch    = singleton | multi-motif
    mode     = exact | degraded

Its cells are executor cells of the correctness matrix
(``tests/parity_matrix.py``), run here under the ids they always had:
served payload bytes (count, counters and all) must equal the serial
``MackeyMiner``'s, and ``degraded`` is the exact mode with the
dispatched attempt failed by an injected ``executor.batch`` fault, so
the answer comes from the executor's inline fallback.  After the grid:
the recovery and health behaviour every dispatching cell shares because
the wrapper is shared — rebuild of an owned dispatcher that broke
mid-batch and ``/healthz`` worker liveness — and the leak check for the
service-lifetime pool under seeded worker kills.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from conftest import random_temporal_graph
from parity_matrix import (
    case, former_tests, kill, make_executor, own_children, reference_bytes, serve,
)
from repro.cluster import MiningCluster
from repro.motifs.catalog import M1, M2, M3
from repro.resilience.faults import FaultPlan
from repro.service import MotifService

DELTA = 50


@pytest.fixture(scope="module")
def graph():
    return case("rand31").graph


@pytest.fixture(scope="module")
def reference(graph):
    return reference_bytes(graph, [M1], DELTA)


@pytest.mark.timeout(300)
class TestExecutorGrid:
    def test_shared_cluster_outlives_its_facades(self):
        with MiningCluster(2) as cluster:
            make_executor("shared-ClusterExecutor", cluster=cluster).close()
            assert not cluster.closed


@pytest.mark.timeout(300)
class TestSharedWrapperOnTheClusterBackend:
    def test_owned_cluster_that_broke_mid_batch_is_rebuilt(self, graph, reference):
        """The only node dies mid-batch with no respawn budget: that
        batch is served inline, the broken cluster is rebuilt at the
        next checkout, and the next batch runs on nodes again — instead
        of failing and re-mining inline on every later batch."""
        before = multiprocessing.active_children()
        executor = make_executor("ClusterExecutor", workers=1, respawn_budget=0)
        try:
            node = own_children(before)

            def kill_once() -> bool:
                kill(node)
                node.clear()
                return False  # never a cancellation

            served = serve(executor, graph, [M1], DELTA, cancel_check=kill_once)
            assert served == reference
            counters = executor.counters
            assert counters.get("backend_failures") == 1
            assert counters.get("degraded_queries") == 1
            assert executor.worker_liveness() == {"cluster": {"live": 0, "target": 1}}

            chunks = counters.get("chunks_completed")
            assert serve(executor, graph, [M1], DELTA) == reference
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
            executor = make_executor("shared-ClusterExecutor", cluster=cluster)
            kill(own_children(before))
            for _ in range(5):
                assert serve(executor, graph, [M1], DELTA) == reference
            assert executor.counters.get("pools_rebuilt") == 0
            assert executor.counters.get("backend_failures") == 3
            assert executor.counters.get("breaker_opens") == 1
            assert executor.counters.get("degraded_queries") == 5
            assert executor.degraded
            executor.close()
            assert not cluster.closed


@pytest.mark.timeout(300)
class TestHealthReportsTheDispatcher:
    def test_inline_service_reports_no_workers(self):
        with MotifService() as svc:
            assert svc.health()["workers"] == {}

    def test_lost_worker_without_budget_shows_live_below_target(self, graph):
        before = multiprocessing.active_children()
        executor = make_executor("PoolExecutor", workers=2, respawn_budget=0)
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
    def test_pool_under_seeded_kills_over_two_graphs(self, graph):
        """The pool lives as long as the service, so the leak check
        ``benchmarks/perf/test_smoke.py`` applies to ``MiningPool`` is
        applied to it: seeded worker kills, two graphs, byte parity,
        then no child process and no shared-memory segment left."""
        other = random_temporal_graph(random.Random(32), 30, 400, time_range=400)
        children = multiprocessing.active_children()
        shm_before = set(os.listdir("/dev/shm"))
        plan = FaultPlan.random_kills(7, 2, 2)
        executor = make_executor("PoolExecutor", fault_plan=plan)
        try:
            for g in (graph, other, graph):
                for motifs in ([M1], [M1, M2, M3]):
                    assert serve(executor, g, motifs, DELTA) == reference_bytes(g, motifs, DELTA)
            assert executor.counters.get("worker_deaths") == 2
            assert executor.counters.get("backend_failures") == 0
        finally:
            executor.close()
        assert own_children(children) == []
        assert set(os.listdir("/dev/shm")) - shm_before == set()


former_tests(globals())
