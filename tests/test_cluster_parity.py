"""Differential byte-parity suite for cluster dispatch.

The contract, asserted end to end: every dispatch mode of

    serial | pooled | supervised | cluster

produces served-payload bytes identical to the serial Mackey reference
— with the fault-tolerant modes running under *seeded kill plans*
(supervised workers die at ``worker.chunk``; whole cluster nodes die at
``node.chunk``).  On top of the grid: degraded completion with the
respawn budget at zero, ring failover off a dead primary under
``replication=1``, two service replicas sharing one node pool, the
executor's inline fallback, and the ``repro chaos --cluster`` drill.
"""

from __future__ import annotations

import random

import pytest

from cluster_harness import (
    MODES,
    mine,
    node_kill_plan,
    payloads,
    serial_reference,
    worker_kill_plan,
)
from conftest import random_temporal_graph
from repro.cli import main
from repro.cluster import ClusterExecutor, MiningCluster
from repro.graph.loaders import save_snap_text
from repro.motifs.catalog import EVALUATION_MOTIFS
from repro.resilience import FaultPlan
from repro.service import MotifService
from repro.service.query import payload_bytes

DELTA = 60
SEED = 7
WORKERS = 3


@pytest.fixture(scope="module")
def graph():
    return random_temporal_graph(random.Random(23), 50, 900, time_range=700)


@pytest.fixture(scope="module")
def motifs():
    return list(EVALUATION_MOTIFS)


@pytest.fixture(scope="module")
def reference(graph, motifs):
    """Serve-shaped payload bytes from the serial Mackey miner."""
    return payloads(graph, motifs, DELTA, serial_reference(graph, motifs, DELTA))


def _plan(mode):
    if mode == "supervised":
        return worker_kill_plan(SEED, WORKERS, 1)
    if mode == "cluster":
        return node_kill_plan(SEED, WORKERS, 1)
    return None


class TestDifferentialGrid:
    @pytest.mark.parametrize("mode", MODES)
    def test_payload_bytes_match_serial_reference(
        self, mode, graph, motifs, reference
    ):
        """Every dispatch mode, under that mode's seeded kill plan:
        byte-identical served payloads."""
        results = mine(
            mode, graph, motifs, DELTA,
            workers=WORKERS, fault_plan=_plan(mode), seed=SEED,
        )
        assert payloads(graph, motifs, DELTA, results) == reference

    def test_cluster_kill_actually_fires(self, graph, motifs, reference):
        """The grid cells above must not pass vacuously: on an explicit
        cluster a whole node really dies and parity still holds.  The
        kill is at the victim's *first* chunk — every ready node is
        handed one before any result is awaited — so that it fires does
        not depend on how the OS schedules the nodes."""
        plan = FaultPlan.kill_worker(1, at_chunk=1, site="node.chunk")
        with MiningCluster(
            WORKERS, fault_plan=plan, seed=SEED, backoff_base_s=0.01,
        ) as cluster:
            results = mine("cluster", graph, motifs, DELTA, cluster=cluster)
            stats = cluster.stats.as_dict()
        assert stats["node_deaths"] >= 1
        assert stats["chunk_retries"] >= 1
        assert payloads(graph, motifs, DELTA, results) == reference


class TestDegradedAndFailover:
    def test_degraded_completion_keeps_parity(self, graph, motifs, reference):
        """Budget zero, one of two nodes killed: the run finishes on the
        survivor, flags degraded, and stays byte-identical."""
        plan = FaultPlan.kill_worker(0, at_chunk=1, site="node.chunk")
        with MiningCluster(2, fault_plan=plan, respawn_budget=0) as cluster:
            fam = cluster.count_family(graph, motifs, DELTA)
            assert cluster.degraded
            stats = cluster.stats.as_dict()
        assert stats["node_deaths"] == 1
        assert stats["respawns"] == 0
        results = [(r.count, r.counters.as_dict()) for r in fam.results]
        assert payloads(graph, motifs, DELTA, results) == reference

    def test_ring_failover_rehomes_the_graph(self, graph, motifs, reference):
        """replication=1 places the graph on exactly one slot, computed
        off-cluster from the same ring — kill that slot with no budget
        and the graph must fail over to the other node, degraded but
        byte-identical."""
        from repro.cluster import HashRing, slot_name

        fp = graph.fingerprint()
        primary = int(
            HashRing(slot_name(i) for i in range(2)).node_for(fp).split("-")[1]
        )
        plan = FaultPlan.kill_worker(primary, at_chunk=1, site="node.chunk")
        with MiningCluster(
            2, replication=1, fault_plan=plan, respawn_budget=0
        ) as cluster:
            results = cluster.count_many(graph, motifs, DELTA)
            assert cluster.placement(fp)[0] == primary
            assert len(cluster.placement(fp)) > 1  # extended by failover
            stats = cluster.stats.as_dict()
            assert cluster.degraded
        assert stats["failovers"] >= 1
        assert stats["node_deaths"] == 1
        pairs = [(r.count, r.counters.as_dict()) for r in results]
        assert payloads(graph, motifs, DELTA, pairs) == reference


class TestSharedClusterServing:
    def test_two_replicas_one_node_pool(self, graph, motifs, reference):
        """Two service replicas dispatch through one shared cluster:
        both serve the reference bytes, and closing one replica leaves
        the pool serving the other."""
        cluster = MiningCluster(2)
        try:
            a = MotifService(executor=ClusterExecutor(cluster=cluster))
            b = MotifService(executor=ClusterExecutor(cluster=cluster))
            try:
                fp_a = a.register_graph(graph, name="g")
                fp_b = b.register_graph(graph, name="g")
                assert fp_a == fp_b
                for service in (a, b):
                    r = service.query("g", motifs[0], DELTA)
                    assert r.ok, r.error
                    assert payload_bytes(r.payload) == reference[0]
            finally:
                a.close()
            # Replica A is gone; the shared pool still serves B.
            r = b.query("g", motifs[1], DELTA)
            assert r.ok, r.error
            assert payload_bytes(r.payload) == reference[1]
            b.close()
            assert not cluster.closed
        finally:
            cluster.close()

    def test_executor_falls_back_inline_on_cluster_failure(
        self, graph, motifs, reference
    ):
        """An injected backend failure degrades to inline mining in the
        calling lane — same bytes, accounted as a degraded query."""
        executor = ClusterExecutor(num_nodes=2)
        try:
            with FaultPlan.raise_at("executor.batch", [1]).installed():
                items = executor.count_batch(graph, motifs, DELTA)
            pairs = [(c, d) for c, d in items]
            assert payloads(graph, motifs, DELTA, pairs) == reference
            assert executor.counters.get("backend_failures") == 1
            assert executor.counters.get("degraded_queries") == len(motifs)
            # Next batch reaches the cluster (comined) and agrees too.
            # (The inline fallback above also co-mined, hence 2 total.)
            items = executor.count_batch(graph, motifs, DELTA)
            pairs = [(c, d) for c, d in items]
            assert payloads(graph, motifs, DELTA, pairs) == reference
            assert executor.counters.get("comined_batches") == 2
        finally:
            executor.close()


class TestChaosClusterCLI:
    def test_drill_reports_parity_and_exits_zero(self, tmp_path, graph, capsys):
        path = tmp_path / "g.txt"
        save_snap_text(graph, str(path))
        rc = main([
            "chaos", str(path), "--delta", str(DELTA), "--cluster",
            "--nodes", "3", "--kills", "1", "--seed", str(SEED),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parity" in out and "OK" in out
        assert "node deaths" in out

    def test_kills_beyond_nodes_is_an_arg_error(self, tmp_path, graph, capsys):
        path = tmp_path / "g.txt"
        save_snap_text(graph, str(path))
        rc = main([
            "chaos", str(path), "--delta", str(DELTA), "--cluster",
            "--nodes", "2", "--kills", "3",
        ])
        assert rc == 2
