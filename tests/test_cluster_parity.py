"""Differential byte-parity suite for cluster dispatch.

The contract, asserted end to end: every dispatch mode of

    serial | pooled | supervised | cluster

produces served-payload bytes identical to the serial Mackey reference
— with the fault-tolerant modes running under *seeded kill plans*
(supervised workers die at ``worker.chunk``; whole cluster nodes die at
``node.chunk``), plus degraded completion with the respawn budget at
zero, ring failover off a dead primary under ``replication=1`` and the
executor's inline fallback.  Those are cells of the correctness matrix
(``tests/parity_matrix.py``), run here under the ids they always had.
Beside them: two service replicas sharing one node pool, and the
``repro chaos --cluster`` drill.
"""

from __future__ import annotations

import pytest

from parity_matrix import case, former_tests, reference_bytes
from repro.cli import main
from repro.cluster import MiningCluster
from repro.graph.loaders import save_snap_text
from repro.motifs.catalog import EVALUATION_MOTIFS
from repro.service import InlineExecutor, MotifService
from repro.service.query import payload_bytes

DELTA = 60
SEED = 7


@pytest.fixture(scope="module")
def graph():
    return case("rand23").graph


@pytest.fixture(scope="module")
def motifs():
    return list(EVALUATION_MOTIFS)


@pytest.fixture(scope="module")
def reference(graph, motifs):
    """Serve-shaped payload bytes from the serial Mackey miner."""
    return reference_bytes(graph, motifs, DELTA)


class TestSharedClusterServing:
    def test_two_replicas_one_node_pool(self, graph, motifs, reference):
        """Two service replicas dispatch through one shared cluster:
        both serve the reference bytes, and closing one replica leaves
        the pool serving the other."""
        cluster = MiningCluster(2)
        try:
            a = MotifService(executor=InlineExecutor(cluster))
            b = MotifService(executor=InlineExecutor(cluster))
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


class TestChaosClusterCLI:
    def test_drill_reports_parity_and_exits_zero(self, tmp_path, graph, capsys):
        path = tmp_path / "g.txt"
        save_snap_text(graph, str(path))
        rc = main([
            "chaos", str(path), "--delta", str(DELTA), "--cluster",
            "--workers", "3", "--kills", "1", "--seed", str(SEED),
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
            "--workers", "2", "--kills", "3",
        ])
        assert rc == 2


former_tests(globals())
