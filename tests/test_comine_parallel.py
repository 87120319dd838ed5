"""Sharded co-mining: ``count_family`` on both worker pools.

The family chunk is as idempotent as the per-motif chunk — one shared
traversal over a root range, merged commutatively — so it must compose
with both the zero-copy :class:`MiningPool` and the fault-tolerant
:class:`SupervisedMiningPool` without changing a single byte of any
motif's count or counters, even under injected worker kills.
"""

import pytest

from repro.comine import CoMiner
from repro.graph.generators import make_dataset
from repro.mining.parallel import MiningPool
from repro.mining.parallel import MiningPool as SupervisedMiningPool
from repro.mining.results import MiningCancelled
from repro.motifs.catalog import M1, M2, PATH3, PING_PONG
from repro.motifs.grid import paranjape_grid
from repro.resilience.faults import FaultPlan

FAMILY = [M1, M2, PATH3, PING_PONG]
GRID_MOTIFS = [m for _, m in sorted(paranjape_grid().items())]


@pytest.fixture(scope="module")
def graph():
    return make_dataset("email-eu", scale=0.08, seed=3)


@pytest.fixture(scope="module")
def delta(graph):
    return max(1, graph.time_span // 40)


@pytest.fixture(scope="module")
def serial(graph, delta):
    return CoMiner(graph, FAMILY, delta).mine()


def assert_family_parity(fam, serial, family):
    assert [r.count for r in fam.results] == serial.counts
    for motif, r, expected in zip(family, fam.results, serial.per_motif):
        assert r.counters.as_dict() == expected.as_dict(), motif.name
    assert fam.counters.as_dict() == serial.counters.as_dict()
    assert fam.sharing.as_dict() == serial.sharing.as_dict()


class TestMiningPoolFamily:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_count_family_matches_serial_cominer(
        self, graph, delta, serial, workers
    ):
        with MiningPool(graph, workers) as pool:
            fam = pool.count_family(FAMILY, delta)
        assert_family_parity(fam, serial, FAMILY)
        assert fam.num_workers == workers
        assert fam.num_chunks > 0

    def test_count_family_matches_count_many(self, graph, delta):
        with MiningPool(graph, 2) as pool:
            many = pool.count_many(FAMILY, delta)
            fam = pool.count_family(FAMILY, delta)
        for a, b in zip(many, fam.results):
            assert a.count == b.count
            assert a.counters.as_dict() == b.counters.as_dict()

    def test_count_family_empty_family_raises(self, graph):
        with MiningPool(graph, 1) as pool:
            with pytest.raises(ValueError):
                pool.count_family([], 10)

    def test_count_family_cancel(self, graph, delta):
        with MiningPool(graph, 2) as pool:
            with pytest.raises(MiningCancelled):
                pool.count_family(GRID_MOTIFS, delta, cancel_check=lambda: True)
            # The pool survives a cancelled family run.
            fam = pool.count_family(FAMILY, delta)
            assert sum(r.count for r in fam.results) == sum(
                CoMiner(graph, FAMILY, delta).mine().counts
            )

    def test_closed_pool_rejects_family(self, graph):
        pool = MiningPool(graph, 1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.count_family(FAMILY, 10)


class TestSupervisedFamily:
    def test_supervised_matches_serial_cominer(self, graph, delta, serial):
        with SupervisedMiningPool(
            graph, 2, chunk_timeout_s=None
        ) as pool:
            fam = pool.count_family(FAMILY, delta)
        assert_family_parity(fam, serial, FAMILY)

    def test_parity_survives_injected_worker_kills(self, graph, delta, serial):
        plan = FaultPlan.kill_workers({0: 2, 1: 1})
        with SupervisedMiningPool(
            graph,
            3,
            chunk_timeout_s=None,
            fault_plan=plan,
            respawn_budget=10,
        ) as pool:
            fam = pool.count_family(FAMILY, delta)
            stats = pool.stats.as_dict()
        assert stats["worker_deaths"] >= 2
        assert stats["chunk_retries"] >= 1
        assert_family_parity(fam, serial, FAMILY)

    def test_parity_when_every_worker_dies_once(self, graph, delta, serial):
        # Every worker (original and respawned) dies at its second
        # chunk; the respawn budget keeps the run completable.
        plan = FaultPlan.kill_every_worker(at_chunk=2)
        with SupervisedMiningPool(
            graph,
            2,
            chunk_timeout_s=None,
            fault_plan=plan,
            respawn_budget=50,
        ) as pool:
            fam = pool.count_family(FAMILY, delta)
            stats = pool.stats.as_dict()
        assert stats["worker_deaths"] >= 2
        assert_family_parity(fam, serial, FAMILY)

    def test_family_and_motif_chunks_interleave_on_one_pool(
        self, graph, delta, serial
    ):
        # A single motif (a family of one) and a whole family are
        # served by the same resident workers.
        with SupervisedMiningPool(graph, 2, chunk_timeout_s=None) as pool:
            solo = pool.count(M1, delta)
            fam = pool.count_family(FAMILY, delta)
            solo2 = pool.count(M1, delta)
        assert solo.count == serial.counts[0] == fam.results[0].count
        assert solo.counters.as_dict() == solo2.counters.as_dict()

    def test_supervised_family_cancel(self, graph, delta):
        with SupervisedMiningPool(graph, 2, chunk_timeout_s=None) as pool:
            with pytest.raises(MiningCancelled):
                pool.count_family(FAMILY, delta, cancel_check=lambda: True)


class TestServiceBatchLane:
    def test_multi_motif_batches_are_comined(self, graph, delta):
        from repro.service import MotifService

        with MotifService() as svc:
            svc.register_graph(graph)
            svc.scheduler.pause()
            pending = [
                svc.submit(graph, motif, delta) for motif in FAMILY
            ]
            svc.scheduler.resume()
            results = [p.result() for p in pending]
            assert all(r.ok for r in results)
            metrics = svc.metrics()
        assert metrics.comined_batches >= 1
        serial = CoMiner(graph, FAMILY, delta).mine()
        for r, count, counters in zip(
            results, serial.counts, serial.per_motif
        ):
            assert r.payload["count"] == count
            assert r.payload["counters"] == counters.as_dict()

    def test_singleton_batches_skip_comine(self, graph, delta):
        from repro.service import MotifService

        with MotifService() as svc:
            svc.register_graph(graph)
            assert svc.query(graph, M1, delta).ok
            assert svc.metrics().comined_batches == 0
