"""Supervision-layer tests for :class:`SupervisedMiningPool`.

Every test here asserts the same core invariant from a different
failure angle: whatever dies, counts that do come back are
byte-identical to the serial miner (chunks are idempotent, merging is
commutative).  Fault injection is seeded, so each scenario is an
ordinary deterministic test.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.mining.chunks import ChunkFailed
from repro.mining.mackey import MackeyMiner
from repro.mining.parallel import MiningPool as SupervisedMiningPool
from repro.mining.parallel import PoolDegraded, PoolFailed
from repro.mining.results import MiningCancelled
from repro.motifs.catalog import M1, M2
from repro.resilience import FaultPlan, FaultSpec
from tests.conftest import random_temporal_graph

DELTA = 60
WORKERS = 3


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(11)
    return random_temporal_graph(rng, 40, 700, time_range=600)


@pytest.fixture(scope="module")
def truth(graph):
    """Serial ground truth per motif: (count, counters dict)."""
    out = {}
    for motif in (M1, M2):
        r = MackeyMiner(graph, motif, DELTA).mine()
        out[motif.name] = (r.count, r.counters.as_dict())
    return out


def assert_parity(results, truth, motifs):
    for motif, result in zip(motifs, results):
        count, counters = truth[motif.name]
        assert result.count == count
        assert result.counters.as_dict() == counters


@pytest.mark.timeout(120)
class TestSupervisedPool:
    def test_fault_free_parity(self, graph, truth):
        with SupervisedMiningPool(graph, WORKERS) as pool:
            results = pool.count_many([M1, M2], DELTA)
            assert_parity(results, truth, [M1, M2])
            assert pool.stats.worker_deaths == 0
            assert pool.stats.chunks_completed > 0
            assert not pool.degraded and not pool.broken

    def test_single_worker_death_costs_one_chunk(self, graph, truth):
        events = []
        with SupervisedMiningPool(
            graph, WORKERS,
            fault_plan=FaultPlan.kill_worker(0, at_chunk=2),
            on_event=lambda name, n: events.append(name),
        ) as pool:
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])
            assert pool.stats.worker_deaths == 1
            # The killed worker's in-flight chunk was requeued once.
            assert pool.stats.chunk_retries == 1
            assert "worker_deaths" in events and "chunk_retries" in events
            # Same pool keeps serving after the death.
            again = pool.count_many([M2], DELTA)
            assert_parity(again, truth, [M2])

    def test_wedged_worker_is_killed_and_chunk_retried(self, graph, truth):
        # Worker 0 stalls 2s on its first chunk against a 0.3s soft
        # timeout: the supervisor must presume it wedged, SIGKILL it,
        # and re-run the chunk elsewhere.
        plan = FaultPlan([
            FaultSpec("worker.chunk", "delay", at_call=1, worker=0,
                      delay_s=2.0),
        ])
        with SupervisedMiningPool(
            graph, WORKERS, chunk_timeout_s=0.3, fault_plan=plan,
        ) as pool:
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])
            assert pool.stats.wedged_kills == 1
            assert pool.stats.chunk_retries >= 1

    def test_respawn_refills_the_pool(self, graph, truth):
        # Both original workers die, so the run can only finish on
        # respawned replacements — whose fresh ids dodge the one-shot
        # kill specs for workers 0 and 1.
        with SupervisedMiningPool(
            graph, 2,
            fault_plan=FaultPlan.kill_workers({0: 1, 1: 1}),
            backoff_base_s=0.01,
        ) as pool:
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])
            assert pool.stats.worker_deaths == 2
            assert pool.stats.respawns >= 1
            again = pool.count_many([M1], DELTA)
            assert_parity(again, truth, [M1])
            assert pool.stats.worker_deaths == 2

    def test_budget_exhaustion_raises_pool_failed(self, graph):
        # Every fresh worker (original or respawn) dies at its first
        # chunk; with a budget of 2 respawns the pool must give up.
        with SupervisedMiningPool(
            graph, 2,
            fault_plan=FaultPlan.kill_every_worker(at_chunk=1),
            respawn_budget=2, backoff_base_s=0.01,
        ) as pool:
            with pytest.raises(PoolFailed):
                pool.count_many([M1], DELTA)
            assert pool.broken
            # A broken pool refuses further work explicitly.
            with pytest.raises(PoolFailed):
                pool.count_many([M1], DELTA)

    def test_degraded_completion_on_survivors(self, graph, truth):
        # Worker 0 dies and there is no respawn budget: the pool keeps
        # mining on the survivors and flags itself degraded.
        with SupervisedMiningPool(
            graph, WORKERS,
            fault_plan=FaultPlan.kill_worker(0, at_chunk=1),
            respawn_budget=0,
        ) as pool:
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])
            assert pool.degraded
            assert pool.live_workers == WORKERS - 1
            assert not pool.broken  # degraded, still mining

    def test_strict_mode_raises_pool_degraded(self, graph):
        with SupervisedMiningPool(
            graph, WORKERS,
            fault_plan=FaultPlan.kill_worker(0, at_chunk=1),
            respawn_budget=0,
        ) as pool:
            with pytest.raises(PoolDegraded):
                pool.count_many([M1], DELTA, allow_degraded=False)

    def test_chunk_error_retried_below_the_cap(self, graph, truth):
        # One worker whose first chunk raises: the chunk is requeued
        # and succeeds on the worker's next call — parity intact.
        with SupervisedMiningPool(
            graph, 1, fault_plan=FaultPlan.raise_at("worker.chunk", [1]),
        ) as pool:
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])
            assert pool.stats.chunk_retries == 1
            assert pool.stats.worker_deaths == 0

    def test_deterministic_chunk_error_fails_past_the_cap(self, graph, truth):
        # With one worker, the failing chunk is requeued at the front
        # and immediately retried, so injected raises at calls 1..3 all
        # hit the same chunk: the run must fail with ChunkFailed rather
        # than requeueing forever at full CPU.
        with SupervisedMiningPool(
            graph, 1,
            fault_plan=FaultPlan.raise_at("worker.chunk", [1, 2, 3]),
            max_chunk_errors=3,
        ) as pool:
            with pytest.raises(ChunkFailed):
                pool.count_many([M1], DELTA)
            # Only the pre-cap attempts were requeued.
            assert pool.stats.chunk_retries == 2
            # A bad input is not a worker-health problem: the pool
            # stays healthy and serves the next (fault-free) run.
            assert not pool.broken
            assert pool.live_workers == 1
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])

    def test_concurrent_count_many_is_thread_safe(self, graph, truth):
        # The service hands one cached pool to several scheduler lanes;
        # interleaved supervision loops must not mis-attribute or
        # discard each other's chunks.
        batches = [[M1], [M2], [M1, M2], [M2, M1]]
        with SupervisedMiningPool(graph, WORKERS) as pool:
            results = [None] * len(batches)
            errors = []

            def run(i: int) -> None:
                try:
                    results[i] = pool.count_many(batches[i], DELTA)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(len(batches))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=90)
            assert not errors
            for batch, res in zip(batches, results):
                assert res is not None
                assert_parity(res, truth, batch)

    def test_cancel_while_waiting_for_the_pool_lock(self, graph):
        # A lane whose deadline expires while another lane holds the
        # pool must abandon the wait, not block until its turn.
        with SupervisedMiningPool(graph, 2) as pool:
            with pool._mine_lock:
                with pytest.raises(MiningCancelled):
                    pool.count_many([M1], DELTA, cancel_check=lambda: True)

    def test_cancel_during_respawn_backoff(self, graph):
        # All workers dead, budget remaining, long backoff: a cancelled
        # batch must stop blocking its lane immediately instead of
        # sleeping out the whole backoff delay.
        with SupervisedMiningPool(
            graph, 1,
            fault_plan=FaultPlan.kill_every_worker(at_chunk=1),
            respawn_budget=5, backoff_base_s=30.0, backoff_cap_s=30.0,
        ) as pool:
            start = time.monotonic()
            with pytest.raises(MiningCancelled):
                pool.count_many(
                    [M1], DELTA,
                    cancel_check=lambda: pool.stats.worker_deaths >= 1,
                )
            # Backoff is >= 15s even at minimum jitter; a cancel-aware
            # wait returns within a tick of the death.
            assert time.monotonic() - start < 10.0

    def test_cancel_then_reuse(self, graph, truth):
        with SupervisedMiningPool(graph, WORKERS) as pool:
            with pytest.raises(MiningCancelled):
                pool.count_many([M1], DELTA, cancel_check=lambda: True)
            # Stale-epoch results from the cancelled run are discarded;
            # the next run is clean.
            results = pool.count_many([M1], DELTA)
            assert_parity(results, truth, [M1])

    def test_empty_inputs(self, graph):
        with SupervisedMiningPool(graph, 2) as pool:
            assert pool.count_many([], DELTA) == []
        from repro.graph.temporal_graph import TemporalGraph

        empty = TemporalGraph([])
        with SupervisedMiningPool(empty, 2) as pool:
            (r,) = pool.count_many([M1], DELTA)
            assert r.count == 0

    def test_close_guards(self, graph):
        pool = SupervisedMiningPool(graph, 2)
        pool.close()
        pool.close()  # idempotent
        assert pool.closed and pool.broken
        with pytest.raises(RuntimeError):
            pool.count_many([M1], DELTA)

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            SupervisedMiningPool(graph, 0)
        with pytest.raises(ValueError):
            SupervisedMiningPool(graph, 1, chunk_timeout_s=0.0)


@pytest.mark.timeout(120)
class TestInjectableClock:
    """The respawn budget's timing runs entirely on the injected
    clock/sleep; tests/test_dispatch_loop.py drives whole runs on a fake
    clock (and tests/test_cluster.py does so across real processes)."""

    def test_backoff_schedule_is_capped_exponential_with_jitter(self, graph):
        pool = SupervisedMiningPool(
            graph, 1, backoff_base_s=0.1, backoff_cap_s=0.8, seed=3
        )
        try:
            delays = []
            for consecutive in range(6):
                pool._consecutive_respawns = consecutive
                delays.append(pool._backoff_delay())
            for consecutive, delay in enumerate(delays):
                base = min(0.8, 0.1 * (2 ** consecutive))
                assert 0.5 * base <= delay < 1.5 * base
            # The cap binds from 2^3 on: bases are 0.1 0.2 0.4 0.8 0.8...
            assert delays[4] < 1.5 * 0.8 and delays[5] < 1.5 * 0.8
        finally:
            pool.close()
