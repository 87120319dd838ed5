"""The chunk-supervision loop, driven without processes.

:class:`~repro.mining.pool.ChunkDispatcher` is the only supervision
loop in the repo (the pool and the cluster add a transport and a
placement to it), so each of its policies is checked here once, against
an in-memory fake worker set on a fake clock: scripted workers finish,
raise, hang, or die on cue, and every test asserts the same invariant
the process-level suites assert end to end — each chunk's result is
folded in exactly once, whatever happened on the way.

The last tests spawn real processes for the one thing fakes cannot
show: a constructor that fails part-way leaves no child process and no
shared-memory segment behind.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from collections import deque

import pytest

from conftest import random_temporal_graph
from repro.cluster import MiningCluster, coordinator
from repro.comine.engine import ENGINE
from repro.mining.chunks import CHUNK_KINDS, INLINE, ChunkFailed, ResidentGraph
from repro.mining.mackey import MackeyMiner
from repro.mining.parallel import MiningPool
from repro.mining.pool import ChunkDispatcher
from repro.mining.results import MiningCancelled
from repro.motifs.catalog import M1

# -- fakes ---------------------------------------------------------------------


class FakeClock:
    """Deterministic time: ``sleep`` advances ``clock`` instantly."""

    def __init__(self) -> None:
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class FakeProcess:
    def __init__(self) -> None:
        self.alive = True
        self.killed = False
        self.sentinel = object()

    def is_alive(self) -> bool:
        return self.alive

    def kill(self) -> None:
        self.alive = False
        self.killed = True

    def join(self, timeout=None) -> None:
        pass


class FakeWorker:
    """The supervisor's end of a channel to a scripted in-memory worker.

    ``script(worker, chunk_number)`` names what the worker does with its
    n-th chunk (1-based): ``"done"``, ``"error"``, ``"die"`` (no reply),
    ``"done+die"`` (reply, then die), ``"hang"`` (no reply, stays
    alive) or ``"hold"`` (reply only when :meth:`release` is called).
    A chunk's result is its width, so a run's total is checkable.
    """

    def __init__(self, slot: int, script) -> None:
        self.slot = slot
        self.script = script
        self.process = FakeProcess()
        self.inbox = deque(["ready"])
        self.held = deque()
        self.chunks = 0
        self.graphs = set()

    def send(self, msg) -> None:
        if not self.process.alive:
            raise BrokenPipeError
        if msg is None:
            self.process.alive = False
        elif msg[0] == "graph":
            self.graphs.add(msg[1])
        elif msg[0] == "drop":
            self.graphs.discard(msg[1])
        else:
            _, epoch, task_id, fp, _kind, _spec, _delta, lo, hi = msg
            assert fp in self.graphs, "chunk sent before its graph"
            self.chunks += 1
            action = self.script(self, self.chunks)
            done = ("done", epoch, task_id, hi - lo)
            if action == "error":
                self.inbox.append(("error", epoch, task_id, "boom"))
            elif action == "hold":
                self.held.append(done)
            elif action.startswith("done"):
                self.inbox.append(done)
            if action.endswith("die"):
                self.process.alive = False

    def release(self) -> None:
        self.inbox.extend(self.held)
        self.held.clear()

    def recv(self):
        if not self.inbox:
            raise EOFError
        return self.inbox.popleft()

    def poll(self, timeout=0) -> bool:
        return bool(self.inbox)

    def close(self) -> None:
        pass


class FakeShipment:
    payload, num_nodes, closed = ("fake", None), 0, False

    def close(self) -> None:
        self.closed = True


class FakeGraph:
    def fingerprint(self) -> str:
        return "g"


class FakeDispatcher(ChunkDispatcher):
    """The real loop over fake workers.  ``scripts[slot]`` scripts every
    process spawned into that slot (default: always ``"done"``)."""

    def __init__(self, num_workers, scripts=None, placed=None, **policy):
        self.fake = FakeClock()
        self.scripts = scripts or {}
        self.placed = placed
        self.spawned = []
        super().__init__(
            num_workers, clock=self.fake.clock, sleep=self.fake.sleep, **policy
        )
        self._spawn_all()

    def _open_channel(self, slot):
        script = self.scripts.get(slot, lambda worker, n: "done")
        worker = FakeWorker(slot, script)
        self.spawned.append(worker)
        return worker.process, worker

    def _pack(self, graph):
        return FakeShipment()

    def _place(self, fp):
        return list(self.placed or range(self.num_workers))

    def _successors(self, fp, placed):
        return [s for s in range(self.num_workers) if s not in placed]

    def _wait(self, sources, timeout):
        ready = [
            s for s in sources
            if (isinstance(s, FakeWorker) and s.inbox)
            or any(w.process.sentinel is s and not w.process.alive
                   for w in self.spawned)
        ]
        if not ready:
            self.fake.sleep(timeout)
        return ready

    def run(self, chunks=8, width=10, cancel_check=None, allow_degraded=True):
        """Mine ``chunks`` fake chunks; returns the folded-in results."""
        tasks = [("fake", None, 0, i * width, (i + 1) * width) for i in range(chunks)]
        got = []
        self._mine(
            FakeGraph(), tasks, lambda task_id, result: got.append((task_id, result)),
            cancel_check, allow_degraded,
        )
        return got


def each_chunk_once(got, chunks=8, width=10):
    return sorted(got) == [(i, width) for i in range(chunks)]


def on_chunk(n, action):
    """Script: ``action`` on the worker's n-th chunk, ``done`` otherwise."""
    return lambda worker, k: action if k == n else "done"


# -- the loop's policies, once each ---------------------------------------------


class TestSupervisionLoop:
    def test_fault_free_run_folds_each_chunk_once(self):
        with FakeDispatcher(3) as d:
            assert each_chunk_once(d.run())
            assert d.stats.chunks_completed == 8
            assert d.stats.graph_ships == 3  # one per placed slot
            assert not d.degraded and not d.broken

    def test_death_costs_exactly_its_chunk(self):
        with FakeDispatcher(2, {0: on_chunk(2, "die")}) as d:
            assert each_chunk_once(d.run())
            assert d.stats.worker_deaths == 1
            assert d.stats.chunk_retries == 1

    def test_result_sent_before_dying_is_drained_not_retried(self):
        with FakeDispatcher(2, {0: on_chunk(1, "done+die")}) as d:
            assert each_chunk_once(d.run())
            assert d.stats.worker_deaths == 1
            assert d.stats.chunk_retries == 0

    def test_respawn_waits_out_the_backoff_on_the_injected_clock(self):
        # The sole worker dies; nothing can run until its replacement
        # is spawned, which must wait at least the minimum-jitter delay
        # of one consecutive death: 0.5 * base * 2.
        first_only = {0: lambda w, n: "die" if w is d.spawned[0] else "done"}
        with FakeDispatcher(1, first_only, backoff_base_s=60.0,
                            backoff_cap_s=600.0) as d:
            assert each_chunk_once(d.run())
            assert d.stats.respawns == 1
            assert d.stats.graph_ships == 2  # re-shipped to the replacement
            assert d.fake.now >= 60.0

    @pytest.mark.parametrize("cap, expected_base", [(100.0, 8.0), (3.0, 3.0)])
    def test_backoff_doubles_per_consecutive_death_up_to_the_cap(
        self, cap, expected_base
    ):
        # All three workers die on their first chunk before anything is
        # respawned: three consecutive deaths, so the wait before the
        # first respawn is min(cap, base * 2**3), jittered to [0.5x, 1.5x).
        first_only = lambda w, n: "die" if w in d.spawned[:3] else "done"  # noqa: E731
        scripts = {slot: first_only for slot in range(3)}
        with FakeDispatcher(3, scripts, backoff_base_s=1.0, backoff_cap_s=cap,
                            seed=3) as d:
            assert each_chunk_once(d.run())
            assert d.stats.worker_deaths == 3 and d.stats.respawns == 3
            slack = 1.0  # the idle ticks around the wait
            assert 0.5 * expected_base <= d.fake.now < 1.5 * expected_base + slack

    def test_budget_burns_down_to_failure(self):
        # Every process spawned into the only slot dies on its first
        # chunk: the budget's respawns are all spent, then the run fails.
        with FakeDispatcher(1, {0: lambda w, n: "die"}, respawn_budget=2,
                            backoff_base_s=60.0, backoff_cap_s=120.0) as d:
            with pytest.raises(d.Failed, match="respawn budget"):
                d.run()
            assert d.stats.respawns == 2
            assert d.stats.worker_deaths == 3  # the original + both respawns
            assert d.broken and d.fake.now >= 60.0

    def test_chunk_that_keeps_raising_fails_the_run_at_the_cap(self):
        # One worker: the failing chunk is requeued at the front, so
        # errors on its chunks 1..3 all hit task 0.
        script = {0: lambda w, n: "error" if n <= 3 else "done"}
        with FakeDispatcher(1, script, max_chunk_errors=3) as d:
            with pytest.raises(ChunkFailed, match="chunk 0"):
                d.run()
            assert d.stats.chunk_retries == 2  # only the pre-cap attempts
            # A bad input is not a worker-health problem.
            assert not d.broken and d.stats.worker_deaths == 0
            assert each_chunk_once(d.run())

    def test_chunk_error_below_the_cap_is_retried(self):
        with FakeDispatcher(1, {0: on_chunk(1, "error")}) as d:
            assert each_chunk_once(d.run())
            assert d.stats.chunk_retries == 1

    def test_wedged_worker_is_killed_after_the_chunk_timeout(self):
        with FakeDispatcher(2, {0: on_chunk(1, "hang")}, chunk_timeout_s=5.0,
                            respawn_budget=0) as d:
            wedged = d.spawned[0]
            assert each_chunk_once(d.run())
            assert wedged.process.killed
            assert d.stats.wedged_kills == 1
            assert d.stats.chunk_retries == 1
            assert d.fake.now > 5.0  # it was given its whole timeout

    def test_degraded_completion_on_survivors(self):
        with FakeDispatcher(3, {0: on_chunk(1, "die")}, respawn_budget=0) as d:
            assert each_chunk_once(d.run())
            assert d.degraded and not d.broken
            assert d.live_workers == 2 and d.stats.respawns == 0

    def test_strict_mode_raises_degraded(self):
        with FakeDispatcher(3, {0: on_chunk(1, "die")}, respawn_budget=0) as d:
            with pytest.raises(d.Degraded):
                d.run(allow_degraded=False)

    def test_failover_then_failure_when_every_placed_slot_is_gone(self):
        dies = on_chunk(2, "die")
        with FakeDispatcher(2, {0: dies, 1: dies}, placed=[0],
                            respawn_budget=0) as d:
            # Slot 0 holds the graph alone and dies: the graph fails over
            # to slot 1 ... which dies too, and nothing is left.
            with pytest.raises(d.Failed):
                d.run()
            assert d._placements["g"] == [0, 1]
            assert d.stats.failovers == 1
            assert d.stats.graph_ships == 2
            assert d.stats.worker_deaths == 2
            assert d.degraded and d.broken
            with pytest.raises(d.Failed):  # refuses further work explicitly
                d.run()

    def test_failover_completes_the_run_on_the_successor(self):
        with FakeDispatcher(2, {0: on_chunk(2, "die")}, placed=[0],
                            respawn_budget=0) as d:
            assert each_chunk_once(d.run())
            assert d.stats.failovers == 1 and d.degraded

    def test_stale_epoch_results_are_discarded_after_a_cancel(self):
        with FakeDispatcher(1, {0: on_chunk(1, "hold")}) as d:
            polls = []
            with pytest.raises(MiningCancelled):
                d.run(cancel_check=lambda: polls.append(0) or len(polls) > 1)
            worker = d.spawned[0]
            worker.release()  # the cancelled call's chunk finishes late
            completed = d.stats.chunks_completed
            assert each_chunk_once(d.run(chunks=3), chunks=3)
            # The straggler freed its worker but was not folded in.
            assert d.stats.chunks_completed == completed + 3

    def test_cancel_during_respawn_backoff(self):
        with FakeDispatcher(1, {0: on_chunk(1, "die")}, backoff_base_s=1e6,
                            backoff_cap_s=1e6) as d:
            with pytest.raises(MiningCancelled, match="backoff"):
                d.run(cancel_check=lambda: d.stats.worker_deaths >= 1)

    def test_closed_dispatcher_refuses_work_and_releases_graphs(self):
        d = FakeDispatcher(1)
        d.run()
        shipment = d._graphs["g"]
        d.close()
        d.close()  # idempotent
        assert d.closed and d.broken and shipment.closed
        with pytest.raises(RuntimeError, match="closed"):
            d.run()


class TestChunkKinds:
    def test_the_kinds_are_family_and_sample(self):
        assert set(CHUNK_KINDS) == {"family", "sample"}

    def test_motif_kind_is_unknown_and_a_pool_worker_survives_it(self):
        graph = random_temporal_graph(random.Random(3), 12, 90, time_range=120)
        with pytest.raises(ValueError, match="unknown chunk kind"):
            ResidentGraph(graph).run(0, "motif", M1.edges, 40, 0, 90)
        serial = MackeyMiner(graph, M1, 40).mine()
        with MiningPool(graph, 1, max_chunk_errors=2) as pool:
            with pytest.raises(ChunkFailed, match="unknown chunk kind"):
                pool._mine(
                    graph, [("motif", M1.edges, 40, 0, 90)],
                    lambda _task_id, _result: None, None, True,
                )
            result = pool.count(M1, 40)
            assert pool.stats.worker_deaths == 0
            assert pool.stats.chunk_retries == 1
        assert result.count == serial.count
        assert result.counters.as_dict() == serial.counters.as_dict()

    @pytest.mark.parametrize("engine", ["mackey", "comine"])
    def test_count_many_names_only_the_walker(self, engine):
        graph = random_temporal_graph(random.Random(3), 12, 90, time_range=120)
        with pytest.raises(ValueError, match="unknown engine") as err:
            INLINE.count_many(graph, [M1], 40, engine=engine)
        if engine == "mackey":
            assert "MackeyMiner" in str(err.value)
        result = INLINE.count_many(graph, [M1], 40, engine=ENGINE)[0]
        assert result.count == MackeyMiner(graph, M1, 40).mine().count

    def test_inline_run_matches_the_serial_miner(self):
        """The zero-worker runner is one chunk per spec through the same
        builders the workers use."""
        graph = random_temporal_graph(random.Random(3), 12, 90, time_range=120)
        serial = MackeyMiner(graph, M1, 40).mine()
        result = INLINE.count(graph, M1, 40, cancel_check=lambda: False)
        assert (result.num_workers, result.num_chunks) == (0, 1)
        assert result.count == serial.count
        assert result.counters.as_dict() == serial.counters.as_dict()

    def test_inline_run_is_cancelled_between_chunks(self):
        graph = random_temporal_graph(random.Random(3), 12, 90, time_range=120)
        with pytest.raises(MiningCancelled, match="between chunks"):
            INLINE.count_many(graph, [M1, M1], 40, cancel_check=lambda: True)


FAMILY = (M1.edges,)


class TestResidentGraph:
    def test_miner_cache_lives_for_one_epoch(self):
        """The cache key is client-controlled (every distinct δ is a new
        miner), so a long-lived worker must not keep one per query: a
        run's chunks share their miner, the next run starts empty."""
        graph = random_temporal_graph(random.Random(3), 12, 90, time_range=120)
        resident = ResidentGraph(graph)
        for epoch in range(200):
            for lo, hi in ((0, 40), (40, 90)):
                resident.run(epoch, "family", FAMILY, 10 + epoch, lo, hi)
            assert len(resident._runners) == 1
        # Several specs in one run are all kept for that run...
        for delta in (5, 6, 7):
            resident.run(200, "family", FAMILY, delta, 0, 90)
        assert len(resident._runners) == 3
        # ...and chunk results do not depend on what was cached.
        fresh = ResidentGraph(graph).run(0, "family", FAMILY, 7, 0, 90)
        assert resident.run(200, "family", FAMILY, 7, 0, 90) == fresh


# -- a constructor that fails part-way leaks nothing ------------------------------


def _leftovers(shm_before):
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)  # active_children() reaps as it polls
    return multiprocessing.active_children(), set(os.listdir("/dev/shm")) - shm_before


@pytest.mark.timeout(60)
class TestConstructorCleanup:
    @pytest.fixture()
    def graph(self):
        return random_temporal_graph(random.Random(5), 10, 60)

    @pytest.mark.parametrize("build", [
        lambda graph: MiningPool(graph, 3),
        lambda graph: MiningCluster(3),
    ], ids=["pool", "cluster"])
    def test_second_spawn_raising_leaves_no_child_and_no_segment(
        self, build, graph, monkeypatch
    ):
        shm_before = set(os.listdir("/dev/shm"))
        for cls in (MiningPool, MiningCluster):
            def flaky(self, slot, real=cls._open_channel):
                if slot == 1:
                    raise OSError("cannot fork")
                return real(self, slot)

            monkeypatch.setattr(cls, "_open_channel", flaky)
        with pytest.raises(OSError, match="cannot fork"):
            build(graph)
        assert _leftovers(shm_before) == ([], set())

    def test_node_that_never_connects_takes_the_others_down_with_it(
        self, monkeypatch
    ):
        real = coordinator._node_main

        def mute(slot, *args):
            time.sleep(60) if slot == 1 else real(slot, *args)

        monkeypatch.setattr(coordinator, "_node_main", mute)
        shm_before = set(os.listdir("/dev/shm"))
        with pytest.raises(RuntimeError, match="node 1 failed to connect"):
            MiningCluster(2, connect_timeout_s=0.3)
        assert _leftovers(shm_before) == ([], set())
