"""The one supervision loop over a dispatcher's worker processes.

A dispatcher hands a run's chunks (:mod:`repro.mining.chunks`) to worker
processes one at a time from a single queue — Mint's one global task
queue feeding every search engine, and the work-stealing effect of the
paper's OpenMP baseline (§VII-D) — and merges what comes back.  Chunks
are idempotent and merging is commutative, so the failure policy below
costs nothing in correctness: counts and ``SearchCounters`` stay
byte-identical to the serial miner no matter which workers died.

:class:`ChunkDispatcher` is the supervisor's side of the wire
(:func:`~repro.mining.parallel.worker_main` is the process it spawns):
chunk queue, results tagged with a per-call epoch (a cancelled call's
stragglers are discarded by the next), a dead worker's channel drained
before it is buried (sends are synchronous, so whatever it finished
still counts) and its unfinished chunk requeued at the front, chunks
that *raise* retried up to ``max_chunk_errors`` then
:class:`~repro.mining.chunks.ChunkFailed`, a worker holding one chunk
longer than ``chunk_timeout_s`` presumed wedged and SIGKILLed, respawn
under a budget with capped exponential seeded-jitter backoff on an
injectable clock, completion on survivors (*degraded*) when the budget
is spent, and failover of a graph to further slots when every slot it
was placed on is gone.  :class:`DispatchStats` counts it all.

A concrete dispatcher supplies only what really differs: how a worker's
channel is opened and how a graph's arrays reach it, the fault site its
workers announce, and where graphs are placed
(:class:`~repro.mining.parallel.WorkerPool`,
:class:`~repro.cluster.coordinator.MiningCluster`).
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.chunks import ChunkFailed, ChunkRunner, _guided_bounds, _split_samples
from repro.mining.results import MiningCancelled
from repro.mining.shipping import PickledGraph


@dataclass
class DispatchStats:
    """Cumulative supervision accounting for one dispatcher.  A pool
    counts ``worker_deaths``, a cluster ``node_deaths``."""

    worker_deaths: int = 0
    node_deaths: int = 0
    wedged_kills: int = 0
    chunk_retries: int = 0
    respawns: int = 0
    chunks_completed: int = 0
    graph_ships: int = 0
    failovers: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@contextmanager
def _turn(lock, cancel_check):
    """Hold the dispatcher's mining lock, honoring the caller's deadline:
    a batch whose ``cancel_check`` trips while it waits for its turn
    raises :class:`MiningCancelled` without ever touching the workers."""
    while not lock.acquire(timeout=0.05):
        if cancel_check is not None and cancel_check():
            raise MiningCancelled("mining cancelled while waiting for a turn")
    try:
        yield
    finally:
        lock.release()


class _Worker:
    """Supervisor-side record of one slot's live process."""

    __slots__ = ("slot", "process", "conn", "current", "started_at", "graphs")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        #: (epoch, task_id) of the chunk in flight on this worker.
        self.current: Optional[Tuple[int, int]] = None
        self.started_at = 0.0
        #: fingerprints shipped to this process (a respawn starts empty).
        self.graphs: Set[str] = set()


class _Run:
    """One mining call's chunk queue and what has come back so far."""

    def __init__(self, epoch: int, tasks: Sequence[Tuple], apply_result) -> None:
        self.epoch = epoch
        self.tasks = tasks
        self.apply_result = apply_result
        self.pending: Deque[int] = deque(range(len(tasks)))
        self.completed: Set[int] = set()
        self.error_counts: Dict[int, int] = {}
        #: First chunk to exhaust its error cap: (task_id, last message).
        self.fatal: Optional[Tuple[int, str]] = None


class ChunkDispatcher(ChunkRunner):
    """The supervision loop over ``num_workers`` worker slots.

    Graphs are shipped on first use (or explicitly via
    :meth:`ensure_graph`) to the slots :meth:`_place` names, stay
    resident for later calls, and are released with :meth:`drop_graph`.
    Mining calls are thread-safe: concurrent callers (scheduler lanes,
    service replicas) take turns on an internal cancel-aware lock, since
    the epoch counter, worker channels and task ids are shared state.

    Policy parameters (all keyword-only):

    - ``chunk_timeout_s`` — soft per-chunk timeout; a worker that holds
      one chunk longer is presumed wedged, SIGKILLed, and its chunk
      retried elsewhere (``None`` disables wedge detection).
    - ``respawn_budget`` — total respawns allowed over the dispatcher's
      lifetime (default ``3 * num_workers``).
    - ``max_chunk_errors`` — how many times one chunk may *raise* in a
      healthy worker before the run fails with :class:`ChunkFailed`.
      Chunks lost to deaths are retried without limit (deaths are
      bounded by the respawn budget).
    - ``backoff_base_s`` / ``backoff_cap_s`` — capped exponential
      respawn backoff; jitter is drawn from a ``seed``-ed RNG so runs
      are reproducible.
    - ``fault_plan`` — shipped to every worker and installed there
      (chaos testing); the parent process is untouched.
    - ``on_event`` — ``callback(counter_name, n)`` mirror of
      :class:`DispatchStats` increments, used by the serving layer to
      feed shared service metrics.
    - ``clock`` / ``sleep`` — injectable time sources used by every
      supervision-side deadline (respawn backoff, wedge detection), so
      tests assert schedules without real waiting; ``close()`` stays on
      real time (it bounds talking to real processes).

    Subclasses set :attr:`site`, :attr:`label`, :attr:`Degraded` and :attr:`Failed`,
    implement :meth:`_open_channel` and :meth:`_pack`, and may override
    :meth:`_place` / :meth:`_successors` (default: every graph on every
    slot, nowhere to fail over to).
    """

    #: Fault site workers announce before each chunk.  Its prefix names
    #: the worker kind in messages, process names and the death counter.
    site = "worker.chunk"
    #: What the dispatcher is called in health reports.
    label = "dispatcher"
    #: Raised with ``allow_degraded=False`` once the budget is spent and
    #: slots are missing; and (a subclass of it) when no placed slot is left.
    Degraded = Failed = RuntimeError
    #: How long a fresh worker may take to announce itself.
    connect_timeout_s = 30.0
    _wait = staticmethod(connection.wait)

    def __init__(
        self,
        num_workers: Optional[int] = None,
        *,
        chunk_timeout_s: Optional[float] = 30.0,
        respawn_budget: Optional[int] = None,
        max_chunk_errors: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        seed: int = 0,
        fault_plan=None,
        on_event: Optional[Callable[[str, int], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.noun = self.site.split(".")[0]
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ValueError(f"{type(self).__name__} needs at least one {self.noun}")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ValueError("chunk_timeout_s must be positive (or None)")
        if max_chunk_errors < 1:
            raise ValueError("max_chunk_errors must be >= 1")
        self.num_workers = int(num_workers)
        #: Slots each graph is placed on (and the chunking width).
        self.replication = self.num_workers
        self.chunk_timeout_s = chunk_timeout_s
        self.respawn_budget = (
            3 * self.num_workers if respawn_budget is None else int(respawn_budget)
        )
        self.max_chunk_errors = int(max_chunk_errors)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.stats = DispatchStats()
        self._fault_plan = fault_plan
        self._on_event = on_event
        self._clock = clock
        self._sleep = sleep
        self._jitter = random.Random(seed)
        self._mine_lock = threading.Lock()
        self._closed = False
        self._failed = False
        self._degraded = False
        self._epoch = 0
        self._run: Optional[_Run] = None
        self._respawns_used = 0
        self._consecutive_respawns = 0
        self._next_spawn_at = 0.0
        #: fingerprint -> the packed graph, for (re-)shipping.
        self._graphs: Dict[str, PickledGraph] = {}
        #: fingerprint -> ordered slots the graph is placed on (extended
        #: by failover).
        self._placements: Dict[str, List[int]] = {}
        self._workers: Dict[int, _Worker] = {}

    # -- what a concrete dispatcher supplies -----------------------------------

    def _open_channel(self, slot: int):
        """Start slot's process; return ``(process, connection)``."""
        raise NotImplementedError

    def _pack(self, graph: TemporalGraph):
        """How a graph's arrays reach a worker: a :class:`PickledGraph`."""
        raise NotImplementedError

    def _place(self, fp: str) -> List[int]:
        return list(range(self.num_workers))

    def _successors(self, fp: str, placed: List[int]) -> Iterable[int]:
        """Further slots ``fp`` may fail over to, in preference order."""
        return ()

    # -- events and observability ----------------------------------------------

    def _event(self, name: str, n: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + n)
        if self._on_event is not None:
            self._on_event(name, n)

    @property
    def live_workers(self) -> int:
        return sum(1 for w in list(self._workers.values()) if w.process.is_alive())

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True when the dispatcher can no longer mine (closed, a failed
        run already proved it, or nothing alive and no budget): holders
        (the service's executor) must rebuild it."""
        if self._closed or self._failed:
            return True
        return self.live_workers == 0 and self._respawns_used >= self.respawn_budget

    @property
    def degraded(self) -> bool:
        """True once redundancy is permanently lost (budget exhausted
        while below the target worker count)."""
        return self._degraded

    # -- worker lifecycle ------------------------------------------------------

    def _spawn_all(self) -> None:
        """Fill every slot; a failure part-way closes what was opened."""
        try:
            for slot in range(self.num_workers):
                self._spawn(slot)
        except BaseException:
            self.close()
            raise

    def _spawn(self, slot: int) -> None:
        process, conn = self._open_channel(slot)
        try:
            ready = conn.poll(self.connect_timeout_s) and conn.recv() == "ready"
        except (EOFError, OSError):
            ready = False
        if not ready:
            process.kill()
            process.join(timeout=1.0)
            conn.close()
            raise RuntimeError(f"{self.noun} {slot} never announced ready")
        worker = self._workers[slot] = _Worker(slot, process, conn)
        # A fresh process starts empty: ship every graph placed on this
        # slot before it can take that graph's chunks.
        for fp, slots in self._placements.items():
            if slot in slots:
                self._ship(worker, fp)

    def _ship(self, worker: _Worker, fp: str) -> None:
        shipment = self._graphs[fp]
        try:
            worker.conn.send(("graph", fp, shipment.payload, shipment.num_nodes))
        except (BrokenPipeError, OSError):
            return  # the sweep buries it
        worker.graphs.add(fp)
        self._event("graph_ships")

    def _backoff_delay(self) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** self._consecutive_respawns),
        )
        return base * (0.5 + self._jitter.random())  # jitter in [0.5x, 1.5x)

    def _maybe_respawn(self) -> None:
        while (
            len(self._workers) < self.num_workers
            and self._respawns_used < self.respawn_budget
            and self._clock() >= self._next_spawn_at
        ):
            self._respawns_used += 1
            self._event("respawns")
            self._spawn(min(set(range(self.num_workers)) - set(self._workers)))
            self._consecutive_respawns = 0

    def _bury(self, worker: _Worker) -> None:
        """Drain and retire a dead worker, requeueing its lost chunk."""
        self._drain(worker)
        worker.conn.close()
        worker.process.join(timeout=1.0)
        del self._workers[worker.slot]
        if worker.current is not None:
            self._handle_message(
                worker, ("retry", *worker.current, f"{self.noun} died mid-chunk")
            )
        self._event(f"{self.noun}_deaths")
        self._consecutive_respawns += 1
        self._next_spawn_at = self._clock() + self._backoff_delay()

    def _drain(self, worker: _Worker) -> None:
        """Read out anything the worker sent before it stopped.

        Synchronous sends mean a completed chunk's result survives the
        worker's death; accepting it here (instead of blindly retrying)
        keeps retries to truly-unfinished chunks.
        """
        try:
            while worker.conn.poll(0):
                self._handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass

    def _sweep_dead(self) -> None:
        now = self._clock()
        for worker in list(self._workers.values()):
            if not worker.process.is_alive():
                self._bury(worker)
            elif (
                self.chunk_timeout_s is not None
                and worker.current is not None
                and now - worker.started_at > self.chunk_timeout_s
            ):
                # Presumed wedged; give its channel one last chance (it
                # may have finished this instant), then SIGKILL.
                self._drain(worker)
                if worker.current is None:
                    continue  # it had finished after all
                self._event("wedged_kills")
                worker.process.kill()
                worker.process.join(timeout=1.0)
                self._bury(worker)

    # -- graph residency -------------------------------------------------------

    def ensure_graph(self, graph: TemporalGraph) -> str:
        """Place (and ship) a graph onto its slots; returns its
        fingerprint.  Idempotent; later mining calls reuse residency.

        Serialized on the mining lock: worker channels are single-reader
        / single-writer, so residency changes take turns with runs.
        """
        with self._mine_lock:
            return self._ensure_graph_locked(graph)

    def _ensure_graph_locked(self, graph: TemporalGraph) -> str:
        fp = graph.fingerprint()
        if fp not in self._placements:
            self._graphs[fp] = self._pack(graph)
            self._placements[fp] = self._place(fp)
            for worker in self._placed(fp):
                self._ship(worker, fp)
        return fp

    def drop_graph(self, fingerprint: str) -> None:
        """Release a graph everywhere (no-op for unknown fingerprints)."""
        with self._mine_lock:
            for slot in self._placements.pop(fingerprint, ()):
                worker = self._workers.get(slot)
                if worker is None or fingerprint not in worker.graphs:
                    continue
                try:
                    worker.conn.send(("drop", fingerprint))
                except (BrokenPipeError, OSError):
                    pass
                worker.graphs.discard(fingerprint)
            shipment = self._graphs.pop(fingerprint, None)
            if shipment is not None:
                shipment.close()

    def _placed(self, fp: str) -> List[_Worker]:
        return [
            self._workers[slot]
            for slot in self._placements[fp]
            if slot in self._workers
        ]

    def _failover(self, fp: str) -> bool:
        """Hand ``fp`` to its first live successor slot.

        Called when every placed slot is gone with no respawn budget
        left.  Returns True when a slot adopted the graph (the run
        continues, degraded)."""
        placed = self._placements[fp]
        for slot in self._successors(fp, placed):
            worker = self._workers.get(slot)
            if worker is not None and worker.process.is_alive():
                placed.append(slot)
                self._ship(worker, fp)
                self._event("failovers")
                return True
        return False

    # -- mining ----------------------------------------------------------------

    def _root_bounds(self, num_edges: int, chunks_per_worker: int):
        return _guided_bounds(num_edges, self.replication, chunks_per_worker)

    def _sample_bounds(self, lo: int, hi: int):
        return _split_samples(lo, hi, self.replication)

    def _mine(self, graph, tasks, apply_result, cancel_check, allow_degraded) -> None:
        """Take a turn, then run ``tasks`` — ``(kind, spec, delta, lo,
        hi)`` wire chunks — folding each result in with
        ``apply_result(task_id, result)``."""
        with _turn(self._mine_lock, cancel_check):
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            if self._failed:
                raise self.Failed("broken (a previous run exhausted it)")
            if tasks:
                fp = self._ensure_graph_locked(graph)
                try:
                    self._run_chunks(
                        fp, tasks, apply_result, cancel_check, allow_degraded
                    )
                finally:
                    self._run = None  # stragglers of this call are dropped

    # -- supervision loop ------------------------------------------------------

    def _run_chunks(self, fp, tasks, apply_result, cancel_check, allow_degraded) -> None:
        """The supervision loop, agnostic of chunk kind."""
        self._epoch += 1
        run = self._run = _Run(self._epoch, tasks, apply_result)
        while len(run.completed) < len(tasks):
            if cancel_check is not None and cancel_check():
                # Chunks in flight keep running; their results carry
                # this epoch and are discarded by the next call.
                raise MiningCancelled("mining cancelled by cancel_check")
            if run.fatal is not None:
                raise ChunkFailed(
                    f"chunk {run.fatal[0]} raised on all {self.max_chunk_errors} "
                    f"attempts; last error: {run.fatal[1]}"
                )
            self._sweep_dead()
            self._maybe_respawn()
            budget_spent = self._respawns_used >= self.respawn_budget
            if not self._placed(fp):
                if not budget_spent:
                    # Wait out the backoff in small ticks, so a cancelled
                    # batch stops blocking its lane immediately rather
                    # than after the full delay; then respawn.
                    # (One clock read per tick: a second read could
                    # land past the deadline and ask for a negative sleep.)
                    while (wait := self._next_spawn_at - self._clock()) > 0:
                        if cancel_check is not None and cancel_check():
                            raise MiningCancelled(
                                "mining cancelled during respawn backoff"
                            )
                        self._sleep(min(0.05, wait))
                    continue
                # Budget spent: hand the graph to a slot it was not
                # placed on, if the placement policy has one.
                self._mark_degraded(allow_degraded)
                if self._failover(fp):
                    continue
                self._failed = True
                raise self.Failed(
                    f"every placed {self.noun} is dead and the respawn budget "
                    f"({self.respawn_budget}) is exhausted"
                )
            if budget_spent and len(self._workers) < self.num_workers:
                self._mark_degraded(allow_degraded)
            self._dispatch(fp, run)
            self._collect()

    def _mark_degraded(self, allow_degraded: bool) -> None:
        if not self._degraded:
            self._degraded = True
            if not allow_degraded:
                raise self.Degraded(
                    f"respawn budget ({self.respawn_budget}) exhausted; "
                    f"{len(self._workers)}/{self.num_workers} {self.noun}s remain"
                )

    def _dispatch(self, fp: str, run: _Run) -> None:
        for worker in self._placed(fp):
            if not run.pending:
                return
            if worker.current is not None:
                continue
            task_id = run.pending.popleft()
            try:
                worker.conn.send(("task", run.epoch, task_id, fp) + run.tasks[task_id])
            except (BrokenPipeError, OSError):
                # Died between sweep and send; requeue, next sweep buries.
                run.pending.appendleft(task_id)
                continue
            worker.current = (run.epoch, task_id)
            worker.started_at = self._clock()

    def _collect(self, tick: float = 0.05) -> None:
        """Block until a message or a death, then process every ready
        message (deaths are the next sweep's, after the drain)."""
        by_source: Dict = {}
        for worker in self._workers.values():
            by_source[worker.conn] = by_source[worker.process.sentinel] = worker
        for source in self._wait(list(by_source), tick):
            worker = by_source[source]
            if source is worker.conn:
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    continue  # the sweep buries it
                self._handle_message(worker, msg)

    def _handle_message(self, worker: _Worker, msg) -> None:
        """Account for one chunk outcome: ``done``, ``error`` (it raised
        in a healthy worker) or ``retry`` (it was lost with its worker)."""
        tag, epoch, task_id, payload = msg
        worker.current = None
        run = self._run
        if run is None or epoch != run.epoch or task_id in run.completed:
            return  # a cancelled call's straggler
        if tag == "done":
            run.apply_result(task_id, payload)
            run.completed.add(task_id)
            self._event("chunks_completed")
            return
        if tag == "error":
            # Unlike chunks lost to deaths (bounded by the respawn
            # budget), a deterministic per-chunk exception would requeue
            # forever — cap it and fail the run instead.
            n = run.error_counts[task_id] = run.error_counts.get(task_id, 0) + 1
            if n >= self.max_chunk_errors:
                run.fatal = run.fatal or (task_id, str(payload))
                return
        run.pending.appendleft(task_id)
        self._event("chunk_retries")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        self._workers.clear()
        for shipment in self._graphs.values():
            shipment.close()
        self._graphs.clear()
