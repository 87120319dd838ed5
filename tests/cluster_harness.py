"""The cluster differential fixture: every dispatch mode, one parity
contract.

The repo's correctness story is a chain of byte-parity links — serial
vs pooled, pooled vs supervised, supervised vs chaos — and this module
closes the chain at cluster scale.  :func:`mine` runs one motif family
through any mode

    modes = serial | pooled | supervised | cluster

as family chunks of the one exact engine, and returns per-motif
``(count, counters_dict)`` pairs in a single normalized shape, so a test can assert that the *served payload bytes*
(:func:`repro.service.query.payload_bytes`) of every cell agree with
the serial Mackey reference — under no faults, and under seeded plans
that kill supervised workers (``worker.chunk``) or whole cluster nodes
(``node.chunk``) mid-run.

``pooled`` and ``supervised`` build the same class (the pool rides the
one supervision loop; ``SupervisedMiningPool`` is ``MiningPool``); the
grid keeps both names as its fault-free pool cell and its
pool-under-kills cell.  Only ``serial`` has nothing to kill: passing it
a fault plan is a test bug and raises.  Every cell is the same
graph-first ``count_many(graph, motifs, delta)`` call — on the
in-process runner, a worker pool or a cluster.

:func:`serve` is the same contract one layer up: one batch through any
executor cell of the service's executor grid.  In both grids
the scalar miner appears only as the oracle (:func:`serial_reference`).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterExecutor, MiningCluster
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.chunks import INLINE
from repro.mining.mackey import MackeyMiner
from repro.mining.parallel import WorkerPool
from repro.motifs.motif import Motif
from repro.resilience.faults import FaultPlan
from repro.service.executor import InlineExecutor, PoolExecutor
from repro.service.query import build_payload, payload_bytes

#: Dispatch modes, in deployment-ladder order.
MODES: Tuple[str, ...] = ("serial", "pooled", "supervised", "cluster")

#: One (count, counters-dict) pair per motif, the normalized result.
MotifResult = Tuple[int, Dict[str, int]]

#: Fault-injection site of each mode that spawns workers.
FAULT_SITES = {
    "pooled": "worker.chunk", "supervised": "worker.chunk", "cluster": "node.chunk",
}


def node_kill_plan(seed: int, num_nodes: int, kills: int) -> FaultPlan:
    """A seeded plan killing ``kills`` distinct whole nodes mid-run."""
    return FaultPlan.random_kills(seed, num_nodes, kills, site="node.chunk")


def worker_kill_plan(seed: int, num_workers: int, kills: int) -> FaultPlan:
    """A seeded plan killing ``kills`` distinct pool workers mid-run."""
    return FaultPlan.random_kills(seed, num_workers, kills)


def serial_reference(
    graph: TemporalGraph, motifs: Sequence[Motif], delta: int
) -> List[MotifResult]:
    """The parity standard: the serial Mackey miner, one motif at a time."""
    out = []
    for motif in motifs:
        r = MackeyMiner(graph, motif, delta).mine()
        out.append((r.count, r.counters.as_dict()))
    return out


def payloads(
    graph: TemporalGraph,
    motifs: Sequence[Motif],
    delta: int,
    results: Sequence[MotifResult],
) -> List[bytes]:
    """Serve-shaped payload bytes for each motif result — the exact
    bytes a service replica would emit, which is what "byte parity"
    means end to end."""
    fp = graph.fingerprint()
    return [
        payload_bytes(build_payload(fp, motif, delta, count, counters))
        for motif, (count, counters) in zip(motifs, results)
    ]


def _count_many(runner, graph, motifs, delta) -> List[MotifResult]:
    """One graph-first call, the same on every runner."""
    results = runner.count_many(graph, list(motifs), delta)
    return [(r.count, r.counters.as_dict()) for r in results]


def _runner(mode, workers, fault_plan, seed):
    """A fresh runner for ``mode`` (a context manager)."""
    if mode == "serial":
        return INLINE
    build = MiningCluster if mode == "cluster" else WorkerPool
    return build(workers, fault_plan=fault_plan, seed=seed, backoff_base_s=0.01)


def mine(
    mode: str,
    graph: TemporalGraph,
    motifs: Sequence[Motif],
    delta: int,
    *,
    workers: int = 3,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 0,
    cluster=None,
) -> List[MotifResult]:
    """Run one grid cell; returns per-motif ``(count, counters_dict)``.

    ``workers`` is pool workers or cluster nodes depending on mode.
    ``fault_plan`` is shipped into the mode's workers.  Passing
    an existing ``cluster`` reuses it for ``mode="cluster"`` (no plan
    allowed: a shared cluster's faults belong to whoever built it).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if fault_plan is not None and mode not in FAULT_SITES:
        raise ValueError(f"mode {mode!r} cannot take a fault plan")
    if cluster is not None:
        if mode != "cluster" or fault_plan is not None:
            raise ValueError("a shared cluster serves mode='cluster', without a plan")
        return _count_many(cluster, graph, motifs, delta)
    with _runner(mode, workers, fault_plan, seed) as runner:
        return _count_many(runner, graph, motifs, delta)


# -- the executor grid ---------------------------------------------------------

#: Service executors, in deployment-ladder order; ``shared-cluster`` is a
#: facade over a cluster someone else owns.
EXECUTORS: Tuple[str, ...] = ("inline", "pool", "owned-cluster", "shared-cluster")


def make_executor(kind: str, *, workers: int = 2, cluster=None, **options):
    """One service executor of ``kind`` (``cluster``: the node pool a
    ``shared-cluster`` facade is handed; ``options``: policy)."""
    if kind == "inline":
        return InlineExecutor(**options)
    if kind == "pool":
        return PoolExecutor(workers, **options)
    if kind == "owned-cluster":
        return ClusterExecutor(num_nodes=workers, **options)
    return ClusterExecutor(cluster, **options)


def own_children(before) -> list:
    """Worker processes started since ``before`` (a snapshot of
    ``multiprocessing.active_children()``)."""
    return [c for c in multiprocessing.active_children() if c not in before]


def kill(processes) -> None:
    """SIGKILL worker processes from outside, and wait until they are gone."""
    for process in processes:
        process.kill()
        process.join(timeout=10)
        assert not process.is_alive()


def serve(
    executor, graph: TemporalGraph, motifs: Sequence[Motif], delta: int
) -> List[bytes]:
    """One batch through ``executor`` as the payload bytes a replica
    would serve for it."""
    return payloads(graph, motifs, delta, executor.count_batch(graph, motifs, delta))
