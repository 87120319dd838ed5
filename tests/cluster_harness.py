"""The cluster differential fixture: every dispatch mode, every engine,
one parity contract.

The repo's correctness story is a chain of byte-parity links — serial
vs pooled, pooled vs supervised, supervised vs chaos — and this module
closes the chain at cluster scale.  :func:`mine` runs one motif family
through any ``(mode, engine)`` cell of the grid

    modes   = serial | pooled | supervised | cluster
    engines = mackey | batched | comine

and returns per-motif ``(count, counters_dict)`` pairs in a single
normalized shape, so a test can assert that the *served payload bytes*
(:func:`repro.service.query.payload_bytes`) of every cell agree with
the serial Mackey reference — under no faults, and under seeded plans
that kill supervised workers (``worker.chunk``) or whole cluster nodes
(``node.chunk``) mid-run.

``pooled`` and ``supervised`` build the same class (the pool rides the
one supervision loop; ``SupervisedMiningPool`` is ``MiningPool``); the
grid keeps both names as its fault-free pool cell and its
pool-under-kills cell.  Only ``serial`` has nothing to kill: passing it
a fault plan is a test bug and raises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import MackeyMiner
from repro.motifs.motif import Motif
from repro.resilience.faults import FaultPlan
from repro.service.query import build_payload, payload_bytes

#: Dispatch modes, in deployment-ladder order.
MODES: Tuple[str, ...] = ("serial", "pooled", "supervised", "cluster")

#: Engines every mode must agree on.  ``comine`` means the shared
#: family traversal (one pass for the whole motif family); the other
#: two mine per-motif chunks.
ENGINES: Tuple[str, ...] = ("mackey", "batched", "comine")

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


def _serial(graph, motifs, delta, engine) -> List[MotifResult]:
    if engine == "mackey":
        return serial_reference(graph, motifs, delta)
    if engine == "batched":
        from repro.mining.batched import BatchedMiner

        out = []
        for motif in motifs:
            r = BatchedMiner(graph, motif, delta).mine()
            out.append((r.count, r.counters.as_dict()))
        return out
    from repro.comine import CoMiner

    fam = CoMiner(graph, list(motifs), delta).mine()
    return [
        (fam.counts[i], fam.per_motif[i].as_dict()) for i in range(len(motifs))
    ]


def _pool(
    graph, motifs, delta, engine, workers, fault_plan, seed
) -> List[MotifResult]:
    from repro.mining.parallel import MiningPool

    with MiningPool(
        graph, workers, fault_plan=fault_plan, seed=seed,
        backoff_base_s=0.01,
    ) as pool:
        if engine == "comine":
            fam = pool.count_family(list(motifs), delta)
            results = list(fam.results)
        else:
            results = pool.count_many(list(motifs), delta, engine=engine)
    return [(r.count, r.counters.as_dict()) for r in results]


def _cluster(
    graph, motifs, delta, engine, workers, fault_plan, seed, cluster
) -> List[MotifResult]:
    from repro.cluster import MiningCluster

    if cluster is not None:
        if fault_plan is not None:
            raise ValueError("a shared cluster cannot take a fault plan")
        owned = None
    else:
        owned = cluster = MiningCluster(
            workers, fault_plan=fault_plan, seed=seed, backoff_base_s=0.01,
        )
    try:
        if engine == "comine":
            fam = cluster.count_family(graph, list(motifs), delta)
            results = list(fam.results)
        else:
            results = cluster.count_many(
                graph, list(motifs), delta, engine=engine
            )
    finally:
        if owned is not None:
            owned.close()
    return [(r.count, r.counters.as_dict()) for r in results]


def mine(
    mode: str,
    engine: str,
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
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if fault_plan is not None and mode not in FAULT_SITES:
        raise ValueError(f"mode {mode!r} cannot take a fault plan")
    if mode == "serial":
        return _serial(graph, motifs, delta, engine)
    if mode in ("pooled", "supervised"):
        return _pool(graph, motifs, delta, engine, workers, fault_plan, seed)
    return _cluster(
        graph, motifs, delta, engine, workers, fault_plan, seed, cluster
    )
