"""δ-boundary adversarial cases shared by the batch property suite
(``test_property.py``) and the streaming differential suite
(``test_streaming_parity.py``).

Each case is a concrete ``(edges, motif, delta, expected)`` quadruple
exercising the exact semantics of §II-A that off-by-one bugs hit first:

- the window constraint is **inclusive** (``t_l - t_1 <= δ``): a match
  whose span is exactly δ counts, one second wider does not;
- duplicate raw timestamps at the window edge are uniquified by the
  deterministic nudge (``t' = max(t, prev' + 1)``), which can push the
  last edge of a would-be match just past the window;
- self-loop graph edges never participate in a match (motif edges are
  never self-loops), in any position — root, middle, or final edge;
- any δ at or past the graph's time span is the same whole-graph
  window, up to the largest ``int64``: ``t_root + δ`` must saturate,
  not wrap (the vectorised engine once crashed on ``δ = 2**63 - 1``).

``expected`` is the hand-derived count; every miner — Mackey,
brute-force, the streaming engine, the vectorised family walker, the
Mint simulator (the paper's §IV search / book-keeping / backtrack flow),
and the walker dispatched over a worker pool and a cluster — must report
it *identically*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.bruteforce import brute_force_count
from repro.mining.mackey import count_motifs
from repro.motifs.catalog import M1, M2, PATH3, PING_PONG
from repro.motifs.motif import Motif
from repro.streaming.counter import StreamingCounter


@dataclass(frozen=True)
class DeltaCase:
    name: str
    edges: Tuple[Tuple[int, int, int], ...]
    motif: Motif
    delta: int
    expected: int

    def graph(self) -> TemporalGraph:
        return TemporalGraph(self.edges)


#: Two consecutive M1 cycles over one node triple.  With the whole graph
#: (span 260) in one window, six time-increasing cycles match: four
#: starting at a 0->1 edge, and the rotations (e1, e2, e3) and
#: (e2, e3, e4).  The two that pair the first edge with the last span
#: exactly 260.
_TWO_CYCLES = (
    (0, 1, 0), (1, 2, 50), (2, 0, 100), (0, 1, 150), (1, 2, 200), (2, 0, 260),
)

DELTA_BOUNDARY_CASES: List[DeltaCase] = [
    # -- exact-span matches: t_l - t_1 == δ is IN the window ------------------
    DeltaCase(
        name="m1-span-exactly-delta",
        edges=((0, 1, 0), (1, 2, 50), (2, 0, 100)),
        motif=M1,
        delta=100,
        expected=1,
    ),
    DeltaCase(
        name="m1-span-delta-plus-one",
        edges=((0, 1, 0), (1, 2, 50), (2, 0, 101)),
        motif=M1,
        delta=100,
        expected=0,
    ),
    DeltaCase(
        name="pingpong-span-exactly-delta",
        edges=((3, 4, 10), (4, 3, 17)),
        motif=PING_PONG,
        delta=7,
        expected=1,
    ),
    DeltaCase(
        name="pingpong-zero-delta-strict-times",
        # δ=0 can never hold a 2-edge match: uniquified times are strict.
        edges=((3, 4, 10), (4, 3, 10)),
        motif=PING_PONG,
        delta=0,
        expected=0,
    ),
    DeltaCase(
        name="path3-two-windows-one-exact",
        # First chain spans exactly δ (counts); the second, started one
        # second later, spans δ+1 (does not).
        edges=(
            (0, 1, 0), (1, 2, 30), (2, 3, 60),
            (4, 5, 100), (5, 6, 130), (6, 7, 161),
        ),
        motif=PATH3,
        delta=60,
        expected=1,
    ),
    # -- duplicate timestamps at the window edge ------------------------------
    DeltaCase(
        name="duplicate-ts-nudge-closes-window",
        # Raw edges: A->B@0, B->C@100, C->A@100.  The nudge makes the
        # last edge t=101, pushing the cycle's span to δ+1 → no match.
        edges=((0, 1, 0), (1, 2, 100), (2, 0, 100)),
        motif=M1,
        delta=100,
        expected=0,
    ),
    DeltaCase(
        name="duplicate-ts-nudge-still-inside",
        # Same shape with δ=101: the nudged span is exactly δ → match.
        edges=((0, 1, 0), (1, 2, 100), (2, 0, 100)),
        motif=M1,
        delta=101,
        expected=1,
    ),
    DeltaCase(
        name="duplicate-ts-burst-all-equal",
        # Four simultaneous raw edges uniquify to t=5,6,7,8; every
        # adjacent-in-time reversal pairs up (the A/B roles swap freely),
        # and the span-3 pair (t=5, t=8) still fits the window.
        edges=((0, 1, 5), (1, 0, 5), (0, 1, 5), (1, 0, 5)),
        motif=PING_PONG,
        delta=3,
        expected=4,
    ),
    DeltaCase(
        name="exact-boundary-edge-extends",
        # The closing edge sits at t == t_root + δ precisely: inclusive
        # window, so it extends (shared predicate in repro.graph.window).
        edges=((0, 1, 0), (1, 0, 100)),
        motif=PING_PONG,
        delta=100,
        expected=1,
    ),
    DeltaCase(
        name="exact-boundary-two-candidates",
        # Two closing candidates straddle the bound: t=100 is exactly
        # t_root + δ (in), t=101 one past it (out).  A scan must take
        # the first and stop at the second.
        edges=((0, 1, 0), (1, 0, 100), (1, 0, 101)),
        motif=PING_PONG,
        delta=100,
        expected=1,
    ),
    DeltaCase(
        name="duplicate-ts-at-boundary-splits",
        # Two raw duplicates AT the boundary uniquify to t=100 (exactly
        # δ, in) and t=101 (δ+1, out): the nudge decides each one's fate
        # independently and identically for every engine.
        edges=((0, 1, 0), (1, 0, 100), (1, 0, 100)),
        motif=PING_PONG,
        delta=100,
        expected=1,
    ),
    DeltaCase(
        name="duplicate-ts-at-boundary-both-inside",
        # Same duplicates with δ=101: both nudged copies fit; each
        # closes its own match against the root.
        edges=((0, 1, 0), (1, 0, 100), (1, 0, 100)),
        motif=PING_PONG,
        delta=101,
        expected=2,
    ),
    DeltaCase(
        name="m2-closing-edge-exactly-at-boundary",
        # 3-edge feed-forward triangle whose *bound-endpoint* closing
        # edge (A->C with both ends mapped) lands exactly on t_root + δ.
        edges=((0, 1, 0), (1, 2, 40), (0, 2, 100)),
        motif=M2,
        delta=100,
        expected=1,
    ),
    # -- the whole graph is one window: δ saturates at the time span ----------
    DeltaCase("whole-graph-delta-one-short-of-span", _TWO_CYCLES, M1, 259, 4),
    DeltaCase("whole-graph-delta-is-span", _TWO_CYCLES, M1, 260, 6),
    DeltaCase("whole-graph-delta-2**62", _TWO_CYCLES, M1, 2**62, 6),
    DeltaCase(
        # t_root + δ fits int64 for the first roots and wraps for the rest.
        "whole-graph-delta-wraps-late-roots-only",
        _TWO_CYCLES, M1, 2**63 - 1 - 260 + 5, 6,
    ),
    DeltaCase("whole-graph-delta-int64-max", _TWO_CYCLES, M1, 2**63 - 1, 6),
    # -- self-loop-free invariants --------------------------------------------
    DeltaCase(
        name="self-loop-never-roots",
        edges=((0, 0, 0), (0, 1, 10), (1, 2, 20), (2, 0, 30)),
        motif=M1,
        delta=100,
        expected=1,
    ),
    DeltaCase(
        name="self-loop-never-extends",
        # The loop at B sits mid-window but no motif edge may take it.
        edges=((0, 1, 0), (1, 1, 5), (1, 2, 10), (2, 0, 20)),
        motif=M1,
        delta=100,
        expected=1,
    ),
    DeltaCase(
        name="self-loop-only-graph",
        edges=((0, 0, 0), (1, 1, 5), (2, 2, 10)),
        motif=M2,
        delta=100,
        expected=0,
    ),
]


def mackey_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    return count_motifs(graph, motif, delta)


def bruteforce_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    return brute_force_count(graph, motif, delta)


def streaming_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    """Replay ``graph`` edge by edge through a :class:`StreamingCounter`."""
    counter = StreamingCounter(motif, delta)
    counter.add_batch(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))
    return counter.count


def batched_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    """The vectorised family walker, run as a family of one."""
    from repro.mining.batched import BatchedMiner

    return BatchedMiner(graph, motif, delta).mine().count


def simulator_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    """The Mint simulator's functional result (a small configuration)."""
    from repro.sim.accelerator import MintSimulator
    from repro.sim.config import CacheConfig, MintConfig

    config = MintConfig(num_pes=4, cache=CacheConfig(num_banks=4, bank_kb=2))
    return MintSimulator(graph, motif, delta, config).run().matches


_SHARED_RUNNERS = {}


def _shared_runner(kind: str):
    """A lazily-started 2-process runner of ``kind``, shared by every case.

    Spinning up processes per case would dominate the suite's runtime;
    residency is per-fingerprint, so all the tiny case graphs coexist on
    one runner.  Closed at interpreter exit.
    """
    if kind not in _SHARED_RUNNERS:
        import atexit

        from repro.cluster import MiningCluster
        from repro.mining.parallel import WorkerPool

        runner = (MiningCluster if kind == "cluster" else WorkerPool)(2)
        _SHARED_RUNNERS[kind] = runner
        atexit.register(runner.close)
    return _SHARED_RUNNERS[kind]


def pool_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    """Root-range chunks across local worker processes (repro.mining.parallel)."""
    return _shared_runner("pool").count(graph, motif, delta).count


def cluster_count(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    """Sharded dispatch across worker nodes (repro.cluster)."""
    return _shared_runner("cluster").count(graph, motif, delta).count


#: name -> count(graph, motif, delta); every backend must agree on every
#: case above (and anywhere else the suites cross-check them).
COUNT_BACKENDS = {
    "mackey": mackey_count,
    "bruteforce": bruteforce_count,
    "streaming": streaming_count,
    "batched": batched_count,
    "simulator": simulator_count,
}

#: COUNT_BACKENDS plus dispatch layers that cost real processes to
#: stand up.  Used where each case runs once (the boundary-case
#: parametrization), NOT inside hypothesis loops — a property run would
#: pay the cluster socket round-trips hundreds of times.
EXTENDED_COUNT_BACKENDS = dict(COUNT_BACKENDS, pool=pool_count, cluster=cluster_count)
