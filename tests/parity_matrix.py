"""The correctness matrix: every exact runner against one reference.

Counts and ``SearchCounters`` must be byte-identical to the serial
:class:`~repro.mining.mackey.MackeyMiner` through every engine,
dispatcher, fault plan and arrival order.  This module declares that
claim as data; ``tests/test_parity_matrix.py`` declares which products
of it run, one pytest id per cell ``(row, runner, mode, fault, order)``.

- **Reference** (:attr:`Case.reference`): the serial ``MackeyMiner``,
  one ``(motif, δ)`` query at a time, compared as the served
  :func:`~repro.service.query.payload_bytes` (count, counters and their
  serialisation) wherever the runner reports counters, and as counts
  where it reports only counts.  A per-edge cell compares per-edge
  completions with the reference's matches by last edge; the live
  column compares event bytes with the offline replay
  (``repro.live.oracle``), whose engine the stream cells check against
  the reference.  ``bruteforce`` checks ``MackeyMiner`` itself.
- **Rows** (:data:`ROWS`, :data:`HYPOTHESIS_ROWS`): a graph and its
  ``(motif, δ)`` queries.  The δ-boundary cases carry hand-derived
  counts; the others are seeded random graphs, the six generator
  families and the hypothesis strategies.
- **Axes**: the *runner* that mines (``kind:k1:k2`` names a runner and
  its knobs: ``w`` workers, ``c`` chunks per worker, ``b`` root block,
  ``s`` chunk step, ``m`` simulator memoisation), the serving *mode*
  (:data:`MODES`), the *fault* plan (:data:`FAULTS`) and the arrival
  *order* (:data:`ORDERS`).
- **One skip rule** (:func:`meaningful`) leaves out the combinations
  that have no meaning.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import WALKER_FAMILY, random_temporal_graph
from repro.cluster import ClusterExecutor, HashRing, MiningCluster, slot_name
from repro.comine import CoMiner
from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.live.driver import _shuffled, plan_subscriptions
from repro.live.ingest import LiveGraph
from repro.live.oracle import SubSpec, offline_replay, schedule_from_acks, sorted_arrivals
from repro.live.subscriptions import THRESHOLD, UPDATE, Subscription
from repro.mining.batched import BatchedMiner
from repro.mining.bruteforce import brute_force_count
from repro.mining.chunks import INLINE
from repro.mining.mackey import MackeyMiner, count_motifs
from repro.mining.paranjape import ParanjapeMiner
from repro.mining.parallel import WorkerPool
from repro.mining.results import SearchCounters
from repro.motifs.catalog import (
    EVALUATION_MOTIFS, EXTRA_MOTIFS, M1, M2, M3, PATH3, PING_PONG, motif_by_name,
)
from repro.motifs.grid import grid_motifs, paranjape_grid
from repro.motifs.motif import Motif
from repro.motifs.parse import parse_motif
from repro.resilience.faults import FaultPlan
from repro.service.executor import InlineExecutor, PoolExecutor
from repro.service.query import build_payload, payload_bytes
from repro.sim.accelerator import MintSimulator
from repro.sim.config import CacheConfig, MintConfig
from repro.streaming import (
    FamilyStreamEngine, Slot, StreamBuffer, StreamingCatalogCounter, StreamingCounter,
)

CATALOG = tuple(EVALUATION_MOTIFS) + tuple(EXTRA_MOTIFS)
SATURATING = 2**63 - 1
Query = Tuple[Motif, int]
#: A runner's answer to one query: its count, and its counters when it
#: keeps them (``None``: a count-only runner).
Result = Tuple[int, Optional[Dict[str, int]]]


def edges_of(graph: TemporalGraph) -> List[Tuple[int, int, int]]:
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))


def payloads(graph: TemporalGraph, queries: Sequence[Query], results) -> List[bytes]:
    """The bytes a service replica would serve for each result."""
    fp = graph.fingerprint()
    return [
        payload_bytes(build_payload(fp, motif, delta, count, counters))
        for (motif, delta), (count, counters) in zip(queries, results)
    ]


def mackey(graph: TemporalGraph, queries: Sequence[Query]) -> List[Result]:
    """The reference: the serial Mackey miner, one query at a time."""
    out = []
    for motif, delta in queries:
        r = MackeyMiner(graph, motif, delta).mine()
        out.append((r.count, r.counters.as_dict()))
    return out


def reference_bytes(graph: TemporalGraph, motifs: Sequence[Motif], delta: int) -> List[bytes]:
    queries = [(m, delta) for m in motifs]
    return payloads(graph, queries, mackey(graph, queries))


# -- rows ------------------------------------------------------------------------


@dataclass
class Case:
    """One row, built: its graph, its queries, the hand-derived counts of
    its leading queries (if any), the edge feed a stream sees (default:
    the graph's own edges) and, on live rows, the subscription panel and
    the window δ."""

    graph: TemporalGraph
    queries: Tuple[Query, ...]
    expected: Tuple[int, ...] = ()
    feed: Optional[list] = None
    panel: tuple = ()
    window: int = 0

    @property
    def edges(self):
        return edges_of(self.graph) if self.feed is None else self.feed

    @cached_property
    def reference(self) -> List[Result]:
        want = mackey(self.graph, self.queries)
        assert [c for c, _ in want[: len(self.expected)]] == list(self.expected)
        return want


def _uniform(graph, motifs, delta, **kw) -> Case:
    return Case(graph, tuple((m, delta) for m in motifs), **kw)


def _span(graph, div: int) -> int:
    return max(1, graph.time_span // div)


#: Two consecutive M1 cycles over one node triple.  With the whole graph
#: (span 260) in one window, six time-increasing cycles match: four
#: starting at a 0->1 edge, and the rotations (e1, e2, e3) and
#: (e2, e3, e4).  The two that pair the first edge with the last span
#: exactly 260.
_TWO_CYCLES = (
    (0, 1, 0), (1, 2, 50), (2, 0, 100), (0, 1, 150), (1, 2, 200), (2, 0, 260),
)

#: The δ-boundary cases of §II-A that off-by-one bugs hit first, as
#: ``(name, edges, motif, δ, hand-derived count)``: the window is
#: inclusive (``t_l - t_1 <= δ``); duplicate raw timestamps are
#: uniquified by the nudge ``t' = max(t, prev' + 1)``, which can push a
#: last edge past the window; self-loops never take part in a match; any
#: δ at or past the span is one whole-graph window, up to the largest
#: ``int64`` (``t_root + δ`` saturates, it must not wrap).
DELTA_CASES = [
    # -- exact-span matches: t_l - t_1 == δ is IN the window
    ("m1-span-exactly-delta", ((0, 1, 0), (1, 2, 50), (2, 0, 100)), M1, 100, 1),
    ("m1-span-delta-plus-one", ((0, 1, 0), (1, 2, 50), (2, 0, 101)), M1, 100, 0),
    ("pingpong-span-exactly-delta", ((3, 4, 10), (4, 3, 17)), PING_PONG, 7, 1),
    # δ=0 can never hold a 2-edge match: uniquified times are strict.
    ("pingpong-zero-delta-strict-times", ((3, 4, 10), (4, 3, 10)), PING_PONG, 0, 0),
    # First chain spans exactly δ (counts); the second, started one
    # second later, spans δ+1 (does not).
    ("path3-two-windows-one-exact", (
        (0, 1, 0), (1, 2, 30), (2, 3, 60), (4, 5, 100), (5, 6, 130), (6, 7, 161),
    ), PATH3, 60, 1),
    # -- duplicate timestamps at the window edge
    # Raw A->B@0, B->C@100, C->A@100: the nudge makes the last edge
    # t=101, pushing the cycle's span to δ+1 -> no match.
    ("duplicate-ts-nudge-closes-window", ((0, 1, 0), (1, 2, 100), (2, 0, 100)), M1, 100, 0),
    # Same shape with δ=101: the nudged span is exactly δ -> match.
    ("duplicate-ts-nudge-still-inside", ((0, 1, 0), (1, 2, 100), (2, 0, 100)), M1, 101, 1),
    # Four simultaneous raw edges uniquify to t=5,6,7,8; every
    # adjacent-in-time reversal pairs up and the span-3 pair (5, 8) fits.
    ("duplicate-ts-burst-all-equal", ((0, 1, 5), (1, 0, 5), (0, 1, 5), (1, 0, 5)), PING_PONG, 3, 4),
    # The closing edge sits at t == t_root + δ precisely: it extends
    # (the shared predicate in repro.graph.window).
    ("exact-boundary-edge-extends", ((0, 1, 0), (1, 0, 100)), PING_PONG, 100, 1),
    # Two closing candidates straddle the bound: t=100 in, t=101 out; a
    # scan must take the first and stop at the second.
    ("exact-boundary-two-candidates", ((0, 1, 0), (1, 0, 100), (1, 0, 101)), PING_PONG, 100, 1),
    # Two raw duplicates AT the boundary uniquify to t=100 (in) and
    # t=101 (out): the nudge decides each one's fate for every engine.
    ("duplicate-ts-at-boundary-splits", ((0, 1, 0), (1, 0, 100), (1, 0, 100)), PING_PONG, 100, 1),
    # Same duplicates with δ=101: both nudged copies close a match.
    ("duplicate-ts-at-boundary-both-inside", ((0, 1, 0), (1, 0, 100), (1, 0, 100)), PING_PONG, 101, 2),
    # A feed-forward triangle whose bound-endpoint closing edge (A->C)
    # lands exactly on t_root + δ.
    ("m2-closing-edge-exactly-at-boundary", ((0, 1, 0), (1, 2, 40), (0, 2, 100)), M2, 100, 1),
    # -- the whole graph is one window: δ saturates at the time span
    ("whole-graph-delta-one-short-of-span", _TWO_CYCLES, M1, 259, 4),
    ("whole-graph-delta-is-span", _TWO_CYCLES, M1, 260, 6),
    ("whole-graph-delta-2**62", _TWO_CYCLES, M1, 2**62, 6),
    # t_root + δ fits int64 for the first roots and wraps for the rest.
    ("whole-graph-delta-wraps-late-roots-only", _TWO_CYCLES, M1, SATURATING - 260 + 5, 6),
    ("whole-graph-delta-int64-max", _TWO_CYCLES, M1, SATURATING, 6),
    # -- self-loop-free invariants: a loop never roots, extends or closes
    ("self-loop-never-roots", ((0, 0, 0), (0, 1, 10), (1, 2, 20), (2, 0, 30)), M1, 100, 1),
    ("self-loop-never-extends", ((0, 1, 0), (1, 1, 5), (1, 2, 10), (2, 0, 20)), M1, 100, 1),
    ("self-loop-only-graph", ((0, 0, 0), (1, 1, 5), (2, 2, 10)), M2, 100, 0),
]

#: A motif whose second edge binds two fresh nodes (demand key
#: ``(-1, -1)``), and M1 under other labels (same canonical key).
TWO_PAIRS = Motif([(0, 1), (2, 3), (1, 2)], name="two-pairs")
M1_RELABELLED = Motif([(1, 0), (0, 2), (2, 1)], name="M1-relabelled")


def mixed_delta_slots(delta: int) -> List[Query]:
    """δ of 0, 1 and saturating beside ordinary δ, over shared prefixes,
    a one-edge motif and the four demand-key shapes.  After M1's first
    two edges the trie branches to M1 (saturating), M2 (δ) and path3
    (δ/4): a node whose narrower children have different bounds."""
    return [
        (M1, 0), (M1, 1), (M1, delta), (M1, SATURATING),
        (M2, delta), (M2, max(1, delta // 3)), (PING_PONG, 1),
        (PING_PONG, SATURATING), (PATH3, max(1, delta // 4)),
        (motif_by_name("edge"), 0), (motif_by_name("bifan"), delta),
        (motif_by_name("fan-in"), delta), (TWO_PAIRS, SATURATING),
    ]


#: Slot sets a shared stream engine holds at once, by the row's δ.
SLOT_SETS = {
    "live14": lambda delta: [
        (motif_by_name(name), d) for name, d in sorted(
            {(b["motif"], b["delta"]) for b in plan_subscriptions(100, delta)})
    ],
    "grid": lambda delta: [(m, delta) for _, m in sorted(paranjape_grid().items())],
    "duplicates": lambda delta: [
        (M1, delta), (M1, delta), (M1_RELABELLED, delta), (M2, delta), (M2, delta),
    ],
    "mixed-delta": mixed_delta_slots,
}

#: One small seeded graph per generator family for the stream rows, and
#: the smaller ones the live rows feed.
STREAM_SCALES = {
    "email-eu": 0.06, "mathoverflow": 0.05, "ask-ubuntu": 0.04,
    "superuser": 0.03, "wiki-talk": 0.02, "stackoverflow": 0.013,
}
LIVE_SCALES = {
    "email-eu": 0.03, "mathoverflow": 0.025, "ask-ubuntu": 0.02,
    "superuser": 0.015, "wiki-talk": 0.012, "stackoverflow": 0.008,
}


def live_panel(delta):
    """A small mixed panel: update + threshold, full-delta + half-delta."""
    return [
        ("M1", delta, UPDATE, None),
        ("M2", max(1, delta // 2), UPDATE, None),
        ("M3", delta, THRESHOLD, 0),
        ("ping-pong", delta, THRESHOLD, 2),
        ("fan-in", delta, UPDATE, None),
    ]


def sharing_panel(delta):
    """Twelve subscriptions over three distinct (motif, δ) counters:
    every kind and several thresholds on one pair, the same motif under
    three spellings (catalog name, the ``motif_spec`` DSL, relabelled
    nodes), and a half-δ twin that must *not* share with the full-δ one."""
    spec = parse_motif("x->y, y->z, z->x", name="custom")
    relabelled = Motif([(2, 0), (0, 1), (1, 2)], name="relabelled")
    half = max(1, delta // 2)
    return [
        ("M1", delta, UPDATE, None), ("M1", delta, THRESHOLD, 0),
        ("M1", delta, THRESHOLD, 2), ("M1", delta, UPDATE, None),
        (spec, delta, UPDATE, None), (spec, delta, THRESHOLD, 1),
        (relabelled, delta, UPDATE, None), ("M1", half, UPDATE, None),
        (relabelled, half, THRESHOLD, 0), ("ping-pong", delta, THRESHOLD, 0),
        ("ping-pong", delta, THRESHOLD, 5), ("ping-pong", delta, UPDATE, None),
    ]


def _live(name, scale, panel) -> Case:
    graph = _generated(name, scale, 11)
    delta = _span(graph, 40)
    subs = tuple(
        (motif_by_name(m) if isinstance(m, str) else m, d, kind, threshold)
        for m, d, kind, threshold in panel(delta)
    )
    return Case(graph, tuple((m, d) for m, d, _, _ in subs), panel=subs, window=delta)


def _random(seed, nodes, edges, time_range, motifs, delta) -> Case:
    graph = random_temporal_graph(random.Random(seed), nodes, edges, time_range=time_range)
    return _uniform(graph, motifs, delta)


def _random_delta(seed) -> Case:
    rng = random.Random(seed)
    graph = random_temporal_graph(rng, num_nodes=9, num_edges=60, time_range=80)
    return _uniform(graph, [M1], rng.randrange(10, 60))


@lru_cache(maxsize=None)
def _generated(name, scale, seed) -> TemporalGraph:
    """One generated graph, shared by every row built on it."""
    return make_dataset(name, scale=scale, seed=seed)


def _dataset(name, scale, seed, div, motifs=None, slots=None, prefix=None) -> Case:
    graph = _generated(name, scale, seed)
    delta = _span(graph, div)
    if prefix is not None:
        edges = edges_of(graph)[: int(graph.num_edges * prefix)]
        graph = TemporalGraph(edges, num_nodes=graph.num_nodes)
    if slots is not None:
        return Case(graph, tuple(SLOT_SETS[slots](delta)))
    return _uniform(graph, motifs, delta)


def dataset_row(name, scale, seed, div) -> str:
    """A generator row's name: δ is the graph's time span // ``div``."""
    return f"{name}@{scale}#{seed}:{div}"


def _edges(edges, queries, expected=()) -> Case:
    return Case(TemporalGraph(edges), tuple(queries), expected=tuple(expected))


#: Every fixed row: name -> a builder of its :class:`Case`.
ROWS: Dict[str, Callable[[], Case]] = {}
for _name, _edge_list, _motif, _delta, _count in DELTA_CASES:
    ROWS[_name] = partial(_edges, _edge_list, [(_motif, _delta)], [_count])
    # Beyond the pinned count: δ±1, the off-by-one hot zone.
    ROWS[_name + "@delta-1"] = partial(_edges, _edge_list, [(_motif, max(0, _delta - 1))])
    ROWS[_name + "@delta+1"] = partial(_edges, _edge_list, [(_motif, _delta + 1)])
    ROWS[_name + "+mixed-delta"] = partial(
        _edges, _edge_list, [(_motif, _delta), *mixed_delta_slots(_delta)], [_count])
ROWS.update({
    "rand17": partial(_random, 17, 40, 700, 600, CATALOG, 60),
    # One motif each for the root-block and chunking sweeps.
    **{f"rand17[{m.name}]": partial(_random, 17, 40, 700, 600, [m], 60) for m in (M1, M2)},
    "rand23": partial(_random, 23, 50, 900, 700, CATALOG, 60),
    "rand31": partial(_random, 31, 30, 400, 400, (M1, M2, M3), 50),
    **{f"rand{seed}": partial(_random_delta, seed) for seed in (900, 901, 902)},
    dataset_row("email-eu", 0.15, 11, 30): partial(_dataset, "email-eu", 0.15, 11, 30, [M1, M2]),
    dataset_row("email-eu", 0.15, 11, 40): partial(
        _dataset, "email-eu", 0.15, 11, 40, [M1, M2, PING_PONG]),
    dataset_row("email-eu", 0.08, 3, 30) + "+grid": partial(
        _dataset, "email-eu", 0.08, 3, 30, grid_motifs()),
    dataset_row("email-eu", 0.04, 9, 30) + "+grid[:6]": partial(
        _dataset, "email-eu", 0.04, 9, 30, grid_motifs()[:6]),
    dataset_row("email-eu", 0.04, 9, 50) + "+grid[::7]": partial(
        _dataset, "email-eu", 0.04, 9, 50, grid_motifs()[::7]),
    **{dataset_row(name, 0.03, 11, 25): partial(_dataset, name, 0.03, 11, 25, EVALUATION_MOTIFS)
       for name in ("email-eu", "mathoverflow", "wiki-talk")},
})
for _name, _scale in STREAM_SCALES.items():
    _row = dataset_row(_name, _scale, 11, 40)
    ROWS[_row] = partial(_dataset, _name, _scale, 11, 40, CATALOG)
    for _motif in CATALOG:
        ROWS[f"{_row}[{_motif.name}]"] = partial(_dataset, _name, _scale, 11, 40, [_motif])
    for _slots in SLOT_SETS:
        ROWS[f"{_row}+{_slots}"] = partial(_dataset, _name, _scale, 11, 40, slots=_slots)
    for _fraction in (0.25, 0.5, 0.9) if _name in ("mathoverflow", "stackoverflow") else ():
        ROWS[f"{_row}[:{_fraction}]"] = partial(
            _dataset, _name, _scale, 11, 40, [M1], prefix=_fraction)
for _name, _scale in LIVE_SCALES.items():
    ROWS["live:" + dataset_row(_name, _scale, 11, 40)] = partial(_live, _name, _scale, live_panel)
ROWS["live:" + dataset_row("email-eu", 0.03, 11, 40) + "+sharing"] = partial(
    _live, "email-eu", 0.03, sharing_panel)


@lru_cache(maxsize=None)
def case(row: str) -> Case:
    """The built row, shared by every cell over it."""
    return ROWS[row]()


@st.composite
def raw_edge_streams(draw, max_nodes=6, max_edges=24, max_time=40):
    """``(num_nodes, edges)``: time-sorted raw edges with duplicate
    timestamps and self-loops — the inputs that stress uniquification
    and filtering."""
    n = draw(st.integers(2, max_nodes))
    m = draw(st.integers(0, max_edges))
    edges = []
    for _ in range(m):
        s = draw(st.integers(0, n - 1))
        d = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, max_time))
        edges.append((s, d, t))
    edges.sort(key=lambda e: e[2])
    return n, edges


def temporal_graphs(max_nodes=7, max_edges=28, max_time=50):
    """Arbitrary small graphs (the graph's own stable time sort makes
    the stream's sort invisible)."""
    return raw_edge_streams(max_nodes, max_edges, max_time).map(
        lambda stream: TemporalGraph(stream[1], num_nodes=stream[0]))


MOTIFS = [M1, M2, PING_PONG, PATH3]


def _laced(graph, motif, delta) -> Case:
    """A self-loop after every edge, at doubled times so the loops take
    fresh timestamps: match spans scale by exactly 2, so at 2δ the
    count must stay the plain graph's (self-loops never match)."""
    laced = []
    for s, d, t in edges_of(graph):
        laced += [(s, d, 2 * t), (s, s, 2 * t + 1)]
    return Case(TemporalGraph(laced, num_nodes=graph.num_nodes), ((motif, 2 * delta),),
                expected=(count_motifs(graph, motif, delta),))


def _one(graph, motif, delta) -> Case:
    return Case(graph, ((motif, delta),))


#: Hypothesis rows: name -> a strategy drawing a :class:`Case`.
HYPOTHESIS_ROWS = {
    "hyp:graph": st.builds(_one, temporal_graphs(), st.sampled_from(MOTIFS), st.integers(0, 60)),
    "hyp:laced": st.builds(_laced, temporal_graphs(), st.sampled_from(MOTIFS), st.integers(0, 60)),
    "hyp:walker-motif": st.builds(
        _one, temporal_graphs(), st.sampled_from(WALKER_FAMILY), st.integers(0, 60)),
    "hyp:walker-family": st.builds(
        lambda g, d: _uniform(g, WALKER_FAMILY, d), temporal_graphs(), st.integers(0, 60)),
    "hyp:grid4": st.builds(
        lambda g, d: _uniform(g, grid_motifs()[:4], d), temporal_graphs(), st.integers(1, 40)),
    "hyp:raw-stream": st.builds(
        lambda stream, m, d: Case(TemporalGraph(stream[1], num_nodes=stream[0]), ((m, d),),
                                  feed=stream[1]),
        raw_edge_streams(), st.sampled_from([M1, M2, PING_PONG]), st.integers(0, 50)),
}


# -- axes --------------------------------------------------------------------------

#: Serving modes: a direct call, or a service executor over the runner
#: it wraps (``shared-ClusterExecutor`` is a facade over a cluster
#: someone else owns).
MODES = {
    "direct": None, "InlineExecutor": "inline", "PoolExecutor": "pool",
    "ClusterExecutor": "cluster", "shared-ClusterExecutor": "cluster",
}

#: Where each runner that spawns processes takes its kills.
SITES = {"pool": "worker.chunk", "cluster": "node.chunk"}


@dataclass(frozen=True)
class Fault:
    """A fault plan: the ``site`` it strikes (None: nothing), the plan
    for a graph and a worker count, the runner policy it needs, how
    many times the cell runs under it, and what must have happened."""

    site: Optional[str] = None
    plan: Callable[[TemporalGraph, int], Optional[FaultPlan]] = lambda graph, workers: None
    options: dict = field(default_factory=dict)
    runs: int = 1
    check: Callable[[object, TemporalGraph], None] = lambda runner, graph: None


def _worker_kills(kills, seed) -> Fault:
    """``kills`` seeded worker kills, every one of which must fire."""
    return Fault("worker.chunk", lambda graph, w: FaultPlan.random_kills(seed, w, kills),
                 check=_stats_check(worker_deaths=(kills,), chunk_retries=kills))


def _stats_check(**want):
    """A check that each ``stat`` is ``>=`` (or, as ``(n,)``, ``==``) its bound."""
    def check(runner, graph):
        stats = runner.stats.as_dict()
        for name, bound in want.items():
            assert stats[name] == bound[0] if isinstance(bound, tuple) else stats[name] >= bound, name
    return check


def _primary(graph) -> int:
    """The one slot ``replication=1`` places ``graph`` on, off-cluster
    from the same ring."""
    ring = HashRing(slot_name(i) for i in range(2))
    return int(ring.node_for(graph.fingerprint()).split("-")[1])


def _failover_check(cluster, graph):
    placement = cluster.placement(graph.fingerprint())
    assert placement[0] == _primary(graph)
    assert len(placement) > 1  # extended by failover
    assert cluster.degraded
    _stats_check(failovers=1, node_deaths=(1,))(cluster, graph)


def _degraded_check(cluster, graph):
    assert cluster.degraded
    _stats_check(node_deaths=(1,), respawns=(0,))(cluster, graph)


#: Fault plans.  ``kill<k>:s<seed>`` kills k of the runner's workers at
#: seeded chunks; ``kill-w1@3`` kills worker 1 at its third chunk and
#: runs the cell twice (deaths in one run must not taint the next);
#: ``nodekill…`` are the same at whole cluster nodes; ``failover`` kills
#: the only node ``replication=1`` placed the graph on, with no respawn
#: budget; ``batch-fault`` fails a service executor's first dispatched
#: batch, which it then serves inline (degraded), and serves once more.
FAULTS: Dict[str, Fault] = {
    "none": Fault(),
    **{f"kill{k}:s{seed}": _worker_kills(k, seed) for k in (1, 2) for seed in (1, 2)},
    "kill2:s5": _worker_kills(2, 5),
    "kill1:s7": Fault("worker.chunk", lambda graph, w: FaultPlan.random_kills(7, w, 1),
                      options={"seed": 7}),
    "kill-w1@3": Fault("worker.chunk", lambda graph, w: FaultPlan.kill_worker(1, at_chunk=3),
                       runs=2, check=_stats_check(worker_deaths=(1,))),
    "nodekill1:s7": Fault(
        "node.chunk", lambda graph, w: FaultPlan.random_kills(7, w, 1, site="node.chunk"),
        options={"seed": 7}),
    # At the victim's *first* chunk: every ready node is handed one
    # before any result is awaited, so the kill fires whatever the OS.
    "nodekill-n1@1": Fault(
        "node.chunk", lambda graph, w: FaultPlan.kill_worker(1, at_chunk=1, site="node.chunk"),
        options={"seed": 7}, check=_stats_check(node_deaths=1, chunk_retries=1)),
    "nodekill-n0@1:no-respawn": Fault(
        "node.chunk", lambda graph, w: FaultPlan.kill_worker(0, at_chunk=1, site="node.chunk"),
        options={"respawn_budget": 0}, check=_degraded_check),
    "failover": Fault(
        "node.chunk",
        lambda graph, w: FaultPlan.kill_worker(_primary(graph), at_chunk=1, site="node.chunk"),
        options={"replication": 1, "respawn_budget": 0}, check=_failover_check),
    "batch-fault": Fault("executor.batch", runs=2),
}

#: Arrival orders of the runners that take edges as they arrive; every
#: other runner sees the whole graph at once (``in-order``).  A service
#: executor takes its queries one per batch or all in one.
ORDERS = {
    "stream": ("batch-1", "batch-7", "batch-all", "random-batches", "batch-*"),
    "stream-family": ("batch-17", "batch-all", "per-edge"),
    "live": ("batch-1", "batch-7", "batch-all", "block-shuffle", "full-shuffle"),
}
EXECUTOR_ORDERS = ("batch-1", "batch-all")


def parse(runner: str) -> Tuple[str, Dict[str, int]]:
    """``"pool:w3:c7"`` -> ``("pool", {"w": 3, "c": 7})``."""
    kind, *knobs = runner.split(":")
    return kind, {k[0]: int(k[1:]) for k in knobs}


def meaningful(row: str, runner: str, mode: str, fault: str, order: str) -> bool:
    """The one skip rule: a cell runs unless its combination has no
    meaning — an executor mode over another runner, a fault no part of
    the cell can take (the simulator under a kill plan), or an arrival
    order for a runner that sees the whole graph at once."""
    kind, _ = parse(runner)
    site = FAULTS[fault].site
    if mode != "direct":
        return MODES[mode] == kind and site in (None, "executor.batch") and order in EXECUTOR_ORDERS
    if site is not None and site != SITES.get(kind):
        return False
    return order in ORDERS.get(kind, ("in-order",))


# -- runners ---------------------------------------------------------------------


def _one_delta(case: Case) -> Tuple[List[Motif], int]:
    (delta,) = {d for _, d in case.queries}
    return [m for m, _ in case.queries], delta


def _family_results(results) -> List[Result]:
    return [(r.count, r.counters.as_dict()) for r in results]


def _walker(case, b=None):
    kw = {} if b is None else {"root_block": b}
    return [[(r.count, r.counters.as_dict()) for r in (
        BatchedMiner(case.graph, m, d, **kw).mine() for m, d in case.queries)]]


def _family(case, b):
    motifs, delta = _one_delta(case)
    miner = CoMiner(case.graph, motifs, delta)
    miner.root_block = b
    result = miner.mine()
    return [[(c, counters.as_dict()) for c, counters in zip(result.counts, result.per_motif)]]


def _chunked(case, s, b):
    """Root ranges of ``s`` roots, mined apart and merged."""
    out = []
    for motif, delta in case.queries:
        miner = BatchedMiner(case.graph, motif, delta, root_block=b)
        total, merged = 0, SearchCounters()
        for lo in range(0, case.graph.num_edges, s):
            chunk = miner.mine_range(lo, lo + s)
            total += chunk.count
            merged.merge(chunk.counters)
        out.append((total, merged.as_dict()))
    return [out]


def _inline(case):
    motifs, delta = _one_delta(case)
    return [_family_results(INLINE.count_family(case.graph, motifs, delta).results)]


def _simulator(case, m=1):
    config = MintConfig(num_pes=4, cache=CacheConfig(num_banks=4, bank_kb=2)).with_memoize(bool(m))
    return [[(MintSimulator(case.graph, motif, delta, config).run().matches, None)
             for motif, delta in case.queries]]


def _counts(count):
    return lambda case: [[(count(case.graph, m, d), None) for m, d in case.queries]]


def _batches(edges, order, n=None):
    if order == "random-batches":
        # Seeded by the feed itself: each row has its own fixed schedule.
        rng, i = random.Random(zlib.crc32(repr(edges[:3]).encode())), 0
        while i < len(edges):
            step = rng.choice((1, 2, 3, 5, 8, 13, 21))
            yield edges[i:i + step]
            i += step
        return
    size = {"batch-all": max(1, len(edges)), "batch-*": n}.get(order) or int(order.split("-")[1])
    for lo in range(0, len(edges), size):
        yield edges[lo:lo + size]


def _stream(case, order, n=None):
    """One :class:`StreamingCounter` per query, fed in ``order``; the
    incremental nudge must reproduce the batch uniquification."""
    out, edges = [], case.edges
    for motif, delta in case.queries:
        counter = StreamingCounter(motif, delta)
        if order == "batch-1":
            for edge in edges:
                counter.add_edge(*edge)
        else:
            for batch in _batches(edges, order, n):
                counter.add_batch(batch)
        out.append((counter.count, None))
    assert counter.snapshot().ts.tolist() == case.graph.ts.tolist()
    return [out]


def _stream_family(case, order):
    """One engine for every query: the catalog counter in batches, or
    the bare engine per edge (one row of per-slot completions per edge)."""
    if order == "per-edge":
        engine, buffer = FamilyStreamEngine(), StreamBuffer(0)
        handles = [engine.add_slot(Slot(m, d)) for m, d in case.queries]
        rows = []
        for s, d, t in case.edges:
            _, t_adj = buffer.append(s, d, t)
            engine.step(s, d, t_adj)
            rows.append([engine.completed.count(h) for h in handles])
        return rows
    motifs, delta = _one_delta(case)
    counter = StreamingCatalogCounter(motifs, delta)
    for batch in _batches(case.edges, order):
        counter.add_batch(batch)
    counts = counter.counts
    return [[(counts[m.name], None) for m in motifs]]


class SharedRunners:
    """The two-process runners and the executors, shared by every cell
    that puts no fault in them; closed by :meth:`close`."""

    def __init__(self) -> None:
        self._open: Dict[str, object] = {}

    def get(self, key: str, build: Callable[[], object]):
        if key not in self._open:
            self._open[key] = build()
        return self._open[key]

    def dispatcher(self, runner: str):
        kind, knobs = parse(runner)
        workers = knobs.get("w", 2)
        build = WorkerPool if kind == "pool" else MiningCluster
        return self.get(f"{kind}:w{workers}", lambda: build(workers, backoff_base_s=0.01))

    def close(self) -> None:
        for runner in reversed(list(self._open.values())):
            runner.close()
        self._open.clear()


def _dispatch(case, shared, runner, fault, w=2, c=8):
    """``count_family`` on a worker pool or a cluster: the shared one,
    or a fresh one carrying the fault plan."""
    kind, _ = parse(runner)
    motifs, delta = _one_delta(case)
    plan = FAULTS[fault]
    if plan.site is None and w == 2:
        dispatcher = shared.dispatcher(runner)
        before = dispatcher.stats.chunks_completed
        family = dispatcher.count_family(case.graph, motifs, delta, c)
        # Not vacuous: one family chunk per root range ran on workers.
        assert dispatcher.stats.chunks_completed - before == family.num_chunks
        return [_family_results(family.results)]
    build = WorkerPool if kind == "pool" else MiningCluster
    options = dict({"backoff_base_s": 0.01}, **plan.options)
    with build(w, fault_plan=plan.plan(case.graph, w), **options) as dispatcher:
        # A fresh runner: a fault plan, or a worker count no other cell uses.
        runs = [_family_results(dispatcher.count_family(case.graph, motifs, delta, c).results)
                for _ in range(plan.runs)]
        plan.check(dispatcher, case.graph)
    return runs


def make_executor(mode: str, *, workers: int = 2, cluster=None, **options):
    """One service executor for ``mode`` (``cluster``: the node pool a
    ``shared-ClusterExecutor`` facade is handed; ``options``: policy)."""
    if mode == "InlineExecutor":
        return InlineExecutor(**options)
    if mode == "PoolExecutor":
        return PoolExecutor(workers, **options)
    if mode == "ClusterExecutor":
        return ClusterExecutor(num_nodes=workers, **options)
    return ClusterExecutor(cluster, **options)


def _serve(case, shared, runner, mode, fault, order):
    """Each batch through a shared executor, checking per batch that it
    was dispatched, degraded or co-mined exactly as it should be."""
    cluster = shared.dispatcher(runner) if mode == "shared-ClusterExecutor" else None
    executor = shared.get(mode, lambda: make_executor(mode, cluster=cluster))
    queries = list(case.queries)
    batches = [[q] for q in queries] if order == "batch-1" else [queries]
    runs = []
    for run in range(FAULTS[fault].runs):
        out = []
        for i, batch in enumerate(batches):
            faulted = fault == "batch-fault" and run == i == 0
            plan = FaultPlan.raise_at("executor.batch", [1]).installed() if faulted else nullcontext()
            before = executor.counters.snapshot()
            with plan:
                out += executor.count_batch(case.graph, [m for m, _ in batch], batch[0][1])
            after = executor.counters.snapshot()
            grew = {k: after.get(k, 0) - before.get(k, 0) for k in after}
            fell_back = faulted and mode != "InlineExecutor"
            assert grew.get("backend_failures", 0) == fell_back
            assert grew.get("degraded_queries", 0) == fell_back * len(batch)
            assert grew.get("comined_batches", 0) == (len(batch) > 1)
            if cluster is not None:
                # The cluster's owner, not this facade, hears its events.
                assert executor.worker_liveness() == {"cluster": {"live": 2, "target": 2}}
            else:
                assert (grew.get("chunks_completed", 0) > 0) == (
                    mode != "InlineExecutor" and not fell_back)
        runs.append(out)
    return runs


LIVE_ORDERS = {
    "batch-1": (1, "none"), "batch-7": (7, "none"), "batch-all": (None, "none"),
    "block-shuffle": (7, "block"), "full-shuffle": (7, "full"),
}


def check_live(case: Case, order: str):
    """Feed the row live in ``order``; every subscription's events must
    be byte-identical to the oracle's offline replay."""
    size, shuffle = LIVE_ORDERS[order]
    edges = case.edges
    size = size or len(edges)
    block = 4 * size
    arrivals = _shuffled(edges, shuffle, 3, block)
    opts = {
        "full": {"lateness": None, "reorder_capacity": len(arrivals) + 1},
        "block": {"lateness": None, "reorder_capacity": block},
    }.get(shuffle, {})
    live = LiveGraph("live", case.window, **opts)
    specs, capacity = [], (len(arrivals) // size) + 16
    for i, (motif, delta, kind, threshold) in enumerate(case.panel):
        live.attach(Subscription(f"sub-{i}", "live", motif, delta, kind=kind,
                                 threshold=threshold, outbox_capacity=capacity))
        specs.append(SubSpec(f"sub-{i}", motif, delta, kind, threshold))
    acks = [live.append_batch(arrivals[i:i + size], seq=i) for i in range(0, len(arrivals), size)]
    acks.append(live.append_batch([], seq=len(arrivals) + 1, flush=True))
    assert live.reorder.late_dropped == 0
    expected = offline_replay(
        sorted_arrivals(arrivals), specs, schedule_from_acks(acks), "live", case.window)
    for spec in specs:
        got = live.subscriptions[spec.sub_id].outbox.read_after(0)
        want = expected["events"][spec.sub_id]
        assert [payload_bytes(e) for e in got] == [payload_bytes(e) for e in want], spec.sub_id
    assert live.status()["window_fingerprint"] == expected["window_fingerprint"]
    # Not a vacuous pass: the panel must actually complete instances.
    assert sum(expected["counts"].values()) > 0
    return live


def _last_edge_histogram(graph, motif, delta) -> List[int]:
    """Reference matches per last edge: entry ``i`` is the count on the
    first ``i + 1`` edges minus the count on the first ``i``, since the
    time-sorted, uniquified edge arrays of a prefix are a prefix of the
    whole."""
    hist = [0] * graph.num_edges
    for match in MackeyMiner(graph, motif, delta, record_matches=True).mine().matches:
        hist[match.edge_indices[-1]] += 1
    return hist


def check_per_edge(case: Case, rows) -> None:
    graph, edges = case.graph, case.edges
    for i, (motif, delta) in enumerate(case.queries):
        assert [row[i] for row in rows] == _last_edge_histogram(graph, motif, delta), (
            f"{motif.name} at delta={delta} diverged")
    assert [sum(row[i] for row in rows) for i in range(len(case.expected))] == list(case.expected)
    # The histogram is the prefix differences: check it against whole
    # prefix graphs, at every cut of a small row and a few of a large one.
    small = len(edges) <= 30
    cuts = range(1, len(edges) + 1) if small else (1, len(edges) // 3, len(edges) - 1)
    for k in cuts:
        prefix = TemporalGraph(edges[:k], num_nodes=graph.num_nodes)
        for i, (motif, delta) in enumerate(case.queries if small else case.queries[:4]):
            assert sum(row[i] for row in rows[:k]) == count_motifs(prefix, motif, delta)


RUNNERS = {
    "bruteforce": _counts(brute_force_count),
    "mackey-memo": _counts(lambda g, m, d: MackeyMiner(g, m, d, memoize=True).mine().count),
    "paranjape": _counts(lambda g, m, d: ParanjapeMiner(g, m, d).count()),
    "walker": _walker,
    "family": _family,
    "chunked": _chunked,
    "inline": _inline,
    "simulator": _simulator,
}


def check_cell(case: Case, shared, runner: str, mode="direct", fault="none",
               order="in-order", **drawn) -> None:
    """Run one cell and compare it with the reference."""
    kind, knobs = parse(runner)
    knobs.update(drawn)
    if kind == "live":
        check_live(case, order)
        return
    if mode != "direct":
        runs = _serve(case, shared, runner, mode, fault, order)
    elif kind in SITES:
        runs = _dispatch(case, shared, runner, fault, **knobs)
    elif kind == "stream":
        runs = _stream(case, order, **knobs)
    elif kind == "stream-family":
        if order == "per-edge":
            check_per_edge(case, _stream_family(case, order))
            return
        runs = _stream_family(case, order)
    else:
        runs = RUNNERS[kind](case, **knobs)
    want = case.reference
    for got in runs:
        assert len(got) == len(want)
        if got[0][1] is None:
            assert [c for c, _ in got] == [c for c, _ in want]
        else:
            assert payloads(case.graph, case.queries, got) == payloads(
                case.graph, case.queries, want)


#: (row, runner, order, max_examples, drawn knobs) over hypothesis rows:
#: each is one cell ``(row, runner, "direct", "none", order)``.
HYPOTHESIS_GRID = [
    ("hyp:graph", "bruteforce", "in-order", 60, {}),
    ("hyp:graph", "mackey-memo", "in-order", 40, {}),
    ("hyp:graph", "paranjape", "in-order", 40, {}),
    ("hyp:graph", "simulator", "in-order", 40, {"m": st.booleans()}),
    ("hyp:laced", "bruteforce", "in-order", 30, {}),
    ("hyp:laced", "walker", "in-order", 30, {}),
    ("hyp:laced", "simulator", "in-order", 30, {}),
    ("hyp:laced", "stream", "batch-all", 30, {}),
    ("hyp:walker-family", "family", "in-order", 30, {"b": st.sampled_from([1, 7, 4096])}),
    ("hyp:walker-family", "bruteforce", "in-order", 30, {}),
    ("hyp:walker-motif", "walker", "in-order", 30, {"b": st.integers(1, 40)}),
    ("hyp:walker-motif", "chunked:b7", "in-order", 20, {"s": st.integers(1, 15)}),
    ("hyp:grid4", "inline", "in-order", 20, {}),
    ("hyp:raw-stream", "stream", "batch-1", 60, {}),
    ("hyp:raw-stream", "stream", "batch-*", 30, {"n": st.integers(1, 9)}),
]
HYPOTHESIS_SPECS = {
    (row, runner, "direct", "none", order): (examples, drawn)
    for row, runner, order, examples, drawn in HYPOTHESIS_GRID
}
HYPOTHESIS_CELLS = list(HYPOTHESIS_SPECS)


def check_hypothesis_cell(row, runner, mode, fault, order) -> None:
    """Run one hypothesis cell: every drawn row (and knob) is checked."""
    examples, drawn = HYPOTHESIS_SPECS[(row, runner, mode, fault, order)]

    @settings(max_examples=examples, deadline=None)
    @given(st.data())
    def check(data):
        knobs = {name: data.draw(strategy, label=name) for name, strategy in drawn.items()}
        check_cell(data.draw(HYPOTHESIS_ROWS[row]), None, runner, mode, fault, order, **knobs)

    check()


# -- where each cell runs ----------------------------------------------------------

#: The pytest ids the cells' checks had before this matrix, as
#: ``{suite module: {id within it: [cells]}}``.  Each such id still
#: names its check: the suite module defines it with
#: :func:`former_tests`, and it runs its cells.
#: ``tests/test_parity_matrix.py`` runs only the cells that no former id
#: carries, so each cell runs under one name, or under a few when
#: several former checks shared it.
FORMER_IDS: Dict[str, Dict[str, list]] = json.loads(
    (Path(__file__).parent / "parity_former_ids.json").read_text())
CARRIED = {tuple(cell) for ids in FORMER_IDS.values() for cells in ids.values() for cell in cells}


@pytest.fixture(scope="module")
def shared():
    runners = SharedRunners()
    yield runners
    runners.close()


@pytest.fixture
def cells(request):
    """An unparametrized former test's cells."""
    return request.function.cells


def run_cells(cells, shared) -> None:
    for row, *axes in cells:
        if row in HYPOTHESIS_ROWS:
            check_hypothesis_cell(row, *axes)
        else:
            check_cell(case(row), shared, *axes)


def _former_test(params, method: bool):
    ids, cell_lists = zip(*params)
    if method:
        def test(self, cells, shared):
            run_cells(cells, shared)
    else:
        def test(cells, shared):
            run_cells(cells, shared)
    if ids == ("",):
        test.cells = cell_lists[0]
    else:
        test = pytest.mark.parametrize("cells", cell_lists, ids=ids)(test)
    return pytest.mark.timeout(300)(test)


def former_tests(namespace: dict) -> None:
    """Define, in a suite module's ``namespace``, a test for each of its
    former ids (a method of its class, which is created unless the
    module has it), and the fixtures they use."""
    tests: Dict[str, list] = {}
    for nodeid, cell_list in FORMER_IDS[Path(namespace["__file__"]).stem].items():
        name, _, param = nodeid.partition("[")
        tests.setdefault(name, []).append((param[:-1], [tuple(c) for c in cell_list]))
    for name, params in tests.items():
        owner, _, func = name.rpartition("::")
        test = _former_test(params, method=bool(owner))
        test.__name__ = func
        if owner:
            setattr(namespace.setdefault(owner, type(owner, (), {})), func, test)
        else:
            namespace[func] = test
    namespace.setdefault("shared", shared)
    namespace.setdefault("cells", cells)


# -- process helpers the service suites share ------------------------------------


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


def serve(executor, graph: TemporalGraph, motifs: Sequence[Motif], delta: int,
          **kw) -> List[bytes]:
    """One batch through ``executor`` as the payload bytes a replica
    would serve for it (``kw``: ``count_batch``'s options)."""
    queries = [(m, delta) for m in motifs]
    return payloads(graph, queries, executor.count_batch(graph, motifs, delta, **kw))
