"""Differential property suite: the streaming engine vs the batch oracle.

The streaming subsystem has no paper figure to match — its correctness
claim is *exact parity with the batch miners*.  This suite pins it:

- full-replay counts equal ``mine_mackey`` counts on seeded graphs from
  every generator family × every catalog motif;
- parity is invariant to batching (1, 7, all-at-once, shuffled sizes);
- prefix replays equal batch counts on the prefix graph, and snapshots
  are byte-identical to batch-built ``TemporalGraph``s (arrays + CSR);
- per edge and per slot, a shared multi-slot engine completes exactly
  the Mackey prefix differences, for slot sets mixing motifs, shared
  prefixes, duplicates and δ (the engine's independent reference: the
  live path and its oracle both run this engine);
- the catalog/grid counters match per-motif batch breakdowns exactly;
- hypothesis-randomized graphs (duplicate timestamps, self-loops)
  agree with the Mackey reference;
- the shared δ-boundary adversarial cases hold for the streaming
  backend like every batch backend.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delta_cases import COUNT_BACKENDS, DELTA_BOUNDARY_CASES
from repro.graph.generators import DATASET_NAMES, make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.live.driver import plan_subscriptions
from repro.mining.mackey import MackeyMiner, count_motifs
from repro.mining.multi import grid_census
from repro.motifs.catalog import (
    EVALUATION_MOTIFS,
    EXTRA_MOTIFS,
    M1,
    M2,
    PATH3,
    PING_PONG,
    motif_by_name,
)
from repro.motifs.grid import paranjape_grid
from repro.motifs.motif import Motif
from repro.streaming import (
    FamilyStreamEngine,
    Slot,
    StreamBuffer,
    StreamingCatalogCounter,
    StreamingCounter,
)

CATALOG = EVALUATION_MOTIFS + EXTRA_MOTIFS

#: One small seeded graph per generator family; scales keep the full
#: family × motif × batch-size product affordable for tier-1.
FAMILY_SCALES = {
    "email-eu": 0.06,
    "mathoverflow": 0.05,
    "ask-ubuntu": 0.04,
    "superuser": 0.03,
    "wiki-talk": 0.02,
    "stackoverflow": 0.013,
}


def _edges_of(graph: TemporalGraph):
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))


#: A motif whose second edge binds two fresh nodes (demand key
#: ``(-1, -1)``), and M1 under other labels (same canonical key).
TWO_PAIRS = Motif([(0, 1), (2, 3), (1, 2)], name="two-pairs")
M1_RELABELLED = Motif([(1, 0), (0, 2), (2, 1)], name="M1-relabelled")
SATURATING = 2**63 - 1


def mixed_delta_slots(delta):
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


#: Slot sets for the per-edge parity: each maps δ to ``(motif, δ)`` pairs.
SLOT_SETS = {
    "live14": lambda delta: [
        (motif_by_name(name), d) for name, d in sorted(
            {(b["motif"], b["delta"]) for b in plan_subscriptions(100, delta)})
    ],
    "grid": lambda delta: [
        (m, delta) for _, m in sorted(paranjape_grid().items())
    ],
    "duplicates": lambda delta: [
        (M1, delta), (M1, delta), (M1_RELABELLED, delta), (M2, delta),
        (M2, delta),
    ],
    "mixed-delta": mixed_delta_slots,
}


def per_edge_completions(edges, slots):
    """Replay ``edges`` through one engine holding every slot; one row of
    per-slot completions per edge."""
    engine = FamilyStreamEngine()
    handles = [engine.add_slot(Slot(m, d)) for m, d in slots]
    buffer = StreamBuffer(0)
    rows = []
    for s, d, t in edges:
        _, t_adj = buffer.append(s, d, t)
        engine.step(s, d, t_adj)
        rows.append([engine.completed.count(h) for h in handles])
    return rows


def mackey_last_edge_histogram(graph, motif, delta):
    """Matches per last edge: entry ``i`` is ``count(prefix of i + 1
    edges) - count(prefix of i edges)``, since the time-sorted,
    uniquified edge arrays of a prefix are a prefix of the whole."""
    hist = [0] * graph.num_edges
    result = MackeyMiner(graph, motif, delta, record_matches=True).mine()
    for match in result.matches:
        hist[match.edge_indices[-1]] += 1
    return hist


@pytest.fixture(scope="module")
def family_graphs():
    graphs = {}
    for name in DATASET_NAMES:
        g = make_dataset(name, scale=FAMILY_SCALES[name], seed=11)
        delta = max(1, g.time_span // 40)
        graphs[name] = (g, delta)
    return graphs


@pytest.fixture(scope="module")
def batch_counts(family_graphs):
    """Mackey oracle counts for every (family, motif) pair, computed once."""
    return {
        (name, motif.name): count_motifs(g, motif, delta)
        for name, (g, delta) in family_graphs.items()
        for motif in CATALOG
    }


class TestFullReplayParity:
    @pytest.mark.parametrize("family", DATASET_NAMES)
    @pytest.mark.parametrize("motif", CATALOG, ids=lambda m: m.name)
    def test_replay_equals_mackey(
        self, family, motif, family_graphs, batch_counts
    ):
        g, delta = family_graphs[family]
        expected = batch_counts[(family, motif.name)]
        assert COUNT_BACKENDS["streaming"](g, motif, delta) == expected

    @pytest.mark.parametrize("family", ["email-eu", "wiki-talk"])
    @pytest.mark.parametrize("batch_size", [1, 7, 10**9])
    def test_batch_size_invariance(
        self, family, batch_size, family_graphs, batch_counts
    ):
        g, delta = family_graphs[family]
        for motif in (M1, M2, PING_PONG):
            counter = StreamingCounter(motif, delta)
            edges = _edges_of(g)
            for lo in range(0, len(edges), batch_size):
                counter.add_batch(edges[lo:lo + batch_size])
            assert counter.count == batch_counts[(family, motif.name)], (
                f"{motif.name} diverged at batch_size={batch_size}"
            )

    @pytest.mark.parametrize("family", DATASET_NAMES)
    def test_shuffled_batch_sizes(self, family, family_graphs, batch_counts):
        """Randomized (seeded) batch segmentation never changes counts."""
        g, delta = family_graphs[family]
        edges = _edges_of(g)
        rng = random.Random(hash(family) & 0xFFFF)
        counter = StreamingCounter(M1, delta)
        i = 0
        while i < len(edges):
            step = rng.choice((1, 2, 3, 5, 8, 13, 21))
            counter.add_batch(edges[i : i + step])
            i += step
        assert counter.count == batch_counts[(family, "M1")]


class TestPrefixReplay:
    @pytest.mark.parametrize("family", ["mathoverflow", "stackoverflow"])
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_prefix_counts_equal_prefix_graph(
        self, family, fraction, family_graphs
    ):
        g, delta = family_graphs[family]
        k = int(g.num_edges * fraction)
        edges = _edges_of(g)[:k]
        counter = StreamingCounter(M1, delta)
        counter.add_batch(edges)
        prefix_graph = TemporalGraph(edges, num_nodes=g.num_nodes)
        assert counter.count == count_motifs(prefix_graph, M1, delta)

    @pytest.mark.parametrize("slot_set", SLOT_SETS)
    @pytest.mark.parametrize("family", DATASET_NAMES)
    def test_per_edge_slot_completions_equal_prefix_differences(
        self, family, slot_set, family_graphs
    ):
        g, delta = family_graphs[family]
        slots = SLOT_SETS[slot_set](delta)
        got = per_edge_completions(_edges_of(g), slots)
        for i, (motif, slot_delta) in enumerate(slots):
            want = mackey_last_edge_histogram(g, motif, slot_delta)
            assert [row[i] for row in got] == want, (
                f"{motif.name} at delta={slot_delta} diverged"
            )
        # The histogram is the prefix differences: check it against
        # whole prefix graphs at a few cut points.
        edges = _edges_of(g)
        for k in (1, len(edges) // 3, len(edges) - 1):
            prefix = TemporalGraph(edges[:k], num_nodes=g.num_nodes)
            for i, (motif, slot_delta) in enumerate(slots[:4]):
                assert sum(row[i] for row in got[:k]) == count_motifs(
                    prefix, motif, slot_delta)

    @pytest.mark.parametrize(
        "case", DELTA_BOUNDARY_CASES, ids=lambda c: c.name
    )
    def test_per_edge_slot_completions_on_delta_cases(self, case):
        """Literal prefix differences: Mackey on every prefix graph."""
        slots = [(case.motif, case.delta)] + mixed_delta_slots(case.delta)
        edges = _edges_of(case.graph())
        got = per_edge_completions(edges, slots)
        for i, (motif, slot_delta) in enumerate(slots):
            prefix_counts = [0] + [
                count_motifs(TemporalGraph(edges[:k]), motif, slot_delta)
                for k in range(1, len(edges) + 1)
            ]
            want = [b - a for a, b in zip(prefix_counts, prefix_counts[1:])]
            assert [row[i] for row in got] == want, (
                f"{motif.name} at delta={slot_delta} diverged"
            )
        assert sum(row[0] for row in got) == case.expected

    @pytest.mark.parametrize("family", ["email-eu", "superuser"])
    def test_snapshot_byte_identical_to_batch_graph(
        self, family, family_graphs
    ):
        g, delta = family_graphs[family]
        counter = StreamingCounter(M1, delta)
        counter.add_batch(_edges_of(g))
        snap = counter.snapshot()
        # The stream only knows nodes it has seen, so compare against a
        # batch graph with the same inferred node count.
        want = TemporalGraph(_edges_of(g))
        assert snap.num_nodes == want.num_nodes
        for attr in (
            "src", "dst", "ts",
            "out_offsets", "out_edge_idx", "in_offsets", "in_edge_idx",
        ):
            assert np.array_equal(
                getattr(snap, attr), getattr(want, attr)
            ), f"{attr} diverged"

    def test_snapshot_minable_by_batch_miners_midstream(self, family_graphs):
        g, delta = family_graphs["ask-ubuntu"]
        edges = _edges_of(g)
        counter = StreamingCounter(M2, delta)
        counter.add_batch(edges[: len(edges) // 3])
        snap = counter.snapshot()
        assert count_motifs(snap, M2, delta) == counter.count
        # Keep streaming after the snapshot: the counter is unaffected.
        counter.add_batch(edges[len(edges) // 3 :])
        assert counter.count == count_motifs(g, M2, delta)


class TestCatalogAndGrid:
    @pytest.mark.parametrize("family", ["email-eu", "wiki-talk"])
    def test_catalog_breakdown_exact(
        self, family, family_graphs, batch_counts
    ):
        g, delta = family_graphs[family]
        counter = StreamingCatalogCounter(CATALOG, delta)
        edges = _edges_of(g)
        for lo in range(0, len(edges), 17):
            counter.add_batch(edges[lo:lo + 17])
        assert counter.counts == {
            motif.name: batch_counts[(family, motif.name)]
            for motif in CATALOG
        }

    def test_grid_counter_equals_grid_census(self, family_graphs):
        g, delta = family_graphs["email-eu"]
        grid = paranjape_grid()
        counter = StreamingCatalogCounter(list(grid.values()), delta)
        counter.add_batch(_edges_of(g))
        counts = counter.counts
        assert {
            cell: counts[motif.name] for cell, motif in grid.items()
        } == grid_census(g, delta)


class TestDeltaBoundarySharedCases:
    """The shared adversarial cases, exercised through the streaming
    backend the same way ``test_property.py`` runs the batch backends."""

    @pytest.mark.parametrize(
        "case", DELTA_BOUNDARY_CASES, ids=lambda c: c.name
    )
    def test_streaming_matches_expected(self, case):
        assert (
            COUNT_BACKENDS["streaming"](case.graph(), case.motif, case.delta)
            == case.expected
        )

    @pytest.mark.parametrize(
        "case", DELTA_BOUNDARY_CASES, ids=lambda c: c.name
    )
    def test_streaming_batchsize_one_and_all(self, case):
        g = case.graph()
        edges = _edges_of(g)
        one = StreamingCounter(case.motif, case.delta)
        for e in edges:
            one.add_edge(*e)
        allatonce = StreamingCounter(case.motif, case.delta)
        allatonce.add_batch(edges)
        assert one.count == allatonce.count == case.expected


@st.composite
def raw_edge_streams(draw, max_nodes=6, max_edges=24, max_time=40):
    """Time-sorted raw edge lists with duplicate timestamps and
    self-loops — the inputs that stress uniquification and filtering."""
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


class TestRandomizedDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        raw_edge_streams(),
        st.sampled_from([M1, M2, PING_PONG]),
        st.integers(0, 50),
    )
    def test_streaming_equals_mackey_on_raw_streams(self, stream, motif, delta):
        n, edges = stream
        g = TemporalGraph(edges, num_nodes=n)
        counter = StreamingCounter(motif, delta)
        for s, d, t in edges:
            counter.add_edge(s, d, t)
        assert counter.count == count_motifs(g, motif, delta)
        # The incremental nudge reproduces the batch uniquification.
        assert counter.snapshot().ts.tolist() == g.ts.tolist()

    @settings(max_examples=30, deadline=None)
    @given(raw_edge_streams(), st.integers(0, 50), st.integers(1, 9))
    def test_streaming_batching_invariant_on_raw_streams(
        self, stream, delta, batch_size
    ):
        n, edges = stream
        batched = StreamingCounter(M1, delta)
        i = 0
        while i < len(edges):
            batched.add_batch(edges[i : i + batch_size])
            i += batch_size
        assert batched.count == COUNT_BACKENDS["streaming"](
            TemporalGraph(edges, num_nodes=n), M1, delta
        )

    def test_out_of_order_edge_rejected(self):
        counter = StreamingCounter(M1, 10)
        counter.add_edge(0, 1, 100)
        with pytest.raises(ValueError, match="out-of-order"):
            counter.add_edge(1, 2, 99)
