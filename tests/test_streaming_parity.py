"""Differential property suite: the streaming engine vs the batch oracle.

The streaming subsystem has no paper figure to match — its correctness
claim is *exact parity with the batch miners*: full replays of every
generator family × catalog motif, every batching, prefix replays, per
edge and per slot completions of a shared multi-slot engine, the
catalog and grid counters, hypothesis-randomized raw streams and the
shared δ-boundary cases.  Those are the stream cells of the correctness
matrix (``tests/parity_matrix.py``), run here under the ids they always
had.  Beside them: snapshots are byte-identical to batch-built
``TemporalGraph``s (arrays + CSR), and out-of-order edges are refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from parity_matrix import STREAM_SCALES, edges_of, former_tests
from repro.graph.generators import make_dataset
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.mackey import count_motifs
from repro.motifs.catalog import M1, M2
from repro.streaming import StreamingCounter


def family_graph(name):
    g = make_dataset(name, scale=STREAM_SCALES[name], seed=11)
    return g, max(1, g.time_span // 40)


class TestPrefixReplay:
    @pytest.mark.parametrize("family", ["email-eu", "superuser"])
    def test_snapshot_byte_identical_to_batch_graph(self, family):
        g, delta = family_graph(family)
        counter = StreamingCounter(M1, delta)
        counter.add_batch(edges_of(g))
        snap = counter.snapshot()
        # The stream only knows nodes it has seen, so compare against a
        # batch graph with the same inferred node count.
        want = TemporalGraph(edges_of(g))
        assert snap.num_nodes == want.num_nodes
        for attr in (
            "src", "dst", "ts",
            "out_offsets", "out_edge_idx", "in_offsets", "in_edge_idx",
        ):
            assert np.array_equal(
                getattr(snap, attr), getattr(want, attr)
            ), f"{attr} diverged"

    def test_snapshot_minable_by_batch_miners_midstream(self):
        g, delta = family_graph("ask-ubuntu")
        edges = edges_of(g)
        counter = StreamingCounter(M2, delta)
        counter.add_batch(edges[: len(edges) // 3])
        snap = counter.snapshot()
        assert count_motifs(snap, M2, delta) == counter.count
        # Keep streaming after the snapshot: the counter is unaffected.
        counter.add_batch(edges[len(edges) // 3 :])
        assert counter.count == count_motifs(g, M2, delta)


class TestRandomizedDifferential:
    def test_out_of_order_edge_rejected(self):
        counter = StreamingCounter(M1, 10)
        counter.add_edge(0, 1, 100)
        with pytest.raises(ValueError, match="out-of-order"):
            counter.add_edge(1, 2, 99)


former_tests(globals())
