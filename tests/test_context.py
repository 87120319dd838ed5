"""Tests for the task context (paper §IV-B)."""

import pytest

from repro.mining.context import MiningContext
from repro.motifs.catalog import M1, TWO_CYCLE_RETURN
from repro.motifs.motif import Motif


@pytest.fixture
def ctx():
    return MiningContext(M1, delta=25)


class TestBookkeeping:
    def test_initial_state(self, ctx):
        assert ctx.depth == 0
        assert ctx.last_edge == -1
        assert ctx.t_limit is None
        assert not ctx.is_complete()
        assert ctx.node_map() == (-1, -1, -1)

    def test_first_bookkeep_sets_window(self, ctx):
        ctx.bookkeep(0, 10, 11, t=100)
        assert ctx.depth == 1
        assert ctx.t_limit == 125
        assert ctx.graph_node(0) == 10
        assert ctx.graph_node(1) == 11
        assert ctx.motif_node(10) == 0
        assert ctx.motif_node(99) == -1

    def test_full_motif_lifecycle(self, ctx):
        ctx.bookkeep(0, 10, 11, t=100)  # A->B
        ctx.bookkeep(1, 11, 12, t=110)  # B->C
        ctx.bookkeep(2, 12, 10, t=120)  # C->A
        assert ctx.is_complete()
        assert ctx.node_map() == (10, 11, 12)
        ctx.backtrack(12, 10)
        assert ctx.depth == 2
        # Nodes 12 and 10 are still held by earlier edges.
        assert ctx.graph_node(2) == 12
        ctx.backtrack(11, 12)
        assert ctx.graph_node(2) == -1  # node 12 freed
        ctx.backtrack(10, 11)
        assert ctx.depth == 0
        assert ctx.t_limit is None
        assert ctx.node_map() == (-1, -1, -1)

    def test_backtrack_on_empty_raises(self, ctx):
        with pytest.raises(RuntimeError):
            ctx.backtrack(0, 1)

    def test_edge_count_keeps_shared_nodes(self):
        ctx = MiningContext(TWO_CYCLE_RETURN, delta=100)
        ctx.bookkeep(0, 5, 6, t=0)  # A->B
        ctx.bookkeep(1, 6, 5, t=1)  # B->A
        ctx.backtrack(6, 5)
        # Both nodes still mapped by edge 0.
        assert ctx.graph_node(0) == 5
        assert ctx.graph_node(1) == 6


class TestAccepts:
    def test_structural_match_required(self, ctx):
        ctx.bookkeep(0, 10, 11, t=100)  # next edge must be 11 -> fresh
        assert ctx.accepts(11, 12, 105)
        assert not ctx.accepts(12, 13, 105)  # src must be node 11
        assert not ctx.accepts(11, 10, 105)  # dst 10 already mapped to A
        assert not ctx.accepts(11, 11, 105)  # dst must differ from src

    def test_temporal_window_enforced(self, ctx):
        ctx.bookkeep(0, 10, 11, t=100)
        assert ctx.accepts(11, 12, 125)  # inclusive bound
        assert not ctx.accepts(11, 12, 126)

    def test_both_endpoints_fresh(self):
        m = Motif([(0, 1), (2, 3)])  # disconnected second edge
        ctx = MiningContext(m, delta=50)
        ctx.bookkeep(0, 1, 2, t=0)
        assert ctx.accepts(3, 4, 10)
        assert not ctx.accepts(3, 3, 10)  # same graph node for two motif nodes
        assert not ctx.accepts(1, 4, 10)  # node 1 already mapped
