"""Tests for streaming match consumption (``MackeyMiner(on_match=...)``)."""

from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1, PING_PONG


class TestOnMatchCallback:
    def test_callback_sees_every_match(self, tiny_graph):
        seen = []
        result = MackeyMiner(tiny_graph, M1, 30, on_match=seen.append).mine()
        assert len(seen) == result.count == 2

    def test_callback_matches_equal_recorded(self, burst_graph):
        seen = []
        recorded = MackeyMiner(
            burst_graph, PING_PONG, 8, record_matches=True,
            on_match=seen.append,
        ).mine()
        assert [m.edge_indices for m in seen] == [
            m.edge_indices for m in recorded.matches
        ]

    def test_callback_without_recording(self, burst_graph):
        seen = []
        result = MackeyMiner(burst_graph, PING_PONG, 8, on_match=seen.append).mine()
        assert result.matches is None
        assert len(seen) == result.count
