"""Byte-parity of the vectorised walker against the scalar miner.

``BatchedMiner`` is the family-of-one binding of the vectorised trie
walk.  Its parity checks (serial over the catalog and the generator
families, any root block, any chunking, pooled, under worker kills and
in the service lanes) are cells of the correctness matrix
(``tests/parity_matrix.py``), run here under the ids they always had.
Plus the binding's own edge contracts: cancel_check honored
mid-frontier and input validation.
"""

from __future__ import annotations

import pytest

from parity_matrix import CATALOG, case, former_tests
from repro.mining.batched import BatchedMiner
from repro.mining.mackey import MackeyMiner
from repro.mining.parallel import MiningPool
from repro.mining.parallel import MiningPool as SupervisedMiningPool
from repro.mining.results import MiningCancelled

DELTA = 60


@pytest.fixture(scope="module")
def graph():
    return case("rand17").graph


class TestSerialParity:
    def test_validation(self, graph):
        with pytest.raises(ValueError):
            BatchedMiner(graph, CATALOG[0], -1)
        with pytest.raises(ValueError):
            BatchedMiner(graph, CATALOG[0], DELTA, root_block=0)


class TestChunkedParity:
    def test_out_of_range_chunks_are_empty(self, graph):
        miner = BatchedMiner(graph, CATALOG[0], DELTA)
        for lo, hi in ((-5, 0), (graph.num_edges, graph.num_edges + 9)):
            r = miner.mine_range(lo, hi)
            assert r.count == 0
            assert r.counters.root_tasks == 0


class TestCancellation:
    def test_cancel_check_honored_mid_frontier(self, graph):
        # A tiny root block forces many poll points; cancelling after a
        # few polls must abort from *inside* the frontier loop.
        polls = {"n": 0}

        def cancel() -> bool:
            polls["n"] += 1
            return polls["n"] > 3

        miner = BatchedMiner(
            graph, CATALOG[0], DELTA, root_block=8, cancel_check=cancel
        )
        with pytest.raises(MiningCancelled):
            miner.mine()
        assert polls["n"] > 3

    def test_never_cancelled_runs_clean(self, graph):
        miner = BatchedMiner(
            graph, CATALOG[0], DELTA, cancel_check=lambda: False
        )
        scalar = MackeyMiner(graph, CATALOG[0], DELTA).mine()
        assert miner.mine().count == scalar.count


class TestPooledParity:
    def test_unknown_engine_rejected(self, graph):
        with MiningPool(graph, 1) as pool:
            with pytest.raises(ValueError):
                pool.count_many([CATALOG[0]], DELTA, engine="quantum")


@pytest.mark.timeout(300)
class TestSupervisedChaosParity:
    def test_supervised_engine_validation(self, graph):
        with SupervisedMiningPool(graph, 1) as pool:
            with pytest.raises(ValueError):
                pool.count_many([CATALOG[0]], DELTA, engine="quantum")


former_tests(globals())
