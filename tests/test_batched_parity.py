"""Byte-parity of the vectorised walker against the scalar miner.

``BatchedMiner`` is the family-of-one binding of the vectorised trie
walk (``repro.comine.engine``; its trie-shaped cells live in
``test_comine.py``).  The contract: counts AND every `SearchCounters`
field must be byte-identical to `MackeyMiner` — compared here as the
canonical service payload bytes, so any drift in counts, counters, or
their serialization fails.  It is checked everywhere the walker runs:

- serial, across the motif catalog and the synthetic generator families;
- chunked ``mine_range`` with commutative merge (any chunking);
- pooled (``MiningPool`` with ``engine="batched"``: one family chunk
  per root range);
- supervised with injected worker kills (family chunks retried across
  deaths);
- service batch lanes (``InlineExecutor``/``PoolExecutor``, which have
  no other engine: a singleton batch is a family of one).

Plus the binding's own edge contracts: cancel_check honored mid-frontier
and input validation.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import make_dataset
from repro.mining.batched import BatchedMiner
from repro.mining.mackey import MackeyMiner
from repro.mining.parallel import MiningCancelled, MiningPool
from repro.mining.results import SearchCounters
from repro.motifs.catalog import EVALUATION_MOTIFS, EXTRA_MOTIFS
from repro.resilience import FaultPlan
from repro.resilience.supervisor import SupervisedMiningPool
from repro.service import build_payload, payload_bytes
from tests.conftest import random_temporal_graph

DELTA = 60
WORKERS = 3
CATALOG = tuple(EVALUATION_MOTIFS) + tuple(EXTRA_MOTIFS)


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(17)
    return random_temporal_graph(rng, 40, 700, time_range=600)


def payload(graph, motif, count, counters) -> bytes:
    return payload_bytes(
        build_payload(
            graph.fingerprint(), motif, DELTA, count, counters.as_dict()
        )
    )


def scalar_payloads(graph, motifs):
    out = {}
    for motif in motifs:
        r = MackeyMiner(graph, motif, DELTA).mine()
        out[motif.name] = payload(graph, motif, r.count, r.counters)
    return out


class TestSerialParity:
    def test_catalog_byte_parity(self, graph):
        expected = scalar_payloads(graph, CATALOG)
        for motif in CATALOG:
            r = BatchedMiner(graph, motif, DELTA, root_block=64).mine()
            got = payload(graph, motif, r.count, r.counters)
            assert got == expected[motif.name], motif.name

    @pytest.mark.parametrize(
        "name", ["email-eu", "mathoverflow", "wiki-talk"]
    )
    def test_generator_family_byte_parity(self, name):
        g = make_dataset(name, scale=0.03, seed=11)
        delta = max(1, g.time_span // 25)
        for motif in EVALUATION_MOTIFS:
            scalar = MackeyMiner(g, motif, delta).mine()
            batched = BatchedMiner(g, motif, delta).mine()
            assert batched.count == scalar.count, (name, motif.name)
            assert (
                batched.counters.as_dict() == scalar.counters.as_dict()
            ), (name, motif.name)

    def test_root_block_never_changes_results(self, graph):
        motif = CATALOG[0]
        baseline = BatchedMiner(graph, motif, DELTA, root_block=4096).mine()
        for block in (1, 3, 17, 100):
            r = BatchedMiner(graph, motif, DELTA, root_block=block).mine()
            assert r.count == baseline.count
            assert r.counters.as_dict() == baseline.counters.as_dict()

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            BatchedMiner(graph, CATALOG[0], -1)
        with pytest.raises(ValueError):
            BatchedMiner(graph, CATALOG[0], DELTA, root_block=0)


class TestChunkedParity:
    def test_any_chunking_merges_to_the_full_run(self, graph):
        motif = CATALOG[1]
        full = BatchedMiner(graph, motif, DELTA).mine()
        for step in (1, 7, 50, 333, graph.num_edges + 10):
            miner = BatchedMiner(graph, motif, DELTA, root_block=23)
            total, merged = 0, SearchCounters()
            for lo in range(0, graph.num_edges, step):
                chunk = miner.mine_range(lo, lo + step)
                total += chunk.count
                merged.merge(chunk.counters)
            assert total == full.count, step
            assert merged.as_dict() == full.counters.as_dict(), step

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
    def test_mining_pool_batched_engine_byte_parity(self, graph):
        expected = scalar_payloads(graph, CATALOG[:4])
        with MiningPool(graph, 2) as pool:
            results = pool.count_many(
                list(CATALOG[:4]), DELTA, engine="batched"
            )
            # One family chunk per root range, not one per (motif, range).
            assert pool.stats.chunks_completed == results[0].num_chunks > 1
        for motif, r in zip(CATALOG[:4], results):
            got = payload(graph, motif, r.count, r.counters)
            assert got == expected[motif.name], motif.name

    def test_unknown_engine_rejected(self, graph):
        with MiningPool(graph, 1) as pool:
            with pytest.raises(ValueError):
                pool.count_many([CATALOG[0]], DELTA, engine="quantum")


@pytest.mark.timeout(300)
class TestSupervisedChaosParity:
    def test_batched_chunks_survive_worker_kills(self, graph):
        """Family chunks under injected deaths, for a batch and for a
        family in the same pool lifetime: byte parity must hold for both."""
        expected = scalar_payloads(graph, CATALOG)
        plan = FaultPlan.random_kills(5, WORKERS, WORKERS - 1)
        with SupervisedMiningPool(
            graph, WORKERS, fault_plan=plan, backoff_base_s=0.01,
        ) as pool:
            results = pool.count_many(list(CATALOG), DELTA, engine="batched")
            for motif, r in zip(CATALOG, results):
                got = payload(graph, motif, r.count, r.counters)
                assert got == expected[motif.name], motif.name
            fam = pool.count_family(list(EVALUATION_MOTIFS), DELTA)
            for motif, r in zip(EVALUATION_MOTIFS, fam.results):
                got = payload(graph, motif, r.count, r.counters)
                assert got == expected[motif.name], motif.name
            assert pool.stats.worker_deaths == WORKERS - 1

    def test_supervised_engine_validation(self, graph):
        with SupervisedMiningPool(graph, 1) as pool:
            with pytest.raises(ValueError):
                pool.count_many([CATALOG[0]], DELTA, engine="quantum")


class TestServiceLaneParity:
    def test_inline_executor_batched_backend(self, graph):
        from repro.service.executor import InlineExecutor

        expected = scalar_payloads(graph, CATALOG[:3])
        ex = InlineExecutor()
        for motif in CATALOG[:3]:
            [(count, counters)] = ex.count_batch(graph, [motif], DELTA)
            got = payload_bytes(
                build_payload(
                    graph.fingerprint(), motif, DELTA, count, counters
                )
            )
            assert got == expected[motif.name], motif.name

    def test_pool_executor_batched_backend(self, graph):
        from repro.service.executor import PoolExecutor

        expected = scalar_payloads(graph, CATALOG[:3])
        ex = PoolExecutor(2)
        try:
            # A singleton batch is a family of one: one family chunk per
            # root range on the workers.
            items = [
                item for motif in CATALOG[:3]
                for item in ex.count_batch(graph, [motif], DELTA)
            ]
        finally:
            ex.close()
        for motif, (count, counters) in zip(CATALOG[:3], items):
            got = payload_bytes(
                build_payload(
                    graph.fingerprint(), motif, DELTA, count, counters
                )
            )
            assert got == expected[motif.name], motif.name
