"""Chaos parity: injected worker deaths never change a single count.

The acceptance property from the issue: for seeded fault plans killing
1..N-1 of N workers mid-``count_many``, across the motif catalog, the
supervised pool's counts (and search counters) stay byte-identical to
the serial miner.  Plans are seeded, so every run replays the same
failure schedule — chaos tests are ordinary deterministic tests.

The ``repro chaos`` CLI wraps exactly this experiment for operators;
its exit code is pinned here too.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.graph.loaders import save_snap_text
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import EVALUATION_MOTIFS, EXTRA_MOTIFS
from repro.resilience import FaultPlan
from repro.mining.parallel import MiningPool as SupervisedMiningPool
from repro.service import build_payload, payload_bytes
from tests.conftest import random_temporal_graph

DELTA = 60
WORKERS = 3
CATALOG = tuple(EVALUATION_MOTIFS) + tuple(EXTRA_MOTIFS)


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(23)
    return random_temporal_graph(rng, 50, 900, time_range=700)


@pytest.fixture(scope="module")
def expected(graph):
    """Serial ground truth as canonical payload bytes per motif."""
    out = {}
    fp = graph.fingerprint()
    for motif in CATALOG:
        r = MackeyMiner(graph, motif, DELTA).mine()
        out[motif.name] = payload_bytes(
            build_payload(fp, motif, DELTA, r.count, r.counters.as_dict())
        )
    return out


def survived_payloads(graph, results, motifs):
    fp = graph.fingerprint()
    return [
        payload_bytes(
            build_payload(fp, m, DELTA, r.count, r.counters.as_dict())
        )
        for m, r in zip(motifs, results)
    ]


@pytest.mark.timeout(300)
class TestChaosParity:
    @pytest.mark.parametrize("kills", range(1, WORKERS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_killing_k_of_n_workers_preserves_byte_parity(
        self, graph, expected, kills, seed
    ):
        plan = FaultPlan.random_kills(seed, WORKERS, kills)
        with SupervisedMiningPool(
            graph, WORKERS, fault_plan=plan, backoff_base_s=0.01,
        ) as pool:
            results = pool.count_many(list(CATALOG), DELTA)
            got = survived_payloads(graph, results, CATALOG)
            assert got == [expected[m.name] for m in CATALOG]
            # The catalog is wide enough that every planned kill
            # actually fired (each victim saw >= max_chunk chunks).
            assert pool.stats.worker_deaths == kills
            assert pool.stats.chunk_retries >= kills

    def test_deaths_during_one_run_do_not_taint_the_next(self, graph, expected):
        plan = FaultPlan.kill_worker(1, at_chunk=3)
        with SupervisedMiningPool(
            graph, WORKERS, fault_plan=plan, backoff_base_s=0.01,
        ) as pool:
            first = pool.count_many(list(CATALOG), DELTA)
            second = pool.count_many(list(CATALOG), DELTA)
            for results in (first, second):
                got = survived_payloads(graph, results, CATALOG)
                assert got == [expected[m.name] for m in CATALOG]
            assert pool.stats.worker_deaths == 1


@pytest.mark.timeout(300)
class TestChaosCLI:
    @pytest.fixture()
    def graph_file(self, graph, tmp_path):
        path = tmp_path / "chaos.txt"
        save_snap_text(graph, path)
        return str(path)

    def test_chaos_run_reports_parity(self, graph_file, capsys):
        rc = main([
            "chaos", graph_file, "--delta", str(DELTA),
            "--workers", "3", "--kills", "2", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parity" in out and "OK" in out
        assert "injected kills" in out

    def test_chaos_zero_kills_is_a_smoke_run(self, graph_file, capsys):
        rc = main([
            "chaos", graph_file, "--delta", str(DELTA),
            "--workers", "2", "--kills", "0",
        ])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_chaos_rejects_more_kills_than_workers(self, graph_file, capsys):
        rc = main([
            "chaos", graph_file, "--delta", str(DELTA),
            "--workers", "2", "--kills", "3",
        ])
        assert rc == 2
