"""Unit and property tests for the :mod:`repro.cluster` building blocks.

Three layers, bottom up:

- :class:`HashRing` — deterministic consistent-hash placement.  The
  property suite asserts *exact* invariants, not statistical hopes:
  placement is independent of insertion order and of the process that
  computes it, and on a join/leave every key whose owner changes moves
  to/from exactly the changed slot.
- Shard split/merge — mining a root range in arbitrary partitions and
  merging in arbitrary order is byte-identical to mining it whole (the
  commutativity the cluster's retry/failover machinery relies on).
- :class:`MiningCluster` / :class:`ClusterExecutor` — constructor
  validation, lifecycle, and respawn-backoff timing driven by a fake
  clock so no test sleeps real seconds.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_temporal_graph
from repro.cluster import (
    ClusterExecutor,
    ClusterFailed,
    DEFAULT_VNODES,
    HashRing,
    MiningCluster,
    slot_name,
)
from repro.mining.dispatch import ResidentGraph
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1, PING_PONG
from repro.resilience import FaultPlan

# -- hash ring ----------------------------------------------------------------

slot_names = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=8,
    unique=True,
)
keys = st.lists(
    st.text(alphabet="0123456789abcdef", min_size=8, max_size=32),
    min_size=1,
    max_size=32,
    unique=True,
)


class TestHashRing:
    @settings(max_examples=50, deadline=None)
    @given(slot_names, keys, st.randoms(use_true_random=False))
    def test_placement_independent_of_insertion_order(self, slots, ks, rng):
        """The ring is a pure function of its member set: shuffling the
        insertion order never changes any key's placement."""
        a = HashRing(slots, vnodes=16)
        shuffled = list(slots)
        rng.shuffle(shuffled)
        b = HashRing(shuffled, vnodes=16)
        for key in ks:
            assert a.nodes_for(key, len(slots)) == b.nodes_for(key, len(slots))

    @settings(max_examples=50, deadline=None)
    @given(slot_names, keys)
    def test_join_moves_keys_only_to_the_new_slot(self, slots, ks):
        """Adding one slot: a key's primary either stays put or moves TO
        the new slot — never between two old slots.  (The exact 1/N
        stability invariant, stated as set membership.)"""
        ring = HashRing(slots, vnodes=16)
        before = {k: ring.node_for(k) for k in ks}
        ring.add("joined-slot")
        for k in ks:
            after = ring.node_for(k)
            if after != before[k]:
                assert after == "joined-slot"

    @settings(max_examples=50, deadline=None)
    @given(slot_names, keys, st.data())
    def test_leave_moves_only_the_dead_slots_keys(self, slots, ks, data):
        """Removing one slot: only keys it owned change primary."""
        if len(slots) < 2:
            return
        ring = HashRing(slots, vnodes=16)
        victim = data.draw(st.sampled_from(slots))
        before = {k: ring.node_for(k) for k in ks}
        ring.remove(victim)
        for k in ks:
            after = ring.node_for(k)
            if after != before[k]:
                assert before[k] == victim
            else:
                assert before[k] != victim

    def test_moved_fraction_is_about_one_over_n(self):
        """Joining the 9th slot of 8 moves roughly 1/9 of 4000 keys —
        generously bounded (fixed seed, no flake)."""
        rng = random.Random(11)
        ring = HashRing((slot_name(i) for i in range(8)))
        ks = ["%032x" % rng.getrandbits(128) for _ in range(4000)]
        before = {k: ring.node_for(k) for k in ks}
        ring.add(slot_name(8))
        moved = sum(1 for k in ks if ring.node_for(k) != before[k])
        assert 0 < moved < len(ks) * 0.25  # expectation is 1/9 ≈ 0.111

    def test_deterministic_across_processes(self):
        """A fresh interpreter derives the identical placement — no
        dependence on hash randomization or process state."""
        ks = [f"{i:032x}" for i in range(40)]
        script = (
            "from repro.cluster import HashRing, slot_name\n"
            "r = HashRing(slot_name(i) for i in range(5))\n"
            f"print([r.nodes_for(k, 2) for k in {ks!r}])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        here = HashRing(slot_name(i) for i in range(5))
        assert out == str([here.nodes_for(k, 2) for k in ks])

    def test_nodes_for_returns_k_distinct_slots(self):
        ring = HashRing(slot_name(i) for i in range(4))
        owners = ring.nodes_for("somekey", 3)
        assert len(owners) == 3 and len(set(owners)) == 3
        assert ring.node_for("somekey") == owners[0]
        # k beyond the ring degenerates to "every slot, ring order".
        assert sorted(ring.nodes_for("somekey", 99)) == ring.slots

    def test_successors_excludes(self):
        ring = HashRing(slot_name(i) for i in range(4))
        placed = set(ring.nodes_for("k", 2))
        rest = ring.successors("k", exclude=placed)
        assert not placed & set(rest)
        assert set(rest) == set(ring.slots) - placed

    def test_validation_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.add("")
        with pytest.raises(KeyError):
            ring.remove("zzz")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(ValueError):
            ring.nodes_for("k", 0)
        with pytest.raises(KeyError):
            HashRing([]).node_for("k")

    def test_default_vnodes_balance(self):
        """With the default vnode count, no slot of 6 owns a wildly
        disproportionate share of keys (load ratio sanity, fixed seed)."""
        rng = random.Random(5)
        ring = HashRing((slot_name(i) for i in range(6)), vnodes=DEFAULT_VNODES)
        loads = {s: 0 for s in ring.slots}
        for _ in range(6000):
            loads[ring.node_for("%032x" % rng.getrandbits(128))] += 1
        assert max(loads.values()) < 3 * (6000 // 6)


# -- shard split/merge commutativity ------------------------------------------

@st.composite
def partitions(draw, m):
    """A random partition of [0, m) into contiguous chunks."""
    cuts = draw(
        st.lists(st.integers(0, m), min_size=0, max_size=6, unique=True)
    )
    edges = sorted(set([0, m] + cuts))
    return list(zip(edges, edges[1:]))


class TestShardSplitMerge:
    """Mining root ranges in any split, merged in any order, equals the
    whole-range serial result — counts AND counters.  This runs the
    actual worker-side chunk body (:meth:`ResidentGraph.run`), so it is
    the exact computation a retried/failed-over chunk re-executes."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([M1, PING_PONG]),
        st.data(),
    )
    def test_split_merge_commutes(self, seed, motif, data):
        rng = random.Random(seed)
        graph = random_temporal_graph(rng, 12, 80, time_range=120)
        delta = 40
        serial = MackeyMiner(graph, motif, delta).mine()
        resident = ResidentGraph(graph)
        chunks = data.draw(partitions(graph.num_edges))
        data.draw(st.randoms(use_true_random=False)).shuffle(chunks)
        from repro.comine.engine import FamilyResult
        from repro.comine.trie import MotifTrie

        merged = FamilyResult.empty(MotifTrie([motif]))
        for lo, hi in chunks:
            payload = resident.run(1, "family", (motif.edges,), delta, lo, hi)
            merged.merge(FamilyResult.from_payload(payload))
        assert merged.counts[0] == serial.count
        assert merged.per_motif[0].as_dict() == serial.counters.as_dict()


# -- fake-clock supervision ---------------------------------------------------

class FakeClock:
    """Deterministic time: ``sleep`` advances ``clock`` instantly."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestMiningClusterUnits:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MiningCluster(0)
        with pytest.raises(ValueError):
            MiningCluster(2, replication=3)
        with pytest.raises(ValueError):
            MiningCluster(2, replication=0)
        with pytest.raises(ValueError):
            MiningCluster(2, chunk_timeout_s=0)
        with pytest.raises(ValueError):
            MiningCluster(2, max_chunk_errors=0)

    def test_executor_validation(self):
        with pytest.raises(ValueError):
            ClusterExecutor()  # neither cluster nor num_nodes
        with pytest.raises(ValueError):
            ClusterExecutor(object(), num_nodes=2)  # both
        with pytest.raises(ValueError):
            ClusterExecutor(object(), seed=3)  # kwargs with shared cluster

    def test_fresh_cluster_service_reports_zeroed_cluster_counters(self):
        """/metrics must carry the cluster's supervision counters from
        the start, not only after the first node death or failover."""
        from repro.service import MotifService
        from repro.service.metrics import ServiceMetrics

        cluster_keys = ("node_deaths", "graph_ships", "failovers")
        fresh = ServiceMetrics().as_dict()
        assert [fresh[k] for k in cluster_keys] == [0, 0, 0]
        with MotifService(executor=ClusterExecutor(num_nodes=1)) as svc:
            metrics = svc.metrics().as_dict()
            assert [metrics[k] for k in cluster_keys] == [0, 0, 0]
            rng = random.Random(35)
            svc.register_graph(random_temporal_graph(rng, 10, 40), name="g")
            assert svc.query("g", M1, 30).ok
            assert svc.metrics().graph_ships == 1

    def test_respawn_backoff_runs_on_fake_time(self):
        """A one-node cluster whose node dies mid-run, with a backoff so
        long (60 s base) that real-time respawn would stall the suite:
        the injectable clock/sleep completes it immediately.  The
        respawned process re-receives the graph and finishes the run
        byte-identically."""
        rng = random.Random(31)
        graph = random_temporal_graph(rng, 20, 250, time_range=300)
        serial = MackeyMiner(graph, M1, 60).mine()
        fake = FakeClock()
        plan = FaultPlan.kill_worker(0, at_chunk=2, site="node.chunk")
        with MiningCluster(
            1,
            fault_plan=plan,
            respawn_budget=50,
            backoff_base_s=60.0,
            backoff_cap_s=120.0,
            clock=fake.clock,
            sleep=fake.sleep,
        ) as cluster:
            result = cluster.count(graph, M1, 60, chunks_per_worker=2)
            stats = cluster.stats.as_dict()
        assert result.count == serial.count
        assert result.counters.as_dict() == serial.counters.as_dict()
        assert stats["node_deaths"] >= 1
        assert stats["respawns"] >= 1
        # The graph was re-shipped to each respawned process.
        assert stats["graph_ships"] == 1 + stats["respawns"]
        # The long backoff elapsed on the fake clock, not in real time.
        assert fake.now >= 30.0
        assert fake.sleeps, "backoff should have slept on the fake clock"

    def test_budget_exhaustion_fails_cleanly_on_fake_time(self):
        """Every respawned process dies at its first chunk; once the
        budget is spent a single-node cluster has nowhere to fail over
        and must raise ClusterFailed — again without real sleeping."""
        rng = random.Random(32)
        graph = random_temporal_graph(rng, 15, 120, time_range=200)
        fake = FakeClock()
        plan = FaultPlan.kill_every_worker(at_chunk=1, site="node.chunk")
        with MiningCluster(
            1,
            fault_plan=plan,
            respawn_budget=2,
            backoff_base_s=60.0,
            backoff_cap_s=120.0,
            clock=fake.clock,
            sleep=fake.sleep,
        ) as cluster:
            with pytest.raises(ClusterFailed):
                cluster.count(graph, M1, 60)
            assert cluster.broken
            stats = cluster.stats.as_dict()
        assert stats["respawns"] == 2
        assert stats["node_deaths"] == 3  # initial + both respawns
        assert fake.sleeps

    def test_closed_cluster_refuses_work(self):
        rng = random.Random(33)
        graph = random_temporal_graph(rng, 10, 40)
        cluster = MiningCluster(1)
        cluster.close()
        assert cluster.closed
        with pytest.raises(RuntimeError):
            cluster.count(graph, M1, 50)
        cluster.close()  # idempotent

    def test_placement_is_ring_derived_and_stable(self):
        """ensure_graph places on the ring's slots for the fingerprint;
        drop_graph forgets; re-ensuring reproduces the same placement."""
        rng = random.Random(34)
        graph = random_temporal_graph(rng, 10, 60)
        fp = graph.fingerprint()
        with MiningCluster(3, replication=2) as cluster:
            assert cluster.placement(fp) == ()
            cluster.ensure_graph(graph)
            placed = cluster.placement(fp)
            assert len(placed) == 2
            expected = [
                int(name.split("-", 1)[1])
                for name in cluster.ring.nodes_for(fp, 2)
            ]
            assert list(placed) == expected
            cluster.drop_graph(fp)
            assert cluster.placement(fp) == ()
            cluster.ensure_graph(graph)
            assert cluster.placement(fp) == placed
