"""Chaos drill for live ingestion: seeded mid-batch kills, idempotent
resume, and subscription re-fire parity — plus the CLI entry points.

The drill is the one feed driver, :func:`run_live_feed`, run over its
self-hosted HTTP front door with a :func:`build_live_chaos_plan` plan
installed: every injected crash answers HTTP 500 and the producer
re-sends the same ``seq``."""

import pytest

from repro.cli import main
from repro.graph.generators import make_dataset
from repro.live.driver import build_live_chaos_plan, check_feed, run_live_feed
from repro.live.ingest import LiveGraph
from repro.resilience.faults import FaultPlan, InjectedFault


@pytest.fixture(scope="module")
def feed_graph():
    return make_dataset("wiki-talk", scale=0.012, seed=5)


def feed_delta(g):
    return max(1, g.time_span // 40)


def chaos_feed(graph, *, kills, seed, num_subs, batch_size=25):
    """``repro chaos --live``: the feed with the seeded plan installed."""
    delta = feed_delta(graph)
    num_batches = check_feed(graph.num_edges, delta=delta,
                             num_subs=num_subs, batch_size=batch_size)
    plan, failures = build_live_chaos_plan(num_batches, kills, seed)
    with plan.installed():
        report = run_live_feed(graph, delta=delta, num_subs=num_subs,
                               batch_size=batch_size)
    # The crash sites the producer saw are the ones the plan scheduled.
    assert report["failures"] == failures
    return report


class TestIngestFaultSites:
    def test_begin_fault_leaves_no_trace(self):
        live = LiveGraph("g", delta=10)
        plan = FaultPlan.raise_at("live.ingest", [1])
        with plan.installed():
            with pytest.raises(InjectedFault):
                live.append_batch([(0, 1, 5)], seq=0)
            assert live.buffer.num_edges == 0 and live.version == 0
            # Retry succeeds and applies exactly once.
            ack = live.append_batch([(0, 1, 5)], seq=0)
        assert not ack["duplicate"] and live.buffer.num_edges == 1

    def test_ack_fault_commits_then_retry_dedupes(self):
        live = LiveGraph("g", delta=10)
        plan = FaultPlan.raise_at("live.ingest.ack", [1])
        with plan.installed():
            with pytest.raises(InjectedFault):
                live.append_batch([(0, 1, 5)], seq=0)
            # The batch committed before the crash point.
            assert live.buffer.num_edges == 1 and live.version == 1
            ack = live.append_batch([(0, 1, 5)], seq=0)
        assert ack["duplicate"] and ack["version"] == 1
        assert live.buffer.num_edges == 1

    def test_fault_context_carries_graph_and_seq(self):
        seen = []
        live = LiveGraph("g", delta=10)
        plan = FaultPlan([])
        orig = plan.on
        plan.on = lambda site, **ctx: (seen.append((site, ctx)),
                                       orig(site, **ctx))[-1]
        with plan.installed():
            live.append_batch([(0, 1, 5)], seq=7)
        sites = dict(seen)
        assert sites["live.ingest"] == {"graph": "g", "batch": 7}
        assert sites["live.ingest.ack"] == {"graph": "g", "batch": 7}


class TestChaosPlan:
    def test_plan_is_deterministic_and_mixed(self):
        plan_a, fail_a = build_live_chaos_plan(12, kills=4, seed=9)
        plan_b, fail_b = build_live_chaos_plan(12, kills=4, seed=9)
        assert [(s.site, s.at_call) for s in plan_a.specs] == \
            [(s.site, s.at_call) for s in plan_b.specs]
        assert fail_a == fail_b and len(fail_a) == 4
        _, fail_c = build_live_chaos_plan(12, 4, seed=10)
        assert fail_c != fail_a

    def test_seeds_eventually_use_both_sites(self):
        sites = set()
        for seed in range(8):
            plan, _ = build_live_chaos_plan(12, kills=4, seed=seed)
            sites |= {s.site for s in plan.specs}
        assert sites == {"live.ingest", "live.ingest.ack"}

    def test_zero_kills_is_empty_plan(self):
        plan, failures = build_live_chaos_plan(10, kills=0, seed=1)
        assert plan.specs == [] and failures == {}

    def test_too_many_kills_rejected(self):
        with pytest.raises(ValueError):
            build_live_chaos_plan(4, kills=5, seed=1)


class TestChaosDrill:
    def test_drill_passes_all_invariants(self, feed_graph):
        report = chaos_feed(feed_graph, kills=3, seed=7, num_subs=6)
        assert report["ok"], report
        assert report["injected_faults"] == report["retries"] == 3
        checks = report["checks"]
        assert checks["faults_fired"]
        assert checks["no_edge_lost_or_duplicated"]
        assert checks["post_commit_retries_deduped"]
        assert checks["event_parity"]
        assert checks["window_fingerprint_ok"]

    def test_metrics_count_batches_whose_ack_was_lost(self, feed_graph):
        """/metrics charges a batch at commit, so one whose ack a crash
        lost counts once: every committed edge, every fired event."""
        report = chaos_feed(feed_graph, kills=3, seed=5, num_subs=6)
        assert report["ok"] and "ack" in report["failures"].values()
        metrics = report["metrics"]
        assert metrics["edges_ingested"] == report["edges"]
        assert metrics["subscription_fires"] == report["events_total"]

    def test_drill_seeds_change_crash_schedule(self, feed_graph):
        r1 = chaos_feed(feed_graph, kills=2, seed=1, num_subs=3)
        r2 = chaos_feed(feed_graph, kills=2, seed=2, num_subs=3)
        assert r1["ok"] and r2["ok"]
        assert r1["failures"] != r2["failures"]

    def test_drill_without_kills_sees_no_duplicates(self, feed_graph):
        report = chaos_feed(feed_graph, kills=0, seed=0, num_subs=3)
        assert report["ok"] and report["duplicate_acks"] == 0
        assert report["retries"] == report["injected_faults"] == 0


class TestLiveFeedDriver:
    def test_feed_parity_over_http(self, feed_graph):
        report = run_live_feed(
            feed_graph, delta=feed_delta(feed_graph), num_subs=8,
            batch_size=20, shuffle="block", seed=3,
        )
        assert report["ok"], report["checks"]
        assert not report["mismatched_subs"]
        assert report["events_total"] > 0
        assert report["edges_per_s"] > 0
        metrics = report["metrics"]
        assert metrics["edges_ingested"] == feed_graph.num_edges

    @pytest.mark.parametrize("bad", [
        {"batch_size": 0}, {"num_subs": -1}, {"delta": -1},
    ])
    def test_feed_rejects_bad_arguments(self, feed_graph, bad):
        kwargs = {"delta": feed_delta(feed_graph), **bad}
        with pytest.raises(ValueError):
            run_live_feed(feed_graph, **kwargs)


class TestCLI:
    ARGS = ["--scale", "0.012", "--seed", "5"]

    def test_repro_live_smoke(self, capsys):
        rc = main(["live", "wiki-talk", *self.ARGS, "--subs", "6",
                   "--batch-size", "30", "--shuffle", "block"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "parity vs offline replay" in out and "OK" in out

    def test_repro_live_no_verify(self, capsys):
        rc = main(["live", "wiki-talk", *self.ARGS, "--subs", "4",
                   "--batch-size", "40", "--no-verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipped" in out

    def test_repro_live_unknown_source(self, capsys):
        assert main(["live", "no-such-dataset"]) == 2
        assert "error" in capsys.readouterr().out

    def test_repro_chaos_live_smoke(self, capsys, feed_graph):
        delta = str(feed_delta(feed_graph))
        rc = main(["chaos", "wiki-talk", "--live", *self.ARGS,
                   "--delta", delta, "--kills", "2", "--batch-size", "25"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "all checks passed" in out or "OK" in out

    def test_repro_chaos_live_and_cluster_exclusive(self, capsys):
        rc = main(["chaos", "wiki-talk", "--live", "--cluster",
                   "--delta", "100", *self.ARGS])
        assert rc != 0

    @pytest.mark.parametrize("argv", [
        ["live", "--batch-size", "0"],
        ["live", "--batch-size", "-5"],
        ["live", "--subs", "-2"],
        ["chaos", "--live", "--delta", "100", "--batch-size", "0"],
        ["chaos", "--live", "--delta", "100", "--batch-size", "-5"],
    ], ids=lambda argv: " ".join(argv))
    def test_feed_arguments_are_rejected(self, argv, capsys):
        command, *opts = argv
        rc = main([command, "wiki-talk", *self.ARGS, *opts])
        out = capsys.readouterr().out
        assert rc == 2, out
        assert out.startswith("error: ")
