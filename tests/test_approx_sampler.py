"""Statistical validity of the interval sampler (repro.approx).

Three layers of evidence, strongest first:

- **Exact unbiasedness** — on small graphs the start domain is
  enumerable, so ``E[estimate] = Σ_x p(x) · T(x)`` is computed as an
  exact finite sum and compared to the exact count (no randomness, no
  tolerance beyond float error).  Checked for both importance modes.
- **Generator-level sanity** — on each of the six synthetic datasets a
  seeded run's estimate must land inside a wide (≈99.9%) interval
  around the exact count; deterministic because the seed is pinned.
- **Coverage rate** — across many seeds the nominal-confidence CI must
  cover the exact count at close to its advertised rate.

Plus the determinism contract `repro mine --approx` relies on: identical
``(graph, motif, δ, seed)`` runs are byte-identical across inline,
pooled and supervised execution, and batch merging is commutative.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.approx.engine import adaptive_estimate, estimate_inline, round_sizes
from repro.approx.estimate import (
    ApproxEstimate,
    ApproxSpec,
    SampleBatch,
    build_approx_payload,
    normal_quantile,
)
from repro.approx.sampler import IntervalSampler, window_length_for
from repro.graph.generators import DATASET_NAMES, make_dataset
from repro.mining.mackey import MackeyMiner, count_motifs
from repro.mining.results import SearchCounters
from repro.motifs.catalog import M1, motif_by_name
from tests.conftest import random_temporal_graph


@pytest.fixture(scope="module")
def graph():
    rng = random.Random(17)
    return random_temporal_graph(rng, 30, 400, time_range=400)


DELTA = 50


class TestSpecAndQuantile:
    def test_normal_quantile_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.99) == pytest.approx(2.575829, abs=1e-5)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="max_error"):
            ApproxSpec(max_error=0)
        with pytest.raises(ValueError, match="confidence"):
            ApproxSpec(confidence=1.5)
        with pytest.raises(ValueError, match="c must be"):
            ApproxSpec(c=1.0)
        with pytest.raises(ValueError, match="importance"):
            ApproxSpec(importance="entropy")
        with pytest.raises(ValueError, match="base_samples"):
            ApproxSpec(base_samples=1)
        with pytest.raises(ValueError, match="max_samples"):
            ApproxSpec(base_samples=16, max_samples=8)

    def test_round_sizes_double_to_cap(self):
        spec = ApproxSpec(base_samples=16, max_samples=100)
        assert list(round_sizes(spec)) == [16, 32, 64, 100]

    def test_window_length_floor(self):
        # c·δ below δ+1 is floored so every ≤δ instance stays coverable.
        assert window_length_for(2, ApproxSpec(c=1.25)) == 3
        assert window_length_for(100, ApproxSpec(c=1.25)) == 125


class TestSampleBatch:
    def test_merge_is_commutative(self):
        def mk(items):
            c = SearchCounters()
            c.searches = sum(1 for _ in items)
            return SampleBatch(totals=dict(items), counters=c)

        ab = mk([(0, 1.0), (1, 2.0)]).merge(mk([(2, 3.0)]))
        ba = mk([(2, 3.0)]).merge(mk([(0, 1.0), (1, 2.0)]))
        assert ab.ordered_values() == ba.ordered_values() == [1.0, 2.0, 3.0]
        assert ab.counters.as_dict() == ba.counters.as_dict()

    def test_merge_rejects_overlap(self):
        a = SampleBatch(totals={0: 1.0})
        with pytest.raises(ValueError, match="overlap"):
            a.merge(SampleBatch(totals={0: 2.0}))

    def test_payload_roundtrip(self):
        batch = SampleBatch(totals={3: 1.5, 1: 0.0})
        again = SampleBatch.from_payload(batch.as_payload())
        assert again.totals == batch.totals
        assert again.counters.as_dict() == batch.counters.as_dict()

    def test_estimate_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            ApproxEstimate.from_batch(
                SampleBatch(totals={0: 1.0}), ApproxSpec(), 10
            )


class TestInclusionProbability:
    @pytest.mark.parametrize("importance", ["uniform", "density"])
    def test_cdf_is_a_distribution(self, graph, importance):
        s = IntervalSampler(
            graph, M1, DELTA, ApproxSpec(importance=importance, bins=32)
        )
        # Total mass over the whole start domain is exactly 1.
        assert s._start_cdf(s._start_hi) == pytest.approx(1.0)
        assert s._start_cdf(s._start_lo - 1) == 0.0
        # Monotone non-decreasing across bin boundaries.
        xs = list(range(s._start_lo, s._start_hi + 1, 17))
        cdf = [s._start_cdf(x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(cdf, cdf[1:]))

    def test_uniform_matches_direct_count(self, graph):
        # Under uniform starts, the inclusion probability of a span
        # [a, b] must equal (W - (b - a)) / #starts exactly.
        s = IntervalSampler(graph, M1, DELTA, ApproxSpec(importance="uniform"))
        n_starts = s._start_hi - s._start_lo + 1
        w = s.window_length
        for a, b in [(10, 10), (10, 40), (100, 100 + DELTA)]:
            expected = (w - (b - a)) / n_starts
            assert s.inclusion_probability(a, b) == pytest.approx(expected)

    def test_every_instance_has_positive_probability(self, graph):
        s = IntervalSampler(graph, M1, DELTA)
        result = MackeyMiner(graph, M1, DELTA, record_matches=True).mine()
        for match in result.matches:
            first = int(graph.time(match.edge_indices[0]))
            last = int(graph.time(match.edge_indices[-1]))
            assert s.inclusion_probability(first, last) > 0.0

    def test_empty_graph_rejected(self):
        from repro.graph.temporal_graph import TemporalGraph

        with pytest.raises(ValueError, match="empty graph"):
            IntervalSampler(TemporalGraph([]), M1, 10)


class TestExactUnbiasedness:
    """Enumerate the whole start domain: E[estimate] == exact count."""

    @pytest.mark.parametrize("importance", ["uniform", "density"])
    @pytest.mark.parametrize("motif_name", ["M1", "path3"])
    def test_expectation_equals_exact_count(self, importance, motif_name):
        rng = random.Random(5)
        g = random_temporal_graph(rng, 10, 60, time_range=120)
        motif = motif_by_name(motif_name)
        delta = 30
        exact = count_motifs(g, motif, delta)
        assert exact > 0, "test graph must contain the motif"
        s = IntervalSampler(
            g, motif, delta, ApproxSpec(importance=importance, bins=16)
        )
        expectation = 0.0
        for x in range(s._start_lo, s._start_hi + 1):
            p_x = s._start_cdf(x) - s._start_cdf(x - 1)
            window = g.subgraph_by_time(x, x + s.window_length)
            if window.num_edges < motif.num_edges:
                continue
            r = MackeyMiner(window, motif, delta, record_matches=True).mine()
            t_x = 0.0
            for match in r.matches or ():
                first = int(window.time(match.edge_indices[0]))
                last = int(window.time(match.edge_indices[-1]))
                t_x += 1.0 / s.inclusion_probability(first, last)
            expectation += p_x * t_x
        assert expectation == pytest.approx(exact, rel=1e-9)


class TestGeneratorEstimates:
    @pytest.mark.parametrize("dataset", sorted(DATASET_NAMES))
    def test_seeded_estimate_lands_in_wide_interval(self, dataset):
        g = make_dataset(dataset, scale=0.05, seed=11)
        delta = max(1, g.time_span // 20)
        exact = count_motifs(g, M1, delta)
        spec = ApproxSpec(
            max_error=0.15, seed=4, base_samples=64, max_samples=512
        )
        est = estimate_inline(g, M1, delta, spec)
        # A ~99.99% interval around the exact count (+1 absolute slack
        # for near-zero counts): deterministic given the pinned seed,
        # and far looser than the sampler's own reported CI.
        slack = 3.9 * est.std_error + 1.0
        assert abs(est.estimate - exact) <= slack, (
            dataset, exact, est.estimate, est.std_error
        )


class TestCoverage:
    def test_ci_coverage_rate(self, graph):
        exact = count_motifs(graph, M1, DELTA)
        confidence = 0.9
        seeds = range(40)
        covered = 0
        for seed in seeds:
            s = IntervalSampler(
                graph, M1, DELTA,
                ApproxSpec(confidence=confidence, seed=seed),
            )
            est = s.estimate(96)
            if est.ci_low <= exact <= est.ci_high:
                covered += 1
        rate = covered / len(seeds)
        # Nominal 0.90 minus generous binomial slack for 40 trials.
        assert rate >= 0.75, f"coverage {rate:.2f} across {len(seeds)} seeds"


class TestDeterminismAcrossBackends:
    """Identical (graph, motif, δ, seed) ⇒ byte-identical estimates."""

    @pytest.fixture(scope="class")
    def spec(self):
        return ApproxSpec(max_error=0.3, seed=9, base_samples=32,
                          max_samples=128)

    @pytest.fixture(scope="class")
    def inline_est(self, graph, spec):
        return estimate_inline(graph, M1, DELTA, spec)

    def test_chunking_is_invisible(self, graph, spec, inline_est):
        # Reassembling arbitrary chunk splits in arbitrary order gives
        # the same batch the one-shot range produces.
        s = IntervalSampler(graph, M1, DELTA, spec)
        n = inline_est.num_samples
        merged = SampleBatch()
        cuts = sorted({0, 7, n // 3, n // 2, n})
        chunks = [s.sample_range(lo, hi)
                  for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
        for chunk in reversed(chunks):
            merged.merge(chunk)
        est = ApproxEstimate.from_batch(merged, spec, s.window_length)
        assert est.stats_dict() == inline_est.stats_dict()

    def test_pooled_matches_inline_bytes(self, graph, spec, inline_est):
        from repro.mining.parallel import MiningPool
        from repro.service.query import payload_bytes

        window = window_length_for(DELTA, spec)
        with MiningPool(graph, 2) as pool:
            pooled = adaptive_estimate(
                lambda lo, hi: pool.sample_intervals(M1, DELTA, spec, lo, hi),
                spec, window,
            )
        fp = graph.fingerprint()
        assert payload_bytes(
            build_approx_payload(fp, M1, DELTA, pooled)
        ) == payload_bytes(build_approx_payload(fp, M1, DELTA, inline_est))

    @pytest.mark.timeout(180)
    def test_supervised_matches_inline_bytes(self, graph, spec, inline_est):
        from repro.mining.parallel import MiningPool as SupervisedMiningPool
        from repro.service.query import payload_bytes

        window = window_length_for(DELTA, spec)
        with SupervisedMiningPool(graph, 2) as pool:
            sup = adaptive_estimate(
                lambda lo, hi: pool.sample_intervals(M1, DELTA, spec, lo, hi),
                spec, window,
            )
        fp = graph.fingerprint()
        assert payload_bytes(
            build_approx_payload(fp, M1, DELTA, sup)
        ) == payload_bytes(build_approx_payload(fp, M1, DELTA, inline_est))


class TestAdaptiveEngine:
    def test_stops_at_convergence(self, graph):
        # A huge error budget converges after the first round.
        spec = ApproxSpec(max_error=100.0, base_samples=8, max_samples=512)
        est = estimate_inline(graph, M1, DELTA, spec)
        assert est.num_samples == 8
        assert est.converged

    def test_budget_exhaustion_reported(self, graph):
        spec = ApproxSpec(max_error=1e-6, base_samples=8, max_samples=16)
        est = estimate_inline(graph, M1, DELTA, spec)
        assert est.num_samples == 16
        assert not est.converged

    def test_accuracy_tag_format(self, graph):
        spec = ApproxSpec(max_error=0.5, confidence=0.95, base_samples=32,
                          max_samples=64)
        est = estimate_inline(graph, M1, DELTA, spec)
        assert est.accuracy.startswith("approx(eps=")
        assert est.accuracy.endswith("alpha=0.05)")


class TestPrestoErrorBounds:
    """Satellite: PrestoEstimate carries the same error-bound block."""

    def test_presto_ci_and_stats_dict(self, graph):
        from repro.mining.presto import PrestoEstimator

        est = PrestoEstimator(graph, M1, DELTA, seed=3).estimate(64)
        assert est.ci == (est.ci_low, est.ci_high)
        assert est.ci_low <= est.estimate <= est.ci_high
        half = (est.ci_high - est.ci_low) / 2.0
        assert half == pytest.approx(normal_quantile(0.95) * est.std_error)
        stats = est.stats_dict()
        assert set(stats) == {
            "estimate", "stderr", "ci", "confidence", "achieved_eps",
            "num_samples",
        }
        assert stats["confidence"] == 0.95
        assert stats["achieved_eps"] == pytest.approx(
            half / max(abs(est.estimate), 1.0)
        )

    def test_single_sample_ci_is_infinite(self, graph):
        from repro.mining.presto import PrestoEstimator

        est = PrestoEstimator(graph, M1, DELTA, seed=3).estimate(1)
        assert est.ci_low == -math.inf and est.ci_high == math.inf
