"""Accuracy-vs-latency benchmark for tiered approximate serving.

Runs the evaluation-motif grid over the superuser dataset through the
service three ways — exact (cold, mined), approx (cold, sampled) and
approx (warm, served from the accuracy-tagged cache tier) — and saves a
per-key table of exact count, estimate, achieved ε and latencies, plus
an achieved-error table on email-eu.

Asserted shape (the serving claim, not a raw-compute claim):

- warm approximate serving beats cold exact serving by ≥3x at p99 —
  popular queries get bounded-error answers at cache speed while the
  exact answer is still minutes of mining away;
- every approximate answer is labelled, converged runs meet their
  requested ``max_error``, and the realized error against the exact
  count stays within a small multiple of the target.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.reporting import format_table
from repro.graph.generators import make_dataset
from repro.motifs.catalog import EVALUATION_MOTIFS
from repro.service import MotifService, percentile

#: The served accuracy contract for every approximate query.
MAX_ERROR = 0.3
SPEC_KW = dict(max_error=MAX_ERROR, seed=2, base_samples=32, max_samples=512)


def grid(graph):
    span = graph.time_span
    return [(m, span // div) for m in EVALUATION_MOTIFS[:4]
            for div in (100, 200, 400)]


def timed_query(svc, graph, motif, delta, **kw):
    t0 = time.perf_counter()
    result = svc.query(graph, motif, delta, **kw)
    elapsed = time.perf_counter() - t0
    assert result.ok, result
    return result, elapsed


@pytest.mark.timeout(1800)
def test_approx_latency(save_result):
    from repro.approx.estimate import ApproxSpec

    graph = make_dataset("superuser", scale=1.0, seed=1)
    keys = grid(graph)
    spec = ApproxSpec(**SPEC_KW)

    rows = []
    exact_lat, cold_lat, warm_lat = [], [], []
    with MotifService(lanes=2) as svc:
        svc.register_graph(graph, name="superuser")
        # Pass 1 — exact, cold: every key is mined.
        exact_counts = {}
        for motif, delta in keys:
            r, dt = timed_query(svc, graph, motif, delta)
            assert r.source == "mined" and r.payload["accuracy"] == "exact"
            exact_counts[(motif.name, delta)] = r.payload["count"]
            exact_lat.append(dt)
        # Pass 2 — approx, cold: adaptive sampling fills the approx
        # cache tier (the exact entries belong to the same keys, so
        # clear first — otherwise exact hits would satisfy approx).
        svc.cache.clear()
        approx = {}
        for motif, delta in keys:
            r, dt = timed_query(svc, graph, motif, delta, approx=spec)
            assert r.payload["accuracy"].startswith("approx(")
            approx[(motif.name, delta)] = r.payload
            cold_lat.append(dt)
        # Pass 3 — approx, warm: the accuracy-tagged cache tier serves.
        for motif, delta in keys:
            r, dt = timed_query(svc, graph, motif, delta, approx=spec)
            assert r.source == "cache"
            warm_lat.append(dt)
        metrics = svc.metrics()

    for (motif, delta), ex, cold, warm in zip(
        keys, exact_lat, cold_lat, warm_lat
    ):
        p = approx[(motif.name, delta)]
        exact = exact_counts[(motif.name, delta)]
        rel = abs(p["estimate"] - exact) / max(exact, 1)
        rows.append([
            motif.name,
            delta,
            f"{exact:,}",
            f"{p['estimate']:,.0f}",
            p["num_samples"],
            f"{p['achieved_eps']:.3f}",
            f"{rel:.3f}",
            f"{ex * 1e3:.1f}",
            f"{cold * 1e3:.1f}",
            f"{warm * 1e3:.3f}",
        ])
        # Converged runs honour the requested bound; the realized error
        # against the exact count stays within a small multiple of it
        # (ε is a CI half-width, not a hard cap).
        if not p["truncated"] and p["num_samples"] < spec.max_samples:
            assert p["achieved_eps"] <= MAX_ERROR
        assert rel <= 4 * MAX_ERROR, (motif.name, delta, rel)

    p99_exact = percentile(sorted(exact_lat), 99)
    p99_warm = percentile(sorted(warm_lat), 99)
    speedup = p99_exact / max(p99_warm, 1e-9)
    table = format_table(
        ["motif", "delta", "exact", "estimate", "n", "eps", "|rel err|",
         "exact ms", "approx cold ms", "approx warm ms"],
        rows,
    )
    summary = (
        f"superuser x1.0 ({graph.num_edges} edges), "
        f"max_error={MAX_ERROR}, confidence={spec.confidence}\n"
        f"{table}\n"
        f"p99 exact (cold): {p99_exact * 1e3:.1f} ms   "
        f"p99 approx (warm): {p99_warm * 1e3:.3f} ms   "
        f"speedup: {speedup:.0f}x\n"
        f"approx served: {metrics.approx_served}  "
        f"achieved-eps p99: {metrics.approx_eps_p99:.3f}"
    )
    save_result("approx_latency", summary)

    # The serving acceptance bar: warm approximate answers beat cold
    # exact mining by at least 3x at the tail.
    assert speedup >= 3.0, summary
    assert metrics.approx_eps_p99 <= MAX_ERROR * 2


@pytest.mark.timeout(900)
def test_approx_accuracy_email_eu(save_result):
    from repro.approx.engine import estimate_inline
    from repro.approx.estimate import ApproxSpec
    from repro.mining.mackey import MackeyMiner

    graph = make_dataset("email-eu", scale=1.0, seed=1)
    spec = ApproxSpec(**SPEC_KW)
    rows = []
    for motif, delta in grid(graph):
        exact = MackeyMiner(graph, motif, delta).mine().count
        est = estimate_inline(graph, motif, delta, spec)
        rel = abs(est.estimate - exact) / max(exact, 1)
        rows.append([
            motif.name, delta, f"{exact:,}", f"{est.estimate:,.0f}",
            est.num_samples, f"{est.achieved_eps:.3f}", f"{rel:.3f}",
        ])
        assert rel <= 4 * MAX_ERROR, (motif.name, delta, rel)
    save_result(
        "approx_accuracy_email_eu",
        f"email-eu x1.0 ({graph.num_edges} edges), max_error={MAX_ERROR}\n"
        + format_table(
            ["motif", "delta", "exact", "estimate", "n", "eps", "|rel err|"],
            rows,
        ),
    )
