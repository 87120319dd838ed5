"""Achieved-error benchmark for the offline estimator (``repro.approx``).

Runs the evaluation-motif grid over email-eu through
:func:`~repro.approx.engine.estimate_inline` — what ``repro mine
--approx`` runs — next to the exact count, and saves a per-key table of
exact count, estimate, samples, achieved ε and realized relative error
(``benchmarks/results/approx_accuracy_email_eu.txt``).  The asserted
shape: the realized error against the exact count stays within a small
multiple of the requested ``max_error`` (ε is a CI half-width, not a
hard cap).
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import format_table
from repro.graph.generators import make_dataset
from repro.motifs.catalog import EVALUATION_MOTIFS

#: The accuracy contract every estimate is asked for.
MAX_ERROR = 0.3
SPEC_KW = dict(max_error=MAX_ERROR, seed=2, base_samples=32, max_samples=512)


def grid(graph):
    span = graph.time_span
    return [(m, span // div) for m in EVALUATION_MOTIFS[:4]
            for div in (100, 200, 400)]


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
