"""Streaming ingest throughput vs batch size (online workload).

Beyond the paper: Mint mines a static edge list, but the ROADMAP's
production target must keep counts fresh as edges arrive.  This
benchmark feeds the 12k-edge wiki-talk-shaped dataset (the hub-heavy
generator) to the incremental sliding-window counter through
``StreamingCounter.add_batch`` at several batch sizes, timing only the
``add_batch`` calls, and records edges/sec and continuation-table
occupancy.  Acceptance bar: ≥ 10k edges/sec sustained on the full
replay with bounded table memory, and counts byte-identical to the
serial Mackey miner.
"""

from __future__ import annotations

import time

from repro.analysis.reporting import format_rate
from repro.graph.generators import make_dataset
from repro.mining.mackey import MackeyMiner
from repro.motifs.catalog import M1
from repro.streaming import StreamingCounter

BATCH_SIZES = (1, 16, 256, 4096, 12_000)

#: δ holding k = expected edges per window at 6, the same rescaling rule
#: every other benchmark uses (EXPERIMENTS.md "Scaling methodology").
TARGET_K = 6


def test_streaming_throughput(save_result):
    graph = make_dataset("wiki-talk", scale=1.0, seed=7)
    assert graph.num_edges == 12_000
    delta = max(1, TARGET_K * graph.time_span // graph.num_edges)
    expected = MackeyMiner(graph, M1, delta).mine().count

    rows = [
        f"dataset: wiki-talk x1.0 ({graph.num_edges} edges), "
        f"delta={delta}s (k~{TARGET_K}), motif=M1"
    ]
    edges = list(
        zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist())
    )
    best_rate = 0.0
    for batch_size in BATCH_SIZES:
        counter = StreamingCounter(M1, delta)
        total_s = 0.0
        for lo in range(0, len(edges), batch_size):
            batch = edges[lo:lo + batch_size]
            t0 = time.perf_counter()
            counter.add_batch(batch)
            total_s += time.perf_counter() - t0
        assert counter.count == expected, (
            f"streaming parity broke at batch_size={batch_size}"
        )
        assert counter.num_edges == graph.num_edges
        rate = counter.num_edges / total_s
        best_rate = max(best_rate, rate)
        peak_live = counter.peak_live_partials
        w = counter.buffer.peak_window_size
        rows.append(
            f"batch {batch_size:>6}: "
            f"{format_rate(rate, 'edges/s'):>16}  "
            f"peak live partials {peak_live:>5}  "
            f"peak window {w:>4}  "
            f"evicted {counter.evicted_partials:>6}"
        )
        # Bounded continuation-table memory: the resident set never
        # exceeds what the live window justifies for a 3-edge motif.
        assert peak_live <= w + w * w
    rows.append(
        f"best sustained: {format_rate(best_rate, 'edges/s')}  "
        f"(count={expected}, parity with MackeyMiner at every batch size)"
    )
    save_result("streaming_throughput", "\n".join(rows))

    # The acceptance bar from the streaming issue: a 12k-edge replay
    # sustains >= 10k edges/sec at some batch size.
    assert best_rate >= 10_000, (
        f"streaming too slow: best {best_rate:.0f} edges/s"
    )
