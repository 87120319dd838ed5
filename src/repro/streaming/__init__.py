"""Streaming sliding-window motif counting (online workload).

An incremental engine that keeps exact per-motif δ-window counts fresh
as edges arrive, with the batch miners as differential oracle (the
parity suites replay a graph through :class:`StreamingCounter` and
compare with :class:`~repro.mining.mackey.MackeyMiner`):

- :mod:`repro.streaming.window` — append-only edge log, incremental
  adjacency, sliding δ-window ring, batch-compatible snapshots;
- :mod:`repro.streaming.counter` — demand-keyed continuation tables and
  the :class:`StreamingCounter` family;
- :mod:`repro.streaming.replay` — dataset replay with per-batch
  throughput/latency/occupancy stats (``python -m repro stream``).
"""

from repro.streaming.counter import (
    MotifStreamEngine,
    PartialMatch,
    StreamingCatalogCounter,
    StreamingCounter,
    StreamingGridCounter,
)
from repro.streaming.replay import (
    BatchStats,
    ReplayResult,
    format_batch_table,
    format_replay_summary,
    iter_batches,
    replay_stream,
)
from repro.streaming.window import StreamBuffer

__all__ = [
    "BatchStats",
    "MotifStreamEngine",
    "PartialMatch",
    "ReplayResult",
    "StreamBuffer",
    "StreamingCatalogCounter",
    "StreamingCounter",
    "StreamingGridCounter",
    "format_batch_table",
    "format_replay_summary",
    "iter_batches",
    "replay_stream",
]
