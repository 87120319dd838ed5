"""Streaming sliding-window motif counting (online workload).

An incremental engine that keeps exact per-motif δ-window counts fresh
as edges arrive, with the batch miners as differential oracle (the
parity suites replay a graph through :class:`StreamingCounter` and
compare with :class:`~repro.mining.mackey.MackeyMiner`):

- :mod:`repro.streaming.window` — append-only edge log, sliding
  δ-window ring, batch-compatible snapshots;
- :mod:`repro.streaming.counter` — demand-keyed continuation tables over
  a motif trie, one engine per family of ``(motif, δ)`` slots, and the
  :class:`StreamingCounter` family built on it;
- :mod:`repro.streaming.replay` — dataset replay with per-batch
  throughput/latency/occupancy stats (``python -m repro stream``).
"""

from repro.streaming.counter import (
    FamilyStreamEngine,
    MotifStreamEngine,
    PartialMatch,
    Slot,
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
    "FamilyStreamEngine",
    "MotifStreamEngine",
    "PartialMatch",
    "ReplayResult",
    "Slot",
    "StreamBuffer",
    "StreamingCatalogCounter",
    "StreamingCounter",
    "StreamingGridCounter",
    "format_batch_table",
    "format_replay_summary",
    "iter_batches",
    "replay_stream",
]
