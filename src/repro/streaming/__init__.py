"""Streaming sliding-window motif counting (online workload).

An incremental engine that keeps exact per-motif δ-window counts fresh
as edges arrive, with the batch miners as differential oracle (the
parity suites replay a graph through :class:`StreamingCounter` and
compare with :class:`~repro.mining.mackey.MackeyMiner`):

- :mod:`repro.streaming.window` — append-only edge log, sliding
  δ-window ring, batch-compatible snapshots;
- :mod:`repro.streaming.counter` — demand-keyed continuation tables over
  a motif trie, one engine per family of ``(motif, δ)`` slots, and the
  :class:`StreamingCounter` family built on it.

``repro live`` (:func:`repro.live.driver.run_live_feed`) is the one
driver that replays a dataset as a feed; the live path runs this
engine, and its offline oracle runs :class:`StreamingCounter`.
"""

from repro.streaming.counter import (
    FamilyStreamEngine,
    Slot,
    StreamingCatalogCounter,
    StreamingCounter,
)
from repro.streaming.window import StreamBuffer

__all__ = [
    "FamilyStreamEngine",
    "Slot",
    "StreamBuffer",
    "StreamingCatalogCounter",
    "StreamingCounter",
]
