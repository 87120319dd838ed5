"""Result records and instrumentation counters shared by all miners.

The counters mirror the quantities the paper's workload characterization
leans on (§III-B): how many candidate edges were examined, how many
binary searches the software performs, how much neighborhood data was
touched, and how often the control flow took the book-keeping versus
backtracking branch.  The CPU/GPU timing models in
:mod:`repro.baselines` are driven entirely by these counters, so every
speedup experiment consumes *measured* algorithm behaviour rather than
guesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Bytes per temporal edge record in the paper's layout (u, v, t — 4 B
#: each): what :attr:`SearchCounters.bytes_touched` charges per candidate
#: edge, and the simulator's edge-array stride.
EDGE_RECORD_BYTES = 12
#: Bytes per neighbor-list index entry (charged on top of the record when
#: a scan goes through a node's index).
INDEX_BYTES = 4


class MiningCancelled(RuntimeError):
    """Raised by a mining call when its ``cancel_check`` fires.

    The walker polls ``cancel_check`` per root block and per frontier
    tile, a chunk runner between chunks.  Cancellation is best-effort:
    chunks already executing in workers run to completion (their
    results carry a stale epoch and are discarded), no further chunks
    are dispatched, and partial counts are dropped.  The runner stays
    usable."""


@dataclass(frozen=True)
class Match:
    """One mined δ-temporal motif instance.

    ``edge_indices`` are the positions of the matched graph edges in the
    temporal edge list, in motif (= chronological) order.  ``node_map``
    maps motif node ``i`` to ``node_map[i]`` in the graph.
    """

    edge_indices: Tuple[int, ...]
    node_map: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.edge_indices)


@dataclass
class SearchCounters:
    """Operation counts accumulated during one mining run."""

    #: Number of find-next-matching-edge invocations (Algorithm 1 line 8).
    searches: int = 0
    #: Candidate graph edges examined across all searches (incl. rejected).
    candidates_scanned: int = 0
    #: Binary searches performed (software phase-1 start-position lookups).
    binary_searches: int = 0
    #: Total steps taken by those binary searches (log-degree work).
    binary_search_steps: int = 0
    #: Neighbor-list index entries the software touched.
    neighbor_items_touched: int = 0
    #: Successful edge mappings (book-keeping tasks executed).
    bookkeeps: int = 0
    #: Backtrack tasks executed (failed searches / tree pops).
    backtracks: int = 0
    #: Complete motif matches found.
    matches: int = 0
    #: Root tasks processed (graph edges tried as the first motif edge).
    root_tasks: int = 0
    #: Approximate bytes of graph data the software dereferenced.
    bytes_touched: int = 0

    def merge(self, other: "SearchCounters") -> None:
        """Accumulate ``other`` into this counter set (used by PRESTO)."""
        self.searches += other.searches
        self.candidates_scanned += other.candidates_scanned
        self.binary_searches += other.binary_searches
        self.binary_search_steps += other.binary_search_steps
        self.neighbor_items_touched += other.neighbor_items_touched
        self.bookkeeps += other.bookkeeps
        self.backtracks += other.backtracks
        self.matches += other.matches
        self.root_tasks += other.root_tasks
        self.bytes_touched += other.bytes_touched

    def as_dict(self) -> Dict[str, int]:
        return {
            "searches": self.searches,
            "candidates_scanned": self.candidates_scanned,
            "binary_searches": self.binary_searches,
            "binary_search_steps": self.binary_search_steps,
            "neighbor_items_touched": self.neighbor_items_touched,
            "bookkeeps": self.bookkeeps,
            "backtracks": self.backtracks,
            "matches": self.matches,
            "root_tasks": self.root_tasks,
            "bytes_touched": self.bytes_touched,
        }


@dataclass
class MiningResult:
    """Outcome of a mining run: the count, optional matches and counters."""

    count: int
    matches: Optional[List[Match]] = None
    counters: SearchCounters = field(default_factory=SearchCounters)

    def __post_init__(self) -> None:
        if self.matches is not None and len(self.matches) != self.count:
            raise ValueError(
                f"count={self.count} disagrees with {len(self.matches)} "
                "recorded matches"
            )
