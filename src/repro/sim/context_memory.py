"""Context memory timing model (paper Fig. 6(c), §V-B).

Each context memory instance holds registers (task status, e_M, e_G,
timestamp), a stack of matched edge indices, and a CAM that maps graph
nodes to motif nodes (and back) along with their mapped-edge counts.
The context manager performs book-keeping and backtracking against these
structures; the dispatcher reads them to assemble a search task.

This model derives the per-task context cycles from the structure
accesses each task type performs, instead of a flat constant:

- **book-keeping**: two CAM search+update operations (source and
  destination node), one stack push, and a register update — CAM
  searches run all-entries-parallel (that is why a CAM), so the cost is
  a fixed number of array accesses, not a scan;
- **backtracking**: one stack pop, two CAM count-decrements (with
  conditional invalidation), a register update;
- **dispatch**: motif-register read, two CAM lookups, register reads.

All accesses go at the configured context access latency (Table II:
2 cycles) with the structures accessed in parallel where the hardware
allows (CAM source/destination ports)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.motifs.motif import Motif

#: Concurrent CAM operations per access slot.  The paper's design
#: updates the source and destination mapping of an edge in one slot.
CAM_PORTS = 2


@dataclass(frozen=True)
class ContextTiming:
    """Derived per-task-type context cycles for one motif."""

    bookkeep_cycles: int
    backtrack_cycles: int
    dispatch_cycles: int


class ContextMemoryModel:
    """Cycle model of one context memory instance.

    Parameters
    ----------
    access_cycles:
        Latency of one structure access (Table II: 2 cycles).
    """

    def __init__(self, access_cycles: int = 2) -> None:
        if access_cycles < 1:
            raise ValueError("access_cycles must be >= 1")
        self.access_cycles = access_cycles

    @staticmethod
    def _cam_slots(operations: int) -> int:
        return (operations + CAM_PORTS - 1) // CAM_PORTS

    def timing(self, motif: Motif) -> ContextTiming:
        """Per-task-type cycles for mining ``motif``.

        Stack and register accesses overlap the CAM slots (separate
        structures), so the critical path is the serialized CAM slots
        plus one access for the dependent register update.
        """
        # Book-keeping: search+insert for src and dst (2 CAM ops), plus
        # the count increments folded into the same entries.
        bookkeep_slots = self._cam_slots(2)
        bookkeep = bookkeep_slots * self.access_cycles
        # Backtracking: pop + two count decrements (CAM) with conditional
        # invalidation; the pop overlaps the first CAM slot.
        backtrack = self._cam_slots(2) * self.access_cycles
        # Dispatch: read motif edge register + two m2g lookups (parallel
        # CAM read ports) + context registers.
        dispatch = max(1, self._cam_slots(2) * (self.access_cycles - 1))
        return ContextTiming(
            bookkeep_cycles=bookkeep,
            backtrack_cycles=backtrack,
            dispatch_cycles=dispatch,
        )
