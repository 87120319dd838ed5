"""Parameter sweeps: algorithmic-complexity validation (paper §III-A).

The paper states the worst-case complexity of Algorithm 1 as
``O(|E_G| · k^(|E_M|-1))`` where ``k`` is the expected number of edges in
a δ window: widening δ grows the search tree's width polynomially, and
lengthening the motif grows its depth exponentially.  These sweeps
measure the actual work (candidates examined) as δ and |E_M| vary so the
claim's shape can be checked empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.comine import CoMiner
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.batched import BatchedMiner
from repro.motifs.motif import Motif


@dataclass(frozen=True)
class SweepPoint:
    """One sweep measurement."""

    parameter: float
    window_edges: float
    candidates: int
    matches: int
    searches: int


@dataclass
class SweepResult:
    parameter_name: str
    points: List[SweepPoint]

    def growth_exponent(self) -> float:
        """Least-squares slope of log(candidates) vs log(parameter).

        For the δ sweep on a fixed motif of ``l`` edges, §III-A predicts
        work ~ k^(l-1), i.e. an exponent approaching ``l-1`` for large k.
        """
        pts = [
            (math.log(p.parameter), math.log(p.candidates))
            for p in self.points
            if p.parameter > 0 and p.candidates > 0
        ]
        if len(pts) < 2:
            raise ValueError("need at least two positive sweep points")
        n = len(pts)
        mx = sum(x for x, _ in pts) / n
        my = sum(y for _, y in pts) / n
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        if sxx == 0:
            raise ValueError("degenerate sweep (constant parameter)")
        return sxy / sxx


def delta_sweep(
    graph: TemporalGraph,
    motif: Motif,
    deltas: Sequence[int],
) -> SweepResult:
    """Measure mining work as the δ window widens (tree *width*)."""
    span = max(1, graph.time_span)
    points = []
    for delta in deltas:
        counters = BatchedMiner(graph, motif, delta).mine().counters
        points.append(
            SweepPoint(
                parameter=float(delta),
                window_edges=graph.num_edges * delta / span,
                candidates=counters.candidates_scanned,
                matches=counters.matches,
                searches=counters.searches,
            )
        )
    return SweepResult(parameter_name="delta", points=points)


def _chain_motif(length: int) -> Motif:
    """A back-and-forth chain motif of ``length`` edges over two nodes
    plus extensions — keeps match probability reasonable as depth grows."""
    edges: List[Tuple[int, int]] = []
    for i in range(length):
        edges.append((0, 1) if i % 2 == 0 else (1, 0))
    return Motif(edges, name=f"chain{length}")


def motif_size_sweep(
    graph: TemporalGraph,
    delta: int,
    sizes: Sequence[int] = (1, 2, 3, 4, 5),
    motif_builder=None,
) -> SweepResult:
    """Measure mining work as the motif gains edges (tree *depth*).

    By default sweeps ping-pong chain motifs (A→B→A→B...), whose static
    pattern stays fixed so the growth isolates the temporal depth.
    """
    build = motif_builder or _chain_motif
    span = max(1, graph.time_span)
    # One family walk: the chains are one another's prefixes.
    family = CoMiner(graph, [build(size) for size in sizes], delta).mine()
    points = []
    for size, counters in zip(sizes, family.per_motif):
        points.append(
            SweepPoint(
                parameter=float(size),
                window_edges=graph.num_edges * delta / span,
                candidates=counters.candidates_scanned,
                matches=counters.matches,
                searches=counters.searches,
            )
        )
    return SweepResult(parameter_name="motif_edges", points=points)
