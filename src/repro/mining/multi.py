"""Multi-motif counting: the Paranjape-grid census in one call.

Counting a whole family of motifs (e.g. the 36-motif grid used for
temporal network fingerprinting, paper §II-B's "features built with
temporal motif distributions") is a common workload.  A census is one
``count_family`` call on whichever runner
:func:`~repro.mining.parallel.open_runner` picks, so it runs the one
exact engine, :class:`repro.comine.engine.CoMiner`: the family's
canonical prefix trie is walked once with numpy frontiers, so shared
prefixes (every grid row shares its first two edges) are searched once
instead of once per motif and the last level is counted, not
enumerated.  Per-motif counts and counters are byte-identical to a
dedicated serial :class:`MackeyMiner` per motif; the census additionally
reports the shared work actually done and
:class:`~repro.comine.engine.SharingStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.comine.engine import ENGINE, SharingStats
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.chunks import require_walker
from repro.mining.parallel import open_runner
from repro.mining.results import SearchCounters
from repro.motifs.grid import paranjape_grid
from repro.motifs.motif import Motif


@dataclass
class MotifCensus:
    """Counts for a family of motifs on one graph at one δ.

    ``counters`` aggregates the work actually performed; ``per_motif``
    attributes search work to each motif (it equals what a dedicated
    serial miner would report).  ``sharing`` is what the family walk
    saved.
    """

    delta: int
    counts: Dict[str, int]
    counters: SearchCounters
    per_motif: Dict[str, SearchCounters]
    sharing: SharingStats

    def total(self) -> int:
        return sum(self.counts.values())

    def top(self, k: int = 5) -> List[Tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: -kv[1])[:k]


def count_motif_family(
    graph: TemporalGraph,
    motifs: Sequence[Motif],
    delta: int,
    num_workers: int = 0,
    chunks_per_worker: int = 8,
) -> MotifCensus:
    """Exactly count every motif in ``motifs`` within δ windows.

    The family is mined in one shared trie walk; ``num_workers > 0``
    shards its root-range chunks across a worker pool.  An empty family
    raises :class:`ValueError` — a census of nothing is a caller bug,
    not an all-zero result.
    """
    if not motifs:
        raise ValueError("cannot count an empty motif family")
    with open_runner(graph, num_workers) as runner:
        family = runner.count_family(graph, list(motifs), delta, chunks_per_worker)
    return MotifCensus(
        delta=int(delta),
        counts={m.name: r.count for m, r in zip(motifs, family.results)},
        counters=family.counters,
        per_motif={m.name: r.counters for m, r in zip(motifs, family.results)},
        sharing=family.sharing,
    )


def grid_census(
    graph: TemporalGraph,
    delta: int,
    num_workers: int = 0,
    chunks_per_worker: int = 8,
) -> Dict[Tuple[int, int], int]:
    """Count the full Paranjape 6x6 grid; returns counts keyed (row, col).

    The whole grid runs in one shared trie walk (every row's two-edge
    prefix searched once for its six motifs); ``num_workers > 0`` shards
    its root-range chunks across one worker pool.
    """
    census = grid_family_census(
        graph, delta, num_workers=num_workers, chunks_per_worker=chunks_per_worker
    )
    grid = paranjape_grid()
    return {key: census.counts[motif.name] for key, motif in grid.items()}


def grid_family_census(
    graph: TemporalGraph,
    delta: int,
    num_workers: int = 0,
    chunks_per_worker: int = 8,
    engine: str = ENGINE,
) -> MotifCensus:
    """The grid census as a full :class:`MotifCensus` (per-motif counters,
    sharing stats) rather than a bare count grid.  ``engine`` may only
    name :data:`ENGINE`."""
    require_walker(engine)
    keys_motifs = sorted(paranjape_grid().items())
    return count_motif_family(
        graph,
        [motif for _, motif in keys_motifs],
        delta,
        num_workers=num_workers,
        chunks_per_worker=chunks_per_worker,
    )


def render_grid(census: Dict[Tuple[int, int], int]) -> str:
    """ASCII rendering of a 6x6 grid census (rows/cols as in WSDM'17)."""
    width = max(5, max(len(str(v)) for v in census.values()) + 1)
    header = "     " + "".join(f"c{c}".rjust(width) for c in range(1, 7))
    lines = [header]
    for r in range(1, 7):
        cells = "".join(str(census[(r, c)]).rjust(width) for c in range(1, 7))
        lines.append(f"r{r}  {cells}")
    return "\n".join(lines)
