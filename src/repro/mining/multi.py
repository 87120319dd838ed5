"""Multi-motif counting: the Paranjape-grid census in one call.

Counting a whole family of motifs (e.g. the 36-motif grid used for
temporal network fingerprinting, paper §II-B's "features built with
temporal motif distributions") is a common workload.  Three engines:

- ``engine="mackey"`` — the exact miner once per motif (the historical
  per-motif loop);
- ``engine="batched"`` — the vectorized frontier engine
  (:mod:`repro.mining.batched`) once per motif: byte-identical counts
  and counters, with the per-candidate Python loop replaced by numpy
  frontier expansion (the fast path for large graphs);
- ``engine="comine"`` — one shared traversal for the whole family via
  :class:`repro.comine.CoMiner`: the family's canonical prefix trie is
  walked once per root edge, so shared prefixes (every grid row shares
  its first two edges) are searched once instead of once per motif.
  Per-motif counts and counters are byte-identical to the per-motif
  loop; the census additionally reports
  :class:`~repro.comine.engine.SharingStats`.

Both engines keep a per-motif :class:`SearchCounters` breakdown so a
census report can attribute work to individual motifs, and both shard
across worker processes with ``num_workers > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.dispatch import POOL_ENGINES, make_miner
from repro.mining.results import MiningResult, SearchCounters
from repro.motifs.grid import paranjape_grid
from repro.motifs.motif import Motif

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.comine.engine import SharingStats

#: Engines :func:`count_motif_family` accepts: the exact per-motif
#: engines plus the shared family traversal.
CENSUS_ENGINES = POOL_ENGINES + ("comine",)


@dataclass
class MotifCensus:
    """Counts for a family of motifs on one graph at one δ.

    ``counters`` aggregates the work the chosen engine actually
    performed; ``per_motif`` attributes search work to each motif (for
    both engines it equals what a dedicated serial miner would report,
    so attributions are engine-independent).  ``sharing`` is populated
    by the co-mining engine only.
    """

    delta: int
    counts: Dict[str, int]
    counters: SearchCounters
    per_motif: Dict[str, SearchCounters] = field(default_factory=dict)
    engine: str = "mackey"
    sharing: Optional["SharingStats"] = None

    def total(self) -> int:
        return sum(self.counts.values())

    def distribution(self) -> Dict[str, float]:
        """Counts normalized to fractions (a motif 'fingerprint').

        Raises :class:`ValueError` when the total count is zero — a
        zero-total distribution is undefined, and silently returning
        all-zeros historically let empty censuses masquerade as valid
        fingerprints downstream.
        """
        total = self.total()
        if total == 0:
            raise ValueError(
                "cannot normalize a census with zero total matches "
                f"({len(self.counts)} motifs, delta={self.delta}); "
                "an all-zero 'distribution' is not a fingerprint"
            )
        return {name: c / total for name, c in self.counts.items()}

    def top(self, k: int = 5) -> List[Tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda kv: -kv[1])[:k]


def count_motif_family(
    graph: TemporalGraph,
    motifs: Sequence[Motif],
    delta: int,
    memoize: bool = False,
    engine: str = "mackey",
    num_workers: int = 0,
    chunks_per_worker: int = 8,
) -> MotifCensus:
    """Exactly count every motif in ``motifs`` within δ windows.

    ``engine="comine"`` mines the family in one shared traversal
    (identical counts, shared-prefix work done once); ``num_workers >
    0`` shards root-range chunks across a worker pool for either
    engine.  An empty family raises :class:`ValueError` — a census of
    nothing is a caller bug, not an all-zero result.
    """
    if not motifs:
        raise ValueError("cannot count an empty motif family")
    if engine not in CENSUS_ENGINES:
        raise ValueError(
            f"unknown census engine {engine!r}; expected one of {CENSUS_ENGINES}"
        )
    if engine != "mackey" and memoize:
        raise ValueError(
            "memoize is a MackeyMiner cost-model knob; the "
            f"{engine!r} engine does not support it (counts would be "
            "identical anyway)"
        )
    pooled = num_workers > 0 and graph.num_edges > 0
    if pooled:
        from repro.mining.parallel import MiningPool
    if engine == "comine":
        if pooled:
            with MiningPool(graph, num_workers) as pool:
                family = pool.count_family(list(motifs), delta, chunks_per_worker)
            mined = family.results
        else:
            from repro.comine.engine import CoMiner

            family = CoMiner(graph, motifs, delta).mine()
            mined = [
                MiningResult(count, counters=counters)
                for count, counters in zip(family.counts, family.per_motif)
            ]
        # The shared traversal's own work, and what the trie saved.
        counters, sharing = family.counters, family.sharing
    else:
        if pooled:
            with MiningPool(graph, num_workers) as pool:
                mined = pool.count_many(
                    list(motifs), delta, chunks_per_worker, engine=engine
                )
        else:
            options = {"memoize": True} if memoize else {}  # mackey-only, checked above
            mined = [
                make_miner(engine, graph, motif, delta, **options).mine()
                for motif in motifs
            ]
        counters, sharing = SearchCounters(), None
        for r in mined:
            counters.merge(r.counters)
    return MotifCensus(
        delta=int(delta),
        counts={m.name: r.count for m, r in zip(motifs, mined)},
        counters=counters,
        per_motif={m.name: r.counters for m, r in zip(motifs, mined)},
        engine=engine,
        sharing=sharing,
    )


def grid_census(
    graph: TemporalGraph,
    delta: int,
    memoize: bool = False,
    num_workers: int = 0,
    chunks_per_worker: int = 8,
    engine: str = "mackey",
) -> Dict[Tuple[int, int], int]:
    """Count the full Paranjape 6x6 grid; returns counts keyed (row, col).

    ``engine="comine"`` runs the whole grid in one shared traversal
    (every row's two-edge prefix searched once for its six motifs);
    ``num_workers > 0`` shards either engine's root-range chunks across
    one shared :class:`~repro.mining.parallel.MiningPool`.  Counts are
    identical across all four combinations by construction.
    """
    census = grid_family_census(
        graph,
        delta,
        memoize=memoize,
        num_workers=num_workers,
        chunks_per_worker=chunks_per_worker,
        engine=engine,
    )
    grid = paranjape_grid()
    return {key: census.counts[motif.name] for key, motif in grid.items()}


def grid_family_census(
    graph: TemporalGraph,
    delta: int,
    memoize: bool = False,
    num_workers: int = 0,
    chunks_per_worker: int = 8,
    engine: str = "mackey",
) -> MotifCensus:
    """The grid census as a full :class:`MotifCensus` (per-motif counters,
    sharing stats) rather than a bare count grid."""
    keys_motifs = sorted(paranjape_grid().items())
    if graph.num_edges == 0:
        num_workers = 0
    return count_motif_family(
        graph,
        [motif for _, motif in keys_motifs],
        delta,
        memoize=memoize,
        engine=engine,
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
