"""One motif on the vectorised family engine.

:class:`BatchedMiner` is the family-of-one binding of
:class:`repro.comine.engine.CoMiner` — the one frontier engine, which
walks a motif family's prefix trie with numpy frontiers, finds every
window bound it does not already hold with a C-level ``np.searchsorted``
over the graph's :class:`~repro.graph.temporal_graph.RangeIndex` and
counts the last level instead of enumerating it.  A single motif's trie is a path, so
this is that walk with nothing to share; counts and
:class:`~repro.mining.results.SearchCounters` are byte-identical to
:class:`~repro.mining.mackey.MackeyMiner` (``memoize=False``), which
the parity suites enforce across the motif catalog, the generator
families and arbitrary hypothesis graphs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.comine.engine import CoMiner
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.results import MiningResult
from repro.motifs.motif import Motif


class BatchedMiner:
    """Exact δ-temporal motif miner on the vectorised trie walk.

    Parameters
    ----------
    graph, motif, delta:
        The mining problem (δ in the graph's integer time unit).
    root_block:
        Roots expanded per frontier wave.  Counts and counters are
        independent of this value.
    cancel_check:
        Optional hook polled between root blocks, motif edges and
        tiles; when it returns True the run raises
        :class:`~repro.mining.results.MiningCancelled` (the serving
        layer's deadline contract).
    """

    def __init__(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        root_block: int = 4096,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        if root_block < 1:
            raise ValueError("root_block must be positive")
        self.graph = graph
        self.motif = motif
        self._walker = CoMiner(graph, [motif], delta, cancel_check=cancel_check)
        self._walker.root_block = int(root_block)

    def mine(self) -> MiningResult:
        """Run over every root edge and return count + counters."""
        return self.mine_range(0, self.graph.num_edges)

    def mine_range(self, root_lo: int, root_hi: int) -> MiningResult:
        """Mine with root edges restricted to ``[root_lo, root_hi)``.

        Chunk results merge commutatively (integer sums), so sharding
        the root range cannot change counts.
        """
        family = self._walker.mine_range(root_lo, root_hi)
        return MiningResult(count=family.counts[0], counters=family.per_motif[0])

