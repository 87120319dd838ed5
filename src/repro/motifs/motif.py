"""δ-temporal motif representation (paper §II-A).

A δ-temporal motif is a *sequence* of ``l`` directed edges over a small
set of motif nodes.  A match in a temporal graph ``G`` is a strictly
time-increasing sequence of graph edges ``e_1 < e_2 < ... < e_l`` with
``t(e_l) - t(e_1) <= δ`` together with an injective mapping of motif
nodes to graph nodes such that edge ``i`` of the sequence connects
``map(u_i) -> map(v_i)``.

Edge *order* in the motif is the temporal order — the i-th motif edge
must be matched by the i-th (chronologically) graph edge of the match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

#: Hardware limit from the paper (§V-B): Mint's target-motif register file
#: and context memory support temporal motifs of up to eight edges.
MAX_MOTIF_EDGES = 8


@dataclass(frozen=True)
class Motif:
    """An ordered sequence of directed motif edges.

    Parameters
    ----------
    edges:
        Sequence of ``(u, v)`` pairs over motif node labels.  Labels must
        be the contiguous integers ``0..k-1`` (use :meth:`from_labels`
        for letter labels like the paper's A/B/C figures).
    name:
        Optional display name (e.g. ``"M1"``).
    """

    edges: Tuple[Tuple[int, int], ...]
    name: str = "motif"

    def __init__(self, edges: Iterable[Tuple[int, int]], name: str = "motif") -> None:
        edges = tuple((int(u), int(v)) for u, v in edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "name", name)
        self._validate()

    def _validate(self) -> None:
        if not self.edges:
            raise ValueError("a motif needs at least one edge")
        if len(self.edges) > MAX_MOTIF_EDGES:
            raise ValueError(
                f"motif has {len(self.edges)} edges; Mint supports at most "
                f"{MAX_MOTIF_EDGES} (paper §V-B)"
            )
        nodes = sorted({n for u, v in self.edges for n in (u, v)})
        if nodes != list(range(len(nodes))):
            raise ValueError(
                f"motif node labels must be contiguous 0..k-1, got {nodes}"
            )
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"motif edge {i} is a self-loop ({u}->{v})")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_labels(
        cls, edges: Sequence[Tuple[str, str]], name: str = "motif"
    ) -> "Motif":
        """Build a motif from letter-labelled edges, e.g. ``[("A","B"), ("B","C")]``.

        Labels are assigned integer IDs in order of first appearance, so
        the resulting motif matches the paper's figures read left to right.
        """
        ids: dict = {}
        int_edges: List[Tuple[int, int]] = []
        for u, v in edges:
            for lab in (u, v):
                if lab not in ids:
                    ids[lab] = len(ids)
            int_edges.append((ids[u], ids[v]))
        return cls(int_edges, name=name)

    # -- accessors ---------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_nodes(self) -> int:
        return 1 + max(max(u, v) for u, v in self.edges)

    def edge(self, i: int) -> Tuple[int, int]:
        """The ``(u, v)`` motif-node pair of the i-th (chronological) edge."""
        return self.edges[i]

    def canonical_key(self) -> Tuple[Tuple[int, int], ...]:
        """Edges relabelled by order of first appearance.

        Two motifs share a canonical key iff they describe the same
        temporal edge sequence up to node-label choice — the name and
        the particular integer labels are erased.  This is the motif
        component of the service result-cache key, so e.g. an inline
        ``--motif-spec`` identical to catalog ``M1`` hits M1's cached
        counts.
        """
        ids: dict = {}
        out: List[Tuple[int, int]] = []
        for u, v in self.edges:
            for lab in (u, v):
                if lab not in ids:
                    ids[lab] = len(ids)
            out.append((ids[u], ids[v]))
        return tuple(out)

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        return f"Motif({self.name!r}, edges={list(self.edges)})"
