"""The motif trie: a motif family canonicalized into shared prefixes.

Motifs in a family — the 36-motif Paranjape grid, a batched service
group, a streaming catalog — overwhelmingly share search-tree prefixes:
every motif's canonical first edge is ``(0, 1)``, grid rows share their
first *two* edges, and so on.  Mayura ("Exploiting Similarities in
Motifs for Temporal Co-Mining") observes that a per-motif mining loop
therefore re-walks identical partial matches once per motif.

This module merges a family into a prefix trie over *canonical partial
edge-orderings*: each motif is relabelled by order of first node
appearance (:meth:`~repro.motifs.motif.Motif.canonical_key`), and equal
canonical prefixes collapse into one trie path.  A node represents one
matched motif edge; its children are the distinct next-edge
alternatives anywhere in the family; ``complete`` tags the family
members whose full edge sequence ends at that node.  The family
engine (:mod:`repro.comine.engine`) then walks the trie ONCE per root
block, finding each trie node's candidates once no matter how many
motifs share it.

Construction is deterministic: the node set, edge labels and child
ordering depend only on the *set* of canonical keys in the family,
never on family order (``complete`` carries family indices, which do
follow input order).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.motifs.motif import Motif

#: A canonical motif edge: node labels relabelled by first appearance.
CanonicalEdge = Tuple[int, int]


class TrieNode:
    """One matched motif edge in the shared search tree.

    ``seen`` is the number of distinct canonical node labels mapped
    once this node's edge is matched — because canonical labels are
    assigned in first-appearance order, a child edge's endpoint ``x``
    is already mapped iff ``x < seen``.
    """

    __slots__ = ("edge", "depth", "seen", "children", "complete",
                 "motifs_below", "index", "child_order")

    def __init__(self, edge: Optional[CanonicalEdge], depth: int, seen: int) -> None:
        self.edge = edge
        self.depth = depth
        self.seen = seen
        self.children: Dict[CanonicalEdge, "TrieNode"] = {}
        #: Family indices whose canonical key ends exactly here.
        self.complete: List[int] = []
        #: Family members whose path passes through (or ends at) this node.
        self.motifs_below = 0
        #: Dense node id assigned after construction (root excluded, -1).
        self.index = -1
        #: Children in deterministic (sorted-edge) order.
        self.child_order: Tuple["TrieNode", ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrieNode(edge={self.edge}, depth={self.depth}, "
            f"complete={self.complete}, children={len(self.children)})"
        )


class MotifTrie:
    """A motif family merged into a prefix trie of canonical edge-orderings.

    Parameters
    ----------
    motifs:
        The family, in any order.  Must be non-empty.  Duplicate motifs
        (equal canonical keys) share one completion node and each
        receive the same counts.
    """

    def __init__(self, motifs: Sequence[Motif]) -> None:
        if not motifs:
            raise ValueError("cannot build a motif trie from an empty family")
        self.motifs: Tuple[Motif, ...] = tuple(motifs)
        self.canonical_keys: List[Tuple[CanonicalEdge, ...]] = [
            m.canonical_key() for m in self.motifs
        ]
        self.root = TrieNode(edge=None, depth=0, seen=0)
        for index, key in enumerate(self.canonical_keys):
            self._insert(index, key)
        self._nodes: List[TrieNode] = []
        self._finalize(self.root)
        self.max_depth = max(n.depth for n in self._nodes)
        self.shared_nodes = sum(1 for n in self._nodes if n.motifs_below > 1)

    # -- construction ----------------------------------------------------------

    def _insert(self, index: int, key: Tuple[CanonicalEdge, ...]) -> None:
        node = self.root
        for u, v in key:
            child = node.children.get((u, v))
            if child is None:
                seen = node.seen + sum(1 for x in (u, v) if x >= node.seen)
                child = TrieNode(edge=(u, v), depth=node.depth + 1, seen=seen)
                node.children[(u, v)] = child
            node = child
        node.complete.append(index)

    def _finalize(self, node: TrieNode) -> int:
        """Assign dense indices, freeze child order, count motifs below."""
        below = len(node.complete)
        node.child_order = tuple(
            node.children[key] for key in sorted(node.children)
        )
        for child in node.child_order:
            child.index = len(self._nodes)
            self._nodes.append(child)
            below += self._finalize(child)
        node.motifs_below = below
        return below

    # -- accessors -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Trie nodes excluding the (edge-less) root."""
        return len(self._nodes)

    @property
    def family_size(self) -> int:
        return len(self.motifs)

    @property
    def first_edge_node(self) -> TrieNode:
        """The single depth-1 node: every canonical key starts ``(0, 1)``.

        Canonical relabelling maps any motif's first edge to ``(0, 1)``
        (self-loops are invalid motif edges), so the root always has
        exactly one child — the structural fact that lets the engine
        share the root-edge loop across the whole family.
        """
        (node,) = self.root.child_order
        return node

    def nodes(self) -> List[TrieNode]:
        """All edge nodes in dense-index order (index ``i`` at position ``i``)."""
        return list(self._nodes)

    def path(self, index: int) -> List[TrieNode]:
        """The node path (depth 1..l) matching family member ``index``."""
        out: List[TrieNode] = []
        node = self.root
        for edge in self.canonical_keys[index]:
            node = node.children[edge]
            out.append(node)
        return out

    def unshared_node_count(self) -> int:
        """Nodes a per-motif loop would visit: one path copy per motif."""
        return sum(len(key) for key in self.canonical_keys)

    def render(self) -> str:
        """ASCII rendering (tests / docs): one line per node."""
        lines: List[str] = []

        def walk(node: TrieNode) -> None:
            if node.edge is not None:
                tag = ""
                if node.complete:
                    names = ",".join(self.motifs[i].name for i in node.complete)
                    tag = f"  <- {names}"
                u, v = node.edge
                lines.append(f"{'  ' * (node.depth - 1)}{u}->{v}{tag}")
            for child in node.child_order:
                walk(child)

        walk(self.root)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MotifTrie({self.family_size} motifs, {self.num_nodes} nodes, "
            f"{self.shared_nodes} shared)"
        )
