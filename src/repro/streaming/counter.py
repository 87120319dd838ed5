"""Incremental δ-temporal motif counting over an edge stream.

The batch miners (Mackey, the family walker) search a *finished* edge
list.  The streaming engine inverts that control flow: edges arrive
one at a time and the engine maintains **continuation tables** of
partial matches — the same functional state a
:class:`~repro.mining.context.MiningContext` holds for one search tree
(motif→graph node bindings and the root's time), frozen at the depth
the partial has reached.

One engine counts a whole **family** of *slots*, each slot one
``(motif, δ)`` query.  The motifs are merged into a
:class:`~repro.comine.trie.MotifTrie`, so a partial match lives at a
trie node and is shared by every slot whose motif passes through that
node, at every δ: a match valid at δ is valid at any larger δ
(Mayura's cross-motif sharing, arxiv 2507.14813, applied across
windows too).  A single motif is a family of one slot
(:class:`MotifStreamEngine`); there is no second engine.

Each trie node has a **bound**: the widest δ of the slots at or below
it.  A partial lives only as long as its node's bound allows, so the
spread of δ across slots costs nothing beyond what each branch's own
slots need: a slot with a huge δ keeps alive only the partials on its
own path, never those on a branch used only by narrower slots.

On each arrival ``(s, d, t)`` the engine:

1. **evicts** every partial whose root is older than ``t - bound`` of
   its node.  A match spans at most δ and timestamps are strictly
   increasing, so such a partial can never count again for any slot
   below it — dropping it is exact, not approximate.  Partials are
   queued by band (one per distinct bound) and, within a band, by root:
   roots are created in time order, so each band's deque of roots, each
   holding that band's partials grown from it, is its eviction queue;
2. **extends** live partials whose next motif edge is satisfied by the
   arrival.  A partial waits in one bucket per child of its node, under
   the *demand key* ``(u_g, v_g)`` of that child's edge (-1 for an
   unmapped endpoint), so only four bucket lookups are needed: ``(s,
   d)``, ``(s, -1)``, ``(-1, d)`` and ``(-1, -1)``.  An extension
   clones the partial one node deeper (the parent stays live for other
   future edges) — into a narrower band only while the span is within
   that child's bound; at a node where slots complete, the match counts
   for each slot whose δ covers its span ``t - t_root``;
3. **roots** a new partial mapping motif edge 0 to the arrival (unless
   it is a self-loop — motif edges never are).

Every match is completed exactly once per slot — by the arrival of its
last edge — so after a full replay each slot's total equals the batch
miners' byte-for-byte.  That differential parity is the correctness
claim (there is no paper figure for streaming) and is pinned per edge
and per slot against :class:`~repro.mining.mackey.MackeyMiner` by
``tests/test_streaming_parity.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.comine.trie import MotifTrie, TrieNode
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.window import window_t_limit
from repro.motifs.catalog import EVALUATION_MOTIFS, EXTRA_MOTIFS
from repro.motifs.motif import Motif
from repro.streaming.window import StreamBuffer

#: Demand-key sentinel for a not-yet-mapped motif endpoint.
UNMAPPED = -1


class Slot:
    """One ``(motif, δ)`` query counted by a :class:`FamilyStreamEngine`.

    ``count`` is the number of matches completed since the slot's
    engine saw its first edge.
    """

    __slots__ = ("motif", "delta", "count", "engine", "_node")

    def __init__(self, motif: Motif, delta: int) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.motif = motif
        self.delta = int(delta)
        self.count = 0
        #: The engine this slot was added to (set by ``add_slot``).
        self.engine: Optional["FamilyStreamEngine"] = None
        self._node: Optional["_Node"] = None

    def __repr__(self) -> str:
        return (
            f"Slot({self.motif.name!r}, delta={self.delta}, "
            f"count={self.count})"
        )


class _Node:
    """A :class:`~repro.comine.trie.TrieNode` as the stream engine walks it.

    ``children`` holds ``(child, iu, iv)``: where in a partial's bindings
    tuple the child edge's endpoints are found — the canonical label if
    it is already bound here, else the index of the trailing
    ``UNMAPPED`` pad.  ``slots`` are the slots completing here, widest δ
    first.  :meth:`prune` derives the rest.  ``bound`` is the widest δ
    of any slot at or below the node (-1 if none): a partial here whose
    span has passed it can never count again, so a live one's span never
    has, and the slots at the bound (``full``) count every completion
    here while the ``narrow`` ones (widest first, the widest δ being
    ``reach``) must check the span.  Children with a slot below are
    spawned into: those with this node's bound from ``spawn``, narrower
    ones from ``far`` (widest first); ``grows`` says whether there are
    any.  ``band`` indexes the engine's eviction queue for ``bound``.
    """

    __slots__ = (
        "children", "slots", "bound", "spawn", "far", "grows", "full",
        "narrow", "reach", "band",
    )

    def __init__(
        self,
        children: Tuple[Tuple["_Node", int, int], ...] = (),
        slots: Sequence[Slot] = (),
    ) -> None:
        self.children = children
        self.slots = sorted(slots, key=lambda slot: -slot.delta)
        for slot in self.slots:
            slot._node = self

    def prune(self) -> int:
        """Re-derive everything but ``band`` from the slots below;
        returns ``bound``."""
        live = [c for c in self.children if c[0].prune() >= 0]
        self.bound = bound = max(
            [c[0].bound for c in live] + [slot.delta for slot in self.slots],
            default=-1,
        )
        self.spawn = tuple(c for c in live if c[0].bound == bound)
        self.far = tuple(sorted(
            (c for c in live if c[0].bound < bound),
            key=lambda c: -c[0].bound,
        ))
        self.grows = bool(live)
        self.full = [slot for slot in self.slots if slot.delta == bound]
        self.narrow = [slot for slot in self.slots if slot.delta < bound]
        self.reach = self.narrow[0].delta if self.narrow else -1
        return bound


def _walk(
    trie_node: TrieNode, slots: List[Slot], patterns: set, nodes: List[_Node]
) -> _Node:
    """The stream-engine view of ``trie_node``'s subtree, ``slots`` being
    the trie's family in order; every node made is added to ``nodes``.

    Adds to ``patterns`` which endpoints of each child edge are bound
    afresh — which of the four demand-key shapes the subtree's partials
    can wait under.
    """
    seen = trie_node.seen
    children = []
    for c in trie_node.child_order:
        u, v = c.edge
        patterns.add((u >= seen, v >= seen))
        children.append(
            (_walk(c, slots, patterns, nodes), min(u, seen), min(v, seen))
        )
    node = _Node(tuple(children), [slots[i] for i in trie_node.complete])
    nodes.append(node)
    return node


class _Root(list):
    """The partials of one band grown from one root edge, evicted
    together once ``limit`` (the root's ``time`` plus the band's bound)
    is passed.  ``kin`` lists the root edge's ``_Root`` in every band.
    A list subclass because one is made per root edge and a plain
    ``__init__`` would cost as much as the partial it roots."""

    __slots__ = ("time", "limit", "kin")


class PartialMatch:
    """A match prefix waiting for one more edge: the trie node whose edge
    it needs next, the graph nodes its motif labels are bound to
    (``m2g``, padded with one trailing ``UNMAPPED``), and ``key``, the
    demand key of ``node``'s edge — the bucket it waits in."""

    __slots__ = ("node", "root", "m2g", "key")

    def __init__(
        self, node: _Node, root: _Root, m2g: Tuple[int, ...], key: Tuple[int, int]
    ) -> None:
        self.node = node
        self.root = root
        self.m2g = m2g
        self.key = key

    @property
    def t_limit(self) -> int:
        return self.root.limit

    def __repr__(self) -> str:
        return f"PartialMatch(t_limit={self.t_limit}, m2g={self.m2g})"


class FamilyStreamEngine:
    """Continuation tables shared by a family of ``(motif, δ)`` slots.

    Pure matching logic: it never stores edges (that is
    :class:`~repro.streaming.window.StreamBuffer`'s job) and assumes
    strictly increasing timestamps — callers uniquify upstream.  Slots
    are added before the first edge (:meth:`add_slot`) and may be
    removed at any time (:meth:`remove_slot`).
    """

    def __init__(self) -> None:
        self.num_edges = 0
        self.live_partials = 0
        self.evicted_total = 0
        self.peak_live = 0
        self.slots: List[Slot] = []
        #: One entry per (slot, match) the last edge completed.
        self.completed: List[Slot] = []
        # Demand-keyed continuation tables: key -> {partial: None}.
        self._buckets: Dict[Tuple[int, int], Dict[PartialMatch, None]] = {}
        self._first = _Node()
        self._nodes = [self._first]
        #: ``(u_new, v_new)`` demand-key shapes some trie edge has.
        self._patterns: Tuple[Tuple[bool, bool], ...] = ()
        self._refresh()

    # -- the family ------------------------------------------------------------

    def add_slot(self, slot: Slot) -> Slot:
        """Count ``slot`` too; only an engine that has seen no edge grows."""
        if self.num_edges:
            raise ValueError("a family gains slots only before its first edge")
        slot.engine = self
        self.slots.append(slot)
        trie = MotifTrie([s.motif for s in self.slots])
        patterns: set = set()
        self._nodes = []
        self._first = _walk(
            trie.first_edge_node, self.slots, patterns, self._nodes
        )
        self._patterns = tuple(sorted(patterns))
        self._refresh()
        return slot

    def remove_slot(self, slot: Slot) -> None:
        """Stop counting ``slot``.  Partials no remaining slot can use go
        now; the rest are requeued under their nodes' new bounds, so
        those past them go on the next edge."""
        self.slots.remove(slot)
        slot._node.slots.remove(slot)
        old = [root for roots in self._bands for root in roots]
        self._refresh()
        by_time: Dict[int, List[PartialMatch]] = {}
        for root in old:
            by_time.setdefault(root.time, []).extend(
                p for p in root if p.node.bound >= 0
            )
            root.clear()
            root.kin = None
        self._buckets = buckets = {}
        kept = 0
        for time in sorted(by_time):
            if by_time[time]:
                kin = self._open_root(time)
                for p in by_time[time]:
                    p.root = kin[p.node.band]
                    p.root.append(p)
                    buckets.setdefault(p.key, {})[p] = None
                kept += len(by_time[time])
        self.evicted_total += self.live_partials - kept
        self.live_partials = kept

    def _refresh(self) -> None:
        """Re-derive every node's bound and band, and open one empty
        eviction queue per distinct bound, widest first."""
        self._first.prune()
        bounds = sorted(
            {n.bound for n in self._nodes if n.bound >= 0}, reverse=True
        )
        for n in self._nodes:
            n.band = bounds.index(n.bound) if n.bound >= 0 else 0
        self._bounds = bounds
        self._bands: List[Deque[_Root]] = [deque() for _ in bounds]
        self._banded = len(bounds) > 1
        #: The widest δ among the slots: the first node's bound.
        self._delta_max = bounds[0] if bounds else -1

    def _open_root(self, t: int) -> List[_Root]:
        """Queue a root at time ``t`` in every band; returns them by band."""
        kin: List[_Root] = []
        for roots, bound in zip(self._bands, self._bounds):
            root = _Root()
            root.time = t
            root.limit = window_t_limit(t, bound)
            root.kin = kin
            roots.append(root)
            kin.append(root)
        return kin

    # -- the one hot path ------------------------------------------------------

    def step(self, s: int, d: int, t: int) -> int:
        """Feed one edge; returns the number of (slot, match) completions
        it made, which :attr:`completed` lists."""
        self.num_edges += 1
        buckets = self._buckets

        # 1. Eviction: a partial whose span has passed its node's bound
        #    can never count again.  Each band's roots are in time order.
        for roots in self._bands:
            if roots and roots[0].limit < t:
                dropped = 0
                while roots and roots[0].limit < t:
                    root = roots.popleft()
                    dropped += len(root)
                    for p in root:
                        bucket = buckets[p.key]
                        del bucket[p]
                        if not bucket:
                            del buckets[p.key]
                    # Partials point at their root, roots at their kin:
                    # break the cycles so all are freed now, not by the
                    # cyclic collector.
                    root.clear()
                    root.kin = None
                self.evicted_total += dropped
                self.live_partials -= dropped

        hits: List[Slot] = []
        spawned: List[PartialMatch] = []

        # 2. Extension: at most four demand-key lookups cover every live
        #    partial this edge can advance (see module docstring); only
        #    the shapes some trie edge has are looked up.
        for u_new, v_new in self._patterns:
            key = (UNMAPPED if u_new else s, UNMAPPED if v_new else d)
            bucket = buckets.get(key)
            if not bucket:
                continue
            # What the arrival binds, appended before the pad; a freshly
            # bound endpoint must be a graph node the partial has not
            # bound yet (injectivity).
            if u_new:
                if v_new:
                    if s == d:
                        continue
                    fresh = (s, d, UNMAPPED)
                else:
                    fresh = (s, UNMAPPED)
            elif v_new:
                fresh = (d, UNMAPPED)
            else:
                fresh = None
            for p in bucket:
                m2g = p.m2g
                if fresh is not None and (
                    (u_new and s in m2g) or (v_new and d in m2g)
                ):
                    continue
                node = p.node
                root = p.root
                slots = node.slots
                if slots:
                    # A live partial's span is within its node's bound, so
                    # the slots at the bound always count; narrower ones
                    # (widest first) while span <= δ, window_t_limit's
                    # inclusive bound.
                    hits += node.full
                    span = t - root.time
                    if span <= node.reach:
                        for slot in node.narrow:
                            if span > slot.delta:
                                break
                            hits.append(slot)
                    if not node.grows:
                        continue  # a leaf: no bindings to build
                if fresh is not None:
                    m2g = m2g[:-1] + fresh
                for child, iu, iv in node.spawn:
                    spawned.append(
                        PartialMatch(child, root, m2g, (m2g[iu], m2g[iv]))
                    )
                if node.far:
                    # Narrower children, widest first: only while the
                    # span is within their bound, queued in their band.
                    kin = root.kin
                    for child, iu, iv in node.far:
                        band_root = kin[child.band]
                        if t > band_root.limit:
                            break
                        spawned.append(PartialMatch(
                            child, band_root, m2g, (m2g[iu], m2g[iv])
                        ))

        # 3. Rooting: map motif edge 0 to this edge (never a self-loop).
        if s != d:
            first = self._first
            if first.slots:
                hits.extend(first.slots)
            if first.spawn or first.far:
                if self._banded:
                    root = self._open_root(t)[0]
                else:  # one band: no kin list, as nothing reads it
                    root = _Root()
                    root.time = t
                    root.limit = window_t_limit(t, self._delta_max)
                    self._bands[0].append(root)
                m2g = (s, d, UNMAPPED)
                for child, iu, iv in first.spawn:
                    spawned.append(
                        PartialMatch(child, root, m2g, (m2g[iu], m2g[iv]))
                    )
                for child, iu, iv in first.far:
                    spawned.append(PartialMatch(
                        child, root.kin[child.band], m2g, (m2g[iu], m2g[iv])
                    ))

        # 4. Insert after the scan so this edge never extends a partial
        #    it just spawned (matched edges are strictly time-increasing).
        if spawned:
            for p in spawned:
                p.root.append(p)
                bucket = buckets.get(p.key)
                if bucket is None:
                    buckets[p.key] = {p: None}
                else:
                    bucket[p] = None
            live = self.live_partials + len(spawned)
            self.live_partials = live
            if live > self.peak_live:
                self.peak_live = live
        for slot in hits:
            slot.count += 1
        self.completed = hits
        return len(hits)


class MotifStreamEngine(FamilyStreamEngine):
    """The engine for one ``(motif, δ)``: a family of one slot."""

    def __init__(self, motif: Motif, delta: int) -> None:
        super().__init__()
        self.slot = self.add_slot(Slot(motif, delta))
        self.motif = motif
        self.delta = self.slot.delta

    @property
    def count(self) -> int:
        return self.slot.count

    #: Feed one edge; returns the number of matches it completed.
    advance = FamilyStreamEngine.step


class StreamingCatalogCounter:
    """Many motifs at one δ, one stream buffer, one engine.

    Each edge is appended to the buffer once and advanced through one
    :class:`FamilyStreamEngine` holding a slot per motif, so partials
    the motifs share are rooted and stored once, and each motif's count
    stays byte-identical to counting it alone.  After replaying any
    time-sorted edge list, the count of motif ``m`` equals
    ``MackeyMiner(TemporalGraph(edges), m, delta).mine().count``
    exactly, for any interleaving of :meth:`add_edge` /
    :meth:`add_batch` calls.
    """

    def __init__(
        self, motifs: Sequence[Motif] | None = None, delta: int = 0
    ) -> None:
        if motifs is None:
            motifs = EVALUATION_MOTIFS + EXTRA_MOTIFS
        names = [m.name for m in motifs]
        if len(set(names)) != len(names):
            raise ValueError("motif names must be unique in a catalog")
        self.delta = int(delta)
        self.buffer = StreamBuffer(delta)
        self._engine = FamilyStreamEngine()
        self._slots: Dict[str, Slot] = {
            m.name: self._engine.add_slot(Slot(m, delta)) for m in motifs
        }

    # -- ingestion -------------------------------------------------------------

    def add_edge(self, src: int, dst: int, t: int) -> int:
        """Ingest one edge; returns the number of matches it completed."""
        _, t_adj = self.buffer.append(src, dst, t)
        return self._engine.step(int(src), int(dst), t_adj)

    def add_batch(self, edges: Iterable[Tuple[int, int, int]]) -> int:
        """Ingest a batch of time-sorted edges; returns completed matches."""
        completed = 0
        for s, d, t in edges:
            completed += self.add_edge(s, d, t)
        return completed

    # -- results / introspection ----------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        """Per-motif counts, keyed by motif name."""
        return {name: slot.count for name, slot in self._slots.items()}

    @property
    def count(self) -> int:
        return sum(slot.count for slot in self._slots.values())

    @property
    def num_edges(self) -> int:
        return self.buffer.num_edges

    @property
    def live_partials(self) -> int:
        return self._engine.live_partials

    @property
    def evicted_partials(self) -> int:
        return self._engine.evicted_total

    @property
    def peak_live_partials(self) -> int:
        return self._engine.peak_live

    @property
    def window_size(self) -> int:
        return self.buffer.window_size

    def engines(self) -> Tuple[FamilyStreamEngine, ...]:
        return (self._engine,)

    def snapshot(self) -> TemporalGraph:
        """The ingested prefix as a batch-minable :class:`TemporalGraph`."""
        return self.buffer.snapshot()

    def window_snapshot(self) -> TemporalGraph:
        """Only the edges inside the live δ-window, as a graph.

        Node IDs are preserved, so any catalog motif — not just the
        streamed ones — can be counted on the window through the
        ordinary batch path.
        """
        return self.buffer.window_snapshot()


class StreamingCounter(StreamingCatalogCounter):
    """Exact single-motif δ-window counter over a live edge stream: a
    catalog of one."""

    def __init__(self, motif: Motif, delta: int) -> None:
        super().__init__([motif], delta)
        self.motif = motif

    def __repr__(self) -> str:
        return (
            f"StreamingCounter({self.motif.name!r}, delta={self.delta}, "
            f"count={self.count}, edges={self.num_edges})"
        )
