"""Consistent-hash placement of graphs onto cluster node slots.

Graphs are placed on nodes by content identity: the ring maps a
:meth:`TemporalGraph.fingerprint` to an ordered list of node *slots*
(stable names like ``node-3``), so every coordinator — and every
service replica sharing the node pool — computes the same placement
without talking to anyone.  Two properties carry the whole design:

- **Determinism across processes.**  Positions come from ``blake2b``
  over the slot/key strings (content hashes, never the salted builtin
  ``hash``), so any process that knows the slot names derives the same
  ring.  This is the same discipline ``TemporalGraph.fingerprint``
  itself follows.
- **Stability under membership change.**  Each slot owns ``vnodes``
  points on the ring; a key's owner only changes when a slot is added
  or removed *between* the key and its old owner, so joining or leaving
  one slot of N moves only ~1/N of the keys (every moved key moves to
  or from the changed slot — an exact invariant the property suite
  asserts, not a statistical hope).

Respawning a dead node's process does **not** change the ring: the
replacement inherits the dead node's slot name, so placement — and
therefore which chunks retry where — is a pure function of cluster
*shape*, never of failure history.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Tuple

#: Ring points per slot.  64 keeps the max/mean key-load ratio close to
#: 1 for small clusters while the ring stays tiny (N * 64 entries).
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """A slot/key position on the ring: blake2b, content-based."""
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over named node slots.

    ``nodes_for(key, k)`` walks clockwise from the key's position and
    returns the first ``k`` *distinct* slots — the canonical placement
    (primary first) of the graph identified by ``key``.
    """

    def __init__(self, slots: Iterable[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        #: sorted (point, slot) pairs; rebuilt on membership change.
        self._points: List[Tuple[int, str]] = []
        self._slots: set = set()
        for slot in slots:
            self.add(slot)

    # -- membership ------------------------------------------------------------

    def add(self, slot: str) -> None:
        if not slot:
            raise ValueError("slot name must be non-empty")
        if slot in self._slots:
            raise ValueError(f"slot {slot!r} already on the ring")
        self._slots.add(slot)
        for i in range(self.vnodes):
            pair = (_point(f"{slot}#{i}"), slot)
            bisect.insort(self._points, pair)

    def remove(self, slot: str) -> None:
        if slot not in self._slots:
            raise KeyError(f"slot {slot!r} not on the ring")
        self._slots.discard(slot)
        self._points = [p for p in self._points if p[1] != slot]

    @property
    def slots(self) -> List[str]:
        return sorted(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, slot: str) -> bool:
        return slot in self._slots

    # -- placement -------------------------------------------------------------

    def nodes_for(self, key: str, k: int = 1) -> List[str]:
        """The first ``k`` distinct slots clockwise of ``key``.

        ``k`` larger than the ring returns every slot (in ring order) —
        the degenerate "replicate everywhere" placement small clusters
        use by default.
        """
        if not self._slots:
            raise KeyError("ring has no slots")
        if k < 1:
            raise ValueError("k must be >= 1")
        start = bisect.bisect(self._points, (_point(key), ""))
        owners: List[str] = []
        n = len(self._points)
        for i in range(n):
            slot = self._points[(start + i) % n][1]
            if slot not in owners:
                owners.append(slot)
                if len(owners) == k:
                    break
        return owners

    def successors(self, key: str, exclude: Iterable[str] = ()) -> List[str]:
        """Every slot in clockwise preference order, minus ``exclude`` —
        the failover order when a key's placed slots are all dead."""
        banned = set(exclude)
        return [s for s in self.nodes_for(key, len(self._slots)) if s not in banned]
