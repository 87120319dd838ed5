"""Shared-traversal mining for motif families (``repro.comine``).

Multi-motif workloads — the 36-motif Paranjape grid census, the
service layer's same-(graph, δ) batched queries, streaming catalogs —
historically re-walked the graph once per motif.  This subsystem mines
a whole family in ONE traversal:

- :mod:`repro.comine.trie` canonicalizes the family into a prefix trie
  of partial edge-orderings (shared prefixes merged, leaves tagged with
  the motifs they complete);
- :mod:`repro.comine.engine` walks that trie with vectorised numpy
  frontiers — each node's windows found once for every motif below it,
  the last level counted instead of enumerated — with per-motif counts
  *and* per-motif search counters byte-identical to a dedicated
  :class:`~repro.mining.mackey.MackeyMiner` run, plus
  :class:`~repro.comine.engine.SharingStats` quantifying the traversal
  the trie saved.  A single motif is the family of one
  (:class:`repro.mining.batched.BatchedMiner`).

It is the repo's one exact engine (:data:`repro.mining.dispatch.ENGINE`):
``repro.mining.multi``'s censuses, ``count`` / ``count_many`` /
``count_family`` on every runner (root-range family chunks with the
existing retry/chaos machinery), the service, ``repro mine`` and
``repro census``.
"""

from repro.comine.trie import MotifTrie
from repro.comine.engine import CoMiner, FamilyResult, SharingStats, co_count

__all__ = [
    "MotifTrie",
    "CoMiner",
    "FamilyResult",
    "SharingStats",
    "co_count",
]
