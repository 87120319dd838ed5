"""A tiny textual DSL for δ-temporal motifs.

Motifs are written as comma- or semicolon-separated directed edges in
chronological order, using arbitrary node labels::

    A->B, B->C, C->A          # the paper's M1 (3-cycle)
    u1 -> u2; u2 -> u1        # ping-pong
    a->b, a->c, a->d, a->e    # M4 (out-star)

Labels may be any identifier (letters, digits, underscore); whitespace
is insignificant; ``#`` starts a comment that runs to the end of the
string or line.  Node IDs are assigned in order of first appearance, so
the parsed motif matches the textual reading order, like
:meth:`~repro.motifs.motif.Motif.from_labels`.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.motifs.motif import Motif

_EDGE_RE = re.compile(
    r"^\s*(?P<src>[A-Za-z_][A-Za-z0-9_]*)\s*->\s*(?P<dst>[A-Za-z_][A-Za-z0-9_]*)\s*$"
)


class MotifParseError(ValueError):
    """Raised for malformed motif specifications."""


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def parse_motif(spec: str, name: str = "motif") -> Motif:
    """Parse a motif specification string into a :class:`Motif`.

    Raises :class:`MotifParseError` with a pointed message on bad input;
    the underlying :class:`Motif` validation (self-loops, size limit)
    also surfaces through it.
    """
    text = _strip_comments(spec)
    parts = re.split(r"[;,\n]", text)
    edges: List[Tuple[str, str]] = []
    for part in parts:
        if not part.strip():
            continue
        m = _EDGE_RE.match(part)
        if m is None:
            raise MotifParseError(
                f"cannot parse edge {part.strip()!r}; expected 'label->label'"
            )
        edges.append((m.group("src"), m.group("dst")))
    if not edges:
        raise MotifParseError("motif specification contains no edges")
    try:
        return Motif.from_labels(edges, name=name)
    except ValueError as exc:
        raise MotifParseError(str(exc)) from exc
