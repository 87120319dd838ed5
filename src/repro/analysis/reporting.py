"""Plain-text / markdown table rendering and small numeric helpers."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports all average speedups this way.

    Raises :class:`ValueError` on an empty sequence and on zero,
    negative, NaN or infinite entries — a geometric mean of those is
    undefined, and silently returning ``nan`` (what ``math.log`` would
    propagate) has historically poisoned whole speedup tables.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    for v in vals:
        if math.isnan(v):
            raise ValueError("geomean of NaN is undefined")
        if not (0 < v < math.inf):
            raise ValueError(
                f"geomean requires finite positive values, got {v!r}"
            )
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_rate(value: float, unit: str) -> str:
    """Human-readable rate, e.g. ``12.3k edges/s`` (streaming reports).

    ``value`` must be a finite, non-negative number; negative, NaN or
    infinite rates indicate a broken timer upstream and raise
    :class:`ValueError` instead of rendering nonsense like
    ``nan edges/s``.
    """
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value < 0:
        raise ValueError(
            f"rate must be a finite non-negative number, got {value!r}"
        )
    if value >= 1e6:
        return f"{value / 1e6:.2f}M {unit}"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k {unit}"
    return f"{value:.1f} {unit}"


def _stringify(rows: Sequence[Sequence]) -> List[List[str]]:
    out: List[List[str]] = []
    for row in rows:
        out.append([x if isinstance(x, str) else _fmt(x) for x in row])
    return out


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return f"{x:,}"
    if isinstance(x, float):
        if x == 0:
            return "0"
        if abs(x) >= 1000 or abs(x) < 0.01:
            return f"{x:.3g}"
        return f"{x:.2f}"
    return str(x)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned fixed-width text table."""
    srows = _stringify(rows)
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in srows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_sharing_stats(sharing) -> str:
    """One-line summary of co-mining :class:`~repro.comine.SharingStats`.

    Used by ``repro census`` and the census benchmark to
    report how much traversal the family's prefix trie saved.
    """
    head = (
        f"shared traversal: {sharing.trie_nodes:,} trie nodes for "
        f"{sharing.family_size} motifs "
        f"({sharing.shared_nodes:,} shared, depth {sharing.max_depth}); "
    )
    if not sharing.populated:
        # No measured work (empty workload / cancelled run): say so
        # explicitly instead of passing the trie-shape ratio off as a
        # measurement.
        return head + (
            f"no traversal measured (structural prefix ratio "
            f"{sharing.structural_prefix_ratio:.3f})"
        )
    return head + (
        f"prefix-hit ratio {sharing.prefix_hit_ratio:.3f}, "
        f"{sharing.traversals_saved:,} candidate scans saved "
        f"({sharing.traversal_sharing:.2f}x sharing)"
    )


def format_markdown(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a GitHub-flavored markdown table."""
    srows = _stringify(rows)
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in srows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
