"""The single statement of the δ-window boundary rule (paper §II-A).

A δ-temporal match is a strictly time-increasing edge sequence whose
span satisfies ``t_l - t_1 <= δ`` — the window is **inclusive** at
``t_root + δ`` and **exclusive** at ``t_root`` (later edges must be
strictly later; construction uniquifies timestamps so "later" and
"larger index" coincide).  Historically the miners (Mackey, co-mining,
brute force), the streaming window ring, and the batched frontier
engine each restated this rule inline, which is exactly where
off-by-one regressions breed.  Every boundary decision now routes
through the helpers below; the δ-boundary rows of the correctness
matrix (``tests/parity_matrix.py``) pin the exact boundary behaviour
(``t == t_root + δ`` in, one tick later out) across every engine.

All helpers are scalar/array polymorphic: they accept Python ints or
numpy arrays and vectorize elementwise, so the batched engine can apply
them to whole frontiers at once.
"""

from __future__ import annotations

from repro.graph.temporal_graph import _INT64, _integer

__all__ = [
    "checked_delta",
    "checked_integer",
    "window_t_limit",
    "window_horizon",
]


def checked_delta(value) -> int:
    """``value`` as a window width δ, or :class:`ValueError`.

    The one δ check at every door (the HTTP bodies and the ``--delta``
    flags): an int (or an integral float) in ``[0, 2**63)``, so δ fits
    the int64 timestamps it is added to.  A bool or a string is not a δ.
    """
    return checked_integer(value, "delta")


def checked_integer(value, field: str, least: int = 0) -> int:
    """``value`` as the integer body field ``field``, or :class:`ValueError`.

    The same rule as :func:`checked_delta` (an int or an integral float,
    never a bool or a string) with ``least`` as the lower bound: a
    ``seq`` of 7.9 is refused, not read as 7.
    """
    try:
        number = _integer(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be an integer, got {value!r}") from None
    if not least <= number < _INT64:
        raise ValueError(f"{field} must be in [{least}, 2**63), got {number}")
    return number


def window_t_limit(t_root, delta):
    """Inclusive upper timestamp bound for a match rooted at ``t_root``.

    An edge with ``t <= window_t_limit(t_root, delta)`` (and ``t >
    t_root``) can still extend the match; the first edge strictly past
    the limit terminates every scan (Algorithm 1's phase-2 filter).
    """
    return t_root + delta


def window_horizon(t_now, delta):
    """Oldest (inclusive) timestamp that can still share a window with
    ``t_now``.

    This is the eviction rule of the streaming window ring: an edge
    with ``t < window_horizon(t_now, delta)`` can never again appear in
    a match completed at or after ``t_now``, because the completed
    match's span would exceed δ.  Dual of :func:`window_t_limit`:
    ``t >= window_horizon(t_now, delta)``  ⇔
    ``t_now <= window_t_limit(t, delta)``.
    """
    return t_now - delta
