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

__all__ = [
    "window_t_limit",
    "in_delta_window",
    "window_horizon",
]


def window_t_limit(t_root, delta):
    """Inclusive upper timestamp bound for a match rooted at ``t_root``.

    An edge with ``t <= window_t_limit(t_root, delta)`` (and ``t >
    t_root``) can still extend the match; the first edge strictly past
    the limit terminates every scan (Algorithm 1's phase-2 filter).
    """
    return t_root + delta


def in_delta_window(t, t_root, delta):
    """True iff an edge at ``t`` can extend a match rooted at ``t_root``.

    Elementwise on arrays: strictly later than the root, and no more
    than δ after it (inclusive).
    """
    return (t_root < t) & (t <= window_t_limit(t_root, delta))


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
