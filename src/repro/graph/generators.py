"""Synthetic temporal graph generators standing in for the SNAP datasets.

The paper evaluates on six SNAP temporal networks (Table I).  Those traces
are not redistributable here, so each dataset is replaced by a *seeded
synthetic equivalent* that preserves the properties the evaluation
depends on:

- **relative scale** — the node/edge counts keep the paper's ordering
  (email-eu smallest ... stackoverflow largest), shrunk to laptop scale;
- **degree skew** — heavy-tailed out/in degrees, with wiki-talk and
  stackoverflow given markedly heavier tails (the paper's §VIII-A notes
  their largest neighborhoods are 2.6×–38.6× larger than the small
  datasets, which is what makes search index memoization pay off);
- **temporal burstiness** — edges arrive in sessions (reply chains),
  so δ-windows are locally dense the way communication networks are;
- **reciprocity** — replies create the back-edges that cyclic motifs
  (M1, M3) need in order to match.

Every generator is fully deterministic given ``(name, scale, seed)``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph

SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe for one named dataset.

    ``paper_nodes`` / ``paper_edges`` record the real dataset's size from
    Table I for reporting; ``base_nodes`` / ``base_edges`` are the sizes
    generated at ``scale=1.0``.
    """

    name: str
    abbrev: str
    paper_nodes: int
    paper_edges: int
    paper_span_days: int
    base_nodes: int
    base_edges: int
    span_days: int
    degree_exponent: float
    session_size: float
    session_scale_s: float
    reply_prob: float
    description: str
    #: Probability a burst edge continues the chain from the last
    #: destination (information cascades: A→B then B→C).
    cascade_prob: float = 0.30
    #: Probability a chain step closes back to the chain's origin,
    #: creating the temporal cycles M1/M3 mine.
    close_prob: float = 0.15


_SPECS: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _SPECS[spec.name] = spec
    _SPECS[spec.abbrev] = spec


_register(
    DatasetSpec(
        name="email-eu",
        abbrev="em",
        paper_nodes=986,
        paper_edges=332_300,
        paper_span_days=808,
        base_nodes=200,
        base_edges=4_000,
        span_days=808,
        degree_exponent=1.9,
        session_size=6.0,
        session_scale_s=1_200.0,
        reply_prob=0.35,
        description="Email exchanges at a European research institution",
    )
)
_register(
    DatasetSpec(
        name="mathoverflow",
        abbrev="mo",
        paper_nodes=24_800,
        paper_edges=506_500,
        paper_span_days=2_350,
        base_nodes=600,
        base_edges=5_000,
        span_days=2_350,
        degree_exponent=2.0,
        session_size=4.0,
        session_scale_s=1_800.0,
        reply_prob=0.30,
        description="Math Overflow user interactions",
    )
)
_register(
    DatasetSpec(
        name="ask-ubuntu",
        abbrev="ub",
        paper_nodes=159_300,
        paper_edges=964_400,
        paper_span_days=2_613,
        base_nodes=1_500,
        base_edges=6_000,
        span_days=2_613,
        degree_exponent=2.0,
        session_size=3.0,
        session_scale_s=1_800.0,
        reply_prob=0.25,
        description="Ask Ubuntu user interactions",
    )
)
_register(
    DatasetSpec(
        name="superuser",
        abbrev="su",
        paper_nodes=194_100,
        paper_edges=1_400_000,
        paper_span_days=2_773,
        base_nodes=1_800,
        base_edges=8_000,
        span_days=2_773,
        degree_exponent=2.0,
        session_size=3.0,
        session_scale_s=1_800.0,
        reply_prob=0.25,
        description="Super User user interactions",
    )
)
_register(
    DatasetSpec(
        name="wiki-talk",
        abbrev="wt",
        paper_nodes=1_100_000,
        paper_edges=7_800_000,
        paper_span_days=2_320,
        base_nodes=2_600,
        base_edges=12_000,
        span_days=2_320,
        degree_exponent=2.15,
        session_size=8.0,
        session_scale_s=1_500.0,
        reply_prob=0.30,
        description="Wikipedia talk-page edits (heavy-tailed hubs)",
    )
)
_register(
    DatasetSpec(
        name="stackoverflow",
        abbrev="so",
        paper_nodes=2_600_000,
        paper_edges=36_200_000,
        paper_span_days=2_774,
        base_nodes=4_200,
        base_edges=20_000,
        span_days=2_774,
        degree_exponent=2.15,
        session_size=6.0,
        session_scale_s=1_500.0,
        reply_prob=0.25,
        description="Stack Overflow user interactions (largest)",
    )
)

#: Canonical dataset order used throughout the paper's figures.
DATASET_NAMES: Tuple[str, ...] = (
    "email-eu",
    "mathoverflow",
    "ask-ubuntu",
    "superuser",
    "wiki-talk",
    "stackoverflow",
)


def dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset recipe by full name or two-letter abbreviation."""
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; known: {sorted(set(s.name for s in _SPECS.values()))}"
        ) from None


def _power_law_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like node popularity weights, randomly permuted over node IDs."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _picker(p: np.ndarray, rng: np.random.Generator) -> Callable[[], int]:
    """A draw-for-draw replacement for ``int(rng.choice(len(p), p=p))``.

    ``Generator.choice`` rebuilds the CDF of ``p`` (O(n)) on every call
    and then draws one ``rng.random()``.  This builds the CDF once, the
    way ``choice`` builds it (``cumsum``, then divide by the last
    element), and spends the same single ``rng.random()`` per pick on a
    binary search.  Each pick is O(log n), returns the index ``choice``
    would and leaves the generator in the state ``choice`` would.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    search, uniform = cdf.searchsorted, rng.random
    return lambda: int(search(uniform(), side="right"))


def synthesize(spec: DatasetSpec, scale: float = 1.0, seed: int = 0) -> TemporalGraph:
    """Generate a synthetic temporal graph for ``spec`` at ``scale``.

    The generator emits edges in *sessions*: a session picks an initiator
    and a small cast of participants, then produces a burst of directed
    edges with exponentially distributed inter-arrival gaps.  With
    probability ``reply_prob`` an edge is immediately answered by its
    reverse, which seeds the cyclic structure motifs M1/M3 match.

    Cost: O(n log n) for the two popularity CDFs, then O(log n) per node
    pick, so O(m log n) in all; edges go into one int64 buffer (24 bytes
    per edge) that becomes the graph's ``(m, 3)`` input array.  RNG
    contract: every pick consumes exactly the one ``rng.random()`` that
    ``rng.choice(n, p=w)`` consumes (see :func:`_picker`), so the draw
    sequence, and the graph, are those of the original per-edge
    ``rng.choice`` loop for every ``(spec, scale, seed)``.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    n = max(8, int(round(spec.base_nodes * scale)))
    m_target = max(16, int(round(spec.base_edges * scale)))
    span = spec.span_days * SECONDS_PER_DAY

    pick_out = _picker(_power_law_weights(n, spec.degree_exponent, rng), rng)
    pick_in = _picker(_power_law_weights(n, spec.degree_exponent, rng), rng)

    # Locals for the per-edge loop.  The thresholds are summed left to
    # right, as ``reply_prob + cascade_prob + close_prob`` always was,
    # so every comparison sees the same float and the graph is unchanged.
    uniform, random, exponential = rng.uniform, rng.random, rng.exponential
    geometric, p_session = rng.geometric, 1.0 / spec.session_size
    reply = spec.reply_prob
    cascade = reply + spec.cascade_prob
    close = cascade + spec.close_prob
    gap_scale = spec.session_scale_s
    edges = array("q")  # flat (src, dst, t) triples
    push = edges.extend
    m = 0
    while m < m_target:
        center = uniform(0.0, span)
        size = 1 + geometric(p_session)
        origin = pick_out()
        prev_src, prev_dst = -1, -1
        t = center
        for _ in range(size):
            if m >= m_target:
                break
            r = random()
            if prev_dst >= 0 and r < reply:
                src, dst = prev_dst, prev_src  # reply
            elif prev_dst >= 0 and r < cascade:
                src = prev_dst  # cascade: the recipient forwards onward
                dst = pick_in()
            elif prev_dst >= 0 and prev_dst != origin and r < close:
                src, dst = prev_dst, origin  # close the chain into a cycle
            else:
                src = origin if random() < 0.6 else pick_out()
                dst = pick_in()
            if dst == src:
                dst = (dst + 1) % n
            t += exponential(gap_scale)
            push((src, dst, int(t) if t < span else span))
            m += 1
            prev_src, prev_dst = src, dst
    return TemporalGraph(
        np.frombuffer(edges, dtype=np.int64).reshape(m, 3), num_nodes=n
    )


def make_dataset(name: str, scale: float = 1.0, seed: int = 0) -> TemporalGraph:
    """Generate the named synthetic dataset (see :data:`DATASET_NAMES`)."""
    return synthesize(dataset_spec(name), scale=scale, seed=seed)
