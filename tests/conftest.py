"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Iterator, List, Tuple

import pytest

from repro.analysis.experiments import ScalePolicy, run_all
from repro.graph.temporal_graph import TemporalGraph
from repro.motifs.catalog import M1, M2, PATH3, PING_PONG
from repro.motifs.motif import Motif


def _motif(name: str, *edges: Tuple[str, str]) -> Motif:
    return Motif.from_labels(list(edges), name=name)


#: One family holding every shape of trie node the family engine's walk
#: distinguishes (``test_comine.py`` pins it on a fixed graph,
#: ``test_property.py`` fuzzes it).
WALKER_FAMILY = [
    M1,
    # The root step itself completes a motif; so does M1's own two-edge
    # prefix: internal nodes with a completion.
    _motif("edge", ("A", "B")),
    _motif("m1-prefix", ("A", "B"), ("B", "C")),
    M1,  # a duplicate: one completion node, two family members
    M2,
    PATH3,
    PING_PONG,
    # A non-leaf closing edge: its accepted rows come out of the pair index.
    _motif("pong-then-out", ("A", "B"), ("B", "A"), ("A", "C")),
    # Four nodes, four edges: three bound labels subtracted at the leaf.
    _motif("cycle-then-out", ("A", "B"), ("B", "C"), ("C", "A"), ("A", "D")),
    _motif("cycle-then-in", ("A", "B"), ("B", "C"), ("C", "A"), ("D", "B")),
    # Disconnected: the edge-list tail scan, as a leaf and as an internal node.
    _motif("two-islands", ("A", "B"), ("C", "D")),
    _motif("islands-bridged", ("A", "B"), ("C", "D"), ("D", "A")),
    _motif("islands-then-out", ("A", "B"), ("C", "D"), ("B", "E")),
    # Ranges the walk reads off the matched edge instead of searching:
    # an out-scan of the last edge's source (C→E after C→D) starts right
    # after that edge, one of its destination (D→B after C→D, and PATH3)
    # where that node's first later out-edge sits.
    _motif("fan-from-last-src", ("A", "B"), ("B", "C"), ("C", "D"), ("C", "E")),
    _motif("out-of-last-dst", ("A", "B"), ("B", "C"), ("C", "D"), ("D", "B")),
    # The in-scan of the last edge's destination, with the last edge's
    # own pair among the pairs a leaf subtracts.
    _motif("into-last-dst", ("A", "B"), ("B", "C"), ("C", "D"), ("E", "D")),
    # The in-scan of the last edge's source (D→B after B→C), enumerated
    # for an internal child.
    _motif("into-last-src", ("A", "B"), ("B", "C"), ("D", "B"), ("D", "A")),
    # Closing on the last edge's own pair (internal, so its range is
    # enumerated) and on its reverse, whose pair may never occur.
    _motif("close-own-pair", ("A", "B"), ("B", "C"), ("B", "C"), ("C", "D")),
    _motif("close-reverse", ("A", "B"), ("B", "C"), ("C", "B")),
    # A window over a root label (A), read per root, from a depth-3
    # frontier for an internal child.
    _motif("root-scan-deep", ("A", "B"), ("B", "C"), ("C", "D"), ("A", "E"), ("E", "B")),
]


@contextmanager
def serving(service, handler=None) -> Iterator[Tuple[str, int]]:
    """Serve ``service`` over HTTP on an ephemeral port in a daemon
    thread; yields ``(host, port)`` and stops the server on exit.

    ``handler`` replaces the request handler class (a tapped subclass).
    The short ``poll_interval`` lets ``shutdown()`` return within ~10 ms
    instead of waiting out ``serve_forever``'s default 0.5 s poll.
    """
    from repro.service import make_server

    server = make_server(service, port=0)
    if handler is not None:
        server.RequestHandlerClass = handler
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def random_temporal_graph(
    rng: random.Random,
    num_nodes: int,
    num_edges: int,
    time_range: int = 1000,
    allow_self_loops: bool = False,
) -> TemporalGraph:
    """Build a uniformly random temporal graph for property tests."""
    edges: List[Tuple[int, int, int]] = []
    for _ in range(num_edges):
        s = rng.randrange(num_nodes)
        d = rng.randrange(num_nodes)
        if not allow_self_loops and d == s and num_nodes > 1:
            d = (d + 1) % num_nodes
        edges.append((s, d, rng.randrange(time_range)))
    return TemporalGraph(edges, num_nodes=num_nodes)


#: The small experiment policy :func:`tiny_run` runs at.
TINY = ScalePolicy(scale=0.04, window_edges_cap=5.0, num_pes=16, presto_samples=4)


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """One small ``run_all`` (email-eu, M1) and the path of its archive,
    shared by ``test_run_all.py`` and ``test_report.py``."""
    out = tmp_path_factory.mktemp("runs") / "run.json"
    metrics = run_all(TINY, out_path=str(out), datasets=("email-eu",), motifs=(M1,))
    return metrics, out


@pytest.fixture
def tiny_graph() -> TemporalGraph:
    """The walk-through example of the paper's Fig. 1/4.

    Edges (index: src->dst @t): 0: 0->1@5, 1: 1->2@10, 2: 2->0@20,
    3: 2->3@25, 4: 1->2@30, 5: 0->1@40.
    """
    return TemporalGraph(
        [
            (0, 1, 5),
            (1, 2, 10),
            (2, 0, 20),
            (2, 3, 25),
            (1, 2, 30),
            (0, 1, 40),
        ]
    )


@pytest.fixture
def chain_graph() -> TemporalGraph:
    """A time-ordered chain a->b->c->d->e with one edge per step."""
    return TemporalGraph(
        [(0, 1, 10), (1, 2, 20), (2, 3, 30), (3, 4, 40)]
    )


@pytest.fixture
def burst_graph() -> TemporalGraph:
    """Bursty multi-edges between few nodes; exercises repeated pairs."""
    return TemporalGraph(
        [
            (0, 1, 1),
            (1, 0, 2),
            (0, 1, 3),
            (1, 0, 4),
            (0, 2, 5),
            (2, 1, 6),
            (0, 1, 7),
            (1, 2, 8),
            (2, 0, 9),
        ]
    )
