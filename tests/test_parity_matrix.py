"""The correctness matrix's cells, each against the serial
``MackeyMiner`` (``tests/parity_matrix.py`` declares rows, axes, the
reference and the one skip rule).

:data:`GRID` and :data:`~parity_matrix.HYPOTHESIS_GRID` say which
products run; each product is a cell ``(row, runner, mode, fault,
order)``.  Each column is one runner, so a change that deletes a
subsystem deletes its runner's column here.  A cell runs as one pytest
id: the id its check had in a suite before the matrix, where one carries
it (``parity_matrix.FORMER_IDS``), else ``test_cell[...]`` here.  Run as
a script to print every cell and where it runs::

    PYTHONPATH=src python tests/test_parity_matrix.py
"""

from __future__ import annotations

from itertools import product

import pytest

from parity_matrix import (
    CARRIED, CATALOG, DELTA_CASES, FORMER_IDS, HYPOTHESIS_CELLS, LIVE_SCALES, ROWS, SLOT_SETS,
    STREAM_SCALES, dataset_row, meaningful, run_cells, shared,  # noqa: F401 (fixture)
)
from repro.graph.generators import DATASET_NAMES

DIRECT, NONE, IN_ORDER = ("direct",), ("none",), ("in-order",)
CASES = [name for name, *_ in DELTA_CASES]
STREAM_ROWS = [dataset_row(n, s, 11, 40) for n, s in STREAM_SCALES.items()]
LIVE_ROWS = ["live:" + dataset_row(n, s, 11, 40) for n, s in LIVE_SCALES.items()]
TWO_STREAMS = [dataset_row("email-eu", 0.06, 11, 40), dataset_row("wiki-talk", 0.02, 11, 40)]
EMAIL_15 = dataset_row("email-eu", 0.15, 11, 30)
EXECUTOR_MODES = ("InlineExecutor", "PoolExecutor", "ClusterExecutor", "shared-ClusterExecutor")
STREAM_ORDERS = ("batch-1", "batch-all")

#: (rows, runners, modes, faults, orders): every product that
#: :func:`meaningful` keeps is a cell.
GRID = [
    # δ-boundary cases: hand-derived counts, every runner.
    (CASES, ("bruteforce", "walker", "simulator", "pool:w2", "cluster:w2", "stream"),
     DIRECT, NONE, IN_ORDER + STREAM_ORDERS),
    ([c + s for c in CASES for s in ("@delta-1", "@delta+1")],
     ("bruteforce", "walker", "simulator", "stream"), DIRECT, NONE, IN_ORDER + ("batch-all",)),
    ([c + "+mixed-delta" for c in CASES], ("stream-family",), DIRECT, NONE, ("per-edge",)),
    # The catalog on a random graph: root blocks and chunkings never
    # change a byte; dispatched and served as one batch or per query.
    (["rand17"], ("walker:b64",), DIRECT, NONE, IN_ORDER),
    (["rand17[M1]"], tuple(f"walker:b{b}" for b in (1, 3, 17, 100)), DIRECT, NONE, IN_ORDER),
    (["rand17[M2]"], tuple(f"chunked:b23:s{s}" for s in (1, 7, 50, 333, 1000)), DIRECT, NONE,
     IN_ORDER),
    (["rand17"], ("inline", "pool:w2"), DIRECT + ("InlineExecutor", "PoolExecutor"), NONE,
     IN_ORDER + ("batch-1",)),
    # Seeded kill plans: k of n workers, or whole nodes.
    (["rand17"], ("pool:w3",), DIRECT, ("kill2:s5",), IN_ORDER),
    (["rand23"], ("inline", "pool:w3"), DIRECT,
     ("none", "kill1:s1", "kill2:s1", "kill1:s2", "kill2:s2", "kill1:s7", "kill-w1@3"), IN_ORDER),
    (["rand23"], ("cluster:w3",), DIRECT, ("nodekill1:s7", "nodekill-n1@1"), IN_ORDER),
    (["rand23"], ("cluster:w2",), DIRECT + ("ClusterExecutor",),
     ("nodekill-n0@1:no-respawn", "failover", "batch-fault"), IN_ORDER + ("batch-all",)),
    # The service executors: per-query or one batch, exact or degraded.
    (["rand31"], ("inline", "pool:w2", "cluster:w2"), DIRECT + EXECUTOR_MODES,
     ("none", "batch-fault"), IN_ORDER + ("batch-1", "batch-all")),
    # Worker counts and chunk shapes.
    (["rand900", "rand901", "rand902", dataset_row("email-eu", 0.15, 11, 40)], ("pool:w2",),
     DIRECT, NONE, IN_ORDER),
    ([EMAIL_15], ("inline", "pool:w1", "pool:w2", "pool:w4", "pool:w2:c1", "pool:w2:c3",
                  "pool:w2:c7"), DIRECT, NONE, IN_ORDER),
    # Generator families, censuses of the 36-motif grid.
    ([dataset_row(n, 0.03, 11, 25) for n in ("email-eu", "mathoverflow", "wiki-talk")],
     ("walker",), DIRECT, NONE, IN_ORDER),
    ([dataset_row("email-eu", 0.08, 3, 30) + "+grid"], ("inline", "pool:w2"), DIRECT, NONE,
     IN_ORDER),
    ([dataset_row("email-eu", 0.04, 9, 30) + "+grid[:6]"], ("inline",), DIRECT, NONE, IN_ORDER),
    ([dataset_row("email-eu", 0.04, 9, 50) + "+grid[::7]"], ("inline", "bruteforce"), DIRECT,
     NONE, IN_ORDER),
    # The stream engine: every arrival batching, one engine per query or
    # one for all, per edge and slot over shared slot sets, on prefixes.
    ([f"{r}[{m.name}]" for r in STREAM_ROWS for m in CATALOG], ("stream",), DIRECT, NONE,
     ("batch-all",)),
    (STREAM_ROWS, ("stream",), DIRECT, NONE, ("random-batches",)),
    (TWO_STREAMS, ("stream",), DIRECT, NONE, ("batch-1", "batch-7", "batch-all")),
    (TWO_STREAMS, ("stream-family",), DIRECT, NONE, ("batch-17",)),
    ([f"{r}+{s}" for r in STREAM_ROWS for s in SLOT_SETS], ("stream-family",), DIRECT, NONE,
     ("per-edge",)),
    ([TWO_STREAMS[0] + "+grid"], ("stream-family",), DIRECT, NONE, ("batch-all",)),
    ([f"{dataset_row(n, STREAM_SCALES[n], 11, 40)}[:{f}]"
      for n in ("mathoverflow", "stackoverflow") for f in (0.25, 0.5, 0.9)],
     ("stream",), DIRECT, NONE, ("batch-all",)),
    # Live ingestion against the offline replay, in order and shuffled.
    (LIVE_ROWS + [LIVE_ROWS[0] + "+sharing"], ("live",), DIRECT, NONE,
     ("batch-1", "batch-7", "batch-all", "block-shuffle")),
    ([LIVE_ROWS[0], "live:" + dataset_row("wiki-talk", 0.012, 11, 40)], ("live",), DIRECT, NONE,
     ("full-shuffle",)),
]

CELLS = [
    cell for rows, *axes in GRID for cell in product(rows, *axes) if meaningful(*cell)
]
assert all(meaningful(*cell) for cell in HYPOTHESIS_CELLS)
#: The cells no former id carries (``parity_matrix.FORMER_IDS``).
HERE = [cell for cell in CELLS + HYPOTHESIS_CELLS if cell not in CARRIED]


@pytest.mark.timeout(300)
@pytest.mark.parametrize("cell", HERE, ids="-".join)
def test_cell(cell, shared):
    run_cells([cell], shared)


def test_every_former_id_runs_declared_cells():
    assert CARRIED <= set(CELLS) | set(HYPOTHESIS_CELLS)


def test_every_row_is_in_a_cell_and_every_family_in_a_column():
    rows = {cell[0] for cell in CELLS}
    assert rows == set(ROWS)
    assert {r.split("@")[0] for r in STREAM_ROWS} == set(DATASET_NAMES)
    assert {r[len("live:"):].split("@")[0] for r in LIVE_ROWS} == set(DATASET_NAMES)


if __name__ == "__main__":
    where = {tuple(c): f"tests/{module}.py::{nodeid}" for module, ids in FORMER_IDS.items()
             for nodeid, cells in ids.items() for c in cells}
    for cell in CELLS + HYPOTHESIS_CELLS:
        print(cell, where.get(cell, "tests/test_parity_matrix.py::test_cell"))
    print(f"{len(CELLS)} cells, {len(HYPOTHESIS_CELLS)} hypothesis cells")
