"""Extensions beyond the paper's evaluation.

Two claims the paper makes but does not evaluate are exercised here:

1. **Accelerating approximate mining** (§II-C): "approximate algorithms
   use exact algorithms as subroutines ... [Mint] is also directly
   applicable to accelerate approximate mining algorithms."
   :func:`presto_on_mint` runs PRESTO's sampled windows through the Mint
   simulator instead of the CPU and reports the end-to-end speedup.

2. **Motif-agnostic generality** (§V-A): "the hardware architecture is
   motif-agnostic, and can be programmed to mine any arbitrary motif."
   :func:`arbitrary_motif_sweep` runs a family of motifs the evaluation
   never touches (the 36-motif grid) through the simulator and checks
   count exactness on every one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cpu_model import CpuModel
from repro.comine import CoMiner
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.batched import BatchedMiner
from repro.mining.mackey import MackeyMiner
from repro.mining.results import SearchCounters
from repro.motifs.grid import grid_motifs
from repro.motifs.motif import Motif
from repro.sim.accelerator import MintSimulator
from repro.sim.config import MintConfig


@dataclass(frozen=True)
class PrestoOnMintResult:
    """Approximate mining accelerated by Mint (extension experiment)."""

    estimate: float
    exact_count: int
    mint_cycles: int
    mint_seconds: float
    cpu_seconds: float

    @property
    def speedup(self) -> float:
        return self.cpu_seconds / max(1e-12, self.mint_seconds)

    @property
    def relative_error(self) -> float:
        if self.exact_count == 0:
            return 0.0 if self.estimate == 0 else math.inf
        return abs(self.estimate - self.exact_count) / self.exact_count


def presto_on_mint(
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    config: MintConfig,
    cpu: CpuModel,
    working_set_bytes: int,
    num_samples: int = 32,
    c: float = 1.6,
    seed: int = 0,
) -> PrestoOnMintResult:
    """Run PRESTO's window samples through the Mint simulator.

    Each sampled window is an independent mining problem, so Mint
    processes windows back to back; total accelerator time is the sum of
    the per-window simulations.  The CPU comparison point runs the same
    windows through the calibrated CPU model.
    """
    rng = np.random.default_rng(seed)
    ts = graph.ts
    t_first, t_last = float(ts[0]), float(ts[-1])
    w_len = c * delta
    domain = (t_last - t_first) + w_len

    estimate = 0.0
    total_cycles = 0
    cpu_counters = SearchCounters()
    for _ in range(num_samples):
        x = float(rng.uniform(t_first - w_len, t_last))
        window = graph.subgraph_by_time(math.ceil(x), math.ceil(x + w_len))
        if window.num_edges < motif.num_edges:
            continue
        sw = MackeyMiner(window, motif, delta, record_matches=True).mine()
        cpu_counters.merge(sw.counters)
        report = MintSimulator(window, motif, delta, config).run()
        if report.matches != sw.count:  # pragma: no cover - invariant
            raise RuntimeError("window simulation diverged from software")
        total_cycles += report.cycles
        for match in sw.matches or ():
            first = window.time(match.edge_indices[0])
            last = window.time(match.edge_indices[-1])
            estimate += domain / (w_len - (last - first))
    estimate /= num_samples

    exact = BatchedMiner(graph, motif, delta).mine().count
    cpu_s = cpu.best_runtime(cpu_counters, working_set_bytes).total_s
    return PrestoOnMintResult(
        estimate=estimate,
        exact_count=exact,
        mint_cycles=total_cycles,
        mint_seconds=config.cycles_to_seconds(total_cycles),
        cpu_seconds=cpu_s,
    )


@dataclass(frozen=True)
class ArbitraryMotifResult:
    motif_name: str
    matches: int
    cycles: int
    exact: bool


def arbitrary_motif_sweep(
    graph: TemporalGraph,
    delta: int,
    config: MintConfig,
    motifs: Optional[Sequence[Motif]] = None,
) -> List[ArbitraryMotifResult]:
    """Drive the simulator across arbitrary motifs and verify exactness.

    Defaults to the full 36-motif Paranjape grid — far beyond the four
    motifs of the paper's evaluation — demonstrating the architecture's
    motif-agnostic claim end to end.
    """
    motifs = list(motifs if motifs is not None else grid_motifs())
    expected = CoMiner(graph, motifs, delta).mine().counts
    results = []
    for motif, count in zip(motifs, expected):
        report = MintSimulator(graph, motif, delta, config).run()
        results.append(
            ArbitraryMotifResult(
                motif_name=motif.name,
                matches=report.matches,
                cycles=report.cycles,
                exact=report.matches == count,
            )
        )
    return results
