"""Experiment orchestration: one ``run_*`` function per paper table/figure.

Scaling methodology
-------------------

The paper's experiments run on SNAP graphs up to 36 M edges with δ = 1
hour.  This reproduction shrinks every dataset by a scale factor, and in
order to preserve the paper's workload *character* it also rescales:

1. **δ (window length)** — the algorithmic hardness is governed by ``k``,
   the expected number of edges inside a δ window (§III-A).  At reduced
   edge counts a one-hour window is nearly empty, so each workload's δ is
   chosen to hit the paper's per-dataset ``k`` capped for tractability:
   ``δ = k · span / |E|``.
2. **memory hierarchy** — what makes the workload memory-bound is the
   working-set : cache ratio.  Both the modeled CPU LLC and Mint's cache
   are shrunk by the same factor as the dataset, so large datasets
   (wiki-talk, stackoverflow) still spill while small ones still fit.

Every function takes a :class:`ScalePolicy` so tests can run tiny
configurations and benches can run the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.area_power import AreaPowerModel
from repro.analysis.neighborhood import (
    UtilizationSeries,
    hottest_nodes,
    neighborhood_utilization,
)
from repro.analysis.reporting import format_table, geomean
from repro.baselines.cpu_model import CpuModel, CpuSpec, CpuTime, DEFAULT_THREAD_SWEEP
from repro.baselines.flexminer import FlexMinerModel
from repro.baselines.gpu_model import GpuModel
from repro.graph.generators import DATASET_NAMES, DatasetSpec, dataset_spec, make_dataset
from repro.graph.stats import compute_stats, storage_bytes
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.batched import BatchedMiner
from repro.mining.mackey import MackeyMiner
from repro.mining.paranjape import ParanjapeMiner
from repro.mining.presto import PrestoEstimator
from repro.mining.results import SearchCounters
from repro.mining.static_counts import count_static_embeddings_fast
from repro.motifs.catalog import EVALUATION_MOTIFS, M1, M2
from repro.motifs.motif import Motif
from repro.sim.accelerator import MintSimulator
from repro.sim.config import CacheConfig, MintConfig
from repro.sim.stats import SimReport

SECONDS_PER_DAY = 86_400
PAPER_DELTA_S = 3_600


@dataclass(frozen=True)
class ScalePolicy:
    """Knobs that trade experiment fidelity against laptop runtime."""

    scale: float = 1.0
    seed: int = 7
    #: Cap/floor on k, the expected edges per δ window.
    window_edges_cap: float = 6.0
    window_edges_floor: float = 4.0
    #: Smallest Mint cache after hierarchy scaling.
    min_cache_kb: int = 64
    num_pes: int = 512
    presto_samples: int = 96
    presto_c: float = 1.6
    #: Static embeddings the Paranjape profiler fully processes before
    #: extrapolating (its total is computed analytically).
    paranjape_budget: int = 50_000


DEFAULT_POLICY = ScalePolicy()

#: Small policy for unit tests.
TEST_POLICY = ScalePolicy(scale=0.05, window_edges_cap=6.0, num_pes=32, presto_samples=8)


# ---------------------------------------------------------------------------
# Workload construction


@dataclass(frozen=True)
class Workload:
    """One (dataset, δ) mining problem plus its scaling metadata."""

    name: str
    spec: DatasetSpec
    graph: TemporalGraph
    delta: int
    working_set_bytes: int
    #: Working-set ratio vs the real SNAP dataset (drives LLC/cache scaling).
    ws_ratio: float
    window_edges: float


def paper_storage_bytes(spec: DatasetSpec) -> int:
    """Estimated bytes of the real dataset in the paper's layout."""
    return spec.paper_edges * 12 + 2 * (
        spec.paper_edges * 4 + (spec.paper_nodes + 1) * 4
    )


def paper_window_edges(spec: DatasetSpec) -> float:
    """k for the real dataset at δ = 1 hour."""
    span_s = spec.paper_span_days * SECONDS_PER_DAY
    return spec.paper_edges * PAPER_DELTA_S / span_s


def build_workload(name: str, policy: ScalePolicy = DEFAULT_POLICY) -> Workload:
    """Generate a scaled dataset and pick its density-equivalent δ."""
    spec = dataset_spec(name)
    graph = make_dataset(name, scale=policy.scale, seed=policy.seed)
    k = min(policy.window_edges_cap, max(policy.window_edges_floor, paper_window_edges(spec)))
    span = max(1, graph.time_span)
    delta = max(1, int(k * span / max(1, graph.num_edges)))
    ws = storage_bytes(graph)
    return Workload(
        name=spec.name,
        spec=spec,
        graph=graph,
        delta=delta,
        working_set_bytes=ws,
        ws_ratio=min(1.0, ws / paper_storage_bytes(spec)),
        window_edges=k,
    )


def scaled_cpu_model(workload: Workload) -> CpuModel:
    """CPU model with the LLC shrunk by the dataset's scale factor."""
    return CpuModel(CpuSpec().scaled_llc(workload.ws_ratio))


def scaled_mint_config(
    workload: Workload,
    policy: ScalePolicy = DEFAULT_POLICY,
    memoize: bool = True,
    cache_scale: float = 1.0,
) -> MintConfig:
    """Table II config with the cache shrunk by the dataset's scale factor.

    The cache is sized to preserve the paper's per-dataset working-set :
    cache ratio (email-eu ≈ 2:1 up to stackoverflow ≈ 373:1), clamped to
    a practical floor of one KB per bank.  ``cache_scale`` multiplies the
    scaled size (Fig. 13's 1/2/4 MB sweep becomes 1x/2x/4x of the scaled
    baseline).
    """
    paper_ratio = paper_storage_bytes(workload.spec) / (4 * 1024 * 1024)
    ideal_kb = workload.working_set_bytes / 1024 / paper_ratio
    cache_kb = int(min(4096, max(policy.min_cache_kb, ideal_kb)) * cache_scale)
    # Bank count stays at the paper's 64: shrinking banks would collapse
    # the on-chip bandwidth (ports scale with banks), which the real
    # design sizes for 512 concurrent search engines.
    num_banks = 64
    bank_kb = max(1, cache_kb // num_banks)
    return MintConfig(
        num_pes=policy.num_pes,
        memoize=memoize,
        cache=CacheConfig(num_banks=num_banks, bank_kb=bank_kb),
    )


# ---------------------------------------------------------------------------
# Shared per-workload evaluation (reused by Figs. 10, 11, 12)


@dataclass
class WorkloadEvaluation:
    """All measurements for one (dataset, motif) workload."""

    workload: Workload
    motif: Motif
    matches: int
    mackey_counters: SearchCounters
    mackey_memo_counters: SearchCounters
    cpu_best: CpuTime
    cpu_memo_best: CpuTime
    sim_plain: SimReport
    sim_memo: SimReport
    gpu_s: float

    @property
    def mint_s(self) -> float:
        return self.sim_memo.seconds

    @property
    def speedup_vs_cpu(self) -> float:
        return self.cpu_best.total_s / self.sim_memo.seconds

    @property
    def speedup_vs_cpu_no_memo_hw(self) -> float:
        return self.cpu_best.total_s / self.sim_plain.seconds

    @property
    def speedup_vs_cpu_memo(self) -> float:
        return self.cpu_memo_best.total_s / self.sim_memo.seconds

    @property
    def speedup_vs_gpu(self) -> float:
        return self.gpu_s / self.sim_memo.seconds

    @property
    def memo_gain(self) -> float:
        """Mint speedup attributable to search index memoization."""
        return self.sim_plain.cycles / max(1, self.sim_memo.cycles)

    @property
    def traffic_reduction(self) -> float:
        return self.sim_plain.dram.total_bytes / max(1, self.sim_memo.dram.total_bytes)


_EVALUATION_CACHE: Dict[Tuple[str, str, ScalePolicy], WorkloadEvaluation] = {}


def evaluate_workload(
    name: str, motif: Motif, policy: ScalePolicy = DEFAULT_POLICY
) -> WorkloadEvaluation:
    """Run the software reference, both sims and the models for one cell.

    Results are cached per (dataset, motif, policy): Figs. 10, 11 and 12
    consume the same underlying measurements, so the benchmark suite only
    simulates each workload once.
    """
    key = (name, motif.name, policy)
    cached = _EVALUATION_CACHE.get(key)
    if cached is not None:
        return cached
    w = build_workload(name, policy)
    plain = MackeyMiner(w.graph, motif, w.delta).mine()
    memo = MackeyMiner(w.graph, motif, w.delta, memoize=True).mine()
    if memo.count != plain.count:
        raise RuntimeError("memoized software run changed the motif count")
    cpu = scaled_cpu_model(w)
    cpu_best = cpu.best_runtime(plain.counters, w.working_set_bytes)
    cpu_memo_best = cpu.best_runtime(memo.counters, w.working_set_bytes)
    sim_plain = MintSimulator(
        w.graph, motif, w.delta, scaled_mint_config(w, policy, memoize=False)
    ).run()
    sim_memo = MintSimulator(
        w.graph, motif, w.delta, scaled_mint_config(w, policy, memoize=True)
    ).run()
    for sim in (sim_plain, sim_memo):
        if sim.matches != plain.count:
            raise RuntimeError(
                f"simulator count {sim.matches} != software count {plain.count}"
            )
    gpu_s = GpuModel().runtime_s(plain.counters, w.working_set_bytes)
    evaluation = WorkloadEvaluation(
        workload=w,
        motif=motif,
        matches=plain.count,
        mackey_counters=plain.counters,
        mackey_memo_counters=memo.counters,
        cpu_best=cpu_best,
        cpu_memo_best=cpu_memo_best,
        sim_plain=sim_plain,
        sim_memo=sim_memo,
        gpu_s=gpu_s,
    )
    _EVALUATION_CACHE[key] = evaluation
    return evaluation


# ---------------------------------------------------------------------------
# Table I — datasets


@dataclass
class Table1Result:
    rows: List[List[str]]

    def table(self) -> str:
        headers = [
            "Graph",
            "#Vertices",
            "#Temporal Edges",
            "Size (MB)",
            "Span (days)",
            "Paper #V",
            "Paper #E",
        ]
        return format_table(headers, self.rows)


def run_table1(policy: ScalePolicy = DEFAULT_POLICY) -> Table1Result:
    rows = []
    for name in DATASET_NAMES:
        spec = dataset_spec(name)
        g = make_dataset(name, scale=policy.scale, seed=policy.seed)
        st = compute_stats(g, name=spec.name)
        rows.append(
            [
                spec.name,
                f"{st.num_nodes:,}",
                f"{st.num_edges:,}",
                f"{st.size_mb:.2f}",
                f"{st.time_span_days:.0f}",
                f"{spec.paper_nodes:,}",
                f"{spec.paper_edges:,}",
            ]
        )
    return Table1Result(rows=rows)


# ---------------------------------------------------------------------------
# Table II — system configuration


def run_table2(config: Optional[MintConfig] = None) -> str:
    config = config or MintConfig()
    rows = [[k, v] for k, v in config.table().items()]
    return format_table(["Component", "Modeled Parameters"], rows)


# ---------------------------------------------------------------------------
# Fig. 2 — CPU thread scaling and CPI stack


@dataclass
class Fig2Result:
    #: dataset -> [(threads, normalized runtime vs 1 thread)]
    scaling: Dict[str, List[Tuple[int, float]]]
    #: stall distribution for M1 on wiki-talk at 32 threads.
    cpi_stack: Dict[str, float]

    def table(self) -> str:
        from repro.analysis.charts import bar_chart, sparkline

        threads = [t for t, _ in next(iter(self.scaling.values()))]
        headers = ["Dataset"] + [str(t) for t in threads] + ["Shape"]
        rows = [
            [name]
            + [f"{r:.3f}" for _, r in curve]
            + [sparkline([r for _, r in curve], width=len(curve))]
            for name, curve in self.scaling.items()
        ]
        out = [
            format_table(headers, rows),
            "",
            "CPI stack (M1 on wiki-talk, 32 threads):",
            bar_chart({k: v * 100 for k, v in self.cpi_stack.items()}, unit="%"),
        ]
        return "\n".join(out)


def run_fig2(
    policy: ScalePolicy = DEFAULT_POLICY,
    datasets: Sequence[str] = DATASET_NAMES,
    motif: Motif = M1,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
) -> Fig2Result:
    scaling: Dict[str, List[Tuple[int, float]]] = {}
    cpi: Dict[str, float] = {}
    for name in datasets:
        w = build_workload(name, policy)
        result = BatchedMiner(w.graph, motif, w.delta).mine()
        cpu = scaled_cpu_model(w)
        curve = cpu.scaling_curve(result.counters, w.working_set_bytes, thread_counts)
        base = curve[0].total_s
        scaling[w.spec.abbrev] = [(t.threads, t.total_s / base) for t in curve]
        if w.spec.name == "wiki-talk":
            cpi = cpu.cpi_stack(result.counters, w.working_set_bytes, threads=32)
    if not cpi:
        w = build_workload("wiki-talk", policy)
        result = BatchedMiner(w.graph, motif, w.delta).mine()
        cpi = scaled_cpu_model(w).cpi_stack(result.counters, w.working_set_bytes, 32)
    return Fig2Result(scaling=scaling, cpi_stack=cpi)


# ---------------------------------------------------------------------------
# Fig. 7 — neighborhood utilization decay


@dataclass
class Fig7Result:
    #: label (e.g. "m1_wt_node1") -> series
    series: Dict[str, UtilizationSeries]

    def table(self) -> str:
        from repro.analysis.charts import sparkline

        rows = []
        for label, s in self.series.items():
            fr = s.fractions()
            rows.append(
                [
                    label,
                    len(fr),
                    f"{fr[0]:.2f}" if fr else "-",
                    f"{s.mean_utilization():.2f}",
                    f"{fr[-1]:.2f}" if fr else "-",
                    "yes" if s.is_decreasing_trend() else "no",
                    sparkline(fr, width=32),
                ]
            )
        return format_table(
            ["Series", "Events", "First", "Mean", "Last", "Decreasing", "Shape"],
            rows,
        )


def run_fig7(
    policy: ScalePolicy = DEFAULT_POLICY,
    datasets: Sequence[str] = ("wiki-talk", "stackoverflow"),
    motif: Motif = M1,
) -> Fig7Result:
    series: Dict[str, UtilizationSeries] = {}
    for name in datasets:
        w = build_workload(name, policy)
        hot = hottest_nodes(w.graph, k=2)
        got = neighborhood_utilization(w.graph, motif, w.delta, nodes=hot)
        for rank, node in enumerate(hot, start=1):
            label = f"{motif.name.lower()}_{w.spec.abbrev}_node{rank}"
            series[label] = got[node]
    return Fig7Result(series=series)


# ---------------------------------------------------------------------------
# Fig. 10 — search index memoization


@dataclass
class Fig10Row:
    dataset: str
    motif: str
    matches: int
    speedup_no_memo: float
    speedup_memo: float
    memo_gain: float
    traffic_reduction: float


@dataclass
class Fig10Result:
    rows: List[Fig10Row]

    def geomean_speedup_no_memo(self) -> float:
        return geomean(r.speedup_no_memo for r in self.rows)

    def geomean_speedup_memo(self) -> float:
        return geomean(r.speedup_memo for r in self.rows)

    def geomean_memo_gain(self) -> float:
        return geomean(r.memo_gain for r in self.rows)

    def geomean_traffic_reduction(self) -> float:
        return geomean(r.traffic_reduction for r in self.rows)

    def table(self) -> str:
        rows = [
            [
                r.dataset,
                r.motif,
                r.matches,
                f"{r.speedup_no_memo:.1f}x",
                f"{r.speedup_memo:.1f}x",
                f"{r.memo_gain:.2f}x",
                f"{r.traffic_reduction:.2f}x",
            ]
            for r in self.rows
        ]
        rows.append(
            [
                "geomean",
                "-",
                "-",
                f"{self.geomean_speedup_no_memo():.1f}x",
                f"{self.geomean_speedup_memo():.1f}x",
                f"{self.geomean_memo_gain():.2f}x",
                f"{self.geomean_traffic_reduction():.2f}x",
            ]
        )
        return format_table(
            [
                "Dataset",
                "Motif",
                "Matches",
                "Mint w/o memo vs CPU",
                "Mint w/ memo vs CPU",
                "Memo gain",
                "Traffic reduction",
            ],
            rows,
        )


def run_fig10(
    policy: ScalePolicy = DEFAULT_POLICY,
    datasets: Sequence[str] = DATASET_NAMES,
    motifs: Sequence[Motif] = EVALUATION_MOTIFS,
) -> Fig10Result:
    rows = []
    for name in datasets:
        for motif in motifs:
            ev = evaluate_workload(name, motif, policy)
            rows.append(
                Fig10Row(
                    dataset=ev.workload.spec.abbrev,
                    motif=motif.name,
                    matches=ev.matches,
                    speedup_no_memo=ev.speedup_vs_cpu_no_memo_hw,
                    speedup_memo=ev.speedup_vs_cpu,
                    memo_gain=ev.memo_gain,
                    traffic_reduction=ev.traffic_reduction,
                )
            )
    return Fig10Result(rows=rows)


# ---------------------------------------------------------------------------
# Fig. 11 — Mint vs all software baselines


@dataclass
class Fig11Row:
    dataset: str
    motif: str
    vs_mackey_cpu: float
    vs_mackey_cpu_memo: float
    vs_paranjape: Optional[float]
    vs_presto: float
    vs_gpu: float
    presto_relative_error: float


@dataclass
class Fig11Result:
    rows: List[Fig11Row]

    def geomeans(self) -> Dict[str, float]:
        out = {
            "vs Mackey CPU": geomean(r.vs_mackey_cpu for r in self.rows),
            "vs Mackey CPU w/ memo": geomean(r.vs_mackey_cpu_memo for r in self.rows),
            "vs PRESTO": geomean(r.vs_presto for r in self.rows),
            "vs Mackey GPU": geomean(r.vs_gpu for r in self.rows),
        }
        pj = [r.vs_paranjape for r in self.rows if r.vs_paranjape is not None]
        if pj:
            out["vs Paranjape"] = geomean(pj)
        return out

    def table(self) -> str:
        rows = [
            [
                r.dataset,
                r.motif,
                f"{r.vs_mackey_cpu:.1f}x",
                f"{r.vs_mackey_cpu_memo:.1f}x",
                f"{r.vs_paranjape:.1f}x" if r.vs_paranjape is not None else "-",
                f"{r.vs_presto:.1f}x",
                f"{r.vs_gpu:.1f}x",
            ]
            for r in self.rows
        ]
        g = self.geomeans()
        rows.append(
            [
                "geomean",
                "-",
                f"{g['vs Mackey CPU']:.1f}x",
                f"{g['vs Mackey CPU w/ memo']:.1f}x",
                f"{g.get('vs Paranjape', float('nan')):.1f}x",
                f"{g['vs PRESTO']:.1f}x",
                f"{g['vs Mackey GPU']:.1f}x",
            ]
        )
        return format_table(
            [
                "Dataset",
                "Motif",
                "vs Mackey CPU",
                "vs CPU w/ memo",
                "vs Paranjape",
                "vs PRESTO",
                "vs GPU",
            ],
            rows,
        )


def _presto_time_s(
    w: Workload, motif: Motif, policy: ScalePolicy, cpu: CpuModel
) -> Tuple[float, float]:
    """PRESTO wall time on the CPU model + achieved relative error."""
    est = PrestoEstimator(
        w.graph, motif, w.delta, c=policy.presto_c, seed=policy.seed
    ).estimate(policy.presto_samples)
    best = cpu.best_runtime(est.counters, w.working_set_bytes)
    # Window extraction + estimator bookkeeping overhead per sample.
    overhead_s = policy.presto_samples * 3e-6
    exact = BatchedMiner(w.graph, motif, w.delta).mine().count
    if exact:
        rel_err = abs(est.estimate - exact) / exact
    else:
        rel_err = 0.0 if est.estimate == 0 else math.inf
    return best.total_s + overhead_s, rel_err


def _paranjape_time_s(w: Workload, motif: Motif, policy: ScalePolicy, cpu: CpuModel) -> float:
    """Paranjape wall time, extrapolated from a budgeted profile run."""
    total_embeddings = count_static_embeddings_fast(w.graph, motif).count
    miner = ParanjapeMiner(w.graph, motif, w.delta)
    counters, processed, complete = miner.profile(policy.paranjape_budget)
    best = cpu.best_runtime(counters, w.working_set_bytes)
    if complete or processed == 0:
        return best.total_s
    return best.total_s * (total_embeddings / processed)


def run_fig11(
    policy: ScalePolicy = DEFAULT_POLICY,
    datasets: Sequence[str] = DATASET_NAMES,
    motifs: Sequence[Motif] = EVALUATION_MOTIFS,
) -> Fig11Result:
    rows = []
    for name in datasets:
        for motif in motifs:
            ev = evaluate_workload(name, motif, policy)
            cpu = scaled_cpu_model(ev.workload)
            presto_s, presto_err = _presto_time_s(ev.workload, motif, policy, cpu)
            # The open-source Paranjape release supports M1/M2 only (§VIII-A).
            if motif.name in ("M1", "M2"):
                pj_s = _paranjape_time_s(ev.workload, motif, policy, cpu)
                vs_pj: Optional[float] = pj_s / ev.mint_s
            else:
                vs_pj = None
            rows.append(
                Fig11Row(
                    dataset=ev.workload.spec.abbrev,
                    motif=motif.name,
                    vs_mackey_cpu=ev.speedup_vs_cpu,
                    vs_mackey_cpu_memo=ev.speedup_vs_cpu_memo,
                    vs_paranjape=vs_pj,
                    vs_presto=presto_s / ev.mint_s,
                    vs_gpu=ev.speedup_vs_gpu,
                    presto_relative_error=presto_err,
                )
            )
    return Fig11Result(rows=rows)


# ---------------------------------------------------------------------------
# Fig. 12 — static mining accelerator comparison


@dataclass
class Fig12Row:
    motif: str
    flexminer_speedup_vs_cpu: float
    mint_speedup_vs_cpu: float
    static_count: float
    temporal_count: float

    @property
    def static_to_temporal_ratio(self) -> float:
        return self.static_count / max(1.0, self.temporal_count)


@dataclass
class Fig12Result:
    rows: List[Fig12Row]

    def table(self) -> str:
        rows = [
            [
                r.motif,
                f"{r.flexminer_speedup_vs_cpu:.1f}x",
                f"{r.mint_speedup_vs_cpu:.1f}x",
                f"{r.static_to_temporal_ratio:.3g}",
            ]
            for r in self.rows
        ]
        return format_table(
            ["Motif", "FlexMiner vs CPU", "Mint vs CPU", "Static/Temporal ratio"],
            rows,
        )


def run_fig12(
    policy: ScalePolicy = DEFAULT_POLICY,
    datasets: Sequence[str] = DATASET_NAMES,
    motifs: Sequence[Motif] = EVALUATION_MOTIFS,
) -> Fig12Result:
    """Static mining accelerator comparison.

    Deviation from the paper's methodology, documented in DESIGN.md: the
    paper ignores the temporal-resolution phase entirely ("conservatively
    ... a performance upper bound").  At paper scale that bound still
    loses to Mint because phase 1 alone is enormous; at laptop scale the
    δ-rescaled windows compress the static/temporal imbalance, so the
    pipeline's *dominant* cost — resolving temporal constraints on the
    CPU, which FlexMiner does not accelerate — must be included for the
    comparison to retain its meaning.  FlexMiner's own phase 1 still gets
    the paper's full 40× credit.
    """
    rows = []
    for motif in motifs:
        flex_speedups: List[float] = []
        mint_speedups: List[float] = []
        temporal_counts: List[float] = []
        static_counts: List[float] = []
        for name in datasets:
            ev = evaluate_workload(name, motif, policy)
            cpu = scaled_cpu_model(ev.workload)
            flex = FlexMinerModel(cpu.spec).evaluate(
                ev.workload.graph, motif, ev.workload.working_set_bytes
            )
            # Phase 2 (temporal resolution) runs on the host CPU; its
            # cost is the Paranjape pipeline minus the static phase that
            # FlexMiner replaces.
            paranjape_s = _paranjape_time_s(ev.workload, motif, policy, cpu)
            phase2_s = max(0.0, paranjape_s - flex.graphpi_cpu_s)
            pipeline_s = flex.flexminer_s + phase2_s
            flex_speedups.append(
                max(1e-9, ev.cpu_best.total_s) / max(1e-12, pipeline_s)
            )
            mint_speedups.append(ev.speedup_vs_cpu)
            static = count_static_embeddings_fast(ev.workload.graph, motif).count
            static_counts.append(static)
            temporal_counts.append(ev.matches)
        rows.append(
            Fig12Row(
                motif=motif.name,
                flexminer_speedup_vs_cpu=geomean(flex_speedups),
                mint_speedup_vs_cpu=geomean(mint_speedups),
                static_count=geomean(max(1.0, s) for s in static_counts),
                temporal_count=geomean(max(1.0, t) for t in temporal_counts),
            )
        )
    return Fig12Result(rows=rows)


# ---------------------------------------------------------------------------
# Fig. 13 — PE count x cache size sensitivity


@dataclass
class Fig13Cell:
    pes: int
    cache_scale: float
    speedup: float
    bandwidth_pct: float
    hit_rate_pct: float


@dataclass
class Fig13Result:
    cells: List[Fig13Cell]

    def grid(self, metric: str) -> Dict[Tuple[int, float], float]:
        return {(c.pes, c.cache_scale): getattr(c, metric) for c in self.cells}

    def table(self) -> str:
        rows = [
            [
                c.pes,
                f"{c.cache_scale:g}x",
                f"{c.speedup:.1f}x",
                f"{c.bandwidth_pct:.1f}%",
                f"{c.hit_rate_pct:.1f}%",
            ]
            for c in self.cells
        ]
        return format_table(
            ["PEs", "Cache", "Speedup", "Bandwidth", "Cache hit rate"], rows
        )


def run_fig13(
    policy: ScalePolicy = DEFAULT_POLICY,
    dataset: str = "wiki-talk",
    motif: Motif = M1,
    pe_counts: Sequence[int] = (1, 4, 16, 64, 256, 512, 1024),
    cache_scales: Sequence[float] = (1.0, 2.0, 4.0),
) -> Fig13Result:
    w = build_workload(dataset, policy)
    cells: List[Fig13Cell] = []
    baseline_cycles: Optional[int] = None
    for pes in pe_counts:
        for cs in cache_scales:
            cfg = scaled_mint_config(w, policy, memoize=True, cache_scale=cs).with_pes(pes)
            report = MintSimulator(w.graph, motif, w.delta, cfg).run()
            if baseline_cycles is None:
                baseline_cycles = report.cycles
            cells.append(
                Fig13Cell(
                    pes=pes,
                    cache_scale=cs,
                    speedup=baseline_cycles / report.cycles,
                    bandwidth_pct=100 * report.bandwidth_utilization,
                    hit_rate_pct=100 * report.cache_hit_rate,
                )
            )
    return Fig13Result(cells=cells)


# ---------------------------------------------------------------------------
# Fig. 14 — area and power


def run_fig14(config: Optional[MintConfig] = None, technology_nm: float = 28.0) -> str:
    config = config or MintConfig()
    model = AreaPowerModel(technology_nm)
    rows = [c.row() for c in model.breakdown(config)]
    rows.append(
        [
            "Total",
            f"{model.total_area_mm2(config):.1f} mm2",
            f"{model.total_power_w(config) * 1000:.0f} mW",
        ]
    )
    return format_table(["Component", "Area (mm2)", "Power (mW)"], rows)


# ---------------------------------------------------------------------------
# Full-suite driver with archiving


def run_all(
    policy: ScalePolicy = DEFAULT_POLICY,
    out_path: Optional[str] = None,
    datasets: Sequence[str] = DATASET_NAMES,
    motifs: Sequence[Motif] = EVALUATION_MOTIFS,
) -> Dict[str, object]:
    """Run every experiment and collect the headline metrics.

    Returns a nested metrics dict (JSON-serializable); when ``out_path``
    is given the archive is written via
    :mod:`repro.analysis.persistence`.
    """
    fig2 = run_fig2(policy, datasets=datasets)
    fig10 = run_fig10(policy, datasets=datasets, motifs=motifs)
    fig11 = run_fig11(policy, datasets=datasets, motifs=motifs)
    fig12 = run_fig12(policy, datasets=datasets, motifs=motifs)
    fig13 = run_fig13(policy)
    model = AreaPowerModel()
    metrics: Dict[str, object] = {
        "fig2": {
            "cpi_stack": fig2.cpi_stack,
            "best_threads": {
                name: min(curve, key=lambda p: p[1])[0]
                for name, curve in fig2.scaling.items()
            },
        },
        "fig10": {
            "geomean_speedup_memo": fig10.geomean_speedup_memo(),
            "geomean_speedup_no_memo": fig10.geomean_speedup_no_memo(),
            "geomean_memo_gain": fig10.geomean_memo_gain(),
            "geomean_traffic_reduction": fig10.geomean_traffic_reduction(),
            "rows": {
                f"{r.dataset}/{r.motif}": {
                    "matches": r.matches,
                    "speedup_memo": r.speedup_memo,
                    "memo_gain": r.memo_gain,
                    "traffic_reduction": r.traffic_reduction,
                }
                for r in fig10.rows
            },
        },
        "fig11": {"geomeans": fig11.geomeans()},
        "fig12": {
            r.motif: {
                "flexminer_speedup": r.flexminer_speedup_vs_cpu,
                "mint_speedup": r.mint_speedup_vs_cpu,
                "static_to_temporal_ratio": r.static_to_temporal_ratio,
            }
            for r in fig12.rows
        },
        "fig13": {
            f"pes{c.pes}_cache{c.cache_scale:g}x": {
                "speedup": c.speedup,
                "bandwidth_pct": c.bandwidth_pct,
                "hit_rate_pct": c.hit_rate_pct,
            }
            for c in fig13.cells
        },
        "fig14": {
            "total_area_mm2": model.total_area_mm2(MintConfig()),
            "total_power_w": model.total_power_w(MintConfig()),
        },
    }
    if out_path is not None:
        from repro.analysis.persistence import save_run

        save_run(
            out_path,
            metrics,
            metadata={
                "scale": policy.scale,
                "seed": policy.seed,
                "window_edges_cap": policy.window_edges_cap,
                "num_pes": policy.num_pes,
            },
        )
    return metrics
