"""§III-A complexity validation (no figure number; the paper's claim).

"The worst-case algorithmic complexity of Algorithm 1 is
O(|E_G| · k^(|E_M|-1)): it scales linearly with |E_G|, polynomially with
k, and exponentially with |E_M|."

This bench measures the actual work (candidates examined) against all
three axes on a synthetic dataset and asserts the growth directions —
plus super-linear growth in k for the multi-edge motif, the paper's
central hardness argument.
"""

from repro.analysis import experiments as ex
from repro.analysis.reporting import format_table
from repro.analysis.sweeps import delta_sweep, motif_size_sweep
from repro.graph.generators import make_dataset
from repro.mining.batched import BatchedMiner
from repro.motifs.catalog import M1

from conftest import BENCH_POLICY


def test_complexity_claims(benchmark, save_result):
    def run():
        g = make_dataset("superuser", scale=1.0, seed=BENCH_POLICY.seed)
        span = g.time_span
        deltas = [span // 800, span // 400, span // 200, span // 100, span // 50]
        dsweep = delta_sweep(g, M1, deltas)
        msweep = motif_size_sweep(g, span // 300, sizes=(1, 2, 3, 4))
        # |E_G| axis: same generator at three scales, k held fixed.
        esweep = []
        for scale in (0.25, 0.5, 1.0):
            gg = make_dataset("superuser", scale=scale, seed=BENCH_POLICY.seed)
            d = max(1, int(5 * gg.time_span / gg.num_edges))  # k = 5
            counters = BatchedMiner(gg, M1, d).mine().counters
            esweep.append((gg.num_edges, counters.candidates_scanned))
        return dsweep, msweep, esweep

    dsweep, msweep, esweep = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "delta sweep (M1, superuser):",
        format_table(
            ["delta", "k", "candidates", "matches"],
            [
                [f"{p.parameter:.0f}", f"{p.window_edges:.1f}", p.candidates, p.matches]
                for p in dsweep.points
            ],
        ),
        f"log-log growth exponent in delta: {dsweep.growth_exponent():.2f}",
        "",
        "motif-size sweep (ping-pong chains):",
        format_table(
            ["edges", "candidates", "matches"],
            [[f"{p.parameter:.0f}", p.candidates, p.matches] for p in msweep.points],
        ),
        "",
        "edge-count sweep (k fixed at 5):",
        format_table(["|E_G|", "candidates"], [[m, c] for m, c in esweep]),
    ]
    save_result("complexity_claims", "\n".join(lines))

    # Work grows with delta, super-linearly for the 3-edge motif.
    cands = [p.candidates for p in dsweep.points]
    assert cands == sorted(cands)
    assert dsweep.growth_exponent() > 1.0

    # Work grows with motif depth.
    mc = [p.candidates for p in msweep.points]
    assert mc[-1] > mc[0]

    # Work grows roughly linearly with |E_G| at fixed k: the ratio of
    # work to edges stays within a factor ~3 across a 4x edge range.
    ratios = [c / m for m, c in esweep]
    assert max(ratios) / min(ratios) < 3.0
