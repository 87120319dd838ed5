"""Command-line interface: ``python -m repro <command>``.

Commands
--------

- ``generate`` — synthesize a named dataset and write it as SNAP text.
- ``mine`` — exactly count a motif in a SNAP-format graph.
- ``census`` — count the full 36-motif Paranjape grid.
- ``simulate`` — run the Mint accelerator simulator on a workload.
- ``experiment`` — regenerate one of the paper's tables/figures.
- ``info`` — dataset statistics (Table I style) for a graph file.
- ``serve`` — serve motif queries over HTTP/JSON with coalescing,
  caching and backpressure (``repro.service``).
- ``chaos`` — census the evaluation catalog while seeded faults kill
  workers of the supervised pool (``--cluster``: whole nodes of a
  sharded mining cluster) and verify byte-parity against the serial
  miner (``repro.resilience``); ``--live`` runs the ``live`` feed while
  seeded faults crash the ingest path around its commit point, and
  proves idempotent resume (``repro.live``).
- ``live`` — replay a dataset as a live ingest feed against a served
  ``repro.live`` graph with standing subscriptions, then verify every
  fired event and the final window snapshot byte-for-byte against the
  offline streaming replay.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

# The parser's ``choices`` are the one import every command shares; each
# command imports what it runs, so `serve` loads no simulator, experiment
# harness or offline miner.
from repro.graph.generators import DATASET_NAMES


def _delta(text: str) -> int:
    """``--delta``: the window width, checked like every other δ."""
    from repro.graph.window import checked_delta

    try:
        return checked_delta(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mint (MICRO 2022) reproduction: temporal motif mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a named dataset")
    gen.add_argument("dataset", choices=DATASET_NAMES)
    gen.add_argument("output", help="output SNAP text path (.txt or .txt.gz)")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)

    mine = sub.add_parser("mine", help="exactly count a motif in a graph")
    mine.add_argument("graph", help="SNAP text file (src dst t per line)")
    mine.add_argument("--motif", default="M1", help="catalog motif name")
    mine.add_argument(
        "--motif-spec",
        default=None,
        help="inline motif DSL, e.g. 'A->B, B->C, C->A' (overrides --motif)",
    )
    mine.add_argument("--delta", type=_delta, required=True, help="window (s)")
    mine.add_argument("--memoize", action="store_true")
    mine.add_argument("--show-matches", type=int, default=0, metavar="N")
    mine.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="mine with N worker processes (0 = in-process serial; "
        "incompatible with --show-matches)",
    )
    mine.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable result payload (same shape as "
        "the `repro serve` HTTP endpoint returns)",
    )
    mine.add_argument(
        "--approx",
        action="store_true",
        help="estimate by importance-weighted interval sampling instead "
        "of exact mining; adaptive rounds stop once the relative CI "
        "half-width meets --max-error",
    )
    mine.add_argument(
        "--max-error",
        type=float,
        default=0.05,
        metavar="EPS",
        help="approx target relative error (CI half-width / estimate)",
    )
    mine.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        metavar="P",
        help="approx confidence level for the reported interval",
    )
    mine.add_argument(
        "--seed",
        type=int,
        default=0,
        help="approx sampling seed (identical seeds reproduce bytes)",
    )
    mine.add_argument(
        "--max-samples",
        type=int,
        default=1024,
        metavar="N",
        help="approx sampling budget cap across adaptive rounds",
    )

    census = sub.add_parser("census", help="count the 36-motif grid")
    census.add_argument("graph")
    census.add_argument("--delta", type=_delta, required=True)
    census.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="mine the grid with N worker processes sharing one graph "
        "shipment (0 = in-process serial)",
    )
    census.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable grid payload (per-motif "
        "search counters included)",
    )

    simulate = sub.add_parser("simulate", help="run the Mint simulator")
    simulate.add_argument("graph")
    simulate.add_argument("--motif", default="M1")
    simulate.add_argument("--delta", type=_delta, required=True)
    simulate.add_argument("--pes", type=int, default=512)
    simulate.add_argument("--cache-kb", type=int, default=4096)
    simulate.add_argument("--no-memoize", action="store_true")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name",
        choices=[
            "table1",
            "table2",
            "fig2",
            "fig7",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "all",
        ],
    )
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument(
        "--out", default=None, help="archive metrics JSON here (with 'all')"
    )
    experiment.add_argument(
        "--report", default=None, help="write a markdown report here (with 'all')"
    )

    info = sub.add_parser("info", help="dataset statistics for a graph file")
    info.add_argument("graph")

    serve = sub.add_parser(
        "serve",
        help="serve motif queries over HTTP/JSON (repro.service)",
    )
    serve.add_argument(
        "graphs",
        nargs="*",
        metavar="NAME=PATH",
        help="graph files to preload, e.g. email=data/email.txt "
        "(bare PATH uses the file stem as name)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8300, help="0 picks a free port"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes of the one resident mining pool "
        "(0 = in-process serial mining)",
    )
    serve.add_argument(
        "--cluster",
        type=int,
        default=0,
        metavar="N",
        help="dispatch mining to a sharded cluster of N worker nodes "
        "(repro.cluster; 0 = off; not with --workers)",
    )
    serve.add_argument(
        "--lanes", type=int, default=2,
        help="concurrent batch-execution lanes (default 2)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=128,
        help="bounded admission queue; beyond this queries are shed "
        "with HTTP 429 (default 128)",
    )
    serve.add_argument(
        "--cache-mb", type=float, default=64.0,
        help="result-cache byte budget in MB (default 64)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    chaos = sub.add_parser(
        "chaos",
        help="mine under seeded fault injection and verify parity "
        "(repro.resilience)",
    )
    chaos.add_argument("graph", help="SNAP text file (src dst t per line)")
    chaos.add_argument("--delta", type=_delta, required=True, help="window (s)")
    chaos.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="supervised worker processes, or cluster nodes with "
        "--cluster (default 4)",
    )
    chaos.add_argument(
        "--kills", type=int, default=1, metavar="K",
        help="workers (nodes) killed mid-run at seeded chunk positions "
        "(default 1; must be < --workers to stay completable "
        "without respawns)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed = same failure schedule)",
    )
    chaos.add_argument(
        "--chunk-timeout", type=float, default=30.0, metavar="S",
        help="per-chunk soft timeout before a worker is presumed "
        "wedged and replaced (default 30)",
    )
    chaos.add_argument(
        "--respawn-budget", type=int, default=None, metavar="N",
        help="total worker respawns allowed (default 3x workers)",
    )
    chaos.add_argument(
        "--cluster", action="store_true",
        help="drill a sharded cluster of --workers nodes instead of a "
        "pool: --kills whole nodes die mid-run",
    )
    chaos.add_argument(
        "--live", action="store_true",
        help="drill the live ingest path instead: seeded crashes before "
        "and after batch commit, retrying producer, then assert no "
        "edge loss/duplication and that subscriptions re-fired the "
        "exact offline event stream (repro.live)",
    )
    chaos.add_argument(
        "--batch-size", type=int, default=25, metavar="N",
        help="edges per ingest batch for --live (default 25)",
    )
    chaos.add_argument("--scale", type=float, default=1.0,
                       help="generator scale (dataset-name graphs)")

    live = sub.add_parser(
        "live",
        help="replay a dataset as a live ingest feed with standing "
        "subscriptions and verify firings against offline replay "
        "(repro.live)",
    )
    live.add_argument(
        "graph",
        help="SNAP text file, or a generator dataset name "
        f"({', '.join(DATASET_NAMES)})",
    )
    live.add_argument(
        "--delta", type=_delta, default=None,
        help="window (s); default time_span // 40",
    )
    live.add_argument(
        "--subs", type=int, default=100, metavar="N",
        help="standing subscriptions to register (default 100)",
    )
    live.add_argument(
        "--batch-size", type=int, default=50, metavar="N",
        help="edges per ingest batch (default 50)",
    )
    live.add_argument(
        "--shuffle", choices=("none", "block", "full"), default="none",
        help="perturb arrival order through the reorder buffer "
        "(default none)",
    )
    live.add_argument("--seed", type=int, default=0,
                      help="shuffle/generator seed")
    live.add_argument("--scale", type=float, default=1.0,
                      help="generator scale (dataset-name inputs)")
    live.add_argument(
        "--no-verify", action="store_true",
        help="skip the offline-replay parity check (throughput only)",
    )

    return parser


def _load(path: str):
    from repro.graph.loaders import load_snap_text

    return load_snap_text(path)


def _resolve_graph_arg(args):
    """``(graph, source)`` from a file path or generator dataset name.

    Raises :class:`SystemExit`-friendly ``ValueError`` when neither; the
    ``scale``/``seed`` attributes (when present) parameterize generated
    datasets.
    """
    import os

    scale = getattr(args, "scale", 1.0)
    seed = getattr(args, "seed", 0)
    if os.path.exists(args.graph):
        return _load(args.graph), args.graph
    if args.graph in DATASET_NAMES or args.graph in {
        "em", "mo", "ub", "su", "wt", "so"
    }:
        from repro.graph.generators import make_dataset

        graph = make_dataset(args.graph, scale=scale, seed=seed)
        return graph, f"{args.graph} (generated, scale={scale}, seed={seed})"
    raise ValueError(
        f"{args.graph!r} is neither a file nor a dataset name"
    )


def cmd_generate(args) -> int:
    from repro.graph.generators import make_dataset
    from repro.graph.loaders import save_snap_text

    graph = make_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_snap_text(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


def cmd_mine(args) -> int:
    from repro.comine.engine import ENGINE
    from repro.mining.mackey import MackeyMiner
    from repro.mining.parallel import open_runner

    graph = _load(args.graph)
    if getattr(args, "motif_spec", None):
        from repro.motifs.parse import parse_motif

        motif = parse_motif(args.motif_spec, name="custom")
    else:
        from repro.motifs.catalog import motif_by_name

        motif = motif_by_name(args.motif)
    workers = getattr(args, "workers", 0)
    as_json = getattr(args, "json", False)
    serial_only = args.memoize or args.show_matches > 0
    if args.show_matches > 0 and (workers > 0 or as_json):
        print("error: --show-matches requires the serial text mode "
              "(--workers 0, no --json)")
        return 2
    if getattr(args, "approx", False):
        if args.memoize or args.show_matches > 0:
            print("error: --approx is incompatible with --memoize and "
                  "--show-matches")
            return 2
        return _mine_approx(graph, motif, args)
    if args.memoize and workers > 0:
        print("error: --memoize is a serial cost-model option "
              "(--workers 0); worker chunks would silently drop it")
        return 2
    shown: list = []
    if serial_only:
        # Options only the scalar miner has, with no chunk kind: the
        # dedicated serial miner, streaming the first N matches through
        # on_match (bounded memory on large graphs).
        want = args.show_matches

        def _keep(match) -> None:
            if len(shown) < want:
                shown.append(match)

        result = MackeyMiner(
            graph,
            motif,
            args.delta,
            memoize=args.memoize,
            on_match=_keep if want > 0 else None,
        ).mine()
        how = ""
    else:
        with open_runner(graph, workers) as runner:
            result = runner.count(graph, motif, args.delta)
        how = (f"  [{ENGINE}, {result.num_workers} workers, "
               f"{result.num_chunks} chunks]")
    if as_json:
        _print_mine_payload(graph, motif, args.delta, result.count,
                            result.counters)
        return 0
    print(f"{motif.name} count (delta={args.delta}s): {result.count}")
    c = result.counters
    print(
        f"  candidates examined: {c.candidates_scanned:,}  "
        f"searches: {c.searches:,}  bookkeeps: {c.bookkeeps:,}{how}"
    )
    for match in shown:
        edges = [graph.edge(i) for i in match.edge_indices]
        print("  match:", " -> ".join(f"{e.src}->{e.dst}@{e.t}" for e in edges))
    return 0


def _mine_approx(graph, motif, args) -> int:
    """`repro mine --approx`: sampled estimate with error bounds.

    Serial (`--workers 0`) samples inline; with workers the sample
    batches run as pool chunks.  Either is byte-identical for the
    same ``(graph, motif, delta, seed)`` (`--json` prints the payload).
    """
    from repro.approx.engine import estimate
    from repro.approx.estimate import ApproxSpec, build_approx_payload
    from repro.mining.parallel import open_runner

    try:
        spec = ApproxSpec(
            max_error=args.max_error,
            confidence=args.confidence,
            seed=args.seed,
            max_samples=args.max_samples,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    with open_runner(graph, getattr(args, "workers", 0)) as runner:
        est = estimate(runner, graph, motif, args.delta, spec)
    if getattr(args, "json", False):
        from repro.service.query import payload_bytes

        payload = build_approx_payload(
            graph.fingerprint(), motif, args.delta, est
        )
        print(payload_bytes(payload).decode())
        return 0
    lo, hi = est.ci
    print(
        f"{motif.name} estimate (delta={args.delta}s): "
        f"{est.estimate:,.1f}  "
        f"[{lo:,.1f}, {hi:,.1f}] @ {est.confidence:.0%}"
    )
    status = "converged" if est.converged else "budget exhausted"
    print(
        f"  samples: {est.num_samples}  stderr: {est.std_error:,.2f}  "
        f"achieved eps: {est.achieved_eps:.4f} "
        f"(target {spec.max_error})  [{status}, seed {spec.seed}]"
    )
    return 0


def _print_mine_payload(graph, motif, delta, count, counters) -> None:
    """Print the machine-readable mine result — byte-identical to what
    the service serves for the same ``(graph, motif, delta)``."""
    from repro.service.query import build_payload, payload_bytes

    payload = build_payload(
        graph.fingerprint(), motif, delta, count, counters.as_dict()
    )
    print(payload_bytes(payload).decode())


def cmd_census(args) -> int:
    import json

    from repro.analysis.reporting import format_sharing_stats
    from repro.comine.engine import ENGINE
    from repro.mining.multi import grid_family_census, render_grid
    from repro.motifs.grid import paranjape_grid

    graph = _load(args.graph)
    census = grid_family_census(
        graph,
        args.delta,
        num_workers=getattr(args, "workers", 0),
    )
    grid = {
        key: census.counts[motif.name]
        for key, motif in paranjape_grid().items()
    }
    if getattr(args, "json", False):
        payload = {
            "graph": graph.fingerprint(),
            "delta": int(args.delta),
            "engine": ENGINE,
            "grid": {f"r{r}c{c}": n for (r, c), n in sorted(grid.items())},
            "total": census.total(),
            "counters": census.counters.as_dict(),
            "per_motif": {
                name: c.as_dict()
                for name, c in sorted(census.per_motif.items())
            },
            "sharing": census.sharing.as_dict(),
        }
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return 0
    print(render_grid(grid))
    print(f"total: {census.total():,}")
    print(format_sharing_stats(census.sharing))
    return 0


def cmd_simulate(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.motifs.catalog import motif_by_name
    from repro.sim.accelerator import MintSimulator
    from repro.sim.config import MintConfig

    graph = _load(args.graph)
    motif = motif_by_name(args.motif)
    config = MintConfig(num_pes=args.pes, memoize=not args.no_memoize)
    config = config.with_cache_mb(args.cache_kb / 1024)
    report = MintSimulator(graph, motif, args.delta, config).run()
    rows = [[k, f"{v:,.4g}"] for k, v in report.summary().items()]
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_experiment(args) -> int:
    from repro.analysis import experiments as experiments_mod

    policy = experiments_mod.DEFAULT_POLICY
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        import dataclasses

        policy = dataclasses.replace(policy, **overrides)
    if args.name == "all":
        import json

        metrics = experiments_mod.run_all(policy, out_path=args.out)
        if args.report:
            from pathlib import Path

            from repro.analysis.report import render_report

            Path(args.report).write_text(render_report(metrics))
            print(f"report written to {args.report}")
        else:
            print(json.dumps(metrics, indent=2, sort_keys=True))
        if args.out:
            print(f"archived to {args.out}")
        return 0
    runners = {
        "table1": lambda: experiments_mod.run_table1(policy).table(),
        "table2": lambda: experiments_mod.run_table2(),
        "fig2": lambda: experiments_mod.run_fig2(policy).table(),
        "fig7": lambda: experiments_mod.run_fig7(policy).table(),
        "fig10": lambda: experiments_mod.run_fig10(policy).table(),
        "fig11": lambda: experiments_mod.run_fig11(policy).table(),
        "fig12": lambda: experiments_mod.run_fig12(policy).table(),
        "fig13": lambda: experiments_mod.run_fig13(policy).table(),
        "fig14": lambda: experiments_mod.run_fig14(),
    }
    print(runners[args.name]())
    return 0


def cmd_info(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.graph.stats import compute_stats

    graph = _load(args.graph)
    st = compute_stats(graph, name=args.graph)
    rows = [
        ["vertices", f"{st.num_nodes:,}"],
        ["temporal edges", f"{st.num_edges:,}"],
        ["size (MB)", f"{st.size_mb:.2f}"],
        ["time span (days)", f"{st.time_span_days:.1f}"],
        ["max out-degree", f"{st.max_out_degree:,}"],
        ["max in-degree", f"{st.max_in_degree:,}"],
        ["mean out-degree", f"{st.mean_out_degree:.2f}"],
    ]
    print(format_table(["stat", "value"], rows))
    return 0


def build_serve_server(args):
    """Construct the (service, http server) pair for ``repro serve``.

    Factored out of :func:`cmd_serve` so tests can bind to port 0 and
    drive the server in a thread without blocking in ``serve_forever``.
    """
    from functools import partial
    from pathlib import Path

    from repro.service import InlineExecutor, MotifService, make_server

    dispatcher = None  # inline: no process is spawned or imported
    if args.cluster:
        from repro.cluster import MiningCluster

        dispatcher = partial(MiningCluster, args.cluster)
    elif args.workers:
        from repro.mining.parallel import WorkerPool

        dispatcher = partial(WorkerPool, args.workers)
    service = MotifService(
        max_queue=args.queue_size,
        lanes=args.lanes,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        executor=InlineExecutor(dispatcher),
    )
    try:
        for spec in args.graphs:
            name, _, path = spec.rpartition("=")
            if not name:
                name, path = Path(path).stem, path
            fp = service.register_graph(_load(path), name=name)
            print(f"registered {name!r} ({path}) as {fp}")
        server = make_server(
            service, host=args.host, port=args.port, verbose=args.verbose
        )
    except BaseException:
        service.close()
        raise
    return service, server


def _cmd_chaos_live(args) -> int:
    """The live-ingest chaos drill (``repro chaos --live``).

    Runs the ``repro live`` feed (:func:`repro.live.driver
    .run_live_feed`, through the self-hosted HTTP front door) with a
    seeded plan installed that crashes the append path before and after
    its commit point.  Each crash answers HTTP 500 and the producer
    re-sends the same ``seq``: no edge may be lost or duplicated,
    post-commit retries must be answered from the idempotency ledger
    (``duplicate: true``), and every standing subscription must have
    fired exactly the offline-replay event stream.  Exit 0 = all
    invariants held.
    """
    from repro.analysis.reporting import format_table
    from repro.live.driver import (
        build_live_chaos_plan,
        check_feed,
        run_live_feed,
    )

    num_subs = 6
    try:
        graph, source = _resolve_graph_arg(args)
        num_batches = check_feed(
            graph.num_edges, delta=args.delta, num_subs=num_subs,
            batch_size=args.batch_size,
        )
        plan, _ = build_live_chaos_plan(num_batches, args.kills, args.seed)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    with plan.installed():
        report = run_live_feed(
            graph,
            delta=args.delta,
            graph_name="chaos-feed",
            num_subs=num_subs,
            batch_size=args.batch_size,
        )
    checks = report["checks"]
    rows = [
        ["graph", source],
        ["edges", f"{report['edges']:,}"],
        ["batches", report["batches"]],
        ["injected crashes", report["injected_faults"]],
        ["crash sites", " ".join(
            f"{b}:{m}" for b, m in report["failures"].items()) or "-"],
        ["producer retries", report["retries"]],
        ["duplicate acks", report["duplicate_acks"]],
        ["events fired", report["events_total"]],
    ] + [
        [name.replace("_", " "), "OK" if ok else "FAILED"]
        for name, ok in checks.items()
    ]
    print(format_table(["live chaos", "value"], rows))
    if not report["ok"]:
        failed = [n for n, ok in checks.items() if not ok]
        print(f"LIVE CHAOS FAILED: {', '.join(failed)}")
        return 1
    return 0


def cmd_chaos(args) -> int:
    """Exercise the failure path on purpose, then prove it was harmless.

    Censuses the evaluation motif catalog in one ``count_family`` on a
    :class:`WorkerPool` of ``--workers`` processes (``--cluster``: a
    :class:`MiningCluster` of ``--workers`` nodes) while a seeded
    :class:`FaultPlan` kills ``--kills`` of them mid-run at that
    dispatcher's fault site, and compares every motif's payload bytes
    (count and search counters) with the serial miner.  Exit 0 = parity
    held; 1 = it did not (a real bug); 2 = bad arguments.  With
    ``--live``, drills ingest-path crashes on a live graph instead
    (see :func:`_cmd_chaos_live`).
    """
    if args.cluster and args.live:
        print("error: --cluster and --live are mutually exclusive")
        return 2
    if args.live:
        return _cmd_chaos_live(args)
    from repro.analysis.reporting import format_table
    from repro.mining.mackey import MackeyMiner
    from repro.motifs.catalog import EVALUATION_MOTIFS
    from repro.resilience import FaultPlan
    from repro.service.query import build_payload, payload_bytes

    if args.cluster:
        from repro.cluster import MiningCluster as Dispatcher
    else:
        from repro.mining.parallel import WorkerPool as Dispatcher
    if not 0 <= args.kills <= args.workers:
        print("error: --kills must be in [0, --workers]")
        return 2
    graph = _load(args.graph)
    motifs = list(EVALUATION_MOTIFS)
    plan = FaultPlan.random_kills(
        args.seed, args.workers, args.kills, site=Dispatcher.site
    )
    fp = graph.fingerprint()

    def payload(motif, result) -> bytes:
        return payload_bytes(build_payload(
            fp, motif, args.delta, result.count, result.counters.as_dict()
        ))

    serial = [payload(m, MackeyMiner(graph, m, args.delta).mine()) for m in motifs]
    with Dispatcher(
        args.workers,
        chunk_timeout_s=args.chunk_timeout,
        respawn_budget=args.respawn_budget,
        fault_plan=plan,
        seed=args.seed,
    ) as dispatcher:
        family = dispatcher.count_family(graph, motifs, args.delta)
        stats = dispatcher.stats.as_dict()
        degraded = dispatcher.degraded
    mismatches = [
        m.name for m, r, want in zip(motifs, family.results, serial)
        if payload(m, r) != want
    ]
    rows = [
        ["motifs", " ".join(m.name for m in motifs)],
        ["delta (s)", args.delta],
        ["total count", f"{sum(r.count for r in family.results):,}"],
        [f"{dispatcher.noun}s (target)", args.workers],
        ["injected kills", len(plan.specs)],
        *([name.replace("_", " "), n] for name, n in stats.items()),
        ["degraded", str(degraded).lower()],
        ["parity", "FAILED" if mismatches else "OK"],
    ]
    print(format_table([f"{Dispatcher.label} chaos", "value"], rows))
    if mismatches:
        print(f"PARITY FAILED: {Dispatcher.label} mining diverged from the "
              f"serial miner for {', '.join(mismatches)} under injected faults")
        return 1
    return 0


def cmd_live(args) -> int:
    """Replay a dataset as a live feed and verify against offline.

    Self-hosts a :class:`MotifService` + HTTP server on a free port,
    creates a live graph, registers ``--subs`` standing subscriptions
    (catalog motifs, a mix of every-update and threshold alerts), POSTs
    the dataset as sequence-numbered edge batches — optionally shuffled
    through the reorder buffer — then reads every fired event back over
    HTTP and byte-compares the lot (plus the final window snapshot's
    fingerprint) against the offline ``repro.streaming`` replay.
    Exit 0 = every check of the report held; 1 = one did not; 2 = bad
    arguments.
    """
    from repro.analysis.reporting import format_table
    from repro.live.driver import check_feed, run_live_feed

    try:
        graph, source = _resolve_graph_arg(args)
        delta = args.delta if args.delta is not None else max(
            1, graph.time_span // 40
        )
        check_feed(graph.num_edges, delta=delta, num_subs=args.subs,
                   batch_size=args.batch_size)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    report = run_live_feed(
        graph,
        delta=delta,
        num_subs=args.subs,
        batch_size=args.batch_size,
        seed=args.seed,
        shuffle=args.shuffle,
        verify=not args.no_verify,
    )
    rows = [
        ["graph", source],
        ["delta (s)", delta],
        ["edges ingested", f"{report['edges']:,}"],
        ["batches", report["batches"]],
        ["arrival order", report["shuffle"]],
        ["final version", report["version"]],
        ["late dropped", report["late_dropped"]],
        ["subscriptions", report["subscriptions"]],
        ["subscriptions fired", report["subs_fired"]],
        ["events fired", f"{report['events_total']:,}"],
        ["alerts fired", report["alerts_total"]],
        ["ingest rate (edges/s)", f"{report['edges_per_s']:,.0f}"],
        ["delivery lag p99 (ms)",
         f"{report['metrics']['delivery_lag_p99_s'] * 1e3:.2f}"],
    ]
    parity_label = (
        "skipped" if args.no_verify
        else ("OK" if report["ok"] else "FAILED")
    )
    rows.append(["parity vs offline replay", parity_label])
    print(format_table(["live feed", "value"], rows))
    if not report["ok"]:
        failed = [n for n, ok in report["checks"].items() if not ok]
        print(
            f"LIVE FEED FAILED: {', '.join(failed)} (diverged "
            f"subscriptions: {report['mismatched_subs'] or 'none'})"
        )
        return 1
    return 0


def _check_serve_args(args) -> None:
    """Reject out-of-range ``repro serve`` flags before any work starts."""
    if not 0 <= args.port <= 65535:
        raise ValueError("--port must be in [0, 65535]")
    if args.workers > 0 and args.cluster > 0:
        raise ValueError("--workers and --cluster are mutually exclusive")
    for flag, value, low in (
        ("--workers", args.workers, 0),
        ("--cluster", args.cluster, 0),
        ("--lanes", args.lanes, 1),
        ("--queue-size", args.queue_size, 1),
        ("--cache-mb", args.cache_mb, 0),
    ):
        if not value >= low:  # NaN fails too
            raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_serve(args) -> int:
    try:
        _check_serve_args(args)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    service, server = build_serve_server(args)
    host, port = server.server_address[:2]
    print(f"serving motif queries on http://{host}:{port}")
    print("  POST /query   GET /metrics   GET /graphs   GET /healthz")
    health = service.health()
    print(
        f"health: ok={str(health['ok']).lower()} "
        f"degraded={str(health['degraded']).lower()} "
        f"queue_depth={health['queue_depth']} "
        f"breakers_open="
        f"{sum(1 for s in health['breakers'].values() if s != 'closed')}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.close()
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "mine": cmd_mine,
    "census": cmd_census,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
    "info": cmd_info,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "live": cmd_live,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
