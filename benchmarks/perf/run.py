#!/usr/bin/env python3
"""The repo benchmark: six workloads, end to end and layer by layer.

    run.py --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
    run.py [--workloads a,b] [--repeats N] [--out F]       every workload, each run in a
                                                           fresh child, then a traced pass
    run.py --compare A.json B.json                         verdict per metric and workload

See README.md beside this file for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from harness import (  # noqa: E402
    OUT, ROOT, children_of, environment, pct, shm_segments, tree_rss_mb,
)
from spans import Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Gated by ``--compare`` like the end-to-end metrics.  Only live_subs has
#: them, and the driver's contract wants every end-to-end name from every
#: workload, so they travel as extras (README, "The issue's eleven names").
EXTRA_BOUNDS = {
    "event_latency_p50_ms": {"better": "lower", "bound": 0.25},
    "event_latency_p90_ms": {"better": "lower", "bound": 0.25},
}

GATES = dict(END_TO_END, **EXTRA_BOUNDS)

SETUPS = 3            # set-ups per run; setup_s is their median
TRACED_SHARE = 0.3    # a traced drive lasts this share of --seconds


# -- one run of one workload ---------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> Dict:
    wl = workloads.make(name, seed, quick)
    tracer = Tracer(f"{name}/{seed}", enabled=trace)
    shm_before = shm_segments()
    setups: List[float] = []
    try:
        for i in range(1 if trace or quick else SETUPS):
            if i:
                wl.teardown()
            with tracer.span("setup"):
                t0 = time.perf_counter()
                wl.setup()
                setups.append(time.perf_counter() - t0)
        with tracer.span("drive"):
            m = wl.drive(seconds * (TRACED_SHARE if trace else 1.0), tracer)
        rss_mb = tree_rss_mb(wl.rss_pid())
        with tracer.span("verify"):
            wl.verify(m)
    finally:
        wl.teardown()
    _stop_tracker()
    leaked = children_of(os.getpid())
    m.check(not leaked, f"child processes survived: {leaked}")
    new_shm = sorted(shm_segments() - shm_before)
    m.check(not new_shm, f"/dev/shm segments survived: {new_shm}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "quick": quick, "environment": environment(seed),
        "attempted": m.attempted, "failed": m.failed, "failures": m.failures,
        "failed_share": m.failed / m.attempted,
        "samples": {"latency": len(m.latencies_ms), "tail_pct": wl.tail_pct,
                    "rates": len(m.rates), "work_unit": wl.work_unit,
                    "setups": len(setups)},
        "end_to_end": {
            "setup_s": (median(setups), "s"),
            "throughput_per_s": (median(m.rates), "1/s"),
            "latency_p50_ms": (pct(m.latencies_ms, 50), "ms"),
            "latency_tail_ms": (pct(m.latencies_ms, wl.tail_pct), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "extras": m.extras, "info": m.info,
    }
    if trace:
        import probes  # a dozen more modules of src/repro: traced runs only

        record["per_layer"] = probes.run_all(tracer, seed, quick)
        record["self_time_s"] = tracer.self_times()
        tracer.write(OUT / f"trace_{name}.json", {"workload": name, "seed": seed})
        _stop_tracker()
    return record


def _stop_tracker() -> None:
    """End multiprocessing's resource tracker, which otherwise outlives the
    pools it served; it starts again by itself if another pool needs it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _print_metrics(metrics: Dict) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<42}{value:>16.6g} {unit}")


def _print_self_times(record: Dict) -> None:
    top = sorted(record["self_time_s"].items(), key=lambda kv: -kv[1])[:12]
    for span, secs in top:
        print(f"  self time  {span:<40}{secs:>10.3f} s")


def report_one(record: Dict) -> int:
    """Print a run by name and unit; the last line is the driver's JSON."""
    name, s = record["workload"], record["samples"]
    print(f"workload {name}  seed {record['seed']}\n  why: {WORKLOADS[name]}")
    print(f"  throughput in {s['work_unit']}/s, median of {s['rates']} stretches; "
          f"latency over {s['latency']} samples, tail = p{s['tail_pct']}; "
          f"setup_s median of {s['setups']}")
    shown = "per_layer" if record["trace"] else "end_to_end"
    _print_metrics(record[shown])
    _print_metrics(record["extras"])
    if record["trace"]:
        _print_self_times(record)
    print(f"  failed_share {record['failed']}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    declared = PER_LAYER if record["trace"] else END_TO_END
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in record[shown].items()}
    if set(metrics) != set(declared):
        raise SystemExit(f"emitted names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    print(json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    }))
    return 0 if record["failed"] == 0 else 1


# -- every workload, each run in a fresh child ---------------------------------

def _child(name: str, seed: int, seconds: int, trace: int, quick: bool) -> Dict:
    """A fresh process per run: peak memory and allocator state are its own."""
    path = OUT / f"child_{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(path)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, text=True, capture_output=True)
    if not path.exists():
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    try:
        return json.loads(path.read_text())
    finally:
        path.unlink()


def _value(run: Dict, metric: str) -> Optional[float]:
    for group in ("end_to_end", "extras", "per_layer"):
        if metric in run.get(group, {}):
            return run[group][metric][0]
    return None


def _med(by_name: Dict, name: str, metric: str) -> float:
    """Median of a metric over a workload's untraced runs."""
    return median(_value(r, metric) for r in by_name[name]["runs"])


def run_all(names: List[str], seed: int, seconds: int, repeats: int,
            quick: bool, out: Path) -> int:
    result = {
        "claim": None, "environment": environment(seed), "seconds": seconds,
        "repeats": repeats, "quick": quick, "workloads": {},
    }
    by_name = result["workloads"]
    for name in names:
        runs = [_child(name, seed + i, seconds, 0, quick) for i in range(repeats)]
        traced = _child(name, seed, seconds, 1, quick)
        by_name[name] = {"runs": runs, "traced": traced}
        print(f"{name}  ({repeats} runs, seeds {seed}..{seed + repeats - 1})"
              f"\n  why: {WORKLOADS[name]}")
        for group in ("end_to_end", "extras"):
            for metric, (_, unit) in runs[0][group].items():
                values = [_value(r, metric) for r in runs]
                spread = ""
                if repeats > 1 and metric in GATES:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = f" spread {(q3 - q1) / median(values):.3f}"
                print(f"  {metric:<42}{median(values):>16.6g} {unit:<5}{spread}")
        _print_self_times(traced)
        failed = sum(r["failed"] for r in runs + [traced])
        print(f"  failed_share {failed}/"
              f"{sum(r['attempted'] for r in runs + [traced])}")
        for r in runs + [traced]:
            for failure in r["failures"]:
                print(f"  FAILED (seed {r['seed']}, trace {r['trace']}): {failure}")
    # Every traced run pushes the same battery through the layers, so each
    # per-layer number has one reading per workload run.
    print(f"per-layer metrics (median of {len(names)} traced runs)")
    _print_metrics({
        metric: (median(_value(w["traced"], metric) for w in by_name.values()),
                 spec["unit"])
        for metric, spec in PER_LAYER.items()})
    result["derived"] = derive(by_name)
    result["findings"] = findings(by_name)
    for block in ("derived", "findings"):
        print(block)
        print(json.dumps(result[block], indent=2))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if any(
        r["failed"] for w in by_name.values() for r in w["runs"] + [w["traced"]]
    ) else 0


def derive(by_name: Dict) -> Dict:
    """Numbers that need two measurements; printed, never gated."""
    out: Dict[str, float] = {}
    for name, w in by_name.items():
        traced = _value(w["traced"], "throughput_per_s")
        out[f"trace_overhead_share.{name}"] = (
            _med(by_name, name, "throughput_per_s") / traced - 1)
    if "census_sparse" in by_name and "census_pool" in by_name:
        out["census_pool.efficiency"] = (
            _med(by_name, "census_sparse", "latency_p50_ms")
            / (workloads.NPROC * _med(by_name, "census_pool", "latency_p50_ms")))
    if "serve_hit" in by_name:
        out["service.http.overhead_ms"] = (
            _med(by_name, "serve_hit", "latency_p50_ms")
            - _value(by_name["serve_hit"]["traced"], "service.scheduler.hit_ms"))
    if "live_subs" in by_name:
        out["service.http.post_edges_overhead_ms"] = (
            _med(by_name, "live_subs", "ack_prefix_p50_ms")
            - _value(by_name["live_subs"]["traced"], "live.ingest.append100_ms"))
    return out


def findings(by_name: Dict) -> Dict:
    """Dominant layer of the three ROADMAP anomalies, by self-time share.

    Spans inside ``src/repro`` are a later issue, so a layer's self time
    is its measured time minus the time of the layer below it run alone.
    """
    out: Dict[str, Dict] = {}

    def shares(parts: Dict[str, float]) -> Dict:
        total = sum(parts.values())
        by_share = {k: round(v / total, 4) for k, v in parts.items()}
        return {"self_time_share": by_share,
                "dominant_layer": max(by_share, key=by_share.get)}

    if "census_pool" in by_name:
        probe = by_name["census_pool"]["traced"]["per_layer"]
        useful = probe["mining.batched.chunked_mine_s"][0]
        for anomaly, layer in (("census_pool", "mining.parallel"),
                               ("cluster_dispatch", "cluster.coordinator")):
            # Worker-seconds the wave held, against the mining it had to do.
            held = workloads.NPROC * probe[f"{layer}.dispatch_s"][0]
            out[anomaly] = shares({"mining.batched": useful, layer: held - useful})
    if "live_subs" in by_name:
        probe = by_name["live_subs"]["traced"]["per_layer"]
        ack = _med(by_name, "live_subs", "ack_prefix_p50_ms")
        a0 = probe["live.ingest.append0_ms"][0]
        a100 = probe["live.ingest.append100_ms"][0]
        # Milliseconds the panel's engines need for one batch, alone.
        engines = (workloads.LIVE_BATCH * 1e3
                   / probe["streaming.counter.panel_edges_per_s"][0])
        out["live_subs"] = shares({
            "service.http": ack - a100,
            "live.subscriptions": max(0.0, a100 - a0 - engines),
            "streaming.counter": min(engines, a100 - a0),
            "live.ingest": a0,
        })
    return out


# -- compare -------------------------------------------------------------------

def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for B against A.

    The rule of choosing-metrics section 8 for paired runs.  A gain needs
    nine tenths of the seed-paired runs (ties count for neither side) and
    a median shift beyond A's own quartile distance.  Where A's spread is
    wider than the bound nothing can be ruled out, so the pair is
    unresolved.  Otherwise a median worse by more than the bound is a loss.
    """
    sign = 1.0 if better == "lower" else -1.0   # sign * (b - a) > 0: B is worse
    med_a, med_b = median(a), median(b)
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (med_a,) * 3
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    shift = sign * (med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and -shift > q3 - q1:
        return "better"
    if q3 - q1 > bound * abs(med_a):
        return "unresolved"
    return "worse" if shift > bound * abs(med_a) else "unchanged"


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    bad = 0
    for name in a:
        if name not in b:
            continue
        for metric, gate in GATES.items():
            va = [_value(r, metric) for r in a[name]["runs"]]
            vb = [_value(r, metric) for r in b[name]["runs"]]
            if va[0] is None or vb[0] is None:
                continue
            v = verdict(va, vb, gate["better"], gate["bound"])
            bad += v in ("worse", "unresolved")
            print(f"{name:<14}{metric:<24}{median(va):>14.6g} -> "
                  f"{median(vb):<14.6g} bound {gate['bound']:<5} {v}")
        failed = sum(r["failed"] for r in b[name]["runs"] + [b[name]["traced"]])
        bad += failed > 0
        print(f"{name:<14}{'failed_share':<24}{failed} failed in B: "
              f"{'worse' if failed else 'unchanged'}")
        # Counts made by the program repeat exactly on the same seed, so a
        # difference is a change in the work done and not noise.
        ta, tb = a[name]["traced"], b[name]["traced"]
        if ta["seed"] == tb["seed"]:
            for metric, spec in PER_LAYER.items():
                if spec["unit"] == "count" and _value(ta, metric) != _value(tb, metric):
                    print(f"{name:<14}{metric:<24} count differs: "
                          f"{_value(ta, metric)} -> {_value(tb, metric)}")
    print("no metric is worse or unresolved" if not bad
          else f"{bad} worse or unresolved")
    return 1 if bad else 0


# -- command line --------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="run this one, in-process")
    ap.add_argument("--seed", type=int, default=1127)
    ap.add_argument("--seconds", type=int, default=CONTRACT["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one set-up: a smoke test, not a measurement")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated subset for the all-workloads form")
    ap.add_argument("--repeats", type=int, default=1,
                    help="untraced runs per workload, each on the next seed")
    ap.add_argument("--out", type=Path,
                    help="where the full record goes (default: a file under out/)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    OUT.mkdir(exist_ok=True)
    if args.workload:
        record = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.quick)
        out = args.out or OUT / f"run_{args.workload}_t{args.trace}.json"
        out.write_text(json.dumps(record))
        return report_one(record)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads: {unknown}")
    return run_all(names, args.seed, args.seconds, args.repeats, args.quick,
                   args.out or OUT / "result.json")


if __name__ == "__main__":
    sys.exit(main())
