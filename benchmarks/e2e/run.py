#!/usr/bin/env python3
"""End-to-end benchmark: whole scenarios, timed, checked, and traced by layer.

One workload, one seed (the form of BENCHMARK.json's command)::

    python3 benchmarks/e2e/run.py --workload cma_fig10 --seed 7 \\
        --seconds 18 --trace 0

runs set-up, then repetitions of the scenario for about ``--seconds``,
checks every repetition's outputs, prints each metric with its unit and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics instead.

Every workload, several runs each, plus the snapshot::

    python3 benchmarks/e2e/run.py [--seed 7] [--runs 3] [--traced]

runs each workload in a fresh child process, one child at a time, prints
the median and quartiles of every end-to-end metric per workload, and
writes ``benchmarks/e2e/snapshot.json``.

The program is imported from ``<root>/src`` (``--root``, default: the
checkout this file sits in), so it need not be installed. Importing this
module starts nothing; work runs only under the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"
SNAPSHOT = BENCH_DIR / "snapshot.json"

WORKLOADS = ("cma_fig10", "cma_large", "fra_sweep", "faults_slice", "served_job")

#: End-to-end metrics and their units (BENCHMARK.json declares the same).
E2E_UNITS = {
    "setup_s": "s",
    "scenario_s": "s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units (BENCHMARK.json declares the same).
#: Times in ms are per traced scenario repetition and every workload
#: passes through these layers; layers only some workloads use are given
#: as a share of the traced repetition or as a call count, so a layer a
#: workload bypasses reads 0 rather than a time.
LAYER_UNITS = {
    "host.calib_ms": "ms",
    "trace.overhead_pct": "%",
    "geometry.triangulate_ms": "ms",
    "geometry.evaluate_grid_ms": "ms",
    "surfaces.reconstruct_ms": "ms",
    "surfaces.reconstruct_self_ms": "ms",
    "surfaces.score_ms": "ms",
    "fields.sample_grid_ms": "ms",
    "fields.sample_ms": "ms",
    "graphs.connectivity_ms": "ms",
    "runtime.sense_pct": "%",
    "runtime.exchange_pct": "%",
    "runtime.plan_pct": "%",
    "runtime.constrain_move_pct": "%",
    "runtime.lcm_pct": "%",
    "runtime.measure_pct": "%",
    "sim.sensing.read_many_pct": "%",
    "core.cma.own_curvature_pct": "%",
    "core.cma.plan_move_pct": "%",
    "sim.radio.exchange_pct": "%",
    "sim.netmodel.exchange_pct": "%",
    "core.lcm.adjustment_pct": "%",
    "geometry.incremental_insert_pct": "%",
    "core.fra.refine_self_pct": "%",
    "graphs.count_relays_pct": "%",
    "graphs.plan_relays_pct": "%",
    "serve.job_overhead_pct": "%",
    "geometry.incremental_insert.calls": "count",
    "geometry.radius_adjacency.calls": "count",
    "core.cma.plan_move.calls": "count",
    "core.lcm.adjustment.calls": "count",
    "graphs.count_relays.calls": "count",
    "lcm.passes": "count",
    "lcm.moves": "count",
    "exchange.beacons": "count",
    "exchange.delivery_ratio": "ratio",
    "serve.events_per_job": "count",
}

#: (metric, span name, inclusive or self) for the per-layer shares.
_SHARES = (
    ("sim.sensing.read_many_pct", "sim.sensing.read_many", "total"),
    ("core.cma.own_curvature_pct", "core.cma.own_curvature", "total"),
    ("core.cma.plan_move_pct", "core.cma.plan_move", "total"),
    ("sim.radio.exchange_pct", "sim.radio.exchange", "total"),
    ("sim.netmodel.exchange_pct", "sim.netmodel.exchange", "total"),
    ("core.lcm.adjustment_pct", "core.lcm.adjustment", "total"),
    ("geometry.incremental_insert_pct", "geometry.incremental_insert", "total"),
    ("core.fra.refine_self_pct", "core.fra.refine", "self"),
    ("graphs.count_relays_pct", "graphs.count_relays", "total"),
    ("graphs.plan_relays_pct", "graphs.plan_relays", "total"),
)

#: Set-up is repeated this many times per run; the median is reported.
N_SETUP = 3
#: Fewest repetitions a run measures, whatever ``--seconds`` says.
MIN_REPS = 3
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 900


# -- per-layer read-out ----------------------------------------------------

def layer_metrics(tracer, wall_s: float, cal_ms: float) -> Dict[str, float]:
    """The declared per-layer metrics of one traced repetition.

    ``cal_ms`` is the repetition's median kernel timing; layer times are
    calibrated with it.
    """
    from bench_calib import calibrated

    ms = lambda s: calibrated(s * 1e3, cal_ms)  # noqa: E731
    share = lambda s: 100.0 * s / wall_s if wall_s > 0 else 0.0  # noqa: E731
    phases = tracer.phases
    counters = tracer.counters
    out = {
        "host.calib_ms": cal_ms,
        "geometry.triangulate_ms": ms(tracer.total_s("geometry.triangulate")),
        "geometry.evaluate_grid_ms": ms(tracer.total_s("geometry.evaluate_grid")),
        "surfaces.reconstruct_ms": ms(tracer.total_s("surfaces.reconstruct")),
        "surfaces.reconstruct_self_ms": ms(tracer.self_s("surfaces.reconstruct")),
        "surfaces.score_ms": ms(tracer.total_s("surfaces.score")),
        "fields.sample_grid_ms": ms(tracer.total_s("fields.sample_grid")),
        "fields.sample_ms": ms(tracer.total_s("fields.sample")),
        "graphs.connectivity_ms": ms(tracer.self_s("graphs.connectivity")),
    }
    for phase in ("sense", "exchange", "plan", "constrain_move", "lcm", "measure"):
        out[f"runtime.{phase}_pct"] = share(sum(phases.get(phase, ())))
    for metric, span, kind in _SHARES:
        spent = tracer.total_s(span) if kind == "total" else tracer.self_s(span)
        out[metric] = share(spent)
    for metric in ("geometry.incremental_insert", "geometry.radius_adjacency",
                   "core.cma.plan_move", "core.lcm.adjustment",
                   "graphs.count_relays"):
        out[f"{metric}.calls"] = float(tracer.calls(metric))
    out["lcm.passes"] = float(counters.get("lcm.passes", 0))
    out["lcm.moves"] = float(counters.get("lcm.moves", 0))
    out["exchange.beacons"] = float(counters.get("exchange.beacons", 0))
    pairs = counters.get("exchange.pairs", 0)
    out["exchange.delivery_ratio"] = (
        counters.get("exchange.fresh", 0) / pairs if pairs else 0.0
    )
    return out


def phase_summary(tracer, cal_ms: float) -> Dict[str, Any]:
    """Engine phase times per round (calibrated ms) and their step coverage."""
    from bench_calib import calibrated
    from bench_stats import median

    phases = tracer.phases
    steps = phases.get("step", [])
    if not steps:
        return {}
    named = ("sense", "exchange", "plan", "constrain_move", "lcm", "measure")
    covered = sum(sum(phases.get(p, ())) for p in named)
    out = {f"runtime.{p}_ms": median([calibrated(d * 1e3, cal_ms) for d in phases[p]])
           for p in named if phases.get(p)}
    out["runtime.step_ms"] = median([calibrated(d * 1e3, cal_ms) for d in steps])
    out["runtime.coverage_pct"] = 100.0 * covered / sum(steps)
    return out


# -- one workload, one seed --------------------------------------------------

def make_workload(name: str, root: Path):
    if name == "served_job":
        from bench_serve import ServedWorkload

        return ServedWorkload(root, OUT_DIR)
    from bench_workloads import in_process_workloads

    return in_process_workloads()[name]


def measure_setup(workload, args, root: Path) -> List[float]:
    """Set-up times: fresh interpreter to inputs ready (or server warm)."""
    if hasattr(workload, "timed_setups"):
        return workload.timed_setups(N_SETUP)
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--root", str(root)]
    times = []
    for _ in range(N_SETUP):
        t0 = perf_counter()
        subprocess.run(probe, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def measure(workload, seconds: float, traced: bool) -> List[Dict[str, Any]]:
    """Repetitions for about ``seconds``; traced runs alternate U, T, U, T."""
    from bench_calib import calibrate_steps, sample
    from bench_trace import LayerTracer

    reps: List[Dict[str, Any]] = []
    start = perf_counter()
    floor = MIN_TRACED_REPS * 2 if traced else MIN_REPS
    while True:
        is_traced = traced and len(reps) % 2 == 1
        tracer = LayerTracer() if is_traced else None
        entry = {"rep": None, "error": None, "traced": is_traced, "tracer": tracer}
        try:
            if tracer is not None:
                with tracer.installed():
                    rep = workload.run_once(sample, tracer)
            else:
                rep = workload.run_once(sample)
            entry["rep"] = rep
            entry["error"] = workload.check(rep)
            entry["steps_cal"], entry["scenario_cal"] = calibrate_steps(
                rep.segments_s, rep.cal_ms, rep.wall_s, rep.segments_per_step)
        except Exception as exc:  # a failed repetition is counted, not fatal
            entry["error"] = f"{type(exc).__name__}: {exc}"
        reps.append(entry)
        elapsed = perf_counter() - start
        if len(reps) >= floor and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def e2e_metrics(reps, setup_times, rss_mb) -> Dict[str, Any]:
    from bench_stats import median, tail_percentile

    ok = [r for r in reps if r["error"] is None and not r["traced"]]
    steps = [s * 1e3 for r in ok for s in r["steps_cal"]]
    return {
        "metrics": {
            "setup_s": median(setup_times),
            "scenario_s": median([r["scenario_cal"] for r in ok]),
            "step_ms_p50": median(steps),
            "peak_rss_mb": rss_mb,
        },
        "raw": {
            "scenario_s": median([r["rep"].wall_s for r in ok]),
            "step_ms_p50": median([s * 1e3 for r in ok for s in r["rep"].steps_s]),
        },
        "step_tail_ms": tail_percentile(steps),
        "n_steps": len(steps),
        "n_reps": len(ok),
    }


def traced_metrics(workload, reps) -> Dict[str, Any]:
    from bench_calib import sample
    from bench_stats import median
    from bench_trace import LayerTracer

    ok = [r for r in reps if r["error"] is None]
    traced = [r for r in ok if r["traced"]]
    overhead = 100.0 * (
        median([r["scenario_cal"] for r in traced])
        / median([r["scenario_cal"] for r in ok if not r["traced"]]) - 1.0
    )
    serve: Dict[str, Any] = {}
    if workload.name == "served_job":
        # The layers run inside the server's pool worker; trace the same
        # simulation in this process instead, and time it untraced for
        # the overhead of the service boundary.
        sources, in_process = [], []
        for _ in range(MIN_TRACED_REPS):
            in_process.append(workload.reference_s())
            tracer = LayerTracer()
            before = sample()
            with tracer.installed():
                wall = workload.reference_s()
            sources.append((tracer, wall, (before + sample()) / 2))
        jobs = [r["rep"].outcome for r in ok if not r["traced"]]
        span_ms = lambda name: median(  # noqa: E731
            [r["tracer"].total_s(name) * 1e3 for r in traced])
        serve = {
            "serve.job_ms": median([j["job_s"] * 1e3 for j in jobs]),
            "serve.first_event_ms": median([j["first_event_s"] * 1e3 for j in jobs]),
            "serve.in_process_ms": median(in_process) * 1e3,
            "serve.events_per_job": median([len(j["events"]) for j in jobs]),
            "serve.submit_ms": span_ms("serve.submit"),
            "serve.stream_ms": span_ms("serve.stream"),
            "serve.result_ms": span_ms("serve.result"),
        }
    else:
        sources = [(r["tracer"], r["rep"].wall_s, median(r["rep"].cal_ms))
                   for r in traced]
    per_rep = [layer_metrics(*source) for source in sources]
    metrics = {name: median([m[name] for m in per_rep]) for name in per_rep[0]}
    metrics["trace.overhead_pct"] = overhead
    metrics["serve.events_per_job"] = float(serve.get("serve.events_per_job", 0))
    metrics["serve.job_overhead_pct"] = (
        100.0 * (1.0 - serve["serve.in_process_ms"] / serve["serve.job_ms"])
        if serve else 0.0
    )
    tracer, _, cal_ms = sources[-1]
    return {
        "metrics": {name: metrics[name] for name in LAYER_UNITS},
        "serve": serve,
        "phases": phase_summary(tracer, cal_ms),
        "layers_ms": tracer.table(cal_ms),
    }


def run_workload(args, root: Path) -> int:
    from bench_calib import CAL_REF_MS
    from bench_stats import median

    if not args.trace and tracemalloc.is_tracing():
        print("tracemalloc is tracing; untraced runs must not be profiled",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, root)
    try:
        setup_times = measure_setup(workload, args, root)
        workload.setup(args.seed)
        workload.warm_up()
        reps = measure(workload, args.seconds, bool(args.trace))
        first_ok = next((r for r in reps if r["error"] is None), None)
        layers = (traced_metrics(workload, reps)
                  if args.trace and first_ok is not None else None)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    failed = [r for r in reps if r["error"] is not None]
    for r in failed:
        print(f"FAILED repetition: {r['error']}", file=sys.stderr)
    if first_ok is None or all(r["traced"] for r in reps if r["error"] is None):
        print("no repetition succeeded; no metrics to report", file=sys.stderr)
        return 1
    e2e = e2e_metrics(reps, setup_times, peak_rss_mb())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "cal_ref_ms": CAL_REF_MS,
        "host_calib_ms": median([c for r in reps if r["rep"] for c in r["rep"].cal_ms]),
        "versions": versions(),
        "setup_s": setup_times,
        "reps": [
            {"traced": r["traced"], "error": r["error"],
             "wall_s": r["rep"].wall_s if r["rep"] is not None else None,
             "scenario_cal_s": r.get("scenario_cal"),
             "cal_ms": r["rep"].cal_ms if r["rep"] is not None else None}
            for r in reps
        ],
        "e2e": {k: e2e[k] for k in ("metrics", "raw", "n_steps", "n_reps")},
        "step_tail_ms": e2e["step_tail_ms"],
        "quality": workload.quality(first_ok["rep"]),
        "layers": layers,
    }
    out_path = Path(args.out) if args.out else (
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json")
    out_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reps)} ({len(failed)} failed)  "
          f"host.calib_ms {detail['host_calib_ms']:.2f} (ref {CAL_REF_MS})")
    for name, value in detail["quality"].items():
        print(f"  quality {name} {value}")
    if args.trace:
        for name, value in layers["metrics"].items():
            print(f"  {name} {value:.6g} {LAYER_UNITS[name]}")
        for name, value in {**layers["phases"], **layers["serve"]}.items():
            print(f"  {name} {value:.6g}")
        metrics = {name: {"value": layers["metrics"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        for name, value in e2e["metrics"].items():
            raw = e2e["raw"].get(name)
            suffix = f"  (raw {raw:.6g})" if raw is not None else ""
            print(f"  {name} {value:.6g} {E2E_UNITS[name]}{suffix}")
        print(f"  step tail: {describe_tail_ms(e2e)}")
        metrics = {name: {"value": e2e["metrics"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": not failed, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def describe_tail_ms(e2e) -> str:
    tail = e2e["step_tail_ms"]
    if tail is None:
        return f"n={e2e['n_steps']}, too few steps for a tail percentile"
    return f"p{tail[0]:g}={tail[1]:.4f} ms calibrated (n={e2e['n_steps']})"


def probe_setup(args) -> int:
    """Child of ``measure_setup``: import the program, build the inputs."""
    make_workload(args.workload, Path(args.root)).setup(args.seed)
    return 0


def versions() -> Dict[str, str]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpus": str(os.cpu_count())}


# -- every workload, several runs ------------------------------------------

def run_all(args, root: Path) -> int:
    from bench_calib import CAL_REF_MS
    from bench_stats import summarize

    OUT_DIR.mkdir(exist_ok=True)
    me = str(Path(__file__).resolve())
    started = perf_counter()
    snapshot: Dict[str, Any] = {
        "command": "python3 benchmarks/e2e/run.py --seed {seed} --runs {runs}"
                   " --seconds {seconds}{traced}".format(
                       seed=args.seed, runs=args.runs, seconds=args.seconds,
                       traced=" --traced" if args.traced else ""),
        "cal_ref_ms": CAL_REF_MS,
        "versions": versions(),
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        runs = []
        for i in range(args.runs + (1 if args.traced else 0)):
            trace = int(args.traced and i == args.runs)
            out = OUT_DIR / f"all-{name}-{i}.json"
            cmd = [sys.executable, me, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--root", str(root), "--out", str(out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{name}: run {i} exited {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(out.read_text("utf-8"))
            out.unlink()
            runs.append((trace, result, detail))
        plain = [(res, det) for trace, res, det in runs if not trace]
        if not plain:
            continue
        entry: Dict[str, Any] = {
            "attempted": sum(res["attempted"] for res, _ in plain),
            "failed": sum(res["failed"] for res, _ in plain),
            "host.calib_ms": summarize([d["host_calib_ms"] for _, d in plain]),
            "e2e": {},
            "quality": plain[0][1]["quality"],
        }
        for metric, unit in E2E_UNITS.items():
            row = summarize([d["e2e"]["metrics"][metric] for _, d in plain])
            row["unit"] = unit
            raws = [d["e2e"]["raw"][metric] for _, d in plain
                    if metric in d["e2e"]["raw"]]
            if raws:
                row["raw"] = summarize(raws)
            entry["e2e"][metric] = row
        tails = [d["step_tail_ms"] for _, d in plain if d["step_tail_ms"]]
        entry["step_tail_ms"] = tails[0] if tails else None
        traced_runs = [det for trace, _, det in runs if trace]
        if traced_runs:
            layers = traced_runs[0]["layers"]
            entry["per_layer"] = layers["metrics"]
            entry["phases"] = layers["phases"]
            entry["serve"] = layers["serve"]
            entry["layers_ms"] = {
                k: {"calls": v["calls"], "total_ms": round(v["total_ms"], 4),
                    "self_ms": round(v["self_ms"], 4)}
                for k, v in layers["layers_ms"].items()
            }
        snapshot["workloads"][name] = entry
    snapshot["elapsed_s"] = perf_counter() - started

    print()
    print(f"{'workload':<13} {'metric':<12} {'median':>11} {'q1':>11} "
          f"{'q3':>11}  unit  n  raw median")
    for name, entry in snapshot["workloads"].items():
        for metric, row in entry["e2e"].items():
            raw = f"{row['raw']['median']:.6g}" if "raw" in row else ""
            print(f"{name:<13} {metric:<12} {row['median']:>11.6g} "
                  f"{row['q1']:>11.6g} {row['q3']:>11.6g}  {row['unit']:<4} "
                  f"{row['n']}  {raw}")
        print(f"{name:<13} error_rate   {entry['failed']}/{entry['attempted']}")
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n", "utf-8")
    print(f"snapshot written to {SNAPSHOT} ({snapshot['elapsed_s']:.0f} s)")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=str(DEFAULT_ROOT),
                        help="checkout whose src/ holds the program")
    parser.add_argument("--out", help="detail JSON of this run")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload (all-workload mode)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((DEFAULT_ROOT / "BENCHMARK.json").read_text("utf-8"))
        args.seconds = spec["run_seconds"]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {root / 'src' / 'repro'}; pass --root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.probe_setup:
        return probe_setup(args)
    if args.workload is None:
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
