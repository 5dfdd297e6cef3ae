#!/usr/bin/env python3
"""Paired parent-vs-change comparison on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py --parent PARENT_CHECKOUT \\
        --change CHANGE_CHECKOUT [--pairs 10] [--seed 7] [--workloads ...]

Both sides run this file's ``run.py`` (identical benchmark code and
settings), pointed at each side's ``src/`` with ``--root``. Pair ``i``
runs the parent first when ``i`` is even and the change first when it
is odd. Per workload and end-to-end metric it prints each side's median
and quartiles, the change's wins, and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's IQR;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``no regression`` otherwise.

One traced run per side then names the layer whose self time moved most.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench_stats import median, quartiles, relative_iqr

BENCH_DIR = Path(__file__).resolve().parent
RUNNER = BENCH_DIR / "run.py"
SPEC = BENCH_DIR.parents[1] / "BENCHMARK.json"

#: Share of pairs the change must win for a gain.
WIN_SHARE = 0.9


def better(a: float, b: float, direction: str) -> bool:
    """Is ``a`` strictly better than ``b``?"""
    return a < b if direction == "lower" else a > b


def wins(parent: Sequence[float], change: Sequence[float], direction: str) -> int:
    """Pairs the change won; ties count for neither side."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            direction: str) -> str:
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    if (wins(parent, change, direction) >= WIN_SHARE * len(parent)
            and better(c_med, p_med, direction)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain"
    every_run_better = all(better(c, p, direction) for c in change for p in parent)
    if relative_iqr(parent) > bound and not every_run_better:
        return "unresolved"
    worse = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if direction == "higher":
        worse = -worse
    return "regression" if worse > bound else "no regression"


def moved_most(parent: Dict[str, dict], change: Dict[str, dict]
               ) -> Optional[Tuple[str, float, float]]:
    """(layer, parent self ms, change self ms) with the largest |change|."""
    names = set(parent) | set(change)
    if not names:
        return None

    def self_ms(table, name):
        return table.get(name, {}).get("self_ms", 0.0)

    name = max(sorted(names),
               key=lambda n: abs(self_ms(change, n) - self_ms(parent, n)))
    return name, self_ms(parent, name), self_ms(change, name)


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int,
             out: Path) -> dict:
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(root), "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} on {root} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["detail"] = json.loads(out.read_text("utf-8"))
    return result


def compare_workload(args, spec, workload: str, scratch: Path) -> None:
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    values: Dict[str, Dict[str, List[float]]] = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_side(sides[side], workload, args.seed, args.seconds, 0,
                           scratch / f"{side}.json")
            failed[side] += res["failed"]
            for name, m in res["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
    print(f"\n{workload}: {args.pairs} pairs, seed {args.seed}, "
          f"{args.seconds} s per run; failed repetitions parent "
          f"{failed['parent']}, change {failed['change']}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p, c = values["parent"][name], values["change"][name]
        pq, cq = quartiles(p), quartiles(c)
        print(f"  {name:<12} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}  "
              f"wins {wins(p, c, metric['better'])}/{len(p)}  "
              f"{verdict(p, c, metric['bound'], metric['better'])}")
    if failed["change"] > failed["parent"]:
        print("  more failed repetitions than the parent: no gain counts")
    layers = {}
    for side in ("parent", "change"):
        res = run_side(sides[side], workload, args.seed, args.seconds, 1,
                       scratch / f"{side}-traced.json")
        layers[side] = res["detail"]["layers"]["layers_ms"]
    moved = moved_most(layers["parent"], layers["change"])
    if moved is not None:
        name, before, after = moved
        print(f"  self time moved most in {name}: {before:.4g} -> {after:.4g} "
              "ms per traced repetition")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text("utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for workload in names:
            compare_workload(args, spec, workload, Path(scratch))
    return 0


if __name__ == "__main__":
    sys.exit(main())
