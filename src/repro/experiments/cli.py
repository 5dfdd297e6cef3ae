"""``repro-exp`` — the experiment command-line interface.

Usage::

    repro-exp list                       # show registered experiments
    repro-exp run fig7                   # run one (full parameters)
    repro-exp run fig10 --fast           # scaled-down variant
    repro-exp run fig10 --obs-log r.jsonl  # instrumented run -> event log
    repro-exp run fig10 --checkpoint-dir ck  # snapshot state as it runs
    repro-exp run fig10 --checkpoint-dir ck --resume  # continue from latest
    repro-exp run fig10 --runs-dir runs  # recorded run: manifest + registry
    repro-exp run fig10 --runs-dir runs --profile  # + per-phase CPU profile
    repro-exp run fig10 --runs-dir runs --profile=mem  # + allocations
    repro-exp runs list --runs-dir runs  # registered runs, newest first
    repro-exp runs show RUN_ID           # manifest + artifact verification
    repro-exp runs compare ID_A ID_B     # outcome/counters side by side
    repro-exp runs gc [--delete]         # orphaned artifacts under the root
    repro-exp all [--fast]               # run everything
    repro-exp all --processes 4 --obs-log r.jsonl  # pooled, merged log
    repro-exp faults --fast              # fault-intensity degradation curves
    repro-exp faults --sweeps all --processes 4 --seeds 5
    repro-exp obs summarize r.jsonl      # phase timings + round aggregates
    repro-exp watch r.jsonl              # live dashboard over a growing log
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments.harness import format_result, run_all, run_experiment
from repro.experiments.registry import all_experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce the paper's figures (ICDCS 2010 CPS "
        "spatio-temporal distribution).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment_id", help="e.g. fig7, fig10, ablation_beta")
    run_p.add_argument("--fast", action="store_true", help="scaled-down run")
    run_p.add_argument(
        "--no-artifacts", action="store_true", help="suppress ASCII artifacts"
    )
    run_p.add_argument(
        "--csv", metavar="PATH", help="also write the rows to a CSV file"
    )
    run_p.add_argument(
        "--obs-log", metavar="PATH",
        help="run instrumented; write the JSONL event log to PATH",
    )
    run_p.add_argument(
        "--obs-flush-every", type=int, default=None, metavar="N",
        help="flush the --obs-log every N events so `repro-exp watch` "
        "can tail the run live (default: buffer until the run ends)",
    )
    run_p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="snapshot engine state under DIR/<experiment_id>/ during the "
        "run; pair with --resume to continue an interrupted invocation",
    )
    run_p.add_argument(
        "--checkpoint-every", type=int, default=10, metavar="N",
        help="rounds between snapshots (default: 10; needs --checkpoint-dir)",
    )
    run_p.add_argument(
        "--resume", action="store_true",
        help="resume each engine run from its newest checkpoint in "
        "--checkpoint-dir (bit-identical to an uninterrupted run)",
    )
    run_p.add_argument(
        "--runs-dir", metavar="DIR",
        help="record the run under DIR/<run_id>/: obs log, result table "
        "and an atomic manifest (inspect with `repro-exp runs`)",
    )
    run_p.add_argument(
        "--profile", nargs="?", const=True, default=False, choices=["mem"],
        help="per-phase CPU and counter-delta profiling as profile.* "
        "events in the obs log (needs --obs-log or --runs-dir); "
        "--profile=mem adds tracemalloc allocation deltas, which slow "
        "the phases they measure",
    )

    runs_p = sub.add_parser(
        "runs",
        help="run registry: list, inspect, compare and garbage-collect "
        "recorded runs (see `run --runs-dir`)",
    )
    runs_p.add_argument(
        "--runs-dir", metavar="DIR", default="runs",
        help="root directory holding the recorded runs (default: runs)",
    )
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)
    runs_list_p = runs_sub.add_parser(
        "list", help="list recorded runs, newest first"
    )
    runs_list_p.add_argument(
        "--scenario", metavar="ID", default=None,
        help="only runs of this scenario/experiment id",
    )
    runs_list_p.add_argument(
        "--status", metavar="S", default=None,
        help="only runs with this status (complete/failed)",
    )
    runs_show_p = runs_sub.add_parser(
        "show",
        help="show one run's manifest and verify its artifacts' "
        "content hashes",
    )
    runs_show_p.add_argument("run_id", help="run id (see `runs list`)")
    runs_compare_p = runs_sub.add_parser(
        "compare", help="compare outcome and counters across runs"
    )
    runs_compare_p.add_argument(
        "run_ids", nargs="+", metavar="RUN_ID", help="two or more run ids"
    )
    runs_gc_p = runs_sub.add_parser(
        "gc",
        help="find files under the runs root no manifest references "
        "(dry-run by default)",
    )
    runs_gc_p.add_argument(
        "--delete", action="store_true",
        help="actually remove the orphans (default: only report them)",
    )

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--fast", action="store_true", help="scaled-down runs")
    all_p.add_argument(
        "--artifacts", action="store_true", help="include ASCII artifacts"
    )
    all_p.add_argument(
        "--markdown", metavar="PATH",
        help="also write a Markdown report of every experiment",
    )
    all_p.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="fan the experiments out over N worker processes "
        "(default: run sequentially in-process)",
    )
    all_p.add_argument(
        "--obs-log", metavar="PATH",
        help="run instrumented; write one merged JSONL event log covering "
        "every experiment (sharded per worker with --processes)",
    )

    faults_p = sub.add_parser(
        "faults",
        help="fault-intensity campaign: sweep network faults, report "
        "degradation curves",
    )
    faults_p.add_argument(
        "--sweeps", nargs="+", default=["loss", "delay"], metavar="SWEEP",
        choices=["loss", "burst", "delay", "churn", "all"],
        help="which fault dimensions to sweep (default: loss delay; "
        "'all' runs every sweep)",
    )
    faults_p.add_argument(
        "--seeds", type=int, default=3, metavar="N",
        help="independent seeds per intensity point (default: 3)",
    )
    faults_p.add_argument("--fast", action="store_true", help="scaled-down runs")
    faults_p.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="fan the (sweep, intensity, seed) points out over N worker "
        "processes (default: sequential)",
    )
    faults_p.add_argument(
        "--no-artifacts", action="store_true",
        help="suppress the ASCII degradation curves",
    )
    faults_p.add_argument(
        "--csv", metavar="PATH", help="also write the rows to a CSV file"
    )
    faults_p.add_argument(
        "--obs-log", metavar="PATH",
        help="write per-point faults_point events to a JSONL log",
    )

    obs_p = sub.add_parser(
        "obs", help="observability: inspect instrumented run logs"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    summarize_p = obs_sub.add_parser(
        "summarize",
        help="aggregate a JSONL run log into phase timings and round "
        "metrics (no rerun needed)",
    )
    summarize_p.add_argument("log", help="path to a JSONL event log")

    watch_p = sub.add_parser(
        "watch",
        help="tail a growing JSONL run log and render a live round/delta/"
        "phase-time/network view (write the log with --obs-flush-every)",
    )
    watch_p.add_argument("log", help="path to the JSONL event log to tail")
    watch_p.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="seconds between rendered frames (default: 1.0)",
    )
    watch_p.add_argument(
        "--once", action="store_true",
        help="drain the log's current content, render one frame, exit",
    )
    watch_p.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N rendered frames (default: until interrupted)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for spec in all_experiments():
            print(f"{spec.experiment_id:22s} {spec.paper_ref:12s} {spec.title}")
        return 0
    if args.command == "run":
        if args.resume and not args.checkpoint_dir:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        if args.obs_flush_every is not None and not (
            args.obs_log or args.runs_dir
        ):
            print(
                "--obs-flush-every requires --obs-log or --runs-dir",
                file=sys.stderr,
            )
            return 2
        if args.profile and not (args.obs_log or args.runs_dir):
            print(
                "--profile requires --obs-log or --runs-dir (profile "
                "events go into the obs log)",
                file=sys.stderr,
            )
            return 2
        if args.runs_dir and (
            args.obs_log or args.checkpoint_dir or args.resume
        ):
            print(
                "--runs-dir owns the run's artifact layout; it conflicts "
                "with --obs-log/--checkpoint-dir/--resume",
                file=sys.stderr,
            )
            return 2
        try:
            if args.runs_dir:
                from repro.experiments.harness import run_recorded

                result, manifest = run_recorded(
                    args.experiment_id,
                    args.runs_dir,
                    fast=args.fast,
                    profile=args.profile,
                    obs_flush_every=args.obs_flush_every,
                )
            else:
                manifest = None
                result = run_experiment(
                    args.experiment_id,
                    fast=args.fast,
                    obs_log=args.obs_log,
                    obs_flush_every=args.obs_flush_every,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume,
                    profile=args.profile,
                )
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(format_result(result, show_artifacts=not args.no_artifacts))
        if args.csv:
            from repro.experiments.export import write_csv

            print(f"wrote {write_csv(result, args.csv)}")
        if manifest is not None:
            run_dir = f"{args.runs_dir}/{manifest.run_id}"
            print(f"recorded run {manifest.run_id} under {run_dir}")
            print(f"inspect: repro-exp runs --runs-dir {args.runs_dir} "
                  f"show {manifest.run_id}")
        elif args.obs_log:
            print(f"wrote event log {args.obs_log}")
        return 0
    if args.command == "runs":
        from repro.obs import (
            RunRegistry,
            format_compare,
            format_run_detail,
            format_runs_table,
        )

        registry = RunRegistry(args.runs_dir)
        if args.runs_command == "list":
            manifests = registry.list_runs(
                scenario=args.scenario, status=args.status
            )
            print(format_runs_table(manifests))
            _, problems = registry.scan()
            for problem in problems:
                print(f"warning: {problem}", file=sys.stderr)
            return 0
        if args.runs_command == "show":
            try:
                manifest = registry.get(args.run_id)
                verify = registry.verify(args.run_id)
            except (KeyError, ValueError) as exc:
                # KeyError str() wraps the message in quotes; unwrap it.
                print(exc.args[0] if exc.args else exc, file=sys.stderr)
                return 2
            print(format_run_detail(manifest, verify=verify))
            return 0 if verify.ok else 1
        if args.runs_command == "compare":
            try:
                manifests = [registry.get(rid) for rid in args.run_ids]
            except (KeyError, ValueError) as exc:
                print(exc.args[0] if exc.args else exc, file=sys.stderr)
                return 2
            print(format_compare(manifests))
            return 0
        if args.runs_command == "gc":
            report = registry.gc(dry_run=not args.delete)
            if not report.orphans:
                print(f"{args.runs_dir}: no orphaned files")
                return 0
            for path in report.orphans:
                removed = path in report.removed
                print(f"{'removed' if removed else 'orphan'}: {path}")
            if report.dry_run:
                print(
                    f"{report.n_orphans} orphaned file(s); re-run with "
                    "--delete to remove them"
                )
            else:
                print(f"removed {len(report.removed)} orphaned file(s)")
            return 0
    if args.command == "all":
        if args.markdown:
            from repro.experiments.export import write_markdown_report
            from repro.experiments.harness import collect_results

            results = [
                result
                for result, _ in collect_results(
                    fast=args.fast,
                    processes=args.processes,
                    obs_log=args.obs_log,
                )
            ]
            path = write_markdown_report(results, args.markdown)
            print(f"wrote {path}")
            return 0
        print(
            run_all(
                fast=args.fast,
                show_artifacts=args.artifacts,
                processes=args.processes,
                obs_log=args.obs_log,
            )
        )
        if args.obs_log:
            print(f"wrote event log {args.obs_log}")
        return 0
    if args.command == "faults":
        from contextlib import ExitStack

        from repro.experiments.faults import SWEEPS, run_faults_campaign
        from repro.obs import (
            Instrumentation,
            emit_run_meta,
            use_instrumentation,
        )

        sweeps = (
            tuple(SWEEPS)
            if "all" in args.sweeps
            else tuple(dict.fromkeys(args.sweeps))
        )
        with ExitStack() as stack:
            if args.obs_log:
                obs = Instrumentation.to_jsonl(args.obs_log)
                stack.callback(obs.close)
                stack.enter_context(use_instrumentation(obs))
                emit_run_meta(
                    obs,
                    scenario_id="faults",
                    params={
                        "sweeps": list(sweeps),
                        "seeds": args.seeds,
                        "fast": args.fast,
                    },
                )
            try:
                result = run_faults_campaign(
                    sweeps=sweeps,
                    seeds=args.seeds,
                    fast=args.fast,
                    processes=args.processes,
                )
            except (KeyError, ValueError) as exc:
                print(exc, file=sys.stderr)
                return 2
        print(format_result(result, show_artifacts=not args.no_artifacts))
        if args.csv:
            from repro.experiments.export import write_csv

            print(f"wrote {write_csv(result, args.csv)}")
        if args.obs_log:
            print(f"wrote event log {args.obs_log}")
        return 0
    if args.command == "obs":
        if args.obs_command == "summarize":
            from repro.obs import (
                format_profile,
                format_summary,
                load_run_log,
                summarize_events,
                summarize_profile,
            )

            try:
                rows = load_run_log(args.log)
            except (OSError, ValueError) as exc:
                print(exc, file=sys.stderr)
                return 2
            print(format_summary(summarize_events(rows), title=args.log))
            profile = summarize_profile(rows)
            if profile.has_data:
                print()
                print(format_profile(profile, title=args.log))
            return 0
    if args.command == "watch":
        from repro.obs import watch as watch_log

        watch_log(
            args.log,
            interval=args.interval,
            once=args.once,
            max_frames=args.frames,
        )
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
