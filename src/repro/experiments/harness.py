"""Run experiments and format their results for the terminal.

Beyond running and formatting, this module owns the run-provenance
write side: ``run_recorded`` wraps one experiment run in a durable run
directory — obs log, result table, checkpoints, and an atomic
:class:`~repro.obs.manifest.RunManifest` tying them together — which is
what ``repro-exp runs list/show/compare`` later queries through the
:class:`~repro.obs.registry.RunRegistry`.
"""

from __future__ import annotations

import json
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.registry import (
    ExperimentResult,
    all_experiments,
    get_experiment,
)
from repro.obs import Instrumentation, use_instrumentation
from repro.obs.events import Event
from repro.obs.instrument import emit_run_meta, get_instrumentation
from repro.runtime import CheckpointConfig, use_checkpointing


def run_experiment(
    experiment_id: str,
    fast: bool = False,
    obs_log: Optional[Union[str, Path]] = None,
    obs_flush_every: Optional[int] = None,
    obs_append: bool = False,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 10,
    resume: bool = False,
    checkpoint_interrupt: Optional[Callable[[], bool]] = None,
    profile: Union[bool, str] = False,
) -> ExperimentResult:
    """Run one registered experiment by id.

    ``obs_log`` turns instrumentation on for the run and writes the JSONL
    event log there (phase spans, per-round and per-FRA-iteration
    events); summarise it afterwards with ``repro-exp obs summarize``.
    The log opens with a ``run_meta`` header event identifying the
    scenario, seed and launch parameters. ``obs_flush_every=N`` flushes
    that log every N events so ``repro-exp watch`` can tail the run
    live.

    ``profile=True`` installs the ambient per-phase profiler
    (:class:`repro.obs.profile.PhaseProfiler`): every engine the
    experiment constructs records per-phase CPU time and obs-counter
    deltas as ``profile.*`` events in the obs log; ``profile="mem"``
    adds tracemalloc allocation deltas, at the cost of slowing the
    phases it times. It only has an effect when instrumentation is on
    (``obs_log`` here, or an enabled ambient instrumentation).

    ``checkpoint_dir`` installs an ambient checkpoint policy (see
    :mod:`repro.runtime.checkpoint`): every engine ``run()`` the
    experiment performs snapshots its world state every
    ``checkpoint_every`` rounds under ``checkpoint_dir/<experiment_id>/``.
    With ``resume=True`` an interrupted invocation picks each run up from
    its newest checkpoint and reproduces the remaining rounds
    bit-identically — how long Fig. 8–10 sweeps survive interruption.
    ``checkpoint_interrupt`` threads a cooperative-preemption hook into
    that policy: polled once per completed round, a true return
    checkpoints the state and aborts the run with
    :class:`~repro.runtime.checkpoint.RunPreempted` (how ``repro-serve``
    cancels a running job). ``obs_append=True`` appends to an existing
    ``obs_log`` instead of truncating it, so a resumed run keeps one
    contiguous event history; the resumed segment opens with its own
    ``run_meta`` header carrying ``resumed: true``.
    """
    from repro.experiments.config import FIELD_SEED

    spec = get_experiment(experiment_id)
    with ExitStack() as stack:
        if checkpoint_dir is not None:
            stack.enter_context(use_checkpointing(CheckpointConfig(
                directory=Path(checkpoint_dir) / experiment_id,
                every=checkpoint_every,
                resume=resume,
                interrupt=checkpoint_interrupt,
            )))
        if profile:
            from repro.obs.profile import ProfileConfig, use_profiling

            stack.enter_context(
                use_profiling(ProfileConfig(memory=profile == "mem"))
            )
        if obs_log is not None:
            obs = Instrumentation.to_jsonl(
                obs_log, flush_every=obs_flush_every, append=obs_append
            )
            stack.callback(obs.close)
            stack.enter_context(use_instrumentation(obs))
            emit_run_meta(
                obs,
                scenario_id=experiment_id,
                seed=FIELD_SEED,
                params={"experiment_id": experiment_id, "fast": fast},
                **({"resumed": True} if obs_append else {}),
            )
        return spec.runner(fast)


def format_table(result: ExperimentResult) -> str:
    """Render the result rows as an aligned text table."""
    columns = list(result.columns)
    headers = [str(c) for c in columns]
    body = [[str(row.get(c, "")) for c in columns] for row in result.rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def format_result(result: ExperimentResult, show_artifacts: bool = True) -> str:
    """Full human-readable report for one experiment."""
    parts: List[str] = [
        f"== {result.experiment_id}: {result.title} ==",
        format_table(result),
    ]
    if result.notes:
        parts.append("")
        parts.extend(f"note: {note}" for note in result.notes)
    if show_artifacts and result.artifacts:
        for name, art in result.artifacts.items():
            parts.append("")
            parts.append(f"-- {name} --")
            parts.append(art)
    return "\n".join(parts)


def _run_one_timed(
    experiment_id: str, fast: bool, obs_shard: Optional[str] = None
) -> tuple:
    """Worker for the process pool: run one experiment, time it.

    Module-level (not a closure) so it pickles under every start method;
    looks the experiment up by id in the child because the registry's
    runner callables live in the parent. ``obs_shard`` (a JSONL path)
    turns instrumentation on inside the child — ambient instrumentation
    does not survive the process boundary, so the parent hands each task
    a shard file and merges them back on collect.
    """
    spec = get_experiment(experiment_id)
    # perf_counter, not time.time(): wall-clock is not monotonic, so a
    # clock adjustment mid-experiment would corrupt the elapsed time.
    start = time.perf_counter()
    if obs_shard is None:
        result = spec.runner(fast)
    else:
        from repro.experiments.config import FIELD_SEED

        obs = Instrumentation.to_jsonl(obs_shard)
        try:
            with use_instrumentation(obs):
                emit_run_meta(
                    obs,
                    scenario_id=experiment_id,
                    seed=FIELD_SEED,
                    params={"experiment_id": experiment_id, "fast": fast},
                    shard=True,
                )
                result = spec.runner(fast)
        finally:
            obs.close()
    return result, time.perf_counter() - start


def _write_replayed(obs: Instrumentation, event: Event) -> None:
    """Write one already-timestamped event straight to the parent's sinks
    (``bus.emit`` would restamp it with the parent's clock)."""
    for sink in obs.bus.sinks:
        sink.write(event)


def _replay_shard(obs: Instrumentation, shard: Path) -> List[Dict[str, Any]]:
    """Feed one worker's JSONL shard back through the parent's sinks.

    Events keep their worker-relative timestamps; they land in whatever
    sinks the parent instrumentation carries — the JSONL run log stays a
    single merged file, a memory sink sees every worker's events.

    A worker that crashed mid-write leaves a truncated (or otherwise
    malformed) final line; that must not poison the merge of every other
    worker's events, so the bad tail is skipped and recorded as a
    ``log_warning`` event in the merged stream. Malformed content
    *before* the last line means real corruption and still raises.

    Returns the shard's ``metrics`` event rows so the caller can build a
    fleet-level rollup without re-reading the file.
    """
    raw_lines = [
        line.strip()
        for line in shard.read_text(encoding="utf-8").splitlines()
    ]
    content = [
        (lineno, line)
        for lineno, line in enumerate(raw_lines, start=1)
        if line
    ]
    metrics_rows: List[Dict[str, Any]] = []
    for idx, (lineno, line) in enumerate(content):
        try:
            row = json.loads(line)
            name = str(row.pop("event"))
            t = float(row.pop("t"))
        except (
            json.JSONDecodeError, AttributeError, KeyError, TypeError,
            ValueError,
        ) as exc:
            if idx == len(content) - 1:
                _write_replayed(obs, Event(
                    name="log_warning",
                    t=obs.bus.now(),
                    fields={
                        "reason": "truncated_shard_tail",
                        "shard": shard.name,
                        "line": lineno,
                        "detail": str(exc),
                    },
                ))
                break
            raise ValueError(
                f"{shard}:{lineno}: malformed shard line ({exc})"
            ) from exc
        if name == "metrics":
            metrics_rows.append({"event": name, "t": t, **row})
        _write_replayed(obs, Event(name=name, t=t, fields=row))
    return metrics_rows


def collect_results(
    fast: bool = False,
    processes: Optional[int] = None,
    obs_log: Optional[Union[str, Path]] = None,
) -> List[tuple]:
    """Run every registered experiment, returning ``(result, elapsed)`` pairs.

    ``processes`` opts into a :class:`~concurrent.futures.ProcessPoolExecutor`
    fan-out: experiments are independent (separate fields, separate module
    caches per worker), so they parallelise trivially. Results come back in
    registration order either way, so reports are deterministic. The default
    (``None`` or ``<= 1``) keeps the in-process sequential path — no pool,
    no pickling, ambient instrumentation still visible to the runners.

    Instrumentation crosses the pool boundary via per-task JSONL shards:
    when ``obs_log`` is given (or an enabled ambient instrumentation is
    installed), each worker writes its events to its own shard, and the
    parent replays the shards — in registration order — into the target
    log/sinks after all futures resolve. Without this, child processes
    silently dropped every obs event. After replay the parent merges the
    workers' ``metrics`` snapshots with per-kind semantics
    (:func:`repro.obs.aggregate.merge_snapshots`) and appends one
    fleet-level ``metrics`` event (``aggregated=True``), so the merged
    log summarises the same way a single-process run does.
    """
    ids = [spec.experiment_id for spec in all_experiments()]
    if processes is None or processes <= 1:
        if obs_log is None:
            return [_run_one_timed(eid, fast) for eid in ids]
        obs = Instrumentation.to_jsonl(obs_log)
        try:
            with use_instrumentation(obs):
                emit_run_meta(
                    obs, scenario_id="all", params={"fast": fast}
                )
                return [_run_one_timed(eid, fast) for eid in ids]
        finally:
            obs.close()

    from concurrent.futures import ProcessPoolExecutor

    ambient = get_instrumentation()
    shard_instrumented = obs_log is not None or ambient.enabled
    with ExitStack() as stack:
        shards: List[Optional[str]] = [None] * len(ids)
        if shard_instrumented:
            shard_dir = Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-obs-shards-")
            ))
            shards = [
                str(shard_dir / f"shard-{i:03d}.jsonl")
                for i in range(len(ids))
            ]
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [
                pool.submit(_run_one_timed, eid, fast, shard)
                for eid, shard in zip(ids, shards)
            ]
            out = [f.result() for f in futures]
        if shard_instrumented:
            # Merge into the explicit log if given, else into the
            # caller's ambient sinks.
            if obs_log is not None:
                target = Instrumentation.to_jsonl(obs_log)
                stack.callback(target.bus.close)
                emit_run_meta(
                    target,
                    scenario_id="all",
                    params={"fast": fast, "processes": processes},
                )
            else:
                target = ambient
            metrics_rows: List[Dict[str, Any]] = []
            for shard in shards:
                if shard is not None and Path(shard).exists():
                    metrics_rows.extend(_replay_shard(target, Path(shard)))
            if metrics_rows:
                from repro.obs.aggregate import aggregate_metrics_events

                merged, n_shards = aggregate_metrics_events(metrics_rows)
                kinds: Dict[str, str] = {}
                for row in metrics_rows:
                    kinds.update(row.get("kinds") or {})
                target.emit(
                    "metrics",
                    snapshot=merged,
                    kinds=kinds,
                    aggregated=True,
                    shards=n_shards,
                )
        return out


def run_recorded(
    experiment_id: str,
    runs_dir: Union[str, Path],
    fast: bool = False,
    profile: Union[bool, str] = False,
    obs_flush_every: Optional[int] = None,
    checkpoints: bool = False,
    checkpoint_every: int = 10,
    run_id: Optional[str] = None,
    resume: bool = False,
    interrupt: Optional[Callable[[], bool]] = None,
) -> Tuple[ExperimentResult, "RunManifest"]:
    """Run one experiment as a durable, registry-visible run.

    Creates ``<runs_dir>/<run_id>/`` (a fresh :func:`new_run_id`), runs
    the experiment with the obs log inside it, writes the result table
    as ``result.json``, and finishes by atomically writing a
    :class:`~repro.obs.manifest.RunManifest` tying the artifacts
    together with content hashes, seeds, code version and the outcome
    (round count, final δ, counter totals) lifted from the obs log. The
    run then shows up in ``repro-exp runs list`` and survives
    ``runs gc`` (only unmanifested files are orphans).

    ``checkpoints=True`` stores engine checkpoints under the run
    directory too (``checkpoints/``), manifested alongside the log. A
    runner that raises still leaves a manifest behind — ``status`` is
    ``"failed"`` and the artifacts are whatever made it to disk — so a
    crashed run is visible in the registry rather than an orphan pile.
    Before the run starts a manifest with ``status="running"`` and no
    artifacts is written, and the final manifest replaces it; a run
    whose process dies outright leaves that one behind.

    The server-facing extensions: ``run_id`` pins the run directory
    instead of minting a fresh :func:`new_run_id` (so a caller can name
    the run before it starts — and find its log to tail). ``interrupt``
    is the cooperative-preemption hook threaded down to
    :func:`~repro.runtime.checkpoint.drive_run` (requires
    ``checkpoints=True`` to be resumable); a preempted run leaves a
    manifest with ``status="cancelled"`` and its checkpoints in place,
    and :class:`~repro.runtime.checkpoint.RunPreempted` propagates to
    the caller. ``resume=True`` re-enters an existing run directory
    (same ``run_id``): engines pick up from their newest checkpoint, the
    obs log is *appended to* rather than truncated (one contiguous event
    history, the resumed segment headed by a ``run_meta`` with
    ``resumed: true``), and the finished manifest — same params hash —
    replaces the cancelled one, yielding a ``result.json`` bit-identical
    to an uninterrupted run of the same scenario.
    """
    from repro.experiments.config import FIELD_SEED
    from repro.obs.manifest import (
        MANIFEST_NAME,
        RunManifest,
        artifact_ref,
        code_version,
        env_fingerprint,
        new_run_id,
        utc_now_iso,
    )
    from repro.obs.manifest import params_hash as hash_params
    from repro.obs.report import summarize_run_log
    from repro.runtime.checkpoint import RunPreempted

    if resume and not checkpoints:
        raise ValueError(
            "resume=True requires checkpoints=True (a resumed run picks "
            "up from the run directory's checkpoints)"
        )
    if run_id is None:
        run_id = new_run_id(experiment_id)
    run_dir = Path(runs_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    obs_path = run_dir / "obs.jsonl"
    result_path = run_dir / "result.json"
    checkpoint_dir = run_dir / "checkpoints" if checkpoints else None

    params = {"experiment_id": experiment_id, "fast": fast,
              "profile": profile}
    manifest = RunManifest(
        run_id=run_id,
        scenario_id=experiment_id,
        params=params,
        params_hash=hash_params(params),
        seeds={"field": FIELD_SEED},
        code_version=code_version(),
        env=env_fingerprint(),
        started_at=utc_now_iso(),
        status="running",
    )
    if resume:
        manifest.extra["resumed"] = True
    manifest.save(run_dir / MANIFEST_NAME)
    start = time.perf_counter()
    result: Optional[ExperimentResult] = None
    try:
        result = run_experiment(
            experiment_id,
            fast=fast,
            obs_log=obs_path,
            obs_flush_every=obs_flush_every,
            obs_append=resume,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
            checkpoint_interrupt=interrupt,
            profile=profile,
        )
        result_path.write_text(
            json.dumps({
                "experiment_id": result.experiment_id,
                "title": result.title,
                "columns": list(result.columns),
                "rows": result.rows,
                "notes": result.notes,
            }, indent=2) + "\n",
            encoding="utf-8",
        )
        manifest.status = "complete"
    except RunPreempted:
        # Preemption is an orderly stop, not a crash: the state is
        # checkpointed, so the run is resumable — record it as such.
        manifest.status = "cancelled"
        raise
    except BaseException:
        manifest.status = "failed"
        raise
    finally:
        manifest.finished_at = utc_now_iso()
        manifest.duration_s = time.perf_counter() - start
        if obs_path.exists():
            try:
                summary = summarize_run_log(obs_path)
                if summary.rounds is not None:
                    manifest.round_count = summary.rounds.n_rounds
                    manifest.final_delta = summary.rounds.delta_final
                manifest.counters = {
                    name: float(value)
                    for name, value in (summary.metrics or {}).items()
                    if isinstance(value, (int, float))
                }
            except ValueError:
                pass  # unreadable log on a failed run: manifest still lands
            manifest.artifacts.append(
                artifact_ref(obs_path, "obs_log", "jsonl", base=run_dir)
            )
        if result_path.exists():
            manifest.artifacts.append(
                artifact_ref(result_path, "result", "json", base=run_dir)
            )
        if checkpoint_dir is not None and checkpoint_dir.exists():
            for ckpt in sorted(checkpoint_dir.rglob("*")):
                if ckpt.is_file():
                    manifest.artifacts.append(artifact_ref(
                        ckpt,
                        str(ckpt.relative_to(run_dir)),
                        "checkpoint",
                        base=run_dir,
                    ))
        manifest.save(run_dir / MANIFEST_NAME)
    assert result is not None
    return result, manifest


def run_all(
    fast: bool = False,
    show_artifacts: bool = False,
    processes: Optional[int] = None,
    obs_log: Optional[Union[str, Path]] = None,
) -> str:
    """Run every registered experiment; returns the combined report.

    ``processes=N`` (N > 1) fans the experiments out over a process pool —
    see :func:`collect_results`. ``obs_log`` writes one merged JSONL event
    log covering every experiment (sharded per worker under the hood when
    a pool is used).
    """
    reports = []
    for result, elapsed in collect_results(
        fast=fast, processes=processes, obs_log=obs_log
    ):
        reports.append(format_result(result, show_artifacts=show_artifacts))
        reports.append(f"(ran in {elapsed:.1f}s)")
        reports.append("")
    return "\n".join(reports)
