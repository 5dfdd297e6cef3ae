"""Observability: events, metrics, timing, run records.

The instrumentation substrate every perf / scaling change measures
against, plus the read side that summarises, tails and records runs:

* :mod:`.events` — a process-local :class:`EventBus` of typed,
  timestamped events,
* :mod:`.metrics` — counters, gauges and quantile summaries in a
  :class:`MetricsRegistry`,
* :mod:`.timing` — nestable phase spans built on ``perf_counter``,
  with round-context fields the engines stamp onto each round's spans,
* :mod:`.sinks` — JSONL file sink (the replayable run log, strict-JSON
  with NaN/Inf → null and optional ``flush_every`` auto-flush),
  in-memory sink for tests, null sink for the disabled default,
* :mod:`.instrument` — the :class:`Instrumentation` bundle, off by
  default with a near-zero-overhead fast path, plus the ambient
  ``use_instrumentation`` context,
* :mod:`.report` — aggregate a run log into per-phase wall-time shares
  and round-level metric aggregates, no rerun needed,
* :mod:`.watch` — tail a growing run log (``repro-exp watch``'s live
  dashboard, ``repro-serve``'s SSE event streams),
* :mod:`.manifest` / :mod:`.registry` — run provenance: a
  :class:`RunManifest` (identity, params hash, code version, env
  fingerprint, outcome, content-hashed artifacts) written next to each
  run's artifacts, and a :class:`RunRegistry` that lists, verifies and
  garbage-collects a runs directory (``repro-exp runs ...``),
* :mod:`.aggregate` — merge per-worker metric snapshots into one
  fleet-level rollup (sum/min/max/last per metric kind),
* :mod:`.profile` — opt-in per-phase CPU / allocation / counter-delta
  profiling of the engines' rounds (``--profile``).

Quick start::

    from repro.obs import Instrumentation, use_instrumentation

    obs = Instrumentation.to_jsonl("run.jsonl", flush_every=50)
    with use_instrumentation(obs):
        MobileSimulation(problem).run()
    obs.close()

    # later, or from another process:
    #   repro-exp obs summarize run.jsonl
    #   repro-exp watch run.jsonl            # live, while it runs
"""

from repro.obs.aggregate import (
    aggregate_metrics_events,
    aggregate_run_log,
    merge_snapshots,
    merge_summary_parts,
)
from repro.obs.events import LOG_SCHEMA_VERSION, Event, EventBus
from repro.obs.instrument import (
    DISABLED,
    Instrumentation,
    emit_run_meta,
    get_instrumentation,
    use_instrumentation,
)
from repro.obs.manifest import (
    MANIFEST_VERSION,
    ArtifactRef,
    RunManifest,
    artifact_ref,
    code_version,
    env_fingerprint,
    file_sha256,
    new_run_id,
    params_hash,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Summary
from repro.obs.profile import (
    PhaseProfile,
    PhaseProfiler,
    ProfileConfig,
    ProfileSummary,
    format_profile,
    get_profile_config,
    summarize_profile,
    use_profiling,
)
from repro.obs.registry import (
    ArtifactCheck,
    GcReport,
    RunRegistry,
    VerifyReport,
    format_compare,
    format_run_detail,
    format_runs_table,
)
from repro.obs.report import (
    RunSummary,
    format_summary,
    load_run_log,
    summarize_events,
    summarize_run_log,
)
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink
from repro.obs.timing import PhaseTimer, Span
from repro.obs.watch import (
    LineAssembler,
    WatchState,
    follow,
    parse_event_line,
    read_new_lines,
    render_watch,
    watch,
)

__all__ = [
    "ArtifactCheck",
    "ArtifactRef",
    "Counter",
    "DISABLED",
    "Event",
    "EventBus",
    "Gauge",
    "GcReport",
    "Instrumentation",
    "JsonlSink",
    "LOG_SCHEMA_VERSION",
    "LineAssembler",
    "MANIFEST_VERSION",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "PhaseProfile",
    "PhaseProfiler",
    "PhaseTimer",
    "ProfileConfig",
    "ProfileSummary",
    "RunManifest",
    "RunRegistry",
    "RunSummary",
    "Sink",
    "Span",
    "Summary",
    "VerifyReport",
    "WatchState",
    "aggregate_metrics_events",
    "aggregate_run_log",
    "artifact_ref",
    "code_version",
    "emit_run_meta",
    "env_fingerprint",
    "file_sha256",
    "follow",
    "format_compare",
    "format_profile",
    "format_run_detail",
    "format_runs_table",
    "format_summary",
    "get_instrumentation",
    "get_profile_config",
    "load_run_log",
    "merge_snapshots",
    "merge_summary_parts",
    "new_run_id",
    "params_hash",
    "parse_event_line",
    "read_new_lines",
    "render_watch",
    "summarize_events",
    "summarize_profile",
    "summarize_run_log",
    "use_instrumentation",
    "use_profiling",
    "watch",
]
