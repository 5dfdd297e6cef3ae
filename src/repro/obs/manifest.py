"""Run manifests: the durable identity record of one simulation run.

A *run* today is a loose pile of artifacts — an obs JSONL log, maybe a
checkpoint directory, a result table — with nothing tying them together
or saying which scenario, seed and code produced them. A
:class:`RunManifest` is that missing record: one JSON file written
atomically next to the run's artifacts, carrying

* identity — a unique ``run_id`` plus the scenario id and the
  parameters (and their canonical hash) the run was launched with,
* provenance — code version (git commit when available, package version
  otherwise), RNG seeds, and an environment fingerprint (python /
  numpy / platform),
* outcome — start/end wall-clock stamps, round count, final δ, and the
  run's counter totals lifted from the obs log's final metrics
  snapshot,
* artifacts — every file the run produced, with content hashes so a
  registry (:mod:`repro.obs.registry`) can later verify integrity and
  detect orphans.

The manifest is what ``repro-exp runs list/show/compare`` queries and
what the future replay endpoint serves a finished run from; nothing in
it requires re-running the simulation.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "MANIFEST_VERSION",
    "MANIFEST_NAME",
    "ArtifactRef",
    "RunManifest",
    "artifact_ref",
    "code_version",
    "env_fingerprint",
    "file_sha256",
    "new_run_id",
    "params_hash",
    "utc_now_iso",
]

#: Manifest schema version; bumped on layout changes.
MANIFEST_VERSION = 1

#: The manifest's file name inside a run directory.
MANIFEST_NAME = "manifest.json"


def utc_now_iso() -> str:
    """Current UTC wall-clock time as an ISO-8601 string (second precision)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def file_sha256(path: Union[str, Path], chunk_size: int = 1 << 20) -> str:
    """Streaming SHA-256 of a file's content, as ``sha256:<hex>``."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def params_hash(params: Dict[str, Any]) -> str:
    """Canonical hash of a parameter mapping, as ``sha256:<hex16>``.

    Canonical = JSON with sorted keys and no whitespace, so two runs
    launched with the same parameters hash identically regardless of
    dict insertion order. 16 hex chars (64 bits) is plenty for equality
    grouping, which is all the hash exists for.
    """
    canonical = json.dumps(
        params, sort_keys=True, separators=(",", ":"), default=str
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"sha256:{digest[:16]}"


def code_version(repo_root: Optional[Union[str, Path]] = None) -> str:
    """The code identity of this checkout: git commit if available.

    Falls back to the installed package version when the source tree is
    not a git checkout (or git is absent) — a manifest must always carry
    *some* code identity.
    """
    root = Path(repo_root) if repo_root is not None else Path(
        __file__
    ).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"git:{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        from importlib.metadata import version

        return f"pkg:repro-{version('repro')}"
    except Exception:
        return "unknown"


def env_fingerprint() -> Dict[str, str]:
    """The environment facts that matter for reproducing a run."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def new_run_id(scenario_id: str) -> str:
    """A unique, sortable run id: ``<scenario>-<utc stamp>-<hex>``.

    The timestamp makes ids sort chronologically in listings; the random
    suffix makes two runs launched in the same second (e.g. a seed
    sweep's process pool) collision-free.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    suffix = os.urandom(3).hex()
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in scenario_id)
    return f"{safe}-{stamp}-{suffix}"


@dataclass(frozen=True)
class ArtifactRef:
    """One file a run produced, content-addressed.

    ``path`` is relative to the manifest's directory when the artifact
    lives inside it (the normal layout), absolute otherwise — so a run
    directory can be moved wholesale without breaking its manifest.
    """

    name: str
    kind: str  # "obs_log" | "result" | "checkpoint" | "csv" | ...
    path: str
    sha256: str
    bytes: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind, "path": self.path,
            "sha256": self.sha256, "bytes": self.bytes,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "ArtifactRef":
        return cls(
            name=str(row["name"]), kind=str(row.get("kind", "file")),
            path=str(row["path"]), sha256=str(row.get("sha256", "")),
            bytes=int(row.get("bytes", 0)),
        )

    def resolve(self, base: Union[str, Path]) -> Path:
        """Absolute path of the artifact given the manifest's directory."""
        p = Path(self.path)
        return p if p.is_absolute() else Path(base) / p


def artifact_ref(
    path: Union[str, Path],
    name: str,
    kind: str,
    base: Optional[Union[str, Path]] = None,
) -> ArtifactRef:
    """Build an :class:`ArtifactRef` for an existing file, hashing it.

    ``base`` (the run directory) relativises the stored path when the
    artifact lives under it.
    """
    p = Path(path)
    stored = str(p)
    if base is not None:
        try:
            stored = str(p.resolve().relative_to(Path(base).resolve()))
        except ValueError:
            stored = str(p.resolve())
    return ArtifactRef(
        name=name, kind=kind, path=stored,
        sha256=file_sha256(p), bytes=p.stat().st_size,
    )


@dataclass
class RunManifest:
    """Everything durable about one run — see the module docstring."""

    run_id: str
    scenario_id: str
    schema_version: int = MANIFEST_VERSION
    params: Dict[str, Any] = dataclass_field(default_factory=dict)
    params_hash: str = ""
    seeds: Dict[str, int] = dataclass_field(default_factory=dict)
    code_version: str = ""
    env: Dict[str, str] = dataclass_field(default_factory=dict)
    started_at: str = ""
    finished_at: str = ""
    duration_s: float = 0.0
    status: str = "complete"  # "complete" | "failed" | "cancelled" | "running"
    round_count: int = 0
    final_delta: Optional[float] = None
    #: Scalar counter/gauge totals from the run's final metrics snapshot
    #: (net.* / geom.* counters and friends) — the queryable rollup.
    counters: Dict[str, float] = dataclass_field(default_factory=dict)
    artifacts: List[ArtifactRef] = dataclass_field(default_factory=list)
    #: Free-form extras for forward compatibility.
    extra: Dict[str, Any] = dataclass_field(default_factory=dict)

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        out = {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "scenario_id": self.scenario_id,
            "params": self.params,
            "params_hash": self.params_hash,
            "seeds": self.seeds,
            "code_version": self.code_version,
            "env": self.env,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "status": self.status,
            "round_count": self.round_count,
            "final_delta": self.final_delta,
            "counters": self.counters,
            "artifacts": [a.as_dict() for a in self.artifacts],
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "RunManifest":
        if "run_id" not in row or "scenario_id" not in row:
            raise ValueError("manifest missing run_id/scenario_id")
        return cls(
            run_id=str(row["run_id"]),
            scenario_id=str(row["scenario_id"]),
            schema_version=int(row.get("schema_version", MANIFEST_VERSION)),
            params=dict(row.get("params") or {}),
            params_hash=str(row.get("params_hash", "")),
            seeds={str(k): int(v) for k, v in (row.get("seeds") or {}).items()},
            code_version=str(row.get("code_version", "")),
            env={str(k): str(v) for k, v in (row.get("env") or {}).items()},
            started_at=str(row.get("started_at", "")),
            finished_at=str(row.get("finished_at", "")),
            duration_s=float(row.get("duration_s", 0.0)),
            status=str(row.get("status", "complete")),
            round_count=int(row.get("round_count", 0)),
            final_delta=(
                None if row.get("final_delta") is None
                else float(row["final_delta"])
            ),
            counters={
                str(k): float(v)
                for k, v in (row.get("counters") or {}).items()
            },
            artifacts=[
                ArtifactRef.from_dict(a) for a in row.get("artifacts") or []
            ],
            extra=dict(row.get("extra") or {}),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the manifest to ``path`` atomically (tmp + rename).

        Atomic so a reader scanning the runs directory never sees a
        half-written manifest — either the old content or the new, never
        a torn JSON file.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Parse one manifest file (raises ``ValueError`` on bad content)."""
        try:
            row = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise ValueError(f"{path}: manifest must be a JSON object")
        return cls.from_dict(row)

    # -- convenience ----------------------------------------------------
    def artifact(self, name: str) -> Optional[ArtifactRef]:
        """The artifact named ``name``, or None."""
        for art in self.artifacts:
            if art.name == name:
                return art
        return None
