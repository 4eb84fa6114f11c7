"""Output checks on one child's artefacts.

Everything here reads only what the child left on disk, after the timed
interval.  A child is correct when it exited 0, every artefact parses
(``RunManifest.load`` without ``recover``, the summary JSON, the
campaign's ``report.json``, per-session manifests and OpenMetrics), its
artefact bytes equal every other child's for the same workload and seed,
and these invariants hold:

- every replica finishes an MD unit for each of the ``n_cycles`` cycles;
- replica <-> window is a bijection: in every exchange dimension each
  window holds the same number of replicas for the whole run, so the
  ladder's occupancy integrals are all equal, and the walker labels sum
  to the replica count;
- ``0 <= accepted <= attempted`` per exchange dimension;
- ``0 < utilization <= 1``;
- ``n_failures == 0`` for single runs;
- a campaign finishes every session and rejects none.

Checkpoint files are not part of the correctness verdict: every one goes
through ``Checkpoint.load`` and each rejection is a failed operation (see
``README.md`` for the defect this surfaces today).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from workloads import Workload

_MD_UNIT = re.compile(r"^md_r(\d+)_c(\d+)$")


def artefact_digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def artefact_mb(out_dir: Path) -> float:
    """Megabytes of artefacts under ``out_dir``, checkpoints excluded."""
    return sum(
        path.stat().st_size for path in out_dir.rglob("*")
        if path.is_file() and "ckpt" not in path.relative_to(out_dir).parts
    ) / 1e6


def _counter(counters: Dict[str, float], prefix: str) -> Dict[str, float]:
    """``{dim: value}`` for the labelled series of one counter."""
    out = {}
    for key, value in counters.items():
        if key.startswith(prefix + "{dim="):
            out[key[len(prefix) + 5:-1]] = value
    return out


def check_manifest(manifest, n_cycles: int, where: str) -> Tuple[List[str], int]:
    """Invariant violations in one loaded manifest, and its done MD units."""
    errors: List[str] = []
    if manifest.partial:
        errors.append(f"{where}: manifest is partial")
    done = set()
    for unit in manifest.units:
        match = _MD_UNIT.match(unit.get("name", ""))
        if match and unit.get("final_state") == "DONE":
            done.add((int(match.group(1)), int(match.group(2))))
    for rid in range(manifest.n_replicas):
        missing = [c for c in range(n_cycles) if (rid, c) not in done]
        if missing:
            errors.append(f"{where}: replica {rid} never finished cycle(s) {missing}")
            break
    if not manifest.ladder:
        errors.append(f"{where}: no ladder records")
    for record in manifest.ladder:
        dim, n_windows = record["dimension"], int(record["n_windows"])
        occupancy = record["occupancy"]
        if sorted(occupancy, key=int) != [str(w) for w in range(n_windows)]:
            errors.append(f"{where}: {dim} occupancy does not cover windows 0..{n_windows - 1}")
            continue
        values = list(occupancy.values())
        if min(values) <= 0 or max(values) - min(values) > 1e-6 * max(values):
            errors.append(f"{where}: {dim} windows are not held by equally many replicas")
        if sum(record["walkers"].values()) != manifest.n_replicas:
            errors.append(f"{where}: {dim} walker labels do not sum to {manifest.n_replicas}")
        if manifest.n_replicas % n_windows:
            errors.append(f"{where}: {manifest.n_replicas} replicas cannot tile {n_windows} windows")
    counters = (manifest.metrics or {}).get("counters", {})
    attempted = _counter(counters, "exchange.attempted")
    accepted = _counter(counters, "exchange.accepted")
    for dim in set(attempted) | set(accepted):
        if not 0 <= accepted.get(dim, 0.0) <= attempted.get(dim, 0.0):
            errors.append(f"{where}: {dim} accepted {accepted.get(dim)} of {attempted.get(dim)}")
    if not 0.0 < manifest.utilization <= 1.0:
        errors.append(f"{where}: utilization {manifest.utilization} outside (0, 1]")
    return errors, len(done)


def check_single_run(out_dir: Path, workload: Workload) -> Tuple[List[str], int]:
    """Errors in a ``repro run -o summary.json -m run.jsonl`` output dir."""
    from repro.obs.manifest import ManifestError, RunManifest

    try:
        manifest = RunManifest.load(out_dir / "run.jsonl")
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError, ManifestError) as exc:
        return [f"artefact does not parse: {exc}"], 0
    errors, md_units = check_manifest(manifest, workload.n_cycles, "run.jsonl")
    if summary.get("n_failures") != 0:
        errors.append(f"summary: n_failures = {summary.get('n_failures')}")
    if summary.get("n_replicas") != manifest.n_replicas:
        errors.append("summary and manifest disagree on n_replicas")
    if not 0.0 < summary.get("utilization", 0.0) <= 1.0:
        errors.append(f"summary: utilization {summary.get('utilization')} outside (0, 1]")
    for dim, ratio in summary.get("acceptance", {}).items():
        if not 0.0 <= ratio <= 1.0:
            errors.append(f"summary: acceptance[{dim}] = {ratio}")
    return errors, md_units


def check_campaign(out_dir: Path, workload: Workload) -> Tuple[List[str], int]:
    """Errors in a ``repro campaign --out out --metrics-out metrics.txt`` dir."""
    from repro.obs.export import validate_openmetrics
    from repro.obs.manifest import ManifestError, RunManifest

    try:
        report = json.loads((out_dir / "out" / "report.json").read_text())
        n_samples = validate_openmetrics((out_dir / "metrics.txt").read_text())
    except (OSError, ValueError) as exc:
        return [f"artefact does not parse: {exc}"], 0
    errors: List[str] = []
    sessions = report.get("sessions", [])
    if len(sessions) != workload.sessions:
        errors.append(f"report lists {len(sessions)} sessions, expected {workload.sessions}")
    not_done = [s["uid"] for s in sessions if s["state"].lower() != "done"]
    if not_done:
        errors.append(f"{len(not_done)} session(s) not done, e.g. {not_done[0]}")
    if n_samples <= 0:
        errors.append("OpenMetrics exposition has no samples")
    md_units = 0
    listed = sorted(m for t in report.get("tenants", {}).values() for m in t.get("manifests", []))
    on_disk = sorted(str(p.relative_to(out_dir / "out")) for p in (out_dir / "out").rglob("*.jsonl"))
    if listed != on_disk or len(listed) != workload.sessions:
        errors.append(f"report links {len(listed)} manifests, {len(on_disk)} on disk")
    for rel in on_disk:
        try:
            manifest = RunManifest.load(out_dir / "out" / rel)
        except (OSError, ValueError, ManifestError) as exc:
            errors.append(f"{rel} does not parse: {exc}")
            continue
        found, units = check_manifest(manifest, workload.n_cycles, rel)
        errors.extend(found)
        md_units += units
    return errors, md_units


def check_artefacts(out_dir: Path, workload: Workload) -> Tuple[List[str], int]:
    """Parse and invariant errors for one child, and its done MD units."""
    if workload.sessions:
        return check_campaign(out_dir, workload)
    return check_single_run(out_dir, workload)


def verify(out_dirs: Sequence[Path], workload: Workload) -> Tuple[List[List[str]], int]:
    """Check the output dirs of one run's children; errors per dir, MD units.

    The first dir is parsed and checked in full; every other dir must hold
    exactly its bytes, so it parses and satisfies the invariants iff the
    first does.  The MD unit count is the first dir's.
    """
    if not out_dirs:
        return [], 0
    reference = artefact_digests(out_dirs[0])
    errors, md_units = check_artefacts(out_dirs[0], workload)
    if md_units <= 0:
        errors.append("no MD unit finished")
    verdicts = []
    for out_dir in out_dirs:
        found = list(errors)
        digests = reference if out_dir == out_dirs[0] else artefact_digests(out_dir)
        differ = sorted(k for k in set(digests) | set(reference)
                        if digests.get(k) != reference.get(k))
        if differ:
            found.append(f"artefact bytes differ from {out_dirs[0].name}: {differ[:3]}")
        verdicts.append(found)
    return verdicts, md_units


def reload_checkpoints(out_dir: Path) -> Tuple[int, List[str]]:
    """Load every checkpoint file the child wrote; ``(files, failures)``."""
    from repro.core.checkpoint import Checkpoint, CheckpointError

    files = sorted((out_dir / "ckpt").glob("*.json"))
    failures = []
    for path in files:
        try:
            Checkpoint.load(path)
        except CheckpointError as exc:
            failures.append(f"{path.name}: {exc}")
    return len(files), failures
