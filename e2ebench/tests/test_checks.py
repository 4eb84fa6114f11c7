"""The output check accepts a clean run and rejects damaged artefacts."""

import json
import shutil

import pytest

import checks
from workloads import Workload

from repro.cli import main as repro_main

SMALL = Workload(
    name="small",
    build=lambda seed: {
        "title": "e2e-small",
        "resource": {"name": "supermic", "cores": 16},
        "dimensions": [{"kind": "temperature", "n_windows": 16,
                        "min_value": 300.0, "max_value": 400.0}],
        "n_cycles": 2,
        "numeric_steps": 1,
        "seed": seed,
    },
    argv=lambda path: ["run", path, "-o", "summary.json", "-m", "run.jsonl"],
    n_cycles=2,
)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """Two children's outputs from two identical runs of SMALL."""
    root = tmp_path_factory.mktemp("runs")
    config = root / "input.json"
    config.write_text(json.dumps(SMALL.build(3)))
    dirs = []
    for name in ("child-000", "child-001"):
        out = root / name
        out.mkdir()
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(out)
            assert repro_main(SMALL.argv(str(config))) == 0
        dirs.append(out)
    return dirs


def _copy(dirs, tmp_path):
    copies = []
    for d in dirs:
        shutil.copytree(d, tmp_path / d.name)
        copies.append(tmp_path / d.name)
    return copies


def test_clean_run_passes(clean_run):
    verdicts, md_units = checks.verify(clean_run, SMALL)
    assert verdicts == [[], []]
    assert md_units == 16 * 2


def test_flipped_manifest_byte_fails(clean_run, tmp_path):
    dirs = _copy(clean_run, tmp_path)
    manifest = dirs[1] / "run.jsonl"
    data = bytearray(manifest.read_bytes())
    i = data.index(b'"utilization": 0.') + len(b'"utilization": 0.')
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    manifest.write_bytes(bytes(data))
    verdicts, _ = checks.verify(dirs, SMALL)
    assert verdicts[0] == []
    assert any("bytes differ" in e for e in verdicts[1])


def test_flipped_byte_in_the_first_child_fails_every_child(clean_run, tmp_path):
    dirs = _copy(clean_run, tmp_path)
    manifest = dirs[0] / "run.jsonl"
    data = bytearray(manifest.read_bytes())
    data[data.index(b"{")] = ord("[")
    manifest.write_bytes(bytes(data))
    verdicts, _ = checks.verify(dirs, SMALL)
    assert any("does not parse" in e for e in verdicts[0])
    assert verdicts[1]


def test_dropped_replica_cycle_fails(clean_run, tmp_path):
    (single,) = _copy(clean_run[:1], tmp_path)
    manifest = single / "run.jsonl"
    lines = manifest.read_text().splitlines(keepends=True)
    dropped = [line for line in lines
               if '"kind": "unit"' in line and '"name": "md_r00005_c0001"' in line]
    assert len(dropped) == 1
    lines.remove(dropped[0])
    manifest.write_text("".join(lines))
    verdicts, _ = checks.verify([single], SMALL)
    assert any("replica 5 never finished cycle(s) [1]" in e for e in verdicts[0])


def test_failures_in_summary_fail(clean_run, tmp_path):
    (single,) = _copy(clean_run[:1], tmp_path)
    summary = json.loads((single / "summary.json").read_text())
    summary["n_failures"] = 1
    (single / "summary.json").write_text(json.dumps(summary))
    verdicts, _ = checks.verify([single], SMALL)
    assert any("n_failures" in e for e in verdicts[0])


def test_checkpoint_reload_reports_each_rejected_file(tmp_path):
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "ckpt" / "latest.json").write_text("{not json")
    files, failures = checks.reload_checkpoints(tmp_path)
    assert files == 1 and len(failures) == 1
    assert "corrupt checkpoint" in failures[0]
