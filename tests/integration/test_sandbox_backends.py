"""Backend differential: the in-memory and on-disk sandboxes run the same
simulation, byte for byte.

The in-memory sandbox stores the Amber adapter's typed file records and
hands them back without formatting or parsing text; the on-disk sandbox
writes every file's text and parses it back.  Both go through one adapter
code path, so a record that differs from what its parser reads back would
show here as a diverging manifest.  Every file the on-disk run leaves must
also equal the text the in-memory record renders.
"""

from __future__ import annotations

import json

import pytest

from repro.core import RepEx
from repro.core.config import (
    DimensionSpec,
    EngineSpec,
    PatternSpec,
    ResourceSpec,
)
from repro.md.sandbox import Sandbox
from repro.obs.metrics import MetricsRegistry

from tests.conftest import small_tremd_config

SCENARIOS = {
    "sync-tremd": dict(numeric_steps=10, sample_stride=5),
    "tsu-mode2": dict(
        engine=EngineSpec(name="amber", system="ala2"),
        dimensions=[
            DimensionSpec("temperature", 2, 273.0, 373.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec(
                "umbrella", 3, 0.0, 360.0, force_constant=0.0005
            ),
        ],
        resource=ResourceSpec("stampede", cores=4),
        execution_mode="II",
        n_cycles=3,
        numeric_steps=10,
        sample_stride=5,
    ),
    "async-fifo": dict(
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=4),
        pattern=PatternSpec(
            kind="asynchronous", window_seconds=1e6, fifo_count=4
        ),
        n_cycles=3,
        numeric_steps=10,
        sample_stride=5,
    ),
}


def run(config, sandbox):
    repex = RepEx(config, sandbox=sandbox, registry=MetricsRegistry())
    result = repex.run()
    manifest = result.manifest
    return (
        manifest.to_jsonl(),
        json.dumps(manifest.to_summary_dict(), sort_keys=True),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_memory_and_disk_sandboxes_agree(name, tmp_path):
    config = small_tremd_config(**SCENARIOS[name])
    memory = Sandbox()
    disk = Sandbox(tmp_path / "sandbox")
    mem_manifest, mem_summary = run(config, memory)
    disk_manifest, disk_summary = run(config, disk)
    assert disk_manifest == mem_manifest
    assert disk_summary == mem_summary

    names = disk.listdir()
    assert names == memory.listdir()
    assert any(n.endswith(".mdin") for n in names)
    for file_name in names:
        assert memory.read_text(file_name) == disk.read_text(file_name), file_name
