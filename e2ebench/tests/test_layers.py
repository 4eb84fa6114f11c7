"""Layer coverage: every probe target exists, and on each workload every
per-layer metric the README maps to it is greater than 0.

A probe that silently measures nothing (a renamed method, a function a
caller imported by value) shows up here as a zero.
"""

import importlib
import json
import os

import pytest

import checks
import probes
import run
from conftest import ROOT
from test_docs import _section, _tables
from workloads import WORKLOADS


def test_every_probe_target_exists():
    for layer, targets in probes.LAYERS.items():
        for module_name, path, _ in targets:
            module = importlib.import_module(module_name)
            owner, _, attr = path.rpartition(".")
            obj = getattr(module, owner) if owner else module
            assert attr == "*" or attr in vars(obj), (layer, module_name, path)


def _mapped(workload):
    return [name for name, cells in _section(_tables(), "Per-layer metrics")
            if cells[3].strip("`") == workload]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_mapped_layers_are_entered(name, tmp_path):
    workload = WORKLOADS[name]
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(workload.build(1)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    children = [run.run_child(i, traced, workload, input_path, tmp_path, env)
                for i, traced in enumerate((False, True))]
    for child in children:
        assert child.errors == []
        child.inspect_outputs()
    values = run.ledger_values(children[1])
    plain = run.phases(children[0])
    values["trace_overhead_frac"] = run.phases(children[1])["total_s"] / plain["total_s"] - 1
    values["artefacts_s"] = plain["artefacts_s"]
    _, md_units = checks.verify([children[0].out_dir], workload)
    values["md_units_per_s"] = md_units / plain["total_s"]
    mapped = _mapped(name)
    assert mapped
    zero = [metric for metric in mapped if not values[metric]]
    assert zero == [], f"{name}: mapped metrics read 0: {zero}"
