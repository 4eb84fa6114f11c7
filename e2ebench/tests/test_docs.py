"""README.md and BENCHMARK.json name the same workloads and metrics."""

import json
import re

from conftest import BENCH, ROOT

import run
from workloads import WORKLOADS

_ROW = re.compile(r"^\| `([^`]+)` \|(.*)$")


def _tables():
    """``{section heading: [(first cell name, other cells)]}`` of README.md."""
    tables, heading = {}, None
    for line in (BENCH / "README.md").read_text().splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
        match = _ROW.match(line)
        if match and heading:
            cells = [c.strip() for c in match.group(2).split("|")]
            tables.setdefault(heading, []).append((match.group(1), cells))
    return tables


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _section(tables, prefix):
    (rows,) = [rows for heading, rows in tables.items() if heading.startswith(prefix)]
    return rows


def test_workloads_match():
    names = [name for name, _ in _section(_tables(), "Workloads")]
    assert names == [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(WORKLOADS)


def test_end_to_end_metrics_match():
    rows = _section(_tables(), "End-to-end metrics")
    documented = {name: cells[0] for name, cells in rows}
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert documented == declared
    assert declared == run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    rows = _section(_tables(), "Per-layer metrics")
    documented = {name: cells[0] for name, cells in rows}
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert documented == declared
    assert declared == run.PER_LAYER_UNITS


def test_mapping_names_real_metrics_and_workloads():
    bench = _benchmark()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for name, cells in _section(_tables(), "Per-layer metrics"):
        moves, workload = cells[2].strip("`"), cells[3].strip("`")
        assert moves in end_to_end, (name, moves)
        assert workload in workloads, (name, workload)


def test_benchmark_json_shape():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "e2ebench/run.py"]
    assert bench["paths"] == ["e2ebench"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
