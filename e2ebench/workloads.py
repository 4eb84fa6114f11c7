"""The four user workloads: inputs generated from a seed, plus the argv a
user would type.

Every workload is one ``python -m repro run|campaign`` invocation.  The
benchmark writes the generated config (or campaign spec) as JSON and hands
the program only that file; the seed never reaches the program any other
way.  Why each shape was chosen is recorded in ``README.md`` next to this
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``build(seed)`` returns the JSON-ready config/spec; ``argv(input_path)``
    the CLI arguments after ``python -m repro``.  ``n_cycles`` is what every
    replica of every session must reach.  ``sessions`` is 0 for the
    ``repro run`` shapes (one manifest, ``n_failures == 0``) and, for a
    campaign, the number of sessions its report must list as done.
    """

    name: str
    build: Callable[[int], Dict]
    argv: Callable[[str], List[str]]
    n_cycles: int
    sessions: int = 0


def _temperature(n: int, lo: float = 300.0, hi: float = 400.0) -> Dict:
    return {"kind": "temperature", "n_windows": n,
            "min_value": lo, "max_value": hi}


def _tremd_sync_1024(seed: int) -> Dict:
    # The paper's weak-scaling shape (Fig. 6): one replica per core, so
    # the framework, not the toy MD kernel, sets the host time.
    return {
        "title": "e2e-tremd-sync-1024",
        "resource": {"name": "supermic", "cores": 1024},
        "dimensions": [_temperature(1024)],
        "n_cycles": 2,
        "numeric_steps": 1,
        "seed": seed,
    }


def _tsu_mode2_128(seed: int) -> Dict:
    # Figs. 9-11: 3D TSU in Mode II waves (128 replicas on 32 cores), with
    # salt single-point energies; the MD kernel dominates host time.
    return {
        "title": "e2e-tsu-mode2-128",
        "engine": {"name": "amber", "system": "ala2"},
        "resource": {"name": "stampede", "cores": 32},
        "dimensions": [
            _temperature(4, 273.0, 373.0),
            {"kind": "salt", "n_windows": 4,
             "min_value": 0.0, "max_value": 1.0},
            {"kind": "umbrella", "n_windows": 8,
             "min_value": 0.0, "max_value": 360.0,
             "angle": "phi", "force_constant": 0.0005},
        ],
        "n_cycles": 3,  # one full round robin over the three dimensions
        "numeric_steps": 100,
        "seed": seed,
    }


def _tremd_async_512(seed: int) -> Dict:
    # Fig. 13: asynchronous FIFO exchange, 512 windows on 256 cores.  The
    # async pattern never takes the SoA fast path, so every unit runs
    # through the event queue, scheduler and staging one by one.
    return {
        "title": "e2e-tremd-async-512",
        "resource": {"name": "supermic", "cores": 256},
        "pattern": {"kind": "asynchronous", "fifo_count": 64},
        "dimensions": [_temperature(512)],
        "n_cycles": 2,
        "numeric_steps": 1,
        "seed": seed,
    }


def _campaign_256(seed: int) -> Dict:
    # The repo's campaign-256 bench scenario: four tenants x (2 patterns x
    # 2 ladders) x 16 repeats = 256 small sessions on a shared 64-core
    # datacenter with two node crashes.  Seed N is the campaign seed and
    # tenant i's base seed is N + i.
    def base(index: int) -> Dict:
        return {
            "title": f"e2e-campaign-{index}",
            "dimensions": [_temperature(2, 300.0, 330.0 + 10.0 * index)],
            "resource": {"name": "small-cluster", "cores": 4},
            "n_cycles": 1,
            "steps_per_cycle": 500,
            "numeric_steps": 1,
            "sample_stride": 0,
            "seed": seed + index,
        }

    return {
        "title": "e2e-campaign-256",
        "seed": seed,
        "datacenter": {"nodes": 8, "cores_per_node": 8, "repair_s": 60.0},
        "faults": {"node_crashes": [[20.0, 0], [75.0, 3]]},
        "relaunch_limit": 2,
        "tenants": [
            {
                "name": f"group{i}",
                "weight": 1.0 + (i % 2),
                "priority": i % 2,
                "quota_cores": 16,
                "base": base(i),
                "grid": {
                    "pattern.kind": ["synchronous", "asynchronous"],
                    "dimensions.0.n_windows": [2, 3],
                },
                "repeat": 16,
            }
            for i in range(4)
        ],
    }


def _run_argv(*extra: str) -> Callable[[str], List[str]]:
    def argv(input_path: str) -> List[str]:
        return ["run", input_path, "-o", "summary.json", "-m", "run.jsonl",
                *extra]

    return argv


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tremd-sync-1024", _tremd_sync_1024, _run_argv(), 2),
        Workload("tsu-mode2-128", _tsu_mode2_128, _run_argv(), 3),
        Workload(
            "tremd-async-512-ckpt",
            _tremd_async_512,
            _run_argv("--stream", "--checkpoint-every-s", "100",
                      "--checkpoint-dir", "ckpt"),
            2,
        ),
        Workload(
            "campaign-256",
            _campaign_256,
            lambda path: ["campaign", path, "--out", "out",
                          "--metrics-out", "metrics.txt"],
            1,
            sessions=256,
        ),
    )
}
