"""Differential harness: the SoA fast path is byte-identical to the reference.

The structure-of-arrays engine (``repro.pilot.soa`` + ``repro.md.batch``)
is pure optimization — ``soa=True`` and ``soa=False`` must produce the
*same simulation*, bit for bit: replica trajectories and energies at full
float precision, exchange decisions, manifests (timelines, metrics,
spans), virtual-clock counters, and checkpoints.  This suite is the gate:
every hot-path change must keep it green on both engines.

Coverage matrix: {synchronous, asynchronous} x {clean, unit faults,
staging faults, straggler + watchdog speculation, checkpoint/resume},
plus hypothesis-driven random ladders, and unit-level differential
properties for the two vectorized kernels (batched Brownian integration
vs per-unit ``run_md``; the in-memory typed mdin record vs the regex
parse of its text).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RepEx
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.md.amber import AmberAdapter
from repro.md.batch import MDWork, run_md_batch
from repro.md.forcefield import UmbrellaRestraint
from repro.md.sandbox import Sandbox
from repro.md.toymd import IntegratorParams, MDParams, ThermodynamicState
from repro.obs.metrics import MetricsRegistry


def make_config(soa: bool, **over) -> SimulationConfig:
    defaults = dict(
        title="diff-soa",
        dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=4),
        n_cycles=2,
        steps_per_cycle=6000,
        numeric_steps=8,
        sample_stride=4,
        seed=7,
        soa=soa,
    )
    defaults.update(over)
    return SimulationConfig(**defaults)


def fingerprint(result) -> str:
    """Full-precision JSON of everything a run computed."""
    return json.dumps(
        {
            "t_end": result.t_end,
            "replicas": [
                {
                    "rid": rep.rid,
                    "coords": [float(c) for c in rep.coords],
                    "param_indices": rep.param_indices,
                    "status": rep.status.value,
                    "n_failures": rep.n_failures,
                    "history": [
                        {
                            "cycle": rec.cycle,
                            "param_indices": rec.param_indices,
                            "potential_energy": rec.potential_energy,
                            "partner": rec.partner,
                            "accepted": rec.accepted,
                            "failed": rec.failed,
                            "trajectory": (
                                rec.trajectory.tolist()
                                if rec.trajectory is not None
                                else None
                            ),
                        }
                        for rec in rep.history
                    ],
                }
                for rep in result.replicas
            ],
            "exchange": {
                name: [stats.attempted, stats.accepted]
                for name, stats in result.exchange_stats.items()
            },
            "accounting": [
                result.md_core_seconds,
                result.exchange_core_seconds,
                result.n_failures,
                result.n_relaunches,
            ],
        },
        sort_keys=True,
    )


def run_both(**over):
    """One reference run, one SoA run, instrumented; returns the pair."""
    results = []
    for soa in (False, True):
        repex = RepEx(make_config(soa, **over), registry=MetricsRegistry())
        result = repex.run()
        results.append((repex, result))
    return results


def assert_equivalent(pair) -> None:
    (ref_rx, ref), (soa_rx, soa) = pair
    assert fingerprint(soa) == fingerprint(ref)
    # the manifest carries timeline, metrics, spans, units, ladder —
    # JSONL equality covers the golden-trace surface in one shot
    # (config_hash excludes the soa knob by design)
    assert soa.manifest.to_jsonl() == ref.manifest.to_jsonl()
    assert soa_rx.session.clock.n_fired == ref_rx.session.clock.n_fired
    assert soa_rx.session.clock.peak_heap == ref_rx.session.clock.peak_heap


SCENARIOS = {
    "sync-clean": {},
    "sync-mode2": {"execution_mode": "II"},
    "sync-unit-faults": {
        "failure": FailureSpec(probability=0.4, policy="relaunch"),
        "n_cycles": 3,
    },
    "sync-staging-faults": {
        "failure": FailureSpec(
            policy="continue",
            staging_fault_probability=0.3,
            staging_max_retries=6,
        ),
    },
    "sync-straggler-watchdog": {
        "pattern": PatternSpec(kind="synchronous", barrier_deadline_s=300.0),
        "failure": FailureSpec(policy="continue", slow_nodes=[[0, 4.0]]),
        "watchdog": WatchdogSpec(
            enabled=True, deadline_factor=6.0, speculative=True
        ),
    },
    "async-clean": {
        "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
        "n_cycles": 3,
    },
    "async-fifo": {
        "pattern": PatternSpec(kind="asynchronous", fifo_count=2),
        "resource": ResourceSpec("supermic", cores=2),
        "n_cycles": 3,
    },
    "async-unit-faults": {
        "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
        "failure": FailureSpec(probability=0.3, policy="relaunch"),
        "n_cycles": 3,
    },
    "multidim-umbrella": {
        "dimensions": [
            DimensionSpec("temperature", 2, 290.0, 330.0),
            DimensionSpec(
                "umbrella", 3, 0.0, 360.0, angle="phi"
            ),
        ],
        "resource": ResourceSpec("supermic", cores=6),
        "n_cycles": 2,
    },
    # T x salt x umbrella in Mode II waves: every unit of a wave has its
    # own salt/umbrella pair, so one stacked group mixes Hamiltonians.
    "tsu-mode2": {
        "dimensions": [
            DimensionSpec("temperature", 2, 290.0, 330.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec("umbrella", 3, 0.0, 360.0, angle="phi"),
        ],
        "resource": ResourceSpec("supermic", cores=4),
        "execution_mode": "II",
        "n_cycles": 3,
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_soa_matches_reference(name):
    assert_equivalent(run_both(**SCENARIOS[name]))


@settings(max_examples=8, deadline=None)
@given(
    n_windows=st.integers(min_value=2, max_value=5),
    n_cycles=st.integers(min_value=1, max_value=3),
    numeric_steps=st.integers(min_value=1, max_value=10),
    sample_stride=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["I", "II"]),
    synchronous=st.booleans(),
)
def test_soa_matches_reference_on_random_ladders(
    n_windows, n_cycles, numeric_steps, sample_stride, seed, mode, synchronous
):
    over = dict(
        dimensions=[DimensionSpec("temperature", n_windows, 280.0, 380.0)],
        resource=ResourceSpec("supermic", cores=n_windows),
        n_cycles=n_cycles,
        numeric_steps=numeric_steps,
        sample_stride=sample_stride,
        seed=seed,
        execution_mode=mode,
    )
    if not synchronous:
        over["pattern"] = PatternSpec(kind="asynchronous", window_seconds=60.0)
    assert_equivalent(run_both(**over))


class TestCrashResume:
    """Checkpoint/resume crosses engines without a trace."""

    def test_soa_resume_matches_reference_baseline(self, tmp_path):
        baseline = RepEx(make_config(False, n_cycles=4)).run()
        first = RepEx(
            make_config(True, n_cycles=4),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        )
        assert first.run().interrupted
        resumed = RepEx(
            make_config(True, n_cycles=4),
            resume_from=tmp_path / "latest.json",
        ).run()
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_resume_can_switch_engines_mid_run(self, tmp_path):
        """A checkpoint written under one engine resumes under the other —
        the soa knob is excluded from the config hash for exactly this."""
        baseline = RepEx(make_config(True, n_cycles=4)).run()
        RepEx(
            make_config(True, n_cycles=4),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        ).run()
        resumed = RepEx(
            make_config(False, n_cycles=4),
            resume_from=tmp_path / "latest.json",
        ).run()
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_checkpoint_files_are_identical_across_engines(self, tmp_path):
        trees = {}
        for soa in (False, True):
            out = tmp_path / ("soa" if soa else "ref")
            RepEx(
                make_config(soa, n_cycles=4),
                checkpoint_every=2,
                checkpoint_dir=out,
            ).run()
            trees[soa] = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.json"))
            }
        assert trees[True] == trees[False]


class TestGoldenTraces:
    """The committed golden fixtures hold on BOTH engines."""

    @pytest.mark.parametrize("soa", [False, True], ids=["reference", "soa"])
    def test_sync_golden_timeline(self, soa):
        from pathlib import Path

        from tests.conftest import small_tremd_config

        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "golden_sync_timeline.json"
        )
        result = RepEx(small_tremd_config(soa=soa)).run()
        got = json.dumps(result.manifest.timeline, separators=(",", ":"))
        assert got == fixture.read_text()

    @pytest.mark.parametrize("soa", [False, True], ids=["reference", "soa"])
    def test_async_golden_timeline(self, soa):
        from pathlib import Path

        from tests.conftest import small_tremd_config

        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "golden_async_timeline.json"
        )
        result = RepEx(
            small_tremd_config(
                pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
                n_cycles=3,
                soa=soa,
            )
        ).run()
        got = json.dumps(result.manifest.timeline, separators=(",", ":"))
        assert got == fixture.read_text()


# -- unit-level kernels -------------------------------------------------------


def _write_units(adapter, sandbox, specs):
    """Write one mdin/inpcrd(/RST) trio per spec; returns the tags."""
    tags = []
    for i, (temp, salt, n_steps, stride, seed, restraints) in enumerate(
        specs
    ):
        tag = f"u{i:03d}"
        state = ThermodynamicState(
            temperature=temp, salt_molar=salt, restraints=tuple(restraints)
        )
        params = MDParams(
            n_steps=n_steps,
            sample_stride=stride,
            integrator_params=IntegratorParams(),
        )
        coords = np.array([-1.1 + 0.13 * i, -0.7 + 0.21 * i])
        adapter.write_input(sandbox, tag, coords, state, params, seed)
        tags.append(tag)
    return tags


unit_spec = st.tuples(
    st.floats(min_value=250.0, max_value=450.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.builds(
            UmbrellaRestraint,
            angle=st.sampled_from(["phi", "psi"]),
            center_deg=st.floats(min_value=-180.0, max_value=180.0),
            k=st.floats(min_value=0.1, max_value=20.0),
        ),
        max_size=2,
    ),
)


@settings(max_examples=20, deadline=None)
@given(specs=st.lists(unit_spec, min_size=1, max_size=6))
def test_batched_md_is_bit_identical_to_per_unit(specs):
    """run_md_batch == N sequential run_md calls: results AND output files.

    One batch mixes temperatures, salts, restraint values and angle
    patterns, so walkers of one stacked group differ in all of them."""
    ref_adapter, soa_adapter = AmberAdapter(), AmberAdapter()
    ref_box, soa_box = Sandbox(), Sandbox()
    tags = _write_units(ref_adapter, ref_box, specs)
    _write_units(soa_adapter, soa_box, specs)

    ref_results = [ref_adapter.run_md(ref_box, tag) for tag in tags]
    soa_results = run_md_batch(
        [MDWork(adapter=soa_adapter, sandbox=soa_box, tag=tag) for tag in tags]
    )

    for ref, soa in zip(ref_results, soa_results):
        assert soa.final_coords.tolist() == ref.final_coords.tolist()
        assert soa.trajectory.tolist() == ref.trajectory.tolist()
        assert soa.potential_energy == ref.potential_energy
        assert soa.torsional_energy == ref.torsional_energy
        assert soa.restraint_energy == ref.restraint_energy
        assert soa.bath_energy == ref.bath_energy
    for tag in tags:
        for suffix in ("mdinfo", "rst", "mdcrd"):
            name = f"{tag}.{suffix}"
            try:
                ref_text = ref_box.read_text(name)
            except Exception:
                continue
            assert soa_box.read_text(name) == ref_text


@settings(max_examples=25, deadline=None)
@given(
    temp=st.floats(min_value=200.0, max_value=500.0),
    salt=st.floats(min_value=0.0, max_value=2.0),
    n_steps=st.integers(min_value=1, max_value=50_000),
    stride=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    restraints=st.lists(
        st.builds(
            UmbrellaRestraint,
            angle=st.sampled_from(["phi", "psi"]),
            center_deg=st.floats(min_value=-360.0, max_value=360.0),
            k=st.floats(min_value=0.0001, max_value=500.0),
        ),
        max_size=3,
    ),
)
def test_mdin_record_matches_regex_parse(
    temp, salt, n_steps, stride, seed, restraints
):
    """What the in-memory sandbox hands back for an mdin is exactly what the
    regex parser extracts from the same file's text."""
    adapter = AmberAdapter()
    sandbox = Sandbox()
    state = ThermodynamicState(
        temperature=temp, salt_molar=salt, restraints=tuple(restraints)
    )
    params = MDParams(
        n_steps=n_steps,
        sample_stride=stride,
        integrator_params=IntegratorParams(),
    )
    adapter.write_input(
        sandbox, "t", np.array([0.3, -0.4]), state, params, seed
    )
    # the same files as text only: every read goes through the parser
    text_box = Sandbox()
    for name in sandbox.listdir():
        text_box.write_text(name, sandbox.read_text(name))
    c_params, c_state, c_seed = adapter._parse_mdin(sandbox, "t")
    r_params, r_state, r_seed = adapter._parse_mdin(text_box, "t")
    assert c_seed == r_seed
    assert c_state == r_state
    assert (c_params.n_steps, c_params.sample_stride) == (
        r_params.n_steps,
        r_params.sample_stride,
    )
    assert c_params.integrator_params == r_params.integrator_params


def test_edited_mdin_text_replaces_record():
    """Text written over an mdin record after write_input is what the run
    reads, not the stale record."""
    adapter = AmberAdapter()
    sandbox = Sandbox()
    params = MDParams(n_steps=10, sample_stride=0)
    adapter.write_input(
        sandbox,
        "t",
        np.array([0.1, 0.2]),
        ThermodynamicState(temperature=300.0),
        params,
        seed=1,
    )
    text = sandbox.read_text("t.mdin")
    edited = text.replace("temp0 = 300.000000", "temp0 = 355.000000")
    assert edited != text
    sandbox.write_text("t.mdin", edited)
    _params, state, _seed = adapter._parse_mdin(sandbox, "t")
    assert state.temperature == 355.0
