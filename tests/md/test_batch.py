"""Grouping in the batched MD kernel: one stacked walker array per
restraint-angle pattern, whatever the walkers' temperature, salt and
umbrella values.

A grouping key that drifts back to per-Hamiltonian values still gives
bit-identical results, one walker per group; these tests catch that.
"""

import numpy as np

import repro.md.batch as batch
from repro.core import RepEx
from repro.core.config import DimensionSpec, ResourceSpec
from repro.md.amber import AmberAdapter
from repro.md.forcefield import UmbrellaRestraint
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState
from tests.conftest import small_tremd_config


def record_groups(monkeypatch):
    """Patch the kernel; returns ``[[states of each group] per batch]``."""
    batches = []
    run_md_batch = batch.run_md_batch
    integrate = batch._integrate_brownian_group

    def counting_batch(items):
        batches.append([])
        return run_md_batch(items)

    def counting_integrate(toymd, n_steps, stride, iparams, entries):
        batches[-1].append([state for _c, state, _r in entries])
        return integrate(toymd, n_steps, stride, iparams, entries)

    monkeypatch.setattr(batch, "run_md_batch", counting_batch)
    monkeypatch.setattr(batch, "_integrate_brownian_group", counting_integrate)
    return batches


def test_tsu_wave_integrates_as_one_group(monkeypatch):
    batches = record_groups(monkeypatch)
    config = small_tremd_config(
        dimensions=[
            DimensionSpec("temperature", 2, 290.0, 330.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec("umbrella", 3, 0.0, 360.0, angle="phi"),
        ],
        resource=ResourceSpec("supermic", cores=4),
        execution_mode="II",
        n_cycles=3,
        numeric_steps=4,
    )
    RepEx(config).run()

    # 12 replicas in waves of 4 cores: three batches per cycle
    assert len(batches) == 9
    for groups in batches:
        assert len(groups) == 1
        (states,) = groups
        assert len(states) == 4
    # every wave of the run stacked walkers of differing Hamiltonians
    assert all(
        len({(s.temperature, s.salt_molar, s.restraints) for s in states}) > 1
        for (states,) in batches
    )
    salts = {s.salt_molar for (states,) in batches for s in states}
    centres = {
        s.restraints[0].center_deg for (states,) in batches for s in states
    }
    assert len(salts) == 2 and len(centres) == 3


def test_one_group_per_restraint_angle_pattern(monkeypatch):
    batches = record_groups(monkeypatch)
    patterns = [(), ("phi",), ("psi",), ("phi", "psi"), ("phi",), ()]
    adapter, sandbox = AmberAdapter(), Sandbox()
    items = []
    for i, angles in enumerate(patterns):
        tag = f"u{i}"
        state = ThermodynamicState(
            temperature=280.0 + 10.0 * i,
            salt_molar=0.1 * i,
            restraints=tuple(
                UmbrellaRestraint(a, center_deg=30.0 * i, k=0.01 * (i + 1))
                for a in angles
            ),
        )
        adapter.write_input(
            sandbox, tag, np.array([-1.0, 0.5]), state, MDParams(n_steps=3), i
        )
        items.append(batch.MDWork(adapter=adapter, sandbox=sandbox, tag=tag))

    batch.run_md_batch(items)

    (groups,) = batches
    got = sorted(
        (tuple(r.angle for r in states[0].restraints), len(states))
        for states in groups
    )
    assert got == [
        ((), 2),
        (("phi",), 2),
        (("phi", "psi"), 1),
        (("psi",), 1),
    ]
