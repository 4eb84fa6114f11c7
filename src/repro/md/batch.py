"""Batched MD execution: many replicas, one vectorised integration pass.

The reference execution path runs one ``adapter.run_md(sandbox, tag)`` call
per compute unit — for a 1024-replica phase that is 1024 input reads,
1024 separate ``BrownianIntegrator.run`` loops of small (1, 2)-shaped
NumPy ops, and 1024 rounds of output writes.  This module
executes a whole phase of MD units in one structure-of-arrays pass:

* every unit's mdin/coordinates are read up front,
* units that share an integration schedule (integrator, step count,
  sample stride, dt, friction, mass) and restrain the same angles in the
  same order are stacked into an ``(R, 2)`` walker array and integrated
  together.  Each walker keeps its own Hamiltonian as data down the walker
  axis: temperature, Debye screening factor, restraint centres and force
  constants may all differ, so one sync phase of a T x salt x umbrella
  ladder is one group per restraint-angle pattern, not one per unit, and
* each replica keeps its *own* ``default_rng(seed)`` whose normal draws are
  pre-generated as one ``(n_steps, 2)`` block.

Bit-identity with the per-unit path is a hard contract, relied on by the
differential suite in ``tests/perf/test_soa_equivalence.py``:

* ``Generator.standard_normal((n_steps, 2))`` yields exactly the values of
  ``n_steps`` sequential ``(1, 2)`` draws and leaves the generator in the
  same state, so the post-integration bath draw matches too;
* the force field is elementwise over the walker axis (no reductions), so
  evaluating ``(R,)`` rows together reproduces each ``(1,)`` evaluation bit
  for bit; the per-walker screening factors and restraint parameters go
  through :meth:`ForceField.stacked_gradient`, which applies the scalar
  path's ufuncs to the same doubles in the same order;
* the per-replica noise scale is computed with the exact scalar arithmetic
  of the reference and applied via an ``(R, 1) * (R, 2)`` broadcast, which
  multiplies the same pairs of doubles.

Scalar transcendentals with *different* operand shapes (float exponents,
``math.exp`` vs ``np.exp``) are NOT bit-stable between batch and scalar
form — anything of that shape (energy readouts, cluster models) stays a
per-replica scalar call here.

Units whose adapter overrides ``run_md``, or whose engine is not the toy
Brownian integrator, fall back to per-unit ``run_md`` calls inside the
batch — same results, no vectorisation.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.md.forcefield import (
    debye_screening_factor,
    stack_restraints,
    wrap_angle,
)
from repro.md.toymd import MDResult, ToyMD
from repro.utils.units import KB_KCAL_PER_MOL_K

#: cap on pre-drawn normals per integration chunk (doubles); bounds memory
#: at ~64 MB for the largest ladders without affecting any value
_MAX_NORMALS = 8_000_000


class MDWork(NamedTuple):
    """Batchable-work descriptor carried on ``UnitDescription.batch``.

    Identifies one MD task (adapter + sandbox + tag) so a phase engine can
    execute all of a phase's MD units through :func:`run_md_batch` instead
    of one ``work()`` call each.  The reference path never looks at this.
    """

    adapter: Any
    sandbox: Any
    tag: str


def _batchable(adapter) -> bool:
    """True when ``adapter`` runs the stock Amber ``run_md`` on stock ToyMD."""
    from repro.md.amber import AmberAdapter

    if not isinstance(adapter, AmberAdapter):
        return False
    if type(adapter).run_md is not AmberAdapter.run_md:
        return False
    return type(adapter.toymd) is ToyMD


def run_md_batch(items: Sequence[MDWork]) -> List[MDResult]:
    """Execute every MD task in ``items``; returns results in input order.

    Tasks are grouped by (adapter, sandbox) identity, then by integration
    compatibility; each compatible group integrates as one stacked walker
    array.  Output files (mdinfo / restart / trajectory) are written
    exactly as ``run_md`` writes them.
    """
    results: List[MDResult] = [None] * len(items)  # type: ignore[list-item]
    groups: Dict[Tuple[int, int], List[int]] = {}
    order: List[Tuple[int, int]] = []
    for i, item in enumerate(items):
        key = (id(item.adapter), id(item.sandbox))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    for key in order:
        idxs = groups[key]
        first = items[idxs[0]]
        outs = _run_adapter_batch(
            first.adapter, first.sandbox, [items[i].tag for i in idxs]
        )
        for i, result in zip(idxs, outs):
            results[i] = result
    return results


def _run_adapter_batch(adapter, sandbox, tags: List[str]) -> List[MDResult]:
    if not _batchable(adapter):
        return [adapter.run_md(sandbox, tag) for tag in tags]

    # Read phase: exactly run_md's input read + coordinate read + rng
    # creation, hoisted out of the integration loop for every unit at once.
    parsed = []
    for tag in tags:
        params, state, seed = adapter._parse_mdin(sandbox, tag)
        coords = adapter._read_coords(sandbox, f"{tag}.inpcrd")
        # Same bit-generator state as run_md's default_rng(seed), without
        # default_rng's errstate wrapper (one construction per unit).
        rng = np.random.Generator(np.random.PCG64(seed))
        parsed.append((params, state, rng, coords))

    # Group by the integration schedule and the restrained angles; the
    # Hamiltonian's values (temperature, salt, restraint centres and force
    # constants) and the rng stream stay per-walker inside a group.
    results: List[MDResult] = [None] * len(tags)  # type: ignore[list-item]
    group_idx: Dict[tuple, List[int]] = {}
    group_order: List[tuple] = []
    for i, (params, state, _rng, _coords) in enumerate(parsed):
        ip = params.integrator_params
        key = (
            params.integrator,
            params.n_steps,
            params.sample_stride,
            ip.dt,
            ip.friction,
            ip.mass,
            tuple(r.angle for r in state.restraints),
        )
        if key not in group_idx:
            group_idx[key] = []
            group_order.append(key)
        group_idx[key].append(i)

    for key in group_order:
        idxs = group_idx[key]
        if key[0] != "brownian":
            # Non-default integrator: integrate each unit the reference way.
            for i in idxs:
                params, state, rng, coords = parsed[i]
                results[i] = adapter.toymd.run(coords, state, params, rng)
            continue
        params = parsed[idxs[0]][0]
        # Chunk so the pre-drawn normals stay bounded in memory.
        rows = max(1, _MAX_NORMALS // (2 * max(1, params.n_steps)))
        for lo in range(0, len(idxs), rows):
            chunk = idxs[lo : lo + rows]
            entries = [
                (parsed[i][3], parsed[i][1], parsed[i][2]) for i in chunk
            ]
            outs = _integrate_brownian_group(
                adapter.toymd,
                params.n_steps,
                params.sample_stride,
                params.integrator_params,
                entries,
            )
            for i, result in zip(chunk, outs):
                results[i] = result

    # Output phase: the same three files run_md writes.
    for tag, result in zip(tags, results):
        adapter._write_outputs(sandbox, tag, result)
    return results


def _integrate_brownian_group(
    toymd: ToyMD,
    n_steps: int,
    sample_stride: int,
    iparams,
    entries: List[tuple],
) -> List[MDResult]:
    """Overdamped Langevin for R walkers, one Hamiltonian each, in one pass.

    ``entries`` is ``[(coords (2,), ThermodynamicState, rng), ...]``; the
    states may differ in temperature, salt and restraint values but must
    restrain the same angles in the same order.  Every arithmetic step
    below reproduces ``BrownianIntegrator.run`` + ``ToyMD.run`` per
    element: the noise scale, Debye screening factor and restraint
    parameters are computed per walker with the scalar arithmetic and
    broadcast down the walker axis.
    """
    ff = toymd.forcefield
    dt = iparams.dt
    gamma = iparams.friction
    drift = dt / gamma

    n = len(entries)
    x = np.array([e[0] for e in entries], dtype=float)
    states = [e[1] for e in entries]
    noise_col = np.empty((n, 1))
    for i, state in enumerate(states):
        kt = KB_KCAL_PER_MOL_K * state.temperature
        noise_col[i, 0] = math.sqrt(2.0 * kt * dt / gamma)
    screening = np.array(
        [debye_screening_factor(s.salt_molar, ff.elec_r0) for s in states]
    )
    slots = stack_restraints([s.restraints for s in states])
    # One (n_steps, 2) block per replica == its n_steps sequential (1, 2)
    # draws, and leaves each generator ready for the bath draw below.
    normals = np.empty((n, n_steps, 2))
    for i, (_c, _t, rng) in enumerate(entries):
        normals[i] = rng.standard_normal((n_steps, 2))

    samples = [] if sample_stride > 0 else None
    for step in range(n_steps):
        gphi, gpsi = ff.stacked_gradient(x[:, 0], x[:, 1], screening, slots)
        x[:, 0] -= drift * gphi
        x[:, 1] -= drift * gpsi
        x += noise_col * normals[:, step, :]
        x = wrap_angle(x)
        if samples is not None and (step + 1) % sample_stride == 0:
            samples.append(x.copy())

    if samples is not None:
        if samples:
            samples_arr = np.array(samples)
        else:
            samples_arr = np.empty((0, n, 2))
    else:
        samples_arr = None

    # Final torsional energies for all walkers in one call: the rama/elec
    # terms are elementwise array math on both paths ((R, 3) wells here vs
    # (3,) wells per replica — same ufunc loops, bit-identical elements).
    # Restraint energies stay per-replica: ``d**2`` on a 0-d scalar and on
    # a 1-D array take different pow paths and are NOT bit-stable.
    tors_all = ff.screened_energy(x[:, 0], x[:, 1], screening)
    results = []
    for i, (_c, state, rng) in enumerate(entries):
        temperature = state.temperature
        final = x[i]
        traj = (
            samples_arr[:, i, :]
            if samples_arr is not None
            else np.empty((0, 2))
        )
        tors = float(tors_all[i])
        restr = 0.0
        for r in state.restraints:
            restr += float(r.energy(final[0], final[1]))
        bath = toymd.bath.sample_energy(temperature, rng)
        results.append(
            MDResult(
                final_coords=final,
                trajectory=traj,
                potential_energy=tors + restr + bath,
                torsional_energy=tors,
                restraint_energy=restr,
                bath_energy=bath,
                temperature=temperature,
                n_steps=n_steps,
            )
        )
    return results
