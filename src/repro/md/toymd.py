"""The toy MD engine: real dynamics on the torsional surface.

This is the physics backend that both engine adapters (Amber-style and
NAMD-style) drive.  One :meth:`ToyMD.run` call is one MD phase of one
replica: integrate ``n_steps`` of Langevin dynamics at the replica's
thermodynamic state, then report the quantities a real engine would print
to its info file — final potential energy (torsional + screened
electrostatic + restraints + solvent bath sample), temperatures, and the
sampled trajectory.

The exchange phase needs :meth:`ToyMD.single_point_energy` — the potential
energy of a configuration evaluated under *another replica's* Hamiltonian —
which is exactly the quantity the paper computes with extra Amber tasks for
salt-concentration exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.md.forcefield import ForceField, SolventBath, UmbrellaRestraint
from repro.md.integrators import IntegratorParams, get_integrator
from repro.md.system import MolecularSystem, alanine_dipeptide


@dataclass(frozen=True)
class ThermodynamicState:
    """A replica's exchangeable parameters.

    Any subset may be exchanged: temperature (T-REMD), umbrella restraints
    (U-REMD), salt concentration (S-REMD).
    """

    temperature: float = 300.0
    salt_molar: float = 0.0
    restraints: Tuple[UmbrellaRestraint, ...] = ()

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.salt_molar < 0:
            raise ValueError(f"salt_molar must be >= 0, got {self.salt_molar}")

    def with_temperature(self, t: float) -> "ThermodynamicState":
        """Copy with a different temperature."""
        return ThermodynamicState(t, self.salt_molar, self.restraints)

    def with_salt(self, c: float) -> "ThermodynamicState":
        """Copy with a different salt concentration."""
        return ThermodynamicState(self.temperature, c, self.restraints)

    def with_restraints(
        self, restraints: Sequence[UmbrellaRestraint]
    ) -> "ThermodynamicState":
        """Copy with different umbrella restraints."""
        return ThermodynamicState(
            self.temperature, self.salt_molar, tuple(restraints)
        )


@dataclass
class MDParams:
    """Parameters of one MD phase."""

    n_steps: int = 6000
    sample_stride: int = 50
    integrator: str = "brownian"
    integrator_params: IntegratorParams = field(default_factory=IntegratorParams)

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.sample_stride < 0:
            raise ValueError(
                f"sample_stride must be >= 0, got {self.sample_stride}"
            )


@dataclass
class MDResult:
    """What one MD phase produces (the contents of a real engine's output).

    ``potential_energy`` is the *total* reported potential: torsional +
    screened electrostatic + restraint + bath sample.  ``torsional_energy``
    excludes the bath (that is what restraint-only exchanges need).
    """

    final_coords: np.ndarray  # shape (2,): (phi, psi) radians
    trajectory: np.ndarray  # shape (n_samples, 2)
    potential_energy: float
    torsional_energy: float
    restraint_energy: float
    bath_energy: float
    temperature: float
    n_steps: int

    def as_dict(self) -> dict:
        """JSON-serializable summary (used by the engine adapters)."""
        return {
            "final_phi": float(self.final_coords[0]),
            "final_psi": float(self.final_coords[1]),
            "potential_energy": self.potential_energy,
            "torsional_energy": self.torsional_energy,
            "restraint_energy": self.restraint_energy,
            "bath_energy": self.bath_energy,
            "temperature": self.temperature,
            "n_steps": self.n_steps,
        }


class ToyMD:
    """The engine: force field + bath + integrator for one molecular system."""

    def __init__(
        self,
        system: Optional[MolecularSystem] = None,
        forcefield: Optional[ForceField] = None,
    ):
        self.system = system or alanine_dipeptide()
        self.forcefield = forcefield or ForceField()
        self.bath = SolventBath(self.system.bath_dof)

    def run(
        self,
        coords: np.ndarray,
        state: ThermodynamicState,
        params: MDParams,
        rng: np.random.Generator,
    ) -> MDResult:
        """Run one MD phase from ``coords`` (shape (2,), radians)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (2,):
            raise ValueError(f"coords must have shape (2,), got {coords.shape}")

        integ = get_integrator(
            params.integrator, self.forcefield, params.integrator_params
        )
        final, samples = integ.run(
            coords[None, :],
            params.n_steps,
            state.temperature,
            rng,
            salt_molar=state.salt_molar,
            restraints=state.restraints,
            sample_stride=params.sample_stride,
        )
        final = final[0]
        traj = (
            samples[:, 0, :] if samples is not None else np.empty((0, 2))
        )

        tors = float(
            self.forcefield.energy(
                final[0], final[1], salt_molar=state.salt_molar
            )
        )
        restr = 0.0
        for r in state.restraints:
            restr += float(r.energy(final[0], final[1]))
        bath = self.bath.sample_energy(state.temperature, rng)

        return MDResult(
            final_coords=final,
            trajectory=traj,
            potential_energy=tors + restr + bath,
            torsional_energy=tors,
            restraint_energy=restr,
            bath_energy=bath,
            temperature=state.temperature,
            n_steps=params.n_steps,
        )

    def run_batch(
        self,
        coords: np.ndarray,
        state: ThermodynamicState,
        params: MDParams,
        rng: np.random.Generator,
    ) -> List[MDResult]:
        """Integrate many walkers *of the same state* in one vectorized pass.

        All walkers share ``state`` and draw from the one ``rng``.  Used
        by analysis/validation code that wants equilibrium samples
        quickly.  REMD replicas each have their own state and random
        stream; :func:`repro.md.batch.run_md_batch` stacks a phase of
        those instead, with each walker's temperature, salt and restraint
        values as per-walker arrays.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"coords must have shape (n, 2), got {coords.shape}")
        integ = get_integrator(
            params.integrator, self.forcefield, params.integrator_params
        )
        final, samples = integ.run(
            coords,
            params.n_steps,
            state.temperature,
            rng,
            salt_molar=state.salt_molar,
            restraints=state.restraints,
            sample_stride=params.sample_stride,
        )
        results = []
        for i in range(final.shape[0]):
            tors = float(
                self.forcefield.energy(
                    final[i, 0], final[i, 1], salt_molar=state.salt_molar
                )
            )
            restr = sum(
                float(r.energy(final[i, 0], final[i, 1]))
                for r in state.restraints
            )
            bath = self.bath.sample_energy(state.temperature, rng)
            traj = (
                samples[:, i, :] if samples is not None else np.empty((0, 2))
            )
            results.append(
                MDResult(
                    final_coords=final[i],
                    trajectory=traj,
                    potential_energy=tors + restr + bath,
                    torsional_energy=tors,
                    restraint_energy=restr,
                    bath_energy=bath,
                    temperature=state.temperature,
                    n_steps=params.n_steps,
                )
            )
        return results

    def single_point_energy(
        self,
        coords: np.ndarray,
        state: ThermodynamicState,
        *,
        include_restraints: bool = True,
    ) -> float:
        """Potential energy of ``coords`` under ``state``'s Hamiltonian.

        Excludes the bath: bath energy is state-parameter independent for
        the exchanged parameters (salt, umbrella) so it cancels from every
        exchange Metropolis ratio it would appear in.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (2,):
            raise ValueError(f"coords must have shape (2,), got {coords.shape}")
        v = float(
            self.forcefield.energy(
                coords[0], coords[1], salt_molar=state.salt_molar
            )
        )
        if include_restraints:
            for r in state.restraints:
                v += float(r.energy(coords[0], coords[1]))
        return v

    def restraint_energy(
        self, coords: np.ndarray, state: ThermodynamicState
    ) -> float:
        """Just the umbrella-restraint part of the energy (for U exchange)."""
        coords = np.asarray(coords, dtype=float)
        return sum(
            float(r.energy(coords[0], coords[1])) for r in state.restraints
        )
