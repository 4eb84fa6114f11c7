"""Force field for the toy alanine-dipeptide engine.

The potential over the backbone torsions x = (phi, psi), both in radians,
has three physical parts plus a statistical solvent bath:

``V(x; c) = V_rama(x) + s(c) * V_elec(x) + V_umbrella(x)``

* ``V_rama`` — a Ramachandran-like surface built from Gaussian wells on the
  torus, with basins at the alpha-R, beta/PPII and alpha-L regions.  Energy
  range ~0-16 kcal/mol, matching the contour range of the paper's Fig. 4.
* ``V_elec`` — an intramolecular electrostatic term screened by dissolved
  salt through a Debye-Hueckel factor ``s(c) = exp(-kappa(c) * r0)``; this
  is the term the S-REMD dimension exchanges.
* ``V_umbrella`` — harmonic restraints on phi and/or psi in *degrees*
  (force constant 0.02 kcal/mol/deg^2 in the paper's validation run).
* :class:`SolventBath` — the solvent contributes an equilibrated
  potential-energy sample from the exact Gamma distribution of ``n``
  quadratic DOF.  Resampling it each cycle is a valid Gibbs move on the
  joint (torsion, bath) space, so REMD sampling of the torsions remains
  exact while acceptance ratios acquire the realistic magnitude set by
  sigma_U = kT sqrt(n/2).

All functions are vectorized over a trailing sample axis where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.units import KB_KCAL_PER_MOL_K

TWO_PI = 2.0 * math.pi


def wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap radians into [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class GaussianWell:
    """One attractive Gaussian basin on the (phi, psi) torus.

    ``center`` in radians; ``depth`` kcal/mol (positive = attractive);
    ``sigma`` radians.
    """

    center: Tuple[float, float]
    depth: float
    sigma: float

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError(f"depth must be > 0, got {self.depth}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


def _deg(x: float) -> float:
    return x * math.pi / 180.0


#: Default Ramachandran basins: (phi, psi) centers in degrees -> radians.
DEFAULT_WELLS: Tuple[GaussianWell, ...] = (
    # alpha-R helix basin: deepest
    GaussianWell(center=(_deg(-63.0), _deg(-42.0)), depth=8.0, sigma=_deg(35.0)),
    # beta / PPII basin: broad, slightly shallower
    GaussianWell(center=(_deg(-120.0), _deg(135.0)), depth=7.2, sigma=_deg(45.0)),
    # alpha-L basin: high-energy minority state
    GaussianWell(center=(_deg(57.0), _deg(47.0)), depth=4.2, sigma=_deg(28.0)),
)

#: Baseline so the surface spans ~[0, 16] kcal/mol like the paper's Fig. 4.
DEFAULT_OFFSET: float = 16.0


@dataclass(frozen=True)
class UmbrellaRestraint:
    """Harmonic restraint on one torsion angle, in degrees.

    ``V = k * d(theta, center)^2`` with d the wrapped angular difference in
    degrees and ``k`` in kcal/mol/deg^2 (Amber's rk2 convention, matching
    the paper's 0.02 kcal mol^-1 degree^-2).
    """

    angle: str  # "phi" or "psi"
    center_deg: float
    k: float = 0.02

    def __post_init__(self):
        if self.angle not in ("phi", "psi"):
            raise ValueError(f"angle must be 'phi' or 'psi', got {self.angle!r}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    def energy(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Restraint energy in kcal/mol (vectorized)."""
        theta = phi if self.angle == "phi" else psi
        d_deg = np.degrees(wrap_angle(theta - _deg(self.center_deg)))
        return self.k * d_deg**2

    def gradient_params(self) -> Tuple[float, float]:
        """``(center in radians, 2 k)``: what :func:`restraint_gradient`
        takes for this restraint."""
        return _deg(self.center_deg), 2.0 * self.k

    def gradient(
        self, phi: np.ndarray, psi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(dV/dphi, dV/dpsi) in kcal/mol/radian (vectorized)."""
        theta = phi if self.angle == "phi" else psi
        g = restraint_gradient(theta, *self.gradient_params())
        zero = np.zeros_like(g)
        return (g, zero) if self.angle == "phi" else (zero, g)


def restraint_gradient(theta, center_rad, two_k) -> np.ndarray:
    """dV/dtheta in kcal/mol/radian of one umbrella restraint.

    ``center_rad`` and ``two_k`` come from
    :meth:`UmbrellaRestraint.gradient_params`, as scalars for one
    restraint or as arrays with one entry per walker; either way every
    element sees the same doubles in the same order.
    """
    d_deg = np.degrees(wrap_angle(theta - center_rad))
    # dV/dtheta[rad] = 2 k d_deg * (180/pi)
    return two_k * d_deg * (180.0 / math.pi)


def stack_restraints(
    restraint_sets: Sequence[Sequence[UmbrellaRestraint]],
) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """Per-walker restraints as slots for :meth:`ForceField.stacked_gradient`.

    Every set must restrain the same angles in the same order; slot ``j``
    is ``(angle, centers in radians, 2 k)`` with one entry per walker.
    """
    angles = tuple(r.angle for r in restraint_sets[0])
    slots = []
    for j, angle in enumerate(angles):
        params = [rs[j].gradient_params() for rs in restraint_sets]
        slots.append(
            (
                angle,
                np.array([c for c, _ in params], dtype=float),
                np.array([k2 for _, k2 in params], dtype=float),
            )
        )
    return slots


def debye_screening_factor(salt_molar: float, r0_angstrom: float = 4.0) -> float:
    """Debye-Hueckel screening ``exp(-kappa r0)`` for an ionic strength in M.

    ``kappa = 0.329 sqrt(I) 1/Angstrom`` (water, 298 K).  Zero salt means no
    screening (factor 1).
    """
    if salt_molar < 0:
        raise ValueError(f"salt_molar must be >= 0, got {salt_molar}")
    kappa = 0.329 * math.sqrt(salt_molar)
    return math.exp(-kappa * r0_angstrom)


@dataclass(frozen=True)
class ForceField:
    """The torsional force field: Ramachandran wells + screened electrostatics."""

    wells: Tuple[GaussianWell, ...] = DEFAULT_WELLS
    offset: float = DEFAULT_OFFSET
    #: amplitude of the intramolecular electrostatic term, kcal/mol
    elec_amplitude: float = 2.5
    #: effective charge separation for Debye screening, Angstrom
    elec_r0: float = 4.0

    # -- Ramachandran part ---------------------------------------------------

    def _well_arrays(self) -> Tuple[np.ndarray, ...]:
        """Stacked per-well parameters (centers, depths, 1/width terms).

        The scalar terms are computed with exactly the Python arithmetic
        the per-well loop used (``2.0 * w.sigma**2`` etc.), so evaluating
        all wells as one trailing array axis changes the number of ufunc
        dispatches but not a single bit of any element.  Cached on the
        (frozen) instance; the wells tuple is immutable.
        """
        cached = getattr(self, "_well_cache", None)
        if cached is None:
            cached = (
                np.array([w.center[0] for w in self.wells], dtype=float),
                np.array([w.center[1] for w in self.wells], dtype=float),
                np.array([w.depth for w in self.wells], dtype=float),
                np.array([2.0 * w.sigma**2 for w in self.wells], dtype=float),
                np.array([w.sigma**2 for w in self.wells], dtype=float),
            )
            object.__setattr__(self, "_well_cache", cached)
        return cached

    def rama_energy(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Torsional surface energy in kcal/mol (vectorized)."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        c_phi, c_psi, depth, two_sig2, _ = self._well_arrays()
        # One stacked evaluation over a trailing well axis; the well terms
        # are then subtracted in declaration order, mirroring the original
        # per-well accumulation exactly.
        dphi = wrap_angle(phi[..., None] - c_phi)
        dpsi = wrap_angle(psi[..., None] - c_psi)
        terms = depth * np.exp(-(dphi**2 + dpsi**2) / two_sig2)
        v = np.full(np.broadcast(phi, psi).shape, self.offset, dtype=float)
        for k in range(len(self.wells)):
            v = v - terms[..., k]
        return v

    def rama_gradient(
        self, phi: np.ndarray, psi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(dV/dphi, dV/dpsi) of the Ramachandran part (vectorized)."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        c_phi, c_psi, depth, two_sig2, sig2 = self._well_arrays()
        dphi = wrap_angle(phi[..., None] - c_phi)
        dpsi = wrap_angle(psi[..., None] - c_psi)
        e = depth * np.exp(-(dphi**2 + dpsi**2) / two_sig2)
        t_phi = e * dphi / sig2
        t_psi = e * dpsi / sig2
        shape = np.broadcast(phi, psi).shape
        gphi = np.zeros(shape, dtype=float)
        gpsi = np.zeros(shape, dtype=float)
        for k in range(len(self.wells)):
            gphi = gphi + t_phi[..., k]
            gpsi = gpsi + t_psi[..., k]
        return gphi, gpsi

    # -- electrostatic part ----------------------------------------------------

    def elec_energy(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Unscreened electrostatic term in kcal/mol (vectorized).

        Modeled as a dipole-dipole interaction that stabilizes the compact
        (helical) region: ``-A cos(phi + psi)`` is most negative when
        phi + psi ~ 0 (alpha region with our basin choice is ~ -105 deg,
        partially stabilized; extended beta ~ +15 deg...).  The exact shape
        only matters in that it makes salt exchange a genuine Hamiltonian
        exchange with non-trivial acceptance.
        """
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        return -self.elec_amplitude * np.cos(phi + psi)

    def elec_gradient(
        self, phi: np.ndarray, psi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(d/dphi, d/dpsi) of the unscreened electrostatic term."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        g = self.elec_amplitude * np.sin(phi + psi)
        return g, g

    # -- assembled potential -----------------------------------------------------

    def energy(
        self,
        phi: np.ndarray,
        psi: np.ndarray,
        *,
        salt_molar: float = 0.0,
        restraints: Sequence[UmbrellaRestraint] = (),
    ) -> np.ndarray:
        """Full potential energy (kcal/mol) at the given thermodynamic state."""
        s = debye_screening_factor(salt_molar, self.elec_r0)
        v = self.screened_energy(phi, psi, s)
        for r in restraints:
            v = v + r.energy(phi, psi)
        return v

    def screened_energy(self, phi, psi, screening) -> np.ndarray:
        """Restraint-free energy at Debye factor ``screening``: a scalar,
        or an array with one factor per walker."""
        return self.rama_energy(phi, psi) + screening * self.elec_energy(phi, psi)

    def gradient(
        self,
        phi: np.ndarray,
        psi: np.ndarray,
        *,
        salt_molar: float = 0.0,
        restraints: Sequence[UmbrellaRestraint] = (),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient of :meth:`energy` wrt (phi, psi) in kcal/mol/rad."""
        s = debye_screening_factor(salt_molar, self.elec_r0)
        gphi, gpsi = self.screened_gradient(phi, psi, s)
        for r in restraints:
            rphi, rpsi = r.gradient(phi, psi)
            gphi = gphi + rphi
            gpsi = gpsi + rpsi
        return gphi, gpsi

    def screened_gradient(
        self, phi, psi, screening
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient of :meth:`screened_energy`."""
        gphi, gpsi = self.rama_gradient(phi, psi)
        ephi, epsi = self.elec_gradient(phi, psi)
        return gphi + screening * ephi, gpsi + screening * epsi

    def stacked_gradient(
        self,
        phi: np.ndarray,
        psi: np.ndarray,
        screening: np.ndarray,
        slots: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`gradient` for walkers that each carry their own Hamiltonian.

        ``screening`` holds one Debye factor per walker and ``slots`` the
        restraints from :func:`stack_restraints`.  Element ``i`` equals
        ``gradient`` at walker ``i``'s salt and restraints bit for bit: the
        same ufuncs meet the same doubles in the same order.  The ``+ 0``
        that :meth:`UmbrellaRestraint.gradient` adds to the other angle is
        left out; it cannot change a bit here, because a sum is ``-0.0``
        only when both terms are, and ``rama_gradient`` starts from ``+0.0``.
        """
        gphi, gpsi = self.screened_gradient(phi, psi, screening)
        for angle, center_rad, two_k in slots:
            if angle == "phi":
                gphi = gphi + restraint_gradient(phi, center_rad, two_k)
            else:
                gpsi = gpsi + restraint_gradient(psi, center_rad, two_k)
        return gphi, gpsi


class SolventBath:
    """Equilibrated harmonic solvent bath.

    The potential energy of ``n`` quadratic degrees of freedom in canonical
    equilibrium at temperature T is Gamma-distributed with shape ``n/2`` and
    scale ``kB T``:  mean ``(n/2) kB T``, std ``sqrt(n/2) kB T``.  Sampling
    it fresh each MD phase is a Gibbs move from the exact conditional
    distribution, so adding the sample to the reported potential energy
    leaves REMD sampling of the torsions unbiased (DESIGN.md, section 2).
    """

    def __init__(self, n_dof: int):
        if n_dof < 0:
            raise ValueError(f"n_dof must be >= 0, got {n_dof}")
        self.n_dof = n_dof

    def sample_energy(self, temperature: float, rng: np.random.Generator) -> float:
        """Draw one equilibrium bath potential energy (kcal/mol)."""
        if self.n_dof == 0:
            return 0.0
        kt = KB_KCAL_PER_MOL_K * temperature
        return float(rng.gamma(shape=self.n_dof / 2.0, scale=kt))

    def mean_energy(self, temperature: float) -> float:
        """Expected bath potential energy (kcal/mol)."""
        return 0.5 * self.n_dof * KB_KCAL_PER_MOL_K * temperature

    def std_energy(self, temperature: float) -> float:
        """Standard deviation of the bath potential energy (kcal/mol)."""
        return math.sqrt(self.n_dof / 2.0) * KB_KCAL_PER_MOL_K * temperature
