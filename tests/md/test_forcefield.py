"""Tests for the torsional force field and solvent bath."""

import math

import numpy as np
import pytest

from repro.md.forcefield import (
    DEFAULT_WELLS,
    ForceField,
    GaussianWell,
    SolventBath,
    UmbrellaRestraint,
    debye_screening_factor,
    stack_restraints,
    wrap_angle,
)
from repro.utils.units import KB_KCAL_PER_MOL_K


class TestWrapAngle:
    def test_range(self):
        xs = np.linspace(-10, 10, 101)
        w = wrap_angle(xs)
        assert np.all(w >= -math.pi)
        assert np.all(w < math.pi)

    def test_identity_in_range(self):
        assert wrap_angle(1.0) == pytest.approx(1.0)

    def test_periodicity(self):
        assert wrap_angle(1.0 + 2 * math.pi) == pytest.approx(1.0)


class TestGaussianWell:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianWell(center=(0, 0), depth=-1.0, sigma=1.0)
        with pytest.raises(ValueError):
            GaussianWell(center=(0, 0), depth=1.0, sigma=0.0)


class TestRamaSurface:
    def setup_method(self):
        self.ff = ForceField()

    def test_alpha_r_is_global_minimum_region(self):
        """The deepest basin sits at the alpha-R well center."""
        e_alpha = self.ff.rama_energy(np.radians(-63), np.radians(-42))
        grid = np.radians(np.linspace(-180, 175, 72))
        phi, psi = np.meshgrid(grid, grid, indexing="ij")
        e_min = self.ff.rama_energy(phi, psi).min()
        assert e_alpha == pytest.approx(e_min, abs=0.3)

    def test_energy_range_matches_fig4_scale(self):
        """Surface spans roughly 0-16 kcal/mol like the paper's contours."""
        grid = np.radians(np.linspace(-180, 175, 72))
        phi, psi = np.meshgrid(grid, grid, indexing="ij")
        e = self.ff.rama_energy(phi, psi)
        assert e.max() <= 16.0 + 1e-9
        assert e.max() - e.min() > 6.0

    def test_periodic_energy(self):
        e1 = self.ff.rama_energy(0.3, -0.7)
        e2 = self.ff.rama_energy(0.3 + 2 * math.pi, -0.7 - 2 * math.pi)
        assert float(e1) == pytest.approx(float(e2))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(20):
            phi, psi = rng.uniform(-math.pi, math.pi, 2)
            gphi, gpsi = self.ff.rama_gradient(phi, psi)
            num_phi = (
                self.ff.rama_energy(phi + h, psi)
                - self.ff.rama_energy(phi - h, psi)
            ) / (2 * h)
            num_psi = (
                self.ff.rama_energy(phi, psi + h)
                - self.ff.rama_energy(phi, psi - h)
            ) / (2 * h)
            assert float(gphi) == pytest.approx(float(num_phi), abs=1e-4)
            assert float(gpsi) == pytest.approx(float(num_psi), abs=1e-4)

    def test_vectorized_matches_scalar(self):
        phis = np.array([0.1, -1.2, 2.2])
        psis = np.array([0.5, 0.0, -2.0])
        vec = self.ff.rama_energy(phis, psis)
        for k in range(3):
            assert vec[k] == pytest.approx(
                float(self.ff.rama_energy(phis[k], psis[k]))
            )


class TestElectrostatics:
    def test_screening_factor_limits(self):
        assert debye_screening_factor(0.0) == 1.0
        assert debye_screening_factor(5.0) < debye_screening_factor(0.1)

    def test_screening_rejects_negative(self):
        with pytest.raises(ValueError):
            debye_screening_factor(-0.1)

    def test_salt_weakens_elec_term(self):
        ff = ForceField()
        # pick a point where the elec term is attractive
        phi, psi = 0.4, -0.4
        e0 = float(ff.energy(phi, psi, salt_molar=0.0))
        e_hi = float(ff.energy(phi, psi, salt_molar=2.0))
        assert abs(e_hi - float(ff.rama_energy(phi, psi))) < abs(
            e0 - float(ff.rama_energy(phi, psi))
        )

    def test_full_gradient_matches_fd_with_salt_and_restraints(self):
        ff = ForceField()
        restraints = (
            UmbrellaRestraint("phi", 60.0, 0.01),
            UmbrellaRestraint("psi", -120.0, 0.005),
        )
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(10):
            phi, psi = rng.uniform(-3, 3, 2)
            gphi, gpsi = ff.gradient(
                phi, psi, salt_molar=0.5, restraints=restraints
            )

            def e(p, s):
                return float(
                    ff.energy(p, s, salt_molar=0.5, restraints=restraints)
                )

            assert float(gphi) == pytest.approx(
                (e(phi + h, psi) - e(phi - h, psi)) / (2 * h), abs=1e-3
            )
            assert float(gpsi) == pytest.approx(
                (e(phi, psi + h) - e(phi, psi - h)) / (2 * h), abs=1e-3
            )


class TestUmbrellaRestraint:
    def test_zero_at_center(self):
        r = UmbrellaRestraint("phi", 45.0, 0.02)
        assert float(r.energy(np.radians(45.0), 0.0)) == pytest.approx(0.0)

    def test_quadratic_growth(self):
        r = UmbrellaRestraint("phi", 0.0, 0.02)
        e10 = float(r.energy(np.radians(10.0), 0.0))
        e20 = float(r.energy(np.radians(20.0), 0.0))
        assert e10 == pytest.approx(0.02 * 100.0)
        assert e20 == pytest.approx(4 * e10)

    def test_periodic_distance(self):
        r = UmbrellaRestraint("phi", 350.0, 0.02)
        # 10 degrees away through the wrap
        e = float(r.energy(np.radians(0.0), 0.0))
        assert e == pytest.approx(0.02 * 100.0)

    def test_psi_restraint_ignores_phi(self):
        r = UmbrellaRestraint("psi", 0.0, 0.02)
        e1 = float(r.energy(np.radians(100.0), np.radians(30.0)))
        e2 = float(r.energy(np.radians(-100.0), np.radians(30.0)))
        assert e1 == pytest.approx(e2)

    def test_validation(self):
        with pytest.raises(ValueError):
            UmbrellaRestraint("chi", 0.0, 0.02)
        with pytest.raises(ValueError):
            UmbrellaRestraint("phi", 0.0, -0.1)


class TestStackedGradient:
    def test_matches_scalar_gradient_bit_for_bit(self):
        """One walker per (salt, restraints) pair, evaluated together,
        equals each walker's own ``gradient`` exactly."""
        ff = ForceField()
        rng = np.random.default_rng(3)
        n = 64
        phi = rng.uniform(-math.pi, math.pi, n)
        psi = rng.uniform(-math.pi, math.pi, n)
        salts = rng.uniform(0.0, 2.0, n)
        sets = [
            (
                UmbrellaRestraint("psi", float(c), float(k)),
                UmbrellaRestraint("phi", float(-c), float(2.0 * k)),
            )
            for c, k in zip(rng.uniform(-180, 180, n), rng.uniform(0, 5, n))
        ]
        screening = np.array(
            [debye_screening_factor(c, ff.elec_r0) for c in salts]
        )
        gphi, gpsi = ff.stacked_gradient(
            phi, psi, screening, stack_restraints(sets)
        )
        for i in range(n):
            rphi, rpsi = ff.gradient(
                phi[i : i + 1],
                psi[i : i + 1],
                salt_molar=float(salts[i]),
                restraints=sets[i],
            )
            assert (gphi[i], gpsi[i]) == (rphi[0], rpsi[0])
        assert ff.screened_energy(phi, psi, screening).tolist() == [
            float(ff.energy(phi[i], psi[i], salt_molar=float(salts[i])))
            for i in range(n)
        ]


class TestSolventBath:
    def test_statistics_match_gamma(self):
        bath = SolventBath(4800)
        rng = np.random.default_rng(0)
        t = 300.0
        samples = np.array(
            [bath.sample_energy(t, rng) for _ in range(3000)]
        )
        assert samples.mean() == pytest.approx(
            bath.mean_energy(t), rel=0.01
        )
        assert samples.std() == pytest.approx(bath.std_energy(t), rel=0.05)

    def test_mean_scales_with_temperature(self):
        bath = SolventBath(1000)
        assert bath.mean_energy(373.0) > bath.mean_energy(273.0)

    def test_empty_bath_is_zero(self):
        bath = SolventBath(0)
        rng = np.random.default_rng(0)
        assert bath.sample_energy(300.0, rng) == 0.0

    def test_mean_energy_equipartition(self):
        bath = SolventBath(2000)
        # (n/2) kB T
        assert bath.mean_energy(300.0) == pytest.approx(
            1000 * KB_KCAL_PER_MOL_K * 300.0
        )

    def test_rejects_negative_dof(self):
        with pytest.raises(ValueError):
            SolventBath(-1)
