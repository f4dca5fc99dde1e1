"""Photon-environment and K-matrix tests.

The closed-form targets (2/3 vacuum diagonal, 2N/3 isotropic, the
cos^2-theta diagonal 4/15, 2/15, 4/15) were cross-checked once against a
dense midpoint Riemann evaluation (2000 x 2000 nodes) of the defining
integrals before being frozen here; the acceptance suite repeats that
comparison with an in-test oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

from vrelax.environment import (
    AngularDistribution,
    KMatrix,
    ModeDensityModifier,
    k_spontaneous,
    k_stimulated,
    quadrature_selfcheck,
)
from vrelax.errors import (
    AngularDomainError,
    DistributionDomainError,
    QuadratureOrderError,
)


class TestModeDensityModifier:
    def test_vacuum_identity(self):
        vac = ModeDensityModifier.vacuum()
        for omega in (0.5, 1.0, 100.0):
            for sigma in (-1, 0, 1):
                assert vac.relative_density(omega, sigma) == 1.0

    def test_cavity_channel_scalings(self):
        cav = ModeDensityModifier.planar_cavity(0.5)
        assert cav.relative_density(1.0, 1) == pytest.approx(1.0 / 3.0)
        assert cav.relative_density(1.0, -1) == pytest.approx(1.0 / 3.0)
        assert cav.relative_density(1.0, 0) == pytest.approx(3.0)

    def test_cavity_r_zero_is_vacuum(self):
        cav = ModeDensityModifier.planar_cavity(0.0)
        for sigma in (-1, 0, 1):
            assert cav.relative_density(2.0, sigma) == 1.0

    def test_cavity_rejects_r_at_one(self):
        with pytest.raises(DistributionDomainError):
            ModeDensityModifier.planar_cavity(1.0)

    def test_photonic_crystal_edge_behavior(self):
        pc = ModeDensityModifier.photonic_crystal(
            omega_edge=1.0, curvature=1.0, gapped_channels=[0]
        )
        assert pc.relative_density(0.9, 0) == 0.0
        assert pc.relative_density(1.0, 0) == 0.0  # exactly at the edge
        assert pc.relative_density(1.25, 0) == pytest.approx(0.5)
        # ungapped channels untouched on both sides of the edge
        assert pc.relative_density(0.9, 1) == 1.0
        assert pc.relative_density(1.25, -1) == 1.0

    def test_photonic_crystal_validation(self):
        with pytest.raises(DistributionDomainError):
            ModeDensityModifier.photonic_crystal(1.0, 1.0, [])
        with pytest.raises(DistributionDomainError):
            ModeDensityModifier.photonic_crystal(1.0, 1.0, [2])
        with pytest.raises(DistributionDomainError):
            ModeDensityModifier.photonic_crystal(-1.0, 1.0, [0])

    @pytest.mark.parametrize("curvature", [1e103, 1.7e308, 1e-110, 5e-324])
    def test_photonic_curvature_whose_cube_leaves_the_floats_is_refused(self, curvature):
        # the onset divides by curvature**3, which overflows (OverflowError in
        # Python floats) or underflows to 0.0 (ZeroDivisionError) at these values
        with pytest.raises(DistributionDomainError, match="curvature cubed"):
            ModeDensityModifier.photonic_crystal(1.0, curvature, [0])

    @pytest.mark.parametrize("curvature", [1e102, 1e-102])
    def test_photonic_curvature_whose_cube_stays_in_the_floats_is_kept(self, curvature):
        pc = ModeDensityModifier.photonic_crystal(1.0, curvature, [0])
        assert pc.relative_density(1.25, 0) == math.sqrt(0.25 / curvature**3)

    def test_unknown_kind_is_refused_by_the_constructor(self):
        # it was taken for a photonic crystal with no gapped channels: 1.0 everywhere
        with pytest.raises(DistributionDomainError, match="unknown mode-density kind 'bogus'"):
            ModeDensityModifier(kind="bogus").relative_density(1.0, 0)

    def test_constructor_runs_the_checks_of_the_classmethods(self):
        # curvature**3 overflowed in relative_density, a bare OverflowError
        with pytest.raises(DistributionDomainError, match="curvature cubed"):
            ModeDensityModifier(
                kind="photonic-crystal", omega_edge=1.0, curvature=1e103, gapped_channels={0}
            )
        with pytest.raises(DistributionDomainError, match="at least one gapped channel"):
            ModeDensityModifier(kind="photonic-crystal", omega_edge=1.0)
        with pytest.raises(DistributionDomainError, match=r"0 <= \|r\| < 1, got 1.5"):
            ModeDensityModifier(kind="planar-cavity", reflectivity=1.5)
        built = ModeDensityModifier(
            kind="photonic-crystal", omega_edge=1, curvature=2, gapped_channels=[1, 0]
        )
        assert built == ModeDensityModifier.photonic_crystal(1.0, 2.0, {0, 1})
        assert isinstance(built.curvature, float) and built.gapped_channels == frozenset({0, 1})


class TestKSpontaneous:
    def test_vacuum_diagonal(self):
        k = k_spontaneous(ModeDensityModifier.vacuum(), 1.0)
        assert np.allclose(k.entries, (2.0 / 3.0) * np.eye(3), atol=0)
        assert k.evaluated_at == 1.0
        assert k.provenance == "closed-form"

    def test_cavity_half_reflectivity(self):
        k = k_spontaneous(ModeDensityModifier.planar_cavity(0.5), 1.0)
        assert k.entry(1, 1) == pytest.approx((2.0 / 3.0) / 3.0)
        assert k.entry(-1, -1) == pytest.approx((2.0 / 3.0) / 3.0)
        assert k.entry(0, 0) == pytest.approx(2.0)
        assert k.entry(1, 0) == 0.0

    def test_cavity_monotonicity(self):
        rs = np.linspace(0.0, 0.99, 23)
        k00 = [k_spontaneous(ModeDensityModifier.planar_cavity(r), 1.0).entry(0, 0).real
               for r in rs]
        k11 = [k_spontaneous(ModeDensityModifier.planar_cavity(r), 1.0).entry(1, 1).real
               for r in rs]
        assert all(b > a for a, b in zip(k00, k00[1:]))
        assert all(b < a for a, b in zip(k11, k11[1:]))

    def test_photonic_gapped_channel_zeroed(self):
        pc = ModeDensityModifier.photonic_crystal(1.005, 1.0, [0])
        below = k_spontaneous(pc, 1.0)
        assert below.entry(0, 0) == 0.0
        assert below.entry(1, 1) == pytest.approx(2.0 / 3.0)
        above = k_spontaneous(pc, 1.01)
        assert above.entry(0, 0).real == pytest.approx(
            (2.0 / 3.0) * math.sqrt(0.005), rel=1e-12
        )

    def test_rejects_bad_frequency(self):
        with pytest.raises(DistributionDomainError):
            k_spontaneous(ModeDensityModifier.vacuum(), 0.0)
        with pytest.raises(DistributionDomainError):
            k_spontaneous(ModeDensityModifier.vacuum(), float("nan"))


class TestKStimulated:
    def test_isotropic_closed_form(self):
        for n in (1.0, 3.7):
            k = k_stimulated(
                AngularDistribution.isotropic(n), ModeDensityModifier.vacuum(), 1.0
            )
            assert np.max(np.abs(k.entries - (2.0 * n / 3.0) * np.eye(3))) < 1e-12
            assert k.provenance == "quadrature"

    def test_cos2_closed_form(self):
        k = k_stimulated(
            AngularDistribution.axisymmetric_cos2(1.0),
            ModeDensityModifier.vacuum(),
            1.0,
        )
        target = np.diag([4.0 / 15.0, 2.0 / 15.0, 4.0 / 15.0])
        assert np.max(np.abs(k.entries - target)) < 1e-12

    def test_scaling_linearity_exact(self):
        base = AngularDistribution.axisymmetric_cos2(1.0)
        k_base = k_stimulated(base, ModeDensityModifier.vacuum(), 1.0)
        for c in (0.0, 1.0, 2.5):
            k_scaled = k_stimulated(base.scaled(c), ModeDensityModifier.vacuum(), 1.0)
            assert np.array_equal(k_scaled.entries, c * k_base.entries)

    def test_cavity_modifier_composition(self):
        # diagonal channels pick up the plain relative-density factor
        r = 0.6
        k = k_stimulated(
            AngularDistribution.isotropic(1.0),
            ModeDensityModifier.planar_cavity(r),
            1.0,
        )
        base = 2.0 / 3.0
        assert k.entry(0, 0).real == pytest.approx(base * (1 + r) / (1 - r), rel=1e-12)
        assert k.entry(1, 1).real == pytest.approx(base * (1 - r) / (1 + r), rel=1e-12)

    def test_random_tabulated_hermitian_and_nonneg(self):
        rng = np.random.default_rng(42)
        theta = np.linspace(0.0, math.pi, 7)
        phi = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)
        for _ in range(100):
            dist = AngularDistribution.from_table(
                theta, phi, rng.uniform(0, 2, (7, 9)), rng.uniform(0, 2, (7, 9))
            )
            k = k_stimulated(dist, ModeDensityModifier.vacuum(), 1.0, quad_order=8)
            k.validate()
            # overlap matrices are Gram-like: positive semidefinite as well
            assert np.linalg.eigvalsh(k.entries).min() > -1e-12

    def test_axisymmetric_offdiagonals_vanish(self):
        rng = np.random.default_rng(9)
        theta = np.linspace(0.0, math.pi, 11)
        phi = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        for _ in range(10):
            column = rng.uniform(0, 3, (11, 1))
            table = np.repeat(column, 8, axis=1)
            dist = AngularDistribution.from_table(theta, phi, table, table)
            k = k_stimulated(dist, ModeDensityModifier.vacuum(), 1.0)
            off = k.entries - np.diag(k.entries.diagonal())
            assert np.max(np.abs(off)) < 1e-10

    def test_order_precondition(self):
        with pytest.raises(QuadratureOrderError):
            k_stimulated(
                AngularDistribution.isotropic(1.0),
                ModeDensityModifier.vacuum(),
                1.0,
                quad_order=3,
            )

    def test_negative_sample_guard_names_point(self):
        good = AngularDistribution.from_table(
            np.linspace(0.0, math.pi, 5),
            np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False),
            np.ones((5, 4)),
            np.ones((5, 4)),
        )
        doctored_table = good.table.copy()
        doctored_table[1, 2, 1] = -0.25
        doctored = dataclasses.replace(good, table=doctored_table)
        with pytest.raises(DistributionDomainError, match="lambda"):
            k_stimulated(doctored, ModeDensityModifier.vacuum(), 1.0)


class TestAngularDistribution:
    def test_unknown_kind_is_refused_by_the_constructor(self):
        # shape() fell through to the table interpolation: a TypeError on table=None
        with pytest.raises(DistributionDomainError, match="unknown angular distribution kind"):
            AngularDistribution(kind="bogus").shape(0.3, 1.1, 1)

    def test_isotropic_constant(self):
        dist = AngularDistribution.isotropic(2.5)
        assert dist.evaluate(0.3, 1.1, 1) == pytest.approx(2.5)
        assert dist.evaluate(2.9, 0.0, -1) == pytest.approx(2.5)

    def test_cos2_profile(self):
        dist = AngularDistribution.axisymmetric_cos2(2.0)
        assert dist.evaluate(0.0, 0.0, 1) == pytest.approx(2.0)
        assert dist.evaluate(math.pi / 2, 1.0, -1) == pytest.approx(0.0, abs=1e-30)
        assert dist.evaluate(math.pi / 3, 4.0, 1) == pytest.approx(0.5)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(DistributionDomainError):
            AngularDistribution.isotropic(-1.0)
        with pytest.raises(DistributionDomainError):
            AngularDistribution.axisymmetric_cos2(float("inf"))

    def test_helicity_validation(self):
        dist = AngularDistribution.isotropic(1.0)
        with pytest.raises(DistributionDomainError):
            dist.evaluate(0.1, 0.1, 0)
        with pytest.raises(AngularDomainError):
            dist.evaluate(0.1, 0.1, 2)

    def test_bilinear_reproduces_linear_functions(self):
        theta = np.linspace(0.0, math.pi, 6)
        phi = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        tab = 1.0 + 0.5 * theta[:, None] + 0.0 * phi[None, :]
        dist = AngularDistribution.from_table(theta, phi, tab, tab)
        rng = np.random.default_rng(1)
        for _ in range(20):
            th = float(rng.uniform(0, math.pi))
            ph = float(rng.uniform(0, 2 * math.pi))
            assert dist.evaluate(th, ph, 1) == pytest.approx(1.0 + 0.5 * th, rel=1e-12)

    def test_phi_wraparound(self):
        theta = np.array([0.0, math.pi])
        phi = np.array([0.0, math.pi])  # two nodes; wrap spans (pi, 2pi)
        table = np.array([[1.0, 3.0], [1.0, 3.0]])
        dist = AngularDistribution.from_table(theta, phi, table, table)
        # halfway through the wrapped interval: phi = 3pi/2 between 3.0 and 1.0
        assert dist.evaluate(1.0, 1.5 * math.pi, 1) == pytest.approx(2.0)

    def test_grid_validation(self):
        theta = np.linspace(0.0, math.pi, 4)
        phi = np.linspace(0.0, 2 * math.pi, 4, endpoint=False)
        with pytest.raises(DistributionDomainError, match="span"):
            AngularDistribution.from_table(
                theta[:-1], phi, np.ones((3, 4)), np.ones((3, 4))
            )
        with pytest.raises(DistributionDomainError, match="negative"):
            AngularDistribution.from_table(
                theta, phi, -np.ones((4, 4)), np.ones((4, 4))
            )
        with pytest.raises(DistributionDomainError, match="finite"):
            AngularDistribution.from_table(
                theta, phi, np.full((4, 4), np.nan), np.ones((4, 4))
            )


class TestDistributionCsv:
    @staticmethod
    def write_csv(path, rows, header="theta_rad,phi_rad,lambda,n_mean"):
        lines = [header] + [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def full_grid_rows(value=1.0):
        rows = []
        for lam in (-1, 1):
            for th in (0.0, 1.5707963267948966, 3.141592653589793):
                for ph in (0.0, 3.141592653589793):
                    rows.append((th, ph, lam, value))
        return rows

    def test_round_trip(self, tmp_path):
        path = tmp_path / "dist.csv"
        self.write_csv(path, self.full_grid_rows(0.75))
        dist = AngularDistribution.from_csv(str(path))
        assert dist.kind == "custom-tabulated"
        assert dist.evaluate(0.4, 0.2, 1) == pytest.approx(0.75)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        self.write_csv(path, self.full_grid_rows()[:-1])
        with pytest.raises(DistributionDomainError, match="incomplete"):
            AngularDistribution.from_csv(str(path))

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        rows = self.full_grid_rows()
        rows[3] = (rows[3][0], rows[3][1], rows[3][2], -2.0)
        self.write_csv(path, rows)
        with pytest.raises(DistributionDomainError, match="negative"):
            AngularDistribution.from_csv(str(path))

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        rows = self.full_grid_rows()
        rows[0] = (rows[0][0], rows[0][1], rows[0][2], float("nan"))
        self.write_csv(path, rows)
        with pytest.raises(DistributionDomainError, match="non-finite"):
            AngularDistribution.from_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        self.write_csv(path, self.full_grid_rows(), header="theta,phi,lambda,n")
        with pytest.raises(DistributionDomainError, match="columns"):
            AngularDistribution.from_csv(str(path))

    def test_bad_helicity_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        rows = self.full_grid_rows()
        rows[0] = (rows[0][0], rows[0][1], 0, rows[0][3])
        self.write_csv(path, rows)
        with pytest.raises(DistributionDomainError, match="helicity"):
            AngularDistribution.from_csv(str(path))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        rows = self.full_grid_rows()
        rows.append(rows[0])
        self.write_csv(path, rows)
        with pytest.raises(DistributionDomainError, match="duplicate"):
            AngularDistribution.from_csv(str(path))

    def test_missing_file_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DistributionDomainError, match="cannot read") as exc_info:
            AngularDistribution.from_csv(str(path))
        assert str(path) in str(exc_info.value)


class TestKMatrix:
    def test_from_diagonal_order(self):
        k = KMatrix.from_diagonal([0.1, 0.2, 0.3])
        assert k.entry(-1, -1) == pytest.approx(0.1)
        assert k.entry(0, 0) == pytest.approx(0.2)
        assert k.entry(1, 1) == pytest.approx(0.3)
        assert k.provenance == "injected"
        assert k.evaluated_at is None

    def test_from_diagonal_rejects_negative(self):
        with pytest.raises(DistributionDomainError):
            KMatrix.from_diagonal([0.1, -0.2, 0.3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(DistributionDomainError, match="finite"):
            KMatrix.from_diagonal([0.1, bad, 0.3])
        entries = np.eye(3, dtype=complex)
        entries[0, 2] = complex(0.0, bad)
        with pytest.raises(DistributionDomainError, match="finite"):
            KMatrix(entries)

    def test_validate_catches_nonhermitian(self):
        bad = KMatrix(np.array([[1, 1j, 0], [1j, 1, 0], [0, 0, 1]], dtype=complex))
        with pytest.raises(DistributionDomainError):
            bad.validate()

    def test_entry_sigma_validation(self):
        k = KMatrix.from_diagonal([1, 1, 1])
        with pytest.raises(AngularDomainError):
            k.entry(2, 0)


class TestSelfCheck:
    def test_passes_at_reasonable_orders(self):
        for order in (4, 8, 16):
            report = quadrature_selfcheck(order)
            assert report.passed, [
                (e.name, e.deviation) for e in report.entries if not e.passed
            ]

    def test_rejects_low_order(self):
        with pytest.raises(QuadratureOrderError):
            quadrature_selfcheck(3)

    def test_forced_low_order_fails_cos2_only(self):
        report = quadrature_selfcheck(2, force=True)
        by_name = {e.name: e for e in report.entries}
        assert not by_name["quadrature-cos2-closed-form"].passed
        assert by_name["quadrature-isotropic-closed-form"].passed
        assert not report.passed
