"""Rate-table assembly and superoperator construction tests.

The closed-form expectations for the alkali D-line scheme (J_b=3/2,
J_c=1/2, J_d=1/2) are frozen here from hand expansion of the channel sums;
the superoperator tests cross-check the builders against independently
constructed jump-operator (Lindblad) forms.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_sparse import assert_derived_tables_bitwise

from vrelax import clebsch_gordan, half
from vrelax.environment import (
    AngularDistribution,
    KMatrix,
    ModeDensityModifier,
    k_spontaneous,
    k_stimulated,
)
from vrelax.errors import RateSetContractError, SchemeError
from vrelax.halfint import HalfInt, projections, triangle_range
from vrelax.operators import (
    LEVEL_ORDER,
    Basis,
    BasisState,
    HyperfineScheme,
    LevelScheme,
    RateSet,
    build_relaxation_superop,
    build_stimulated_superop,
    hyperfine_mixing,
    interference_report,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    rates_stimulated,
)

S23 = 2.0 / 3.0


def dline(**kw):
    return LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"), **kw)


def vacuum_k(omega=1.0):
    return k_spontaneous(ModeDensityModifier.vacuum(), omega)


def random_psd_k(rng, scale=1.0):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return KMatrix(scale * (m.conj().T @ m) / 3.0, evaluated_at=None, provenance="injected")


def random_fine_scheme(rng, j_max_twice=9, distinct_excited=True):
    """Random dipole-valid scheme; optionally forces J_b != J_c."""
    while True:
        td = rng.integers(0, j_max_twice + 1)
        choices = [t for t in (td - 2, td, td + 2) if 0 <= t <= j_max_twice and (t, td) != (0, 0)]
        if not choices:
            continue
        tb = int(rng.choice(choices))
        tc = int(rng.choice(choices))
        if distinct_excited and tb == tc:
            continue
        return LevelScheme(j_b=HalfInt(tb), j_c=HalfInt(tc), j_d=HalfInt(int(td)))


@st.composite
def schemes_and_k(draw):
    """A random dipole-allowed fine scheme with every J <= 7/2, and a random
    PSD helicity matrix."""
    jd = draw(st.integers(0, 7))  # all angular momenta twice their value
    allowed = [j for j in range(abs(jd - 2), min(jd, 5) + 3, 2) if j + jd > 0]
    scheme = LevelScheme(
        j_b=HalfInt(draw(st.sampled_from(allowed))),
        j_c=HalfInt(draw(st.sampled_from(allowed))),
        j_d=HalfInt(jd),
    )
    return scheme, random_psd_k(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def one_k_rate_sets(draw):
    """A fine, injected or hyperfine (I <= 5/2, n <= 48) rate set on a random
    scheme, every coefficient from one PSD K.  Two different K would give no
    bound on p: each cross coefficient takes the K of its second index."""
    scheme, k = draw(schemes_and_k())
    kind = draw(st.sampled_from(["fine", "injected", "hyperfine"]))
    if kind == "fine":
        return rates_fine(scheme, k, k)
    if kind == "injected":
        return rates_injected(scheme, k)
    size = sum(scheme.j(level).twice + 1 for level in LEVEL_ORDER)
    spin = draw(st.integers(0, min(5, 48 // size - 1)))
    return rates_hyperfine(HyperfineScheme(fine=scheme, nuclear_spin=HalfInt(spin)), k)


class TestLevelScheme:
    def test_accessors(self):
        sch = dline(omega_bd=2.5, omega_cd=2.0)
        assert sch.j("b") == half("3/2")
        assert sch.j("d") == half("1/2")
        assert sch.omega("b") == 2.5
        assert sch.omega("d") == 0.0
        assert sch.s_factor("b", "c") == 1.0

    def test_dipole_forbidden_rejected(self):
        with pytest.raises(SchemeError, match="dipole"):
            LevelScheme(j_b=half("5/2"), j_c=half("1/2"), j_d=half("1/2"))
        with pytest.raises(SchemeError, match="dipole"):
            LevelScheme(j_b=half(0), j_c=half(1), j_d=half(0))

    def test_bad_frequencies_rejected(self):
        with pytest.raises(SchemeError, match="omega_bd"):
            dline(omega_bd=0.0)
        with pytest.raises(SchemeError, match="omega_cd"):
            dline(omega_cd=-1.0)

    def test_mode_validation(self):
        with pytest.raises(SchemeError, match="explicit"):
            dline(mu_bd=1.0)
        with pytest.raises(SchemeError, match="mu_cd"):
            dline(dipole_mode="explicit", mu_bd=1.0)
        with pytest.raises(SchemeError, match="dipole_mode"):
            dline(dipole_mode="weird")
        with pytest.raises(SchemeError, match="unknown level"):
            dline().j("x")

    def test_explicit_mode_s_factors(self):
        sch = LevelScheme(
            j_b=half("3/2"),
            j_c=half("1/2"),
            j_d=half("1/2"),
            omega_bd=1.3,
            omega_cd=1.0,
            dipole_mode="explicit",
            mu_bd=0.8,
            mu_cd=0.5,
        )
        assert sch.s_factor("b", "b") == pytest.approx(2 * 0.64 * 1.3**3 / 4)
        assert sch.s_factor("b", "c") == pytest.approx(2 * 0.4 / math.sqrt(8))
        assert sch.s_factor("c", "b") == pytest.approx(2 * 0.4 * 1.3**3 / math.sqrt(8))


class TestHyperfineScheme:
    def test_f_manifolds(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        assert hf.f_values("b") == (half(0), half(1), half(2), half(3))
        assert hf.f_values("c") == (half(1), half(2))
        assert hf.f_values("d") == (half(1), half(2))

    def test_offsets_validated(self):
        hf = HyperfineScheme(
            fine=dline(), nuclear_spin=half("3/2"), f_offsets={("b", half(2)): 0.3}
        )
        assert hf.f_offset("b", half(2)) == 0.3
        assert hf.f_offset("b", half(1)) == 0.0
        with pytest.raises(SchemeError, match="not a hyperfine level"):
            HyperfineScheme(
                fine=dline(), nuclear_spin=half("3/2"), f_offsets={("b", half(5)): 0.3}
            )
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(SchemeError, match="finite"):
                HyperfineScheme(
                    fine=dline(), nuclear_spin=half("3/2"), f_offsets={("b", half(2)): bad}
                )


class TestBasis:
    def test_fine_order(self):
        basis = Basis.for_fine(dline())
        assert basis.labels() == (
            "d:M=-1/2",
            "d:M=1/2",
            "c:M=-1/2",
            "c:M=1/2",
            "b:M=-3/2",
            "b:M=-1/2",
            "b:M=1/2",
            "b:M=3/2",
        )
        assert basis.index(BasisState("c", half("1/2"))) == 3

    def test_hyperfine_order(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half(1))
        basis = Basis.for_hyperfine(hf)
        # d: F=1/2,3/2; c: F=1/2,3/2; b: F=1/2,3/2,5/2
        assert len(basis) == (2 + 4) + (2 + 4) + (2 + 4 + 6)
        assert basis.labels()[0] == "d:F=1/2:M=-1/2"
        assert basis.labels()[2] == "d:F=3/2:M=-3/2"
        with pytest.raises(SchemeError, match="not in the basis"):
            basis.index(BasisState("b", half(0)))

    @pytest.mark.parametrize("sublevel", [(), ("b",)], ids=["empty", "level-only"])
    def test_position_of_a_malformed_sublevel_is_a_scheme_error(self, sublevel):
        with pytest.raises(SchemeError, match=r"is not \(level, M\) or \(level, F, M\)"):
            Basis.for_fine(dline()).position(sublevel)


class TestRatesFineClosedForms:
    """Every line of the D-line closed-form table, for arbitrary diagonal K."""

    def test_vacuum_diagonal_and_uniform(self):
        rs = rates_fine(dline(), vacuum_k(), vacuum_k())
        for key, value in rs.upper.items():
            assert key[:2] == key[2:], f"off-diagonal vacuum entry {key}"
            assert value.real == pytest.approx(S23, abs=1e-14)
        assert len(rs.upper) == 6

    def test_closed_forms_random_diagonal_k(self):
        rng = np.random.default_rng(2024)
        sch = dline(rate_scale=1.7)
        s = 1.7
        r2 = math.sqrt(2.0)
        worst = 0.0
        for _ in range(100):
            km, k0, kp = rng.uniform(0.0, 3.0, size=3)
            rs = rates_fine(sch, KMatrix.from_diagonal([km, k0, kp]), KMatrix.from_diagonal([km, k0, kp]))
            expected = {
                ("b", "3/2", "b", "3/2"): s * kp,
                ("b", "-3/2", "b", "-3/2"): s * km,
                ("b", "1/2", "b", "1/2"): s * (kp + 2 * k0) / 3,
                ("b", "-1/2", "b", "-1/2"): s * (km + 2 * k0) / 3,
                ("c", "1/2", "c", "1/2"): s * (2 * kp + k0) / 3,
                ("c", "-1/2", "c", "-1/2"): s * (2 * km + k0) / 3,
                ("b", "1/2", "c", "1/2"): s * r2 / 3 * (k0 - kp),
                ("b", "-1/2", "c", "-1/2"): s * r2 / 3 * (km - k0),
            }
            for (j1, m1, j2, m2), want in expected.items():
                got = rs.upper.get((j1, half(m1), j2, half(m2)), 0j)
                worst = max(worst, abs(got - want))
            # the table is symmetric under exchanging the level pair
            for m in ("1/2", "-1/2"):
                worst = max(
                    worst,
                    abs(
                        rs.upper.get(("c", half(m), "b", half(m)), 0j)
                        - rs.upper.get(("b", half(m), "c", half(m)), 0j)
                    ),
                )
        assert worst < 1e-12

    def test_injected_anisotropic_regression(self):
        k = KMatrix.from_diagonal([4 / 75, 4 / 15, 4 / 75])
        rs = rates_fine(dline(), k, k)
        assert rs.upper.get(("b", half("3/2"), "b", half("3/2")), 0j).real == pytest.approx(12 / 225, abs=1e-15)
        assert rs.upper.get(("b", half("1/2"), "b", half("1/2")), 0j).real == pytest.approx(44 / 225, abs=1e-15)
        assert rs.upper.get(("c", half("1/2"), "c", half("1/2")), 0j).real == pytest.approx(28 / 225, abs=1e-15)
        assert rs.upper.get(("b", half("1/2"), "c", half("1/2")), 0j).real == pytest.approx(
            16 * math.sqrt(2) / 225, abs=1e-15
        )
        assert rs.upper.get(("b", half("-1/2"), "c", half("-1/2")), 0j).real == pytest.approx(
            -16 * math.sqrt(2) / 225, abs=1e-15
        )

    def test_trace_identity_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rs = rates_fine(dline(), random_psd_k(rng), random_psd_k(rng))
            assert_derived_tables_bitwise(rs)

    def test_hermiticity_with_shared_k(self):
        # one helicity matrix for every block keeps the table Hermitian
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = random_psd_k(rng)
            rs = rates_fine(dline(), k, k)
            defect = max(
                abs(value.conjugate() - rs.feeding.get(key[3:] + key[:3], 0j))
                for key, value in rs.feeding.items()
            )
            assert defect < 1e-14

    def test_per_frequency_k_breaks_cross_hermiticity(self):
        # detuned levels see different photon environments, so the two cross
        # coefficients are independent numbers, not conjugates
        rng = np.random.default_rng(8)
        rs = rates_fine(dline(), random_psd_k(rng), random_psd_k(rng))
        assert_derived_tables_bitwise(rs)
        defect, key = max(
            (abs(value.conjugate() - rs.feeding.get(key[3:] + key[:3], 0j)), key)
            for key, value in rs.feeding.items()
        )
        assert defect > 1e-3
        assert key[0] != key[len(key) // 2]

    def test_selection_rule_exact_for_diagonal_k(self):
        environments = [
            (vacuum_k(), vacuum_k()),
            (
                k_spontaneous(ModeDensityModifier.planar_cavity(0.6), 1.0),
                k_spontaneous(ModeDensityModifier.planar_cavity(0.6), 1.0),
            ),
            (
                k_stimulated(AngularDistribution.axisymmetric_cos2(2.0), ModeDensityModifier.vacuum(), 1.0),
                k_stimulated(AngularDistribution.axisymmetric_cos2(2.0), ModeDensityModifier.vacuum(), 1.0),
            ),
        ]
        for k_b, k_c in environments:
            rs = rates_fine(dline(), k_b, k_c)
            # feeding entries whose two channels carry different helicity
            worst, key = max(
                (
                    (abs(value), key)
                    for key, value in rs.feeding.items()
                    if key[1] - key[2] != key[4] - key[5]
                ),
                default=(0.0, None),
            )
            assert worst == 0.0 and key is None

    def test_helicity_mixing_k_populates_selection_channels(self):
        # a genuinely non-axisymmetric environment couples different
        # helicities; the table keeps those entries and stays consistent
        entries = np.array(
            [[0.5, 0.1 + 0.05j, 0.0], [0.1 - 0.05j, 0.4, 0.02j], [0.0, -0.02j, 0.5]]
        )
        k = KMatrix(entries, evaluated_at=None, provenance="injected")
        rs = rates_fine(dline(), k, k)
        assert_derived_tables_bitwise(rs)
        worst, key = max(
            (
                (abs(value), key)
                for key, value in rs.feeding.items()
                if key[1] - key[2] != key[4] - key[5]
            ),
            default=(0.0, None),
        )
        assert worst > 0.0 and key is not None

    def test_default_cross_uses_second_index_frequency(self):
        k_b = KMatrix.from_diagonal([0.1, 0.2, 0.3])
        k_c = KMatrix.from_diagonal([0.4, 0.5, 0.6])
        rs = rates_fine(dline(), k_b, k_c)
        r2 = math.sqrt(2.0)
        assert rs.upper.get(("b", half("1/2"), "c", half("1/2")), 0j).real == pytest.approx(
            r2 / 3 * (0.5 - 0.6), abs=1e-15
        )
        assert rs.upper.get(("c", half("1/2"), "b", half("1/2")), 0j).real == pytest.approx(
            r2 / 3 * (0.2 - 0.3), abs=1e-15
        )

    def test_scale_invariance(self):
        """Dyadic rescaling of S is bitwise; p is unchanged either way."""
        k = KMatrix.from_diagonal([4 / 75, 4 / 15, 4 / 75])
        base = rates_fine(dline(rate_scale=1.0), k, k)
        doubled = rates_fine(dline(rate_scale=2.0), k, k)
        for key, value in base.upper.items():
            assert doubled.upper[key] == 2.0 * value
        p_base = [pt.value for pt in interference_report(base).points]
        p_doubled = [pt.value for pt in interference_report(doubled).points]
        assert p_base == p_doubled
        odd = rates_fine(dline(rate_scale=1.7), k, k)
        p_odd = [pt.value for pt in interference_report(odd).points]
        assert p_odd == pytest.approx(p_base, abs=1e-14)

    def test_frequency_ratio_explicit_mode(self):
        sch = LevelScheme(
            j_b=half("3/2"),
            j_c=half("1/2"),
            j_d=half("1/2"),
            omega_bd=1.3,
            omega_cd=1.0,
            dipole_mode="explicit",
            mu_bd=0.8,
            mu_cd=0.5,
        )
        k = KMatrix.from_diagonal([0.2, 0.5, 0.2])
        rs = rates_fine(sch, k, k)
        ratio = rs.upper.get(("b", half("1/2"), "c", half("1/2")), 0j) / rs.upper.get(
            ("c", half("1/2"), "b", half("1/2")), 0j
        )
        assert ratio.real == pytest.approx((1.0 / 1.3) ** 3, rel=1e-13)


class TestFreeSpaceDiagonality:
    def test_random_schemes_diagonal(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            sch = random_fine_scheme(rng)
            rs = rates_fine(sch, vacuum_k(), vacuum_k())
            for key, value in rs.upper.items():
                if key[:2] != key[2:]:
                    assert abs(value) < 1e-12, f"{sch}: {key} -> {value}"

    def test_equal_j_levels_keep_vacuum_coherence(self):
        # the free-space cancellation comes from J-orthogonality, so two
        # excited levels with the same J retain a cross term equal to the
        # diagonal rate: maximal interference without any cavity
        sch = LevelScheme(j_b=half(1), j_c=half(1), j_d=half(1))
        rs = rates_fine(sch, vacuum_k(), vacuum_k())
        for m in projections(half(1)):
            assert rs.upper.get(("b", m, "c", m), 0j).real == pytest.approx(S23, abs=1e-14)
        report = interference_report(rs)
        assert all(pt.value == pytest.approx(1.0, abs=1e-13) for pt in report.points)


class TestRatesStimulated:
    def test_isotropic_diagonal_two_thirds(self):
        for n_mean in (1.0, 3.7):
            rs = rates_stimulated(
                dline(), AngularDistribution.isotropic(n_mean), ModeDensityModifier.vacuum()
            )
            for level, j in (("b", half("3/2")), ("c", half("1/2"))):
                for m in projections(j):
                    got = rs.upper.get((level, m, level, m), 0j).real
                    assert got == pytest.approx(S23 * n_mean, abs=1e-12)
            for m in (half("1/2"), half("-1/2")):
                assert abs(rs.upper.get(("b", m, "c", m), 0j)) < 1e-12

    def test_dark_field_is_empty(self):
        rs = rates_stimulated(
            dline(), AngularDistribution.isotropic(0.0), ModeDensityModifier.vacuum()
        )
        assert not rs.upper and not rs.feeding and not rs.ground
        sup = build_stimulated_superop(rs)
        assert sup.matrix.nnz == 0

    def test_cos2_cross_coefficient(self):
        rs = rates_stimulated(
            dline(), AngularDistribution.axisymmetric_cos2(1.0), ModeDensityModifier.vacuum()
        )
        assert rs.upper.get(("b", half("1/2"), "c", half("1/2")), 0j).real == pytest.approx(
            -2 * math.sqrt(2) / 45, abs=1e-12
        )
        assert rs.upper.get(("b", half("-1/2"), "c", half("-1/2")), 0j).real == pytest.approx(
            2 * math.sqrt(2) / 45, abs=1e-12
        )

    def test_ground_table_is_channel_sum(self):
        sch = dline()
        dist = AngularDistribution.axisymmetric_cos2(1.4)
        rs = rates_stimulated(sch, dist, ModeDensityModifier.vacuum())
        for md1 in projections(sch.j_d):
            for md2 in projections(sch.j_d):
                acc = 0.0 + 0.0j
                for level in ("b", "c"):
                    for mj in projections(sch.j(level)):
                        acc += rs.feeding.get((level, mj, md1, level, mj, md2), 0j)
                assert rs.ground.get((md1, md2), 0j) == pytest.approx(acc, abs=1e-14)

    def test_per_frequency_evaluation_photonic(self):
        mod = ModeDensityModifier.photonic_crystal(
            omega_edge=1.005, curvature=1.0, gapped_channels=(-1, 1)
        )
        sch = dline(omega_bd=1.01, omega_cd=1.0)
        rs = rates_stimulated(sch, AngularDistribution.isotropic(1.0), mod)
        g_bc = rs.upper.get(("b", half("1/2"), "c", half("1/2")), 0j)
        g_cb = rs.upper.get(("c", half("1/2"), "b", half("1/2")), 0j)
        assert g_bc != g_cb

    def test_quad_order_forwarded(self):
        coarse = rates_stimulated(
            dline(),
            AngularDistribution.axisymmetric_cos2(1.0),
            ModeDensityModifier.vacuum(),
            quad_order=8,
        )
        fine_rs = rates_stimulated(
            dline(),
            AngularDistribution.axisymmetric_cos2(1.0),
            ModeDensityModifier.vacuum(),
            quad_order=16,
        )
        for key, value in fine_rs.upper.items():
            assert coarse.upper[key] == pytest.approx(value, abs=1e-12)

    def test_stimulated_rejects_a_hyperfine_scheme(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        field = AngularDistribution.isotropic(1.0)
        with pytest.raises(RateSetContractError, match="rates_stimulated .*fine-structure"):
            rates_stimulated(hf, field, ModeDensityModifier.vacuum())

    def test_injected_rejects_a_hyperfine_scheme(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        with pytest.raises(RateSetContractError, match="rates_injected .*fine-structure"):
            rates_injected(hf, vacuum_k())


def uncoupled_amplitude(j_level, j_d, spin, f, m_f, f_d, m_fd, sigma):
    """Brute-force hyperfine channel amplitude via nuclear-projection sums.

    Expands both hyperfine states over |M_J, M_I> and applies the dipole
    amplitude to the electronic part alone; no recoupling formulas involved.
    """
    acc = 0.0
    for m_j in projections(j_level):
        for m_i in projections(spin):
            if (m_j + m_i) != m_f:
                continue
            for m_jd in projections(j_d):
                if (m_jd + m_i) != m_fd:
                    continue
                acc += (
                    clebsch_gordan(j_level, m_j, spin, m_i, f, m_f)
                    * clebsch_gordan(j_d, m_jd, spin, m_i, f_d, m_fd)
                    * clebsch_gordan(j_d, m_jd, 1, sigma, j_level, m_j)
                )
    return acc


def uncoupled_tables(hf, k):
    """Brute-force hyperfine (upper, feeding) tables from uncoupled amplitudes.

    Every coefficient is S * A1 * A2 * K(sigma1, sigma2) with A the
    nuclear-projection sum above; the two-index table sums the feeding
    entries over their shared ground sublevel (Fd, Md).
    """
    sch = hf.fine
    channels = {}
    for level in ("b", "c"):
        channels[level] = [
            (f, m, f_d, m_d, (m - m_d).twice // 2,
             uncoupled_amplitude(sch.j(level), sch.j_d, hf.nuclear_spin, f, m, f_d, m_d,
                                 (m - m_d).twice // 2))
            for f in hf.f_values(level)
            for m in projections(f)
            for f_d in hf.f_values("d")
            for m_d in projections(f_d)
            if abs((m - m_d).twice) <= 2
        ]
    upper, feeding = {}, {}
    for j1 in ("b", "c"):
        for j2 in ("b", "c"):
            s = sch.s_factor(j1, j2)
            for f1, m1, fd1, md1, sig1, a1 in channels[j1]:
                for f2, m2, fd2, md2, sig2, a2 in channels[j2]:
                    value = s * a1 * a2 * k.entry(sig1, sig2)
                    feeding[(j1, f1, m1, fd1, md1, j2, f2, m2, fd2, md2)] = value
                    if (fd1, md1) == (fd2, md2):
                        key = (j1, f1, m1, j2, f2, m2)
                        upper[key] = upper.get(key, 0.0) + value
    return upper, feeding


def assert_matches_oracle(rs, oracle):
    for table, brute in zip((rs.upper, rs.feeding), oracle):
        assert set(table) <= set(brute)
        for key, value in brute.items():
            assert table.get(key, 0.0) == pytest.approx(value, abs=1e-12), key


def hyperfine_ground_table(rs):
    """(Fd1, Md1, Fd2, Md2) sums of the feeding entries sharing an excited sublevel."""
    ground = {}
    for (j1, f1, m1, fd1, md1, j2, f2, m2, fd2, md2), value in rs.feeding.items():
        if (j1, f1, m1) == (j2, f2, m2):
            key = (fd1, md1, fd2, md2)
            ground[key] = ground.get(key, 0.0) + value
    return ground


class TestHyperfineRates:
    def test_frozen_mixing_rows(self):
        """Channel amplitudes R(F,Fd)*C for sodium-like and I=1 schemes."""
        hf32 = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        rows32 = [
            (0, 0, 1, 0, 0, -math.sqrt(1 / 12)),
            (1, 1, 1, 0, 1, math.sqrt(5 / 48)),
            (1, 0, 2, 0, 0, -math.sqrt(1 / 60)),
            (2, 1, 1, 0, 1, 0.25),
            (2, 2, 2, 1, 1, math.sqrt(1 / 24)),
            (3, 1, 2, 0, 1, math.sqrt(1 / 10)),
            (3, 3, 2, 2, 1, 0.5),
        ]
        for f, m_f, f_d, m_fd, sigma, want in rows32:
            got = hyperfine_mixing(hf32, "b", half(f), half(f_d)) * clebsch_gordan(
                half(f_d), half(m_fd), 1, sigma, half(f), half(m_f)
            )
            assert got == pytest.approx(want, abs=1e-14), (f, m_f, f_d, m_fd, sigma)

        half_scheme = LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"))
        hf1 = HyperfineScheme(fine=half_scheme, nuclear_spin=half(1))
        rows1 = [
            ("3/2", "1/2", "1/2", "1/2", 0, 2 / (3 * math.sqrt(3))),
            ("3/2", "3/2", "3/2", "1/2", 1, -1 / 3),
            ("1/2", "1/2", "3/2", "1/2", 0, 2 / (3 * math.sqrt(3))),
        ]
        for f, m_f, f_d, m_fd, sigma, want in rows1:
            got = hyperfine_mixing(hf1, "c", half(f), half(f_d)) * clebsch_gordan(
                half(f_d), half(m_fd), 1, sigma, half(f), half(m_f)
            )
            assert got == pytest.approx(want, abs=1e-14), (f, m_f, f_d, m_fd, sigma)

    @pytest.mark.parametrize(
        "j_b,j_c,j_d,spin",
        [("3/2", "1/2", "1/2", "3/2"), ("1/2", "3/2", "1/2", 1), (1, 2, 1, "1/2")],
    )
    def test_mixing_matches_uncoupled_sum(self, j_b, j_c, j_d, spin):
        sch = LevelScheme(j_b=half(j_b), j_c=half(j_c), j_d=half(j_d))
        hf = HyperfineScheme(fine=sch, nuclear_spin=half(spin))
        for level in ("b", "c"):
            j_level = sch.j(level)
            norm = math.sqrt(j_level.twice + 1)
            for f in hf.f_values(level):
                for f_d in hf.f_values("d"):
                    mix = hyperfine_mixing(hf, level, f, f_d)
                    for m_f in projections(f):
                        for sigma in (-1, 0, 1):
                            m_fd = m_f - half(sigma)
                            if abs(m_fd.twice) > f_d.twice:
                                continue
                            brute = uncoupled_amplitude(
                                j_level, sch.j_d, hf.nuclear_spin, f, m_f, f_d, m_fd, sigma
                            )
                            closed = norm * mix * clebsch_gordan(f_d, m_fd, 1, sigma, f, m_f)
                            assert closed == pytest.approx(brute, abs=1e-13)

    def test_vacuum_strictly_diagonal_uniform(self):
        hf = HyperfineScheme(fine=dline(rate_scale=1.3), nuclear_spin=half("3/2"))
        rs = rates_hyperfine(hf, vacuum_k())
        for key, value in rs.upper.items():
            if key[:3] != key[3:]:
                assert abs(value) < 1e-12, key
            else:
                assert value.real == pytest.approx(1.3 * S23, abs=1e-12)

    def test_reduces_to_fine_at_zero_spin(self):
        k = k_spontaneous(ModeDensityModifier.planar_cavity(0.7), 1.0)
        sch = dline()
        fine = rates_fine(sch, k, k)
        hf = rates_hyperfine(HyperfineScheme(fine=sch, nuclear_spin=half(0)), k)
        assert len(hf.upper) == len(fine.upper)
        for (j1, f1, m1, j2, f2, m2), value in hf.upper.items():
            assert f1 == sch.j(j1) and f2 == sch.j(j2)
            assert value == pytest.approx(fine.upper[(j1, m1, j2, m2)], abs=1e-13)
        assert len(hf.feeding) == len(fine.feeding)
        for (j1, _f1, m1, _fd1, md1, j2, _f2, m2, _fd2, md2), value in hf.feeding.items():
            assert value == pytest.approx(fine.feeding[(j1, m1, md1, j2, m2, md2)], abs=1e-13)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(schemes_and_k())
    def test_reduces_to_fine_at_zero_spin_on_random_schemes(self, case):
        sch, k = case
        fine = rates_fine(sch, k, k)
        hf = rates_hyperfine(HyperfineScheme(fine=sch, nuclear_spin=half(0)), k)
        tol = 1e-14 * max(abs(value) for value in fine.feeding.values())
        # drop F = J and F_d = J_d from the hyperfine keys
        for table, kept in (("upper", (0, 2, 3, 5)), ("feeding", (0, 2, 4, 5, 7, 9))):
            reduced = {
                tuple(key[i] for i in kept): value for key, value in getattr(hf, table).items()
            }
            assert len(reduced) == len(getattr(hf, table))
            fine_table = getattr(fine, table)
            for key in reduced.keys() | fine_table.keys():
                assert abs(reduced.get(key, 0j) - fine_table.get(key, 0j)) <= tol, (table, key)

    def test_sodium_cavity_against_uncoupled_oracle(self):
        """Full-table cross-check against the nuclear-projection brute force."""
        sch = dline(rate_scale=1.0)
        hf = HyperfineScheme(fine=sch, nuclear_spin=half("3/2"))
        k = k_spontaneous(ModeDensityModifier.planar_cavity(0.9), 1.0)
        rs = rates_hyperfine(hf, k)
        assert_derived_tables_bitwise(rs)
        assert_matches_oracle(rs, uncoupled_tables(hf, k))
        cross = [
            rs.upper.get(("b", f, m, "c", f, m), 0j)
            for f in hf.f_values("b")
            if f in hf.f_values("c")
            for m in projections(f)
        ]
        assert max(abs(value) for value in cross) > 1e-6, "cavity should open hyperfine cross terms"

    @pytest.mark.parametrize("spin", ["1/2", 1, "3/2"])
    def test_helicity_mixing_k_against_uncoupled_oracle(self, spin):
        sch = LevelScheme(
            j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"), omega_bd=1.2,
            dipole_mode="explicit", mu_bd=0.8, mu_cd=1.1,
        )
        hf = HyperfineScheme(fine=sch, nuclear_spin=half(spin))
        k = random_psd_k(np.random.default_rng(31))
        rs = rates_hyperfine(hf, k)
        # feeding entries whose two channels carry different helicity
        assert max(
            abs(value) for key, value in rs.feeding.items() if key[2] - key[4] != key[7] - key[9]
        ) > 0.0
        assert_matches_oracle(rs, uncoupled_tables(hf, k))

    def test_ground_identity_on_hyperfine_ground_table(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        rs = rates_hyperfine(hf, random_psd_k(np.random.default_rng(12)))
        ground = hyperfine_ground_table(rs)
        stimulated = RateSet(scheme=hf, feeding=rs.feeding, stimulated=True)
        # sums that cancel to exactly 0.0 are left out of the ground table
        assert stimulated.ground == {key: value for key, value in ground.items() if value != 0.0}
        assert 0.0 in ground.values() and stimulated.upper == rs.upper
        assert_derived_tables_bitwise(stimulated)
        key = next(iter(ground))
        with pytest.raises(ValueError, match="ground"):
            replace(stimulated, ground={**ground, key: ground[key] + 0.25})

    def test_trace_identity_bitwise(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half(1))
        rs = rates_hyperfine(hf, k_spontaneous(ModeDensityModifier.planar_cavity(0.5), 1.0))
        assert_derived_tables_bitwise(rs)

    def test_offsets_do_not_touch_rates(self):
        base = HyperfineScheme(fine=dline(), nuclear_spin=half(1))
        shifted = HyperfineScheme(
            fine=dline(), nuclear_spin=half(1), f_offsets={("b", half("3/2")): 2.5}
        )
        k = vacuum_k()
        assert rates_hyperfine(base, k).upper == rates_hyperfine(shifted, k).upper


class TestSuperoperators:
    def test_vacuum_channel_sum_oracle(self):
        """Assembled relaxation map equals an independently built sum of
        dyadic jump terms, one jump operator per helicity channel spanning
        both excited levels (the cross-level products are the interference
        feeding terms, so per-level jumps would not reproduce the map)."""
        sch = dline()
        k = vacuum_k()
        rs = rates_fine(sch, k, k)
        sup = build_relaxation_superop(rs)
        basis, n = sup.basis, len(sup.basis)
        eye = np.eye(n, dtype=complex)
        oracle = np.zeros((n * n, n * n), dtype=complex)
        for sigma in (-1, 0, 1):
            jump = np.zeros((n, n), dtype=complex)
            for level in ("b", "c"):
                for m_j in projections(sch.j(level)):
                    for m_d in projections(sch.j_d):
                        if (m_j - m_d).twice != 2 * sigma:
                            continue
                        c = clebsch_gordan(sch.j_d, m_d, 1, sigma, sch.j(level), m_j)
                        jump[
                            basis.index(BasisState("d", m_d)), basis.index(BasisState(level, m_j))
                        ] += c
            jd = jump.conj().T
            rate = 2.0 * k.entry(sigma, sigma).real  # S = 1
            oracle += rate * (
                np.kron(jump, jd.T)
                - 0.5 * (np.kron(jd @ jump, eye) + np.kron(eye, (jd @ jump).T))
            )
        assert np.max(np.abs(sup.matrix.toarray() - oracle)) < 1e-13

    def test_relaxation_matches_full_lindblad_for_shared_k(self):
        """With one K for every block the map is exactly a Lindblad form
        whose jump operators span both levels per helicity eigenvector."""
        rng = np.random.default_rng(13)
        sch = dline()
        k = random_psd_k(rng)
        rs = rates_fine(sch, k, k)
        sup = build_relaxation_superop(rs)
        basis, n = sup.basis, len(sup.basis)
        eye = np.eye(n, dtype=complex)
        evals, evecs = np.linalg.eigh(k.entries)
        oracle = np.zeros((n * n, n * n), dtype=complex)
        for idx in range(3):
            lam = max(evals[idx], 0.0)
            vec = evecs[:, idx]
            jump = np.zeros((n, n), dtype=complex)
            for level in ("b", "c"):
                for m_j in projections(sch.j(level)):
                    for m_d in projections(sch.j_d):
                        delta = (m_j - m_d).twice
                        if delta not in (-2, 0, 2):
                            continue
                        sigma = delta // 2
                        c = clebsch_gordan(sch.j_d, m_d, 1, sigma, sch.j(level), m_j)
                        si = sigma + 1
                        jump[
                            basis.index(BasisState("d", m_d)), basis.index(BasisState(level, m_j))
                        ] += np.conj(vec[si]) * c
            jd = jump.conj().T
            oracle += (
                2.0
                * lam
                * (
                    np.kron(jump, jd.T)
                    - 0.5 * (np.kron(jd @ jump, eye) + np.kron(eye, (jd @ jump).T))
                )
            )
        assert np.max(np.abs(oracle - sup.matrix.toarray())) < 1e-12

    def test_single_sublevel_decay_budget(self):
        sch = dline()
        rs = rates_fine(sch, vacuum_k(), vacuum_k())
        sup = build_relaxation_superop(rs)
        basis, n = sup.basis, len(sup.basis)
        i_b = basis.index(BasisState("b", half("3/2")))
        rho = np.zeros((n, n), dtype=complex)
        rho[i_b, i_b] = 1.0
        image = (sup.matrix.toarray() @ rho.reshape(-1)).reshape(n, n)
        rate = rs.upper.get(("b", half("3/2"), "b", half("3/2")), 0j).real
        assert image[i_b, i_b].real == pytest.approx(-2.0 * rate, abs=1e-14)
        for m_d in projections(sch.j_d):
            i_d = basis.index(BasisState("d", m_d))
            feed = rs.feeding.get(("b", half("3/2"), m_d, "b", half("3/2"), m_d), 0j).real
            assert image[i_d, i_d].real == pytest.approx(2.0 * feed, abs=1e-14)

    def test_preserves_trace_and_hermiticity_100_random(self):
        rng = np.random.default_rng(17)
        k = random_psd_k(rng)
        rs = rates_fine(dline(), k, k)
        sup = build_relaxation_superop(rs)
        stim = build_stimulated_superop(
            rates_stimulated(
                dline(), AngularDistribution.axisymmetric_cos2(0.8), ModeDensityModifier.vacuum()
            )
        )
        n = len(sup.basis)
        for _ in range(100):
            rho = _random_density(rng, n)
            for mapping in (sup, stim):
                image = (mapping.matrix.toarray() @ rho.reshape(-1)).reshape(n, n)
                assert abs(np.trace(image)) < 1e-12
                assert np.max(np.abs(image - image.conj().T)) < 1e-12

    def test_contracts_survive_non_hermitian_cross_block(self):
        """Per-frequency evaluation (detuned photonic crystal) leaves the
        cross block non-Hermitian, yet the generated map must still preserve
        trace and Hermiticity; the conjugate-paired insertion provides that."""
        mod = ModeDensityModifier.photonic_crystal(
            omega_edge=1.005, curvature=1.0, gapped_channels=(-1, 1)
        )
        sch = dline(omega_bd=1.01, omega_cd=1.0)
        rs = rates_fine(
            sch, k_spontaneous(mod, sch.omega_bd), k_spontaneous(mod, sch.omega_cd)
        )
        defect = max(
            abs(value.conjugate() - rs.feeding.get(key[3:] + key[:3], 0j))
            for key, value in rs.feeding.items()
        )
        assert defect > 1e-3  # genuinely asymmetric input
        sup = build_relaxation_superop(rs)
        rng = np.random.default_rng(29)
        n = len(sup.basis)
        for _ in range(25):
            rho = _random_density(rng, n)
            image = (sup.matrix.toarray() @ rho.reshape(-1)).reshape(n, n)
            assert abs(np.trace(image)) < 1e-13
            assert np.max(np.abs(image - image.conj().T)) < 1e-13

    def test_maximally_mixed_traceless(self):
        rs = rates_fine(dline(), vacuum_k(), vacuum_k())
        sup = build_relaxation_superop(rs)
        n = len(sup.basis)
        image = sup.matrix.toarray() @ (np.eye(n) / n).reshape(-1)
        assert abs(np.trace(image.reshape(n, n))) < 1e-14

    def test_stimulated_cross_blocks_symmetric(self):
        """Emission and absorption share one coefficient table, which makes
        the ground-pair/excited-pair cross blocks of the matrix symmetric."""
        rs = rates_stimulated(
            dline(), AngularDistribution.axisymmetric_cos2(1.0), ModeDensityModifier.vacuum()
        )
        sup = build_stimulated_superop(rs)
        basis, n, matrix = sup.basis, len(sup.basis), sup.matrix.toarray()
        ground = [i for i, st in enumerate(basis) if st.level == "d"]
        excited = [i for i, st in enumerate(basis) if st.level != "d"]
        for g1 in ground:
            for g2 in ground:
                for e1 in excited:
                    for e2 in excited:
                        x, y = g1 * n + g2, e1 * n + e2
                        assert matrix[x, y] == matrix[y, x]

    def test_wrong_kind_rejected(self):
        rs = rates_fine(dline(), vacuum_k(), vacuum_k())
        with pytest.raises(RateSetContractError, match="stimulated"):
            build_stimulated_superop(rs)
        # the same feeding table taken as spontaneous derives no ground table
        broken = replace(rates_injected(dline(), vacuum_k()), stimulated=False)
        with pytest.raises(RateSetContractError, match="needs a stimulated rate set"):
            build_stimulated_superop(broken)

    def test_hyperfine_stimulated_rejected(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        rs = rates_hyperfine(hf, vacuum_k())
        stimulated = RateSet(scheme=hf, feeding=rs.feeding, stimulated=True)
        with pytest.raises(RateSetContractError, match="hyperfine"):
            build_stimulated_superop(stimulated)

    def test_inconsistent_tables_named_in_error(self):
        # the two-index table is derived from the feeding table, so a
        # disagreeing one cannot be passed in or swapped in
        sch = dline()
        good = rates_fine(sch, vacuum_k(), vacuum_k())
        upper = dict(good.upper)
        key = ("b", half("3/2"), "b", half("3/2"))
        upper[key] = upper[key] + 0.25
        with pytest.raises(TypeError, match="upper"):
            RateSet(scheme=sch, upper=upper, feeding=good.feeding)
        with pytest.raises(ValueError, match="upper"):
            replace(good, upper=upper)
        # nor written into afterwards, through the set or the dict it was given
        feeding = dict(good.feeding)
        rs = RateSet(scheme=sch, feeding=feeding)
        for table in (rs.upper, rs.feeding, rates_injected(sch, vacuum_k()).ground):
            with pytest.raises(TypeError):
                table[next(iter(table))] = 0.25
        feeding[next(iter(feeding))] = 0.25
        assert rs.feeding == good.feeding


def _random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestInterference:
    def test_isotropic_p_zero(self):
        rs = rates_stimulated(
            dline(), AngularDistribution.isotropic(2.0), ModeDensityModifier.vacuum()
        )
        report = interference_report(rs)
        assert len(report.points) == 2
        for pt in report.points:
            assert pt.value == pytest.approx(0.0, abs=1e-12)

    def test_injected_regression_value(self):
        k = KMatrix.from_diagonal([4 / 75, 4 / 15, 4 / 75])
        rs = rates_fine(dline(), k, k)
        report = interference_report(rs)
        by_m = {pt.m: pt.value for pt in report.points}
        assert by_m[half("1/2")] == pytest.approx(0.6446583712203042, abs=1e-13)
        assert by_m[half("-1/2")] == pytest.approx(-0.6446583712203042, abs=1e-13)
        assert abs(by_m[half("1/2")] - 0.64) < 5e-3

    def test_cavity_p_table_and_monotonicity(self):
        expected = {
            0.0: 0.0,
            0.3: 0.5279406839169455,
            0.6: 0.8703882797784891,
            0.9: 0.9937909498347862,
            0.99: 0.999943185225624,
        }
        previous = -1.0
        for r, want in expected.items():
            k = k_spontaneous(ModeDensityModifier.planar_cavity(r), 1.0)
            rs = rates_fine(dline(), k, k)
            by_m = {pt.m: pt.value for pt in interference_report(rs).points}
            got = by_m[half("1/2")]
            assert got == pytest.approx(want, abs=1e-12)
            assert got > previous
            previous = got
        assert previous > 0.98

    def test_dark_field_undefined(self):
        rs = rates_fine(dline(), KMatrix.from_diagonal([0, 0, 0]), KMatrix.from_diagonal([0, 0, 0]))
        report = interference_report(rs)
        assert report.points and all(pt.value is None for pt in report.points)

    def test_cauchy_schwarz_bound_random_k(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = random_psd_k(rng)
            rs = rates_fine(dline(), k, k)
            report = interference_report(rs)
            for pt in report.points:
                if pt.value is not None:
                    assert abs(pt.value) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(one_k_rate_sets())
    def test_cauchy_schwarz_bound_on_random_schemes(self, rs):
        for pt in interference_report(rs).points:
            if pt.value is not None:
                assert abs(pt.value) <= 1.0 + 1e-12

    def test_off_diagonal_listing_sorted(self):
        k = KMatrix.from_diagonal([4 / 75, 4 / 15, 4 / 75])
        rs = rates_fine(dline(), k, k)
        report = interference_report(rs)
        magnitudes = [abs(v) for _key, v in report.off_diagonal]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert all(m > 0 for m in magnitudes)

    def test_hyperfine_points_carry_f(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        rs = rates_hyperfine(hf, k_spontaneous(ModeDensityModifier.planar_cavity(0.9), 1.0))
        report = interference_report(rs)
        assert report.points
        for pt in report.points:
            assert pt.f is not None
            if pt.value is not None:
                assert abs(pt.value) <= 1.0 + 1e-12
        # shared manifolds of the sodium-like scheme are F = 1, 2
        assert {pt.f for pt in report.points} == {half(1), half(2)}

    def test_zero_k_reports_every_shared_sublevel_undefined(self):
        # an all-zero K leaves the two-index table empty; the shared
        # sublevels still come from the basis, fine and hyperfine alike
        zero = KMatrix.from_diagonal([0.0, 0.0, 0.0])
        fine = interference_report(rates_fine(dline(), zero, zero))
        assert [(pt.f, pt.m) for pt in fine.points] == [(None, half("-1/2")), (None, half("1/2"))]
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        hyper = interference_report(rates_hyperfine(hf, zero))
        assert [(pt.f, pt.m) for pt in hyper.points] == [
            (half(f), half(m)) for f in (1, 2) for m in range(-f, f + 1)
        ]
        assert all(pt.value is None for pt in fine.points + hyper.points)
        assert fine.off_diagonal == hyper.off_diagonal == ()
        # the same sublevels as under a K that reaches every channel
        cavity = k_spontaneous(ModeDensityModifier.planar_cavity(0.9), 1.0)
        reached = interference_report(rates_hyperfine(hf, cavity))
        assert [(pt.f, pt.m) for pt in reached.points] == [(pt.f, pt.m) for pt in hyper.points]


class TestRateSetAccess:
    def test_two_index_key_sets(self):
        # fine tables keep nonzero sums only; a hyperfine key set is fixed by
        # the helicity support of K, not by which sums cancel to exactly 0.0
        rng = np.random.default_rng(44)
        for _ in range(5):
            rs = rates_fine(random_fine_scheme(rng), random_psd_k(rng), random_psd_k(rng))
            assert all(value != 0.0 for value in rs.upper.values())
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        key_sets = {
            frozenset(rates_hyperfine(hf, k_spontaneous(ModeDensityModifier.planar_cavity(r), 1.0)).upper)
            for r in np.linspace(0.05, 0.95, 19)
        }
        assert len(key_sets) == 1

    def test_gamma_coerces_keys(self):
        # keys hold HalfInt quantum numbers, whichever form half() was given
        rs = rates_fine(dline(), vacuum_k(), vacuum_k())
        assert rs.upper.get(("b", half("3/2"), "b", half("3/2")), 0j) == rs.upper.get(
            ("b", HalfInt(3), "b", HalfInt(3)), 0j
        )
        assert rs.upper.get(("b", half(1.5), "b", half(1.5)), 0j) != 0.0
        assert rs.upper.get(("b", half("3/2"), "c", half("1/2")), 0j) == 0.0

    def test_structure_is_derived_from_scheme_and_ground_table(self):
        hf = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
        vacuum = ModeDensityModifier.vacuum()
        dark = AngularDistribution.isotropic(0.0)
        zero = KMatrix.from_diagonal([0.0, 0.0, 0.0])
        cases = [
            (rates_fine(dline(), vacuum_k(), vacuum_k()), "spontaneous", False),
            (rates_stimulated(dline(), AngularDistribution.isotropic(1.0), vacuum), "stimulated", False),
            (rates_injected(dline(), vacuum_k()), "stimulated", False),
            (rates_hyperfine(hf, vacuum_k()), "spontaneous", True),
            # an empty ground table (no photons) still makes a stimulated set
            (rates_stimulated(dline(), dark, vacuum), "stimulated", False),
            (rates_injected(dline(), zero), "stimulated", False),
        ]
        for rs, kind, hyperfine in cases:
            assert (rs.kind, rs.hyperfine) == (kind, hyperfine)
        assert cases[-1][0].ground == {} and cases[-2][0].ground == {}

    @pytest.mark.parametrize("hyperfine", [False, True])
    def test_restricted_keeps_the_entries_of_one_excited_level(self, hyperfine):
        scheme = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2")) if hyperfine else dline()
        k = random_psd_k(np.random.default_rng(5))
        rs = rates_hyperfine(scheme, k) if hyperfine else rates_fine(scheme, k, k)
        for level in ("b", "c"):
            def only(key):
                return all(part == level for part in key if isinstance(part, str))

            kept = rs.restricted(level)
            assert list(kept.upper) == [key for key in rs.upper if only(key)]
            assert list(kept.feeding) == [key for key in rs.feeding if only(key)]
            assert all(kept.feeding[key] == rs.feeding[key] for key in kept.feeding)
            assert kept.upper and kept.feeding and kept.scheme is rs.scheme

    @pytest.mark.parametrize("level", ["d", "x"])
    def test_restricted_to_a_non_excited_level_is_a_scheme_error(self, level):
        rs = rates_fine(dline(), vacuum_k(), vacuum_k())
        with pytest.raises(SchemeError, match=f"level '{level}', expected one of 'b', 'c'"):
            rs.restricted(level)

    @pytest.mark.parametrize("table", ["stimulated", "kind", "scheme", "sites"])
    def test_entries_of_an_unknown_table_is_a_contract_error(self, table):
        rs = rates_injected(dline(), vacuum_k())
        expected = f"table '{table}', expected one of 'upper', 'feeding', 'ground'"
        with pytest.raises(RateSetContractError, match=expected):
            rs.entries(table)

    @pytest.mark.parametrize("level", ["b", "c"])
    def test_restricted_stimulated_set_sums_its_own_ground_table(self, level):
        # the ground table of the reduction absorbs into the kept level only
        for k in (vacuum_k(), random_psd_k(np.random.default_rng(9))):
            rs = rates_injected(dline(), k)
            kept = rs.restricted(level)
            assert kept.kind == "stimulated" and kept.ground != rs.ground
            assert_derived_tables_bitwise(kept)
            sup = build_stimulated_superop(kept)
            n = len(sup.basis)
            rng = np.random.default_rng(3)
            for _ in range(10):
                rho = _random_density(rng, n)
                image = sup.matrix.toarray() @ rho.reshape(-1)
                assert abs(np.trace(image.reshape(n, n))) < 1e-13
