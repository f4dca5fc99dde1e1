"""Angular-algebra tests.

Expected coefficient values below were computed once with an independent
symbolic engine (sympy's wigner module, Condon-Shortley convention) and are
frozen here as literals; the implementation under test never touches sympy.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from vrelax import (
    AngularDomainError,
    HalfInt,
    clebsch_gordan,
    half,
    momentum_cap,
    projections,
    racah_w,
    set_momentum_cap,
    triangle_range,
    wigner_6j,
    wigner_D1,
    wigner_d1,
)
from vrelax.angular import (
    D1_sky_average_defect,
    cg_orthogonality_defect,
    channel_sum_defect,
    d1_orthogonality_defect,
    sixj_sum_rule_defect,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)


class TestHalfInt:
    def test_parse_forms(self):
        assert half("3/2").twice == 3
        assert half("1.5").twice == 3
        assert half("2").twice == 4
        assert half(2).twice == 4
        assert half(-0.5).twice == -1
        assert half(HalfInt(7)) == HalfInt(7)

    def test_parse_rejects_non_half_values(self):
        with pytest.raises(AngularDomainError):
            half(0.3)
        with pytest.raises(AngularDomainError):
            half("1/3")
        with pytest.raises(AngularDomainError):
            half("j")

    def test_arithmetic_and_order(self):
        assert half("3/2") - half("1/2") == half(1)
        assert -half("1/2") < half(0) < half("1/2")
        assert float(half("5/2")) == 2.5
        assert str(half("5/2")) == "5/2"
        assert str(half(3)) == "3"

    def test_projections(self):
        assert [m.twice for m in projections("3/2")] == [-3, -1, 1, 3]
        assert projections(0) == [HalfInt(0)]

    def test_triangle_range(self):
        assert [c.twice for c in triangle_range("1/2", 1)] == [1, 3]
        assert [c.twice for c in triangle_range(0, 2)] == [4]

    @pytest.mark.parametrize("twice", [-5, -2, 0, 1, 3, 4, 13])
    def test_equal_values_are_one_object_on_every_path(self, twice):
        h = HalfInt(twice)
        built = [
            HalfInt(twice=twice),
            half(twice / 2.0),
            half(f"{twice}/2"),
            HalfInt(twice + 2) + HalfInt(-2),
            HalfInt(twice + 2) - 1,
            -HalfInt(-twice),
            pickle.loads(pickle.dumps(h)),
            copy.copy(h),
            copy.deepcopy(h),
            copy.deepcopy([h, (h, {"k": h})])[1][1]["k"],
        ]
        if twice % 2 == 0:
            built.append(half(twice // 2))
        if twice >= 0:
            built.append(abs(HalfInt(-twice)))
        for other in built:
            assert other is h
        assert hash(h) == hash(HalfInt(h.twice))

    def test_projections_and_triangle_range_hand_out_the_interned_objects(self):
        assert all(m is HalfInt(m.twice) for m in projections("7/2"))
        assert projections("7/2")[3] is half("-1/2")
        assert all(c is HalfInt(c.twice) for c in triangle_range("5/2", 2))
        assert list(triangle_range(1, 1))[0] is half(0)

    def test_never_equal_to_a_plain_number(self):
        assert HalfInt(2) != 2
        assert HalfInt(2) != 1
        assert HalfInt(2) == HalfInt(2)
        assert HalfInt(2) != HalfInt(3)

    @pytest.mark.parametrize("bad", [2.0, np.int64(2), "2", None])
    def test_type_check_comes_before_the_cache(self, bad):
        assert HalfInt(2).twice == 2  # the value 2 is interned already
        with pytest.raises(AngularDomainError):
            HalfInt(bad)

    def test_bool_is_accepted_as_its_int(self):
        assert HalfInt(True) is HalfInt(1)
        assert type(HalfInt(True).twice) is int

    def test_immutable(self):
        h = half("3/2")
        with pytest.raises(AttributeError):
            h.twice = 5
        with pytest.raises(AttributeError):
            del h.twice
        with pytest.raises(AttributeError):
            h.other = 1
        assert h.twice == 3 and h is half("3/2")


class TestClebschGordan:
    # (j1, m1, j2, m2, J, M) -> frozen value
    FROZEN = [
        ("1/2", "1/2", 1, 1, "3/2", "3/2", 1.0),
        ("1/2", "-1/2", 1, 1, "3/2", "1/2", SQ3 / 3),
        ("1/2", "1/2", 1, 0, "3/2", "1/2", SQ6 / 3),
        ("1/2", "-1/2", 1, 1, "1/2", "1/2", -SQ6 / 3),
        ("1/2", "1/2", 1, 0, "1/2", "1/2", SQ3 / 3),
        ("1/2", "1/2", 1, -1, "1/2", "-1/2", SQ6 / 3),
        ("1/2", "-1/2", 1, 0, "1/2", "-1/2", -SQ3 / 3),
        (1, 0, 1, 0, 1, 0, 0.0),
        (1, 1, 1, -1, 1, 0, SQ2 / 2),
        (2, 1, 1, 0, 2, 1, SQ6 / 6),
        ("3/2", "1/2", 1, 1, "5/2", "3/2", math.sqrt(15.0) / 5),
        ("3/2", "1/2", 2, -1, "3/2", "-1/2", 0.0),
    ]

    @pytest.mark.parametrize("j1, m1, j2, m2, jj, mm, expected", FROZEN)
    def test_frozen_values(self, j1, m1, j2, m2, jj, mm, expected):
        assert clebsch_gordan(j1, m1, j2, m2, jj, mm) == pytest.approx(
            expected, abs=1e-14
        )

    def test_selection_rules_return_zero(self):
        # M != m1 + m2
        assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0
        # triangle violated
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
        # |M| > J handled as zero, not error (J valid, projection dead)
        assert clebsch_gordan(1, 1, 1, 1, 1, 2) == 0.0

    def test_malformed_inputs_raise(self):
        with pytest.raises(AngularDomainError):
            clebsch_gordan(1, "1/2", 1, "1/2", 2, 1)  # m off the ladder of j
        with pytest.raises(AngularDomainError):
            clebsch_gordan(-1, 0, 1, 0, 1, 0)
        with pytest.raises(AngularDomainError):
            clebsch_gordan(1, 0.3, 1, 0, 1, 0)

    def test_cap_error_and_raise(self):
        original = momentum_cap()
        try:
            with pytest.raises(AngularDomainError, match="set_momentum_cap"):
                clebsch_gordan(13, 0, 1, 0, 13, 0)
            set_momentum_cap(14)  # coupled J = 14 must fit under the cap too
            assert clebsch_gordan(13, 13, 1, 1, 14, 14) == pytest.approx(1.0)
        finally:
            set_momentum_cap(original)

    def test_symmetry_exchange(self):
        # C(j1 m1 j2 m2; J M) = (-1)^(j1+j2-J) C(j2 m2 j1 m1; J M)
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1, t2 = rng.integers(0, 6, size=2)
            j1, j2 = HalfInt(int(t1)), HalfInt(int(t2))
            for jj in triangle_range(j1, j2):
                m1 = projections(j1)[rng.integers(0, t1 + 1)]
                m2 = projections(j2)[rng.integers(0, t2 + 1)]
                mm = m1 + m2
                lhs = clebsch_gordan(j1, m1, j2, m2, jj, mm)
                phase = -1.0 if ((j1 + j2 - jj).twice // 2) % 2 else 1.0
                rhs = phase * clebsch_gordan(j2, m2, j1, m1, jj, mm)
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_orthogonality_battery_small(self):
        for j1 in ("1/2", 1, "3/2"):
            for j2 in ("1/2", 1, 2):
                assert cg_orthogonality_defect(j1, j2) < 1e-13


class TestChannelSum:
    def test_spec_case(self):
        # Jd = 1/2 feeding J1 = J2 = 3/2: complete channel set per M
        assert channel_sum_defect("1/2", "3/2", "3/2") < 1e-14

    def test_cross_level_cancellation(self):
        assert channel_sum_defect("1/2", "3/2", "1/2") < 1e-14
        assert channel_sum_defect(1, 2, 1) < 1e-14
        assert channel_sum_defect("3/2", "5/2", "3/2") < 1e-14

    def test_grid(self):
        for td in range(0, 8):
            jd = HalfInt(td)
            uppers = [j for j in triangle_range(jd, 1)]
            for j1 in uppers:
                for j2 in uppers:
                    assert channel_sum_defect(jd, j1, j2) < 1e-13


class TestSixJ:
    FROZEN = [
        ((1, 1, 1, 1, 1, 1), 1.0 / 6.0),
        ((1, 1, 0, 1, 1, 1), -1.0 / 3.0),
        ((2, 1, 1, 1, 1, 1), 1.0 / 6.0),
        (("1/2", "1/2", 1, "1/2", "1/2", 1), 1.0 / 6.0),
        (("3/2", "1/2", 1, "1/2", "3/2", 1), math.sqrt(10.0) / 12.0),
        (("3/2", "3/2", 1, "3/2", "3/2", 2), 1.0 / 20.0),
        (("5/2", "3/2", 1, "3/2", "5/2", 2), -math.sqrt(21.0) / 30.0),
        ((2, 2, 2, 2, 2, 2), -3.0 / 70.0),
        (("9/2", "9/2", 1, "9/2", "9/2", 1), -19.0 / 198.0),
    ]

    @pytest.mark.parametrize("args, expected", FROZEN)
    def test_frozen_values(self, args, expected):
        assert wigner_6j(*args) == pytest.approx(expected, abs=1e-14)

    def test_triangle_violations_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0
        assert wigner_6j("1/2", "1/2", "1/2", "1/2", "1/2", "1/2") == 0.0  # parity
        assert wigner_6j(0, 0, 0, 1, 1, 2) == 0.0

    def test_symmetry_column_swap(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            t = [int(x) for x in rng.integers(0, 7, size=6)]
            a, b, c, d, e, f = [HalfInt(x) for x in t]
            v1 = wigner_6j(a, b, c, d, e, f)
            v2 = wigner_6j(b, a, c, e, d, f)  # swap first two columns
            v3 = wigner_6j(d, e, c, a, b, f)  # flip upper/lower in cols 1, 2
            assert v1 == pytest.approx(v2, abs=1e-13)
            assert v1 == pytest.approx(v3, abs=1e-13)


class TestRacahW:
    def test_frozen_value(self):
        assert racah_w("3/2", "3/2", "1/2", "1/2", 0, 1) == pytest.approx(
            -SQ2 / 4, abs=1e-14
        )

    def test_l5_zero_closed_form(self):
        # W(j j j' j'; 0 f) = (-1)^(j+j'+f) / sqrt((2j+1)(2j'+1))
        cases = [(1, 1, 1), (1, 2, 2), ("3/2", "1/2", 1), ("5/2", "3/2", 2)]
        for j, jp, f in cases:
            tj, tjp, tf = half(j), half(jp), half(f)
            expect = 1.0 / math.sqrt((tj.twice + 1.0) * (tjp.twice + 1.0))
            exponent = (tj.twice + tjp.twice + tf.twice) // 2
            if exponent % 2:
                expect = -expect
            assert racah_w(j, j, jp, jp, 0, f) == pytest.approx(expect, abs=1e-14)

    def test_triangle_violation_zero(self):
        assert racah_w(1, 2, 1, 2, 5, 1) == 0.0
        assert racah_w(0, 0, 0, 0, 1, 0) == 0.0

    def test_sum_rule_spot_values(self):
        # sum over l of (2l+1) {l1 l2 l'; l3 l4 l}{l3 l2 l; l1 l4 l''}
        #   = delta(l', l'') / (2 l'' + 1)
        def lhs(l1, l2, l3, l4, lp, lpp):
            acc = 0.0
            # l couples (l1, l4) in the first symbol; terms where the
            # (l3, l2, l) triad fails vanish inside wigner_6j
            for l in triangle_range(half(l1), half(l4)):
                acc += (l.twice + 1) * wigner_6j(l1, l2, lp, l3, l4, l) * wigner_6j(
                    l3, l2, l, l1, l4, lpp
                )
            return acc

        assert lhs(1, "3/2", "1/2", 1, "3/2", "3/2") == pytest.approx(0.25, abs=1e-13)
        assert lhs(1, "3/2", "1/2", 1, "3/2", "1/2") == pytest.approx(0.0, abs=1e-13)
        assert lhs(2, 1, 1, 2, 2, 2) == pytest.approx(0.2, abs=1e-13)

    def test_sum_rule_battery_small_grid(self):
        assert sixj_sum_rule_defect(2) < 1e-13


class TestRotationTables:
    def test_spec_point_values(self):
        assert wigner_d1(1, 0, math.pi / 2) == pytest.approx(1 / SQ2, abs=1e-15)
        assert wigner_d1(1, 1, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert wigner_d1(1, -1, math.pi) == pytest.approx(1.0, abs=1e-15)
        assert wigner_d1(0, 0, 0.7) == pytest.approx(math.cos(0.7), abs=1e-15)

    def test_table_is_transpose_of_standard_convention(self):
        # Standard z-y-z d^1 matrix, rows/cols ordered (+1, 0, -1), frozen
        # from the symbolic rotation-operator oracle:
        def standard_d1(mp, m, beta):
            c, s = math.cos(beta), math.sin(beta)
            table = {
                (1, 1): (1 + c) / 2, (1, 0): -s / SQ2, (1, -1): (1 - c) / 2,
                (0, 1): s / SQ2, (0, 0): c, (0, -1): -s / SQ2,
                (-1, 1): (1 - c) / 2, (-1, 0): s / SQ2, (-1, -1): (1 + c) / 2,
            }
            return table[(mp, m)]

        for beta in (0.0, 0.3, 0.7, 1.9, math.pi):
            for lam in (-1, 0, 1):
                for sig in (-1, 0, 1):
                    assert wigner_d1(lam, sig, beta) == pytest.approx(
                        standard_d1(sig, lam, beta), abs=1e-15
                    )

    def test_orthogonality_random_angles(self):
        rng = np.random.default_rng(5)
        betas = rng.uniform(0.0, math.pi, size=100)
        assert d1_orthogonality_defect(betas) < 1e-14

    def test_vectorized_evaluation(self):
        beta = np.linspace(0.0, math.pi, 7)
        vals = wigner_d1(1, 1, beta)
        assert vals.shape == (7,)
        assert vals[0] == pytest.approx(1.0)
        assert vals[-1] == pytest.approx(0.0, abs=1e-15)

    def test_invalid_component_raises(self):
        with pytest.raises(AngularDomainError):
            wigner_d1(2, 0, 0.1)
        with pytest.raises(AngularDomainError):
            wigner_D1(1, -2, 0.1, 0.1)


class TestPhaseCarryingRotation:
    def test_identity_rotation_modulus(self):
        for phi in (0.0, 1.0, 4.5):
            assert abs(wigner_D1(1, 1, phi, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_pair_product_phase(self):
        # conj(D(1,1)) * D(1,0) at phi = pi/2, theta = pi/2 is purely
        # imaginary with modulus (1/2)(1/sqrt2)
        val = np.conj(wigner_D1(1, 1, math.pi / 2, math.pi / 2)) * wigner_D1(
            1, 0, math.pi / 2, math.pi / 2
        )
        assert val.real == pytest.approx(0.0, abs=1e-15)
        assert abs(val.imag) == pytest.approx(0.5 / SQ2, abs=1e-15)

    def test_pair_product_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = int(rng.integers(-1, 2))
            sig = int(rng.integers(-1, 2))
            sigp = int(rng.integers(-1, 2))
            phi = float(rng.uniform(0, 2 * math.pi))
            theta = float(rng.uniform(0, math.pi))
            product = np.conj(wigner_D1(lam, sigp, phi, theta)) * wigner_D1(
                lam, sig, phi, theta
            )
            expected = (
                np.exp(1j * (sig - sigp) * phi)
                * wigner_d1(lam, sigp, theta)
                * wigner_d1(lam, sig, theta)
            )
            assert product == pytest.approx(expected, abs=1e-14)

    def test_sky_average_orthogonality(self):
        assert D1_sky_average_defect(16) < 1e-12
        assert D1_sky_average_defect(8) < 1e-10
