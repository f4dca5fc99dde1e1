"""Rate tables as one product of the scheme's skeleton with K, and p(M) sweeps.

Every rate builder forms its feeding rows as ``scheme.skeleton`` times the
helicity matrices, over the channel pairs whose K entry is not zero.  The
oracle here is the per-level-pair loop the builders ran before: for each
(j1, j2) the full ((S A1) A2) K table over both levels' channels, with its
nonzeros taken row by row.  Rows must agree bit for bit and in order, under
random complex K with exact zeros and entries whose products underflow.
``interference_sweep`` must give, row by row, the degrees that
``interference_report`` gives for the rate set of each point, ``None`` as NaN
and the sign of a zero kept.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_sparse import bits

from vrelax import environment
from vrelax.environment import KMatrix, ModeDensityModifier, k_spontaneous
from vrelax.errors import DistributionDomainError, RateSetContractError, SchemeError
from vrelax.halfint import HalfInt, half
from vrelax.operators import (
    Basis,
    HyperfineScheme,
    LevelScheme,
    _channels,
    interference_report,
    interference_sweep,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    rates_stimulated,
)

# products of these with amplitudes below 1 underflow to 0.0 or lose bits
TINY = (5e-324, 2.5e-320, 1e-310)


def per_level_pair_rows(scheme, k_b: KMatrix, k_c: KMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(sites, values) of the feeding table, as the builders made them one level pair
    at a time: the dense ((S A1) A2) K table of each (j1, j2), nonzeros row-major."""
    hyperfine = isinstance(scheme, HyperfineScheme)
    fine = scheme.fine if hyperfine else scheme
    pieces = []
    for j1 in ("b", "c"):
        at1, sig1, a1 = _channels(scheme, j1)
        for j2 in ("b", "c"):
            at2, sig2, a2 = _channels(scheme, j2)
            scale = fine.s_factor(j1, j2)
            if hyperfine:
                scale *= math.sqrt((fine.j(j1).twice + 1) * (fine.j(j2).twice + 1))
            k = (k_b if j2 == "b" else k_c).entries
            table = (scale * a1)[:, None] * a2[None, :] * k[sig1[:, None] + 1, sig2[None, :] + 1]
            rows, cols = np.nonzero(table)
            pieces.append((np.concatenate((at1[rows], at2[cols]), axis=1), table[rows, cols]))
    sites, values = map(np.concatenate, zip(*pieces))
    return sites, values


def assert_rows_equal(rates, scheme, k_b, k_c):
    sites, values = per_level_pair_rows(scheme, k_b, k_c)
    assert rates.sites.dtype == np.int32 and np.array_equal(rates.sites, sites)
    assert rates.values.dtype == complex and np.array_equal(bits(rates.values), bits(values))


def part(draw, rng, real: bool) -> float:
    kind = draw(st.sampled_from(["zero", "tiny", "normal"]))
    if kind == "zero":
        return 0.0
    size = draw(st.sampled_from(TINY)) if kind == "tiny" else rng.uniform(0.01, 3.0)
    return size if real else size * draw(st.sampled_from([-1.0, 1.0]))


def hermitian_k(draw, rng) -> KMatrix:
    """A Hermitian K, diagonal >= 0, each real and imaginary part drawn zero, tiny
    (its products underflow) or of order one."""
    k = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        k[i, i] = part(draw, rng, real=True)
        for j in range(i + 1, 3):
            k[i, j] = complex(part(draw, rng, False), part(draw, rng, False))
            k[j, i] = k[i, j].conjugate()
    return KMatrix(k, evaluated_at=None, provenance="injected")


@st.composite
def schemes(draw):
    """A fine scheme with n <= 22, alkali or explicit dipoles, and a hyperfine
    scheme over it with n <= 32."""
    jd = draw(st.integers(0, 5))  # angular momenta as twice their value
    allowed = list(range(abs(jd - 2), jd + 3, 2))  # dipole partners of J_d
    options = {}
    if draw(st.booleans()):
        options = dict(dipole_mode="explicit", mu_bd=draw(st.sampled_from([0.7, 1.0])),
                       mu_cd=draw(st.sampled_from([1.0, 1.9])))
    fine = LevelScheme(
        j_b=HalfInt(draw(st.sampled_from(allowed))),
        j_c=HalfInt(draw(st.sampled_from(allowed))),
        j_d=HalfInt(jd),
        omega_bd=draw(st.sampled_from([1.0, 1.3])),
        **options,
    )
    spin = HalfInt(draw(st.integers(0, 32 // len(Basis.for_fine(fine)) - 1)))
    return fine, HyperfineScheme(fine=fine, nuclear_spin=spin)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(schemes(), st.integers(0, 2**32 - 1), st.data())
def test_rate_builders_equal_the_per_level_pair_loop(pair, seed, data):
    fine, hyperfine = pair
    rng = np.random.default_rng(seed)
    k_b, k_c = hermitian_k(data.draw, rng), hermitian_k(data.draw, rng)
    assert_rows_equal(rates_fine(fine, k_b, k_c), fine, k_b, k_c)
    assert_rows_equal(rates_injected(fine, k_b), fine, k_b, k_b)
    assert_rows_equal(rates_hyperfine(hyperfine, k_c), hyperfine, k_c, k_c)
    # the stimulated builder's K at each level's frequency, injected
    by_omega = {fine.omega_cd: k_c, fine.omega_bd: k_b}  # one K when the two agree
    with mock.patch.object(environment, "k_stimulated",
                           lambda _dist, _mod, omega, quad_order: by_omega[omega]):
        rates = rates_stimulated(fine, None, None)
    assert_rows_equal(rates, fine, by_omega[fine.omega_bd], by_omega[fine.omega_cd])


def assert_sweep_equals_reports(sweep, reports):
    assert sweep.values.shape == (len(reports), len(sweep.m)) and not sweep.values.flags.writeable
    for report, row in zip(reports, sweep.values):
        assert [(p.m, p.f) for p in report.points] == list(zip(sweep.m, sweep.f))
        expected = [None if p.value is None else p.value.hex() for p in report.points]
        assert expected == [None if math.isnan(v) else v.hex() for v in row.tolist()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(schemes(), st.integers(0, 2**32 - 1), st.integers(1, 4), st.data())
def test_sweep_rows_equal_interference_reports(pair, seed, points, data):
    fine, hyperfine = pair
    rng = np.random.default_rng(seed)
    ks = [hermitian_k(data.draw, rng) for _ in range(points)]
    ks_c = [hermitian_k(data.draw, rng) for _ in range(points)]
    reports = [interference_report(rates_fine(fine, k_b, k_c)) for k_b, k_c in zip(ks, ks_c)]
    assert_sweep_equals_reports(interference_sweep(fine, ks, ks_c), reports)
    reports = [interference_report(rates_hyperfine(hyperfine, k)) for k in ks]
    assert_sweep_equals_reports(interference_sweep(hyperfine, ks), reports)


def test_sweep_keeps_none_and_the_sign_of_zero():
    # on the D-line the first K makes p(-1/2) None and p(1/2) -0.0, a tiny
    # negative cross term over a large diagonal
    fine = LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"))
    diagonals = ([1e-300, 0.0, 1e300], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    ks = [KMatrix.from_diagonal(diagonal) for diagonal in diagonals]
    reports = [interference_report(rates_fine(fine, k, k)) for k in ks]
    assert [None if p.value is None else p.value.hex() for p in reports[0].points] == [
        None, "-0x0.0p+0"
    ]
    assert_sweep_equals_reports(interference_sweep(fine, ks), reports)


@pytest.mark.parametrize("spin", [None, "3/2", "7/2"])
def test_sweep_equals_reports_on_200_cavity_points(spin):
    fine = LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"), omega_bd=1.3)
    cavities = map(ModeDensityModifier.planar_cavity, np.linspace(0.5, 0.95, 200))
    ks = [k_spontaneous(cavity, 1.0) for cavity in cavities]
    if spin is None:
        reports = [interference_report(rates_fine(fine, k, k)) for k in ks]
        assert_sweep_equals_reports(interference_sweep(fine, ks), reports)
    else:
        scheme = HyperfineScheme(fine=fine, nuclear_spin=half(spin))
        reports = [interference_report(rates_hyperfine(scheme, k)) for k in ks]
        assert_sweep_equals_reports(interference_sweep(scheme, ks), reports)


def test_sweep_inputs_are_checked():
    fine = LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"))
    k = KMatrix.from_diagonal([0.3, 0.2, 0.1])
    assert interference_sweep(fine, []).values.shape == (0, 2)
    with pytest.raises(DistributionDomainError, match="one K per point"):
        interference_sweep(fine, [k, k], [k])
    with pytest.raises(RateSetContractError, match="HyperfineScheme"):
        interference_sweep(HyperfineScheme(fine=fine, nuclear_spin=half(1)), [k], [k])
    skewed = KMatrix(np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=complex))
    with pytest.raises(DistributionDomainError, match="not Hermitian"):
        interference_sweep(fine, [k, skewed])
    # coefficients that overflow raise as in the rate builder, without a warning
    huge, k = replace(fine, rate_scale=1e308), KMatrix.from_diagonal([1e10] * 3)
    for sweep_or_build in (lambda: interference_sweep(huge, [k]), lambda: rates_fine(huge, k, k)):
        with pytest.raises(SchemeError, match="rate coefficients overflow"):
            sweep_or_build()
