"""Acceptance gate: ten numbered criteria, one test (one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` so each criterion reports a
single PASSED/FAILED line.  Tolerances are pinned inside each test and are
not to be loosened; if a criterion cannot be met the test stays red and the
analysis belongs in the engineering notes, not here.
"""

import math
import time

import numpy as np
import pytest

from vrelax.angular import (
    D1_sky_average_defect,
    cg_orthogonality_defect,
    channel_sum_defect,
    d1_orthogonality_defect,
    sixj_sum_rule_defect,
)
from vrelax.cli import main
from vrelax.config import preset_config, serialize_config
from vrelax.dynamics import build_hamiltonian, propagate
from vrelax.environment import (
    AngularDistribution,
    KMatrix,
    ModeDensityModifier,
    k_spontaneous,
    k_stimulated,
)
from vrelax.halfint import HalfInt, half, projections, triangle_range
from vrelax.operators import (
    Basis,
    HyperfineScheme,
    LevelScheme,
    build_relaxation_superop,
    interference_report,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    rates_stimulated,
)

JMAX = half("9/2")
VACUUM_K = KMatrix.from_diagonal([2 / 3, 2 / 3, 2 / 3])


def dline(**kw) -> LevelScheme:
    kw.setdefault("j_b", half("3/2"))
    kw.setdefault("j_c", half("1/2"))
    kw.setdefault("j_d", half("1/2"))
    return LevelScheme(**kw)


def random_fine_scheme(rng, j_max_twice=9):
    """Dipole-valid scheme with distinct excited J (the diagonality theorem
    needs J_b != J_c: equal angular momenta make the cross sum collapse onto
    the diagonal one instead of cancelling)."""
    while True:
        td = int(rng.integers(0, j_max_twice + 1))
        choices = [
            t for t in (td - 2, td, td + 2)
            if 0 <= t <= j_max_twice and (t, td) != (0, 0)
        ]
        if len(choices) < 2:
            continue
        tb, tc = rng.choice(choices, size=2, replace=False)
        return LevelScheme(j_b=HalfInt(int(tb)), j_c=HalfInt(int(tc)), j_d=HalfInt(td))


def test_criterion_01_angular_identity_suite():
    """CG orthogonality, channel sum rule, d1 orthogonality, sky-average
    quadrature, and the 6j sum rule on the J <= 9/2 grid in under 10 s."""
    started = time.monotonic()
    worst_exact = 0.0

    grid = [HalfInt(t) for t in range(0, 10)]
    for j1 in grid:
        for j2 in grid:
            worst_exact = max(worst_exact, cg_orthogonality_defect(j1, j2))
    for j_d in grid:
        uppers = [j for j in triangle_range(j_d, 1) if j <= JMAX]
        for j1 in uppers:
            for j2 in uppers:
                worst_exact = max(worst_exact, channel_sum_defect(j_d, j1, j2))
    worst_exact = max(worst_exact, d1_orthogonality_defect(np.linspace(0.0, math.pi, 361)))
    worst_exact = max(worst_exact, sixj_sum_rule_defect(JMAX))
    quad_defect = D1_sky_average_defect(16)

    elapsed = time.monotonic() - started
    assert worst_exact < 1e-12
    assert quad_defect < 1e-10
    assert elapsed < 10.0


def test_criterion_02_free_space_diagonality_random_schemes():
    """50 random fine and 10 random hyperfine schemes: vacuum rate tables
    have no off-diagonal entry above 1e-12."""
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for _ in range(50):
        scheme = random_fine_scheme(rng, j_max_twice=9)
        rs = rates_fine(scheme, VACUUM_K, VACUUM_K)
        for (j1, m1, j2, m2), value in rs.upper.items():
            if (j1, m1) != (j2, m2):
                worst = max(worst, abs(value))
    for _ in range(10):
        fine = random_fine_scheme(rng, j_max_twice=5)
        spin = HalfInt(int(rng.integers(1, 6)))
        rs = rates_hyperfine(HyperfineScheme(fine=fine, nuclear_spin=spin), VACUUM_K)
        for key, value in rs.upper.items():
            if key[:3] != key[3:]:
                worst = max(worst, abs(value))
    assert worst < 1e-12


def test_criterion_03_isotropic_stimulated_dline():
    """Isotropic photon field: every diagonal stimulated rate equals
    (2/3) N S and the cross rate vanishes, to 1e-12."""
    n_mean, s_scale = 0.7, 1.3
    scheme = dline(rate_scale=s_scale)
    rs = rates_stimulated(
        scheme,
        AngularDistribution.isotropic(n_mean),
        ModeDensityModifier.vacuum(),
    )
    expected = (2.0 / 3.0) * n_mean * s_scale
    for level, j in (("b", scheme.j_b), ("c", scheme.j_c)):
        for m in projections(j):
            assert abs(rs.upper.get((level, m, level, m), 0j) - expected) < 1e-12
    for m in projections(scheme.j_c):
        assert abs(rs.upper.get(("b", m, "c", m), 0j)) < 1e-12
    for (j1, m1, j2, m2), value in rs.upper.items():
        if (j1, m1) != (j2, m2):
            assert abs(value) < 1e-12


def test_criterion_04_injected_k_regression_and_p():
    """Injecting the reference anisotropic K values reproduces the frozen
    rate table to 1e-12 and an interference degree within 5e-3 of 0.64."""
    k = KMatrix.from_diagonal([4 / 75, 4 / 15, 4 / 75])
    rs = rates_injected(dline(), k)
    assert abs(rs.upper.get(("b", half("3/2"), "b", half("3/2")), 0j) - 12 / 225) < 1e-12
    assert abs(rs.upper.get(("b", half("-3/2"), "b", half("-3/2")), 0j) - 12 / 225) < 1e-12
    assert abs(rs.upper.get(("b", half("1/2"), "b", half("1/2")), 0j) - 44 / 225) < 1e-12
    assert abs(rs.upper.get(("c", half("1/2"), "c", half("1/2")), 0j) - 28 / 225) < 1e-12
    assert abs(rs.upper.get(("b", half("1/2"), "c", half("1/2")), 0j) - 16 * math.sqrt(2) / 225) < 1e-12

    report = interference_report(rs)
    by_m = {p.m: p.value for p in report.points}
    assert abs(by_m[half("1/2")] - 0.64) < 5e-3
    assert by_m[half("1/2")] == pytest.approx(0.6446583712203043, abs=1e-12)
    assert by_m[half("-1/2")] == pytest.approx(-by_m[half("1/2")], abs=1e-15)


def test_criterion_05_quadrature_matches_riemann_oracle():
    """Gauss-Legendre order-16 K for the cos^2 field matches an independent
    2x10^6-node midpoint Riemann oracle to 1e-8; the diagonal is the
    documented (4/15, 2/15, 4/15) x N closed form."""
    n_mean = 1.0
    quad = k_stimulated(
        AngularDistribution.axisymmetric_cos2(n_mean),
        ModeDensityModifier.vacuum(),
        omega=1.0,
        quad_order=16,
    )

    # Midpoint-rule oracle on a 400000 x 5 (theta, phi) product grid,
    # 2e6 nodes per helicity, with the rotation functions written out
    # longhand rather than taken from the angular module.  The phi factor
    # is a pure harmonic e^{ik phi} with |k| <= 2, which any uniform rule
    # with more than two nodes integrates exactly, so the theta direction
    # gets essentially the whole node budget.
    n_theta, n_phi = 400_000, 5
    theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    d_theta = math.pi / n_theta
    d_phi = 2.0 * math.pi / n_phi
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    s_fun = {
        (1, -1): 0.5 * (1.0 - cos_t),
        (1, 0): sin_t / math.sqrt(2.0),
        (1, 1): 0.5 * (1.0 + cos_t),
        (-1, -1): 0.5 * (1.0 + cos_t),
        (-1, 0): -sin_t / math.sqrt(2.0),
        (-1, 1): 0.5 * (1.0 - cos_t),
    }
    occupation = n_mean * cos_t ** 2
    oracle = {}
    for sig in (-1, 0, 1):
        for sig_p in (-1, 0, 1):
            theta_sum = sum(
                np.sum(occupation * s_fun[(lam, sig_p)] * s_fun[(lam, sig)] * sin_t)
                for lam in (-1, 1)
            )
            phi_sum = np.sum(np.exp(1j * (sig - sig_p) * phi))
            oracle[(sig, sig_p)] = (
                theta_sum * phi_sum * d_theta * d_phi / (4.0 * math.pi)
            )

    worst = max(
        abs(quad.entry(sig, sig_p) - oracle[(sig, sig_p)])
        for sig in (-1, 0, 1)
        for sig_p in (-1, 0, 1)
    )
    assert worst < 1e-8
    assert abs(quad.entry(0, 0) - 2.0 * n_mean / 15.0) < 1e-12
    assert abs(quad.entry(1, 1) - 4.0 * n_mean / 15.0) < 1e-12
    assert abs(quad.entry(-1, -1) - 4.0 * n_mean / 15.0) < 1e-12


def test_criterion_06_cavity_interference_limit():
    """The interference degree grows monotonically with cavity reflectivity,
    starts at zero, and exceeds 0.98 by r = 0.99."""
    values = []
    for r in (0.0, 0.3, 0.6, 0.9, 0.99):
        k = k_spontaneous(ModeDensityModifier.planar_cavity(r), omega=1.0)
        rs = rates_fine(dline(), k, k)
        report = interference_report(rs)
        by_m = {p.m: p.value for p in report.points}
        values.append(by_m[half("1/2")])
    assert abs(values[0]) < 1e-12
    for lo, hi in zip(values, values[1:]):
        assert hi > lo
    assert values[-1] > 0.98


def test_criterion_07_closed_form_assembly_random_diagonal_k():
    """100 random diagonal K inputs reproduce every line of the D-line
    closed-form rate table to 1e-12.  The assembled (-1/2, -1/2) cross term
    carries the (K(-1,-1) - K(0,0)) sign ordering, mirrored from the
    (+1/2, +1/2) row; the magnitude check below is sign-blind and the exact
    check pins the ordering the CG sum actually produces."""
    rng = np.random.default_rng(42)
    s = 2.1
    scheme = dline(rate_scale=s)
    r2 = math.sqrt(2.0)
    worst = 0.0
    for _ in range(100):
        km, k0, kp = rng.uniform(0.0, 5.0, size=3)
        k = KMatrix.from_diagonal([km, k0, kp])
        rs = rates_fine(scheme, k, k)
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
            worst = max(worst, abs(abs(got) - abs(want)))
            # the pair-exchange symmetry line of the table
            worst = max(worst, abs(rs.upper.get((j2, half(m2), j1, half(m1)), 0j) - got))
    assert worst < 1e-12


def test_criterion_08_dynamics_quality():
    """Trace drift < 1e-9 and Hermiticity drift < 1e-12 over ten decay
    times; single-channel decay rate within 1e-4 relative; RK4 convergence
    order at least 3.8."""
    scheme = dline(omega_bd=1.3, omega_cd=1.0)
    basis = Basis.for_fine(scheme)
    rs = rates_fine(scheme, VACUUM_K, VACUUM_K)
    superop = build_relaxation_superop(rs, basis)
    hamiltonian = build_hamiltonian(scheme)
    n = len(basis)

    # a pure superposition across all three levels exercises every coherence
    amp = np.zeros(n, dtype=complex)
    for state_label in ("b:M=1/2", "c:M=1/2", "d:M=-1/2"):
        amp[basis.labels().index(state_label)] = 1.0
    amp /= np.linalg.norm(amp)
    rho0 = np.outer(amp, amp.conj())

    # population decay rate 2 * (2/3) = 4/3, so ten lifetimes is t = 7.5
    traj = propagate(rho0, hamiltonian, [superop], t_final=7.5, dt=0.0025,
                     sample_every=10)
    trace_drift = float(np.max(np.abs(traj.traces() - 1.0)))
    herm_drift = float(
        np.max(np.abs(traj.states - np.conj(np.swapaxes(traj.states, 1, 2))))
    )
    assert trace_drift < 1e-9
    assert herm_drift < 1e-12

    # single-channel rate: one excited sublevel decays as exp(-4t/3)
    idx = basis.labels().index("b:M=3/2")
    rho_single = np.zeros((n, n), dtype=complex)
    rho_single[idx, idx] = 1.0
    traj = propagate(rho_single, hamiltonian, [superop], t_final=3.0, dt=0.002)
    pops = traj.populations()[:, idx]
    mask = pops > 1e-8
    slope = np.polyfit(traj.times[mask], np.log(pops[mask]), 1)[0]
    rate = 4.0 / 3.0
    assert abs(-slope - rate) < 1e-4 * rate

    # convergence order from the exact exponential at two step sizes
    errors = []
    for dt in (0.06, 0.03):
        traj = propagate(rho_single, hamiltonian, [superop], t_final=1.5, dt=dt)
        errors.append(abs(traj.populations()[-1, idx] - math.exp(-rate * 1.5)))
    order = math.log2(errors[0] / errors[1])
    assert order >= 3.8


def test_criterion_09_photonic_crystal_asymmetry():
    """With the band edge between the two transition frequencies, the two
    cross coefficients differ, and every coefficient fed by the gapped
    channel at the in-gap frequency is exactly zero."""
    scheme = dline(omega_bd=1.01, omega_cd=1.0)
    modifier = ModeDensityModifier.photonic_crystal(
        omega_edge=1.005, curvature=1.0, gapped_channels=(0,)
    )
    k_b = k_spontaneous(modifier, scheme.omega_bd)
    k_c = k_spontaneous(modifier, scheme.omega_cd)
    rs = rates_fine(scheme, k_b, k_c)

    bc = rs.upper.get(("b", half("-1/2"), "c", half("-1/2")), 0j)
    cb = rs.upper.get(("c", half("-1/2"), "b", half("-1/2")), 0j)
    assert bc != 0.0 and cb != 0.0
    assert abs(bc - cb) > 1e-3

    # pi-channel (sigma = 0) coefficients through the in-gap line: the
    # stored tables must not contain them at all, and lookups return 0.0
    for key in rs.feeding:
        j2, m2, md2 = key[3], key[4], key[5]
        if j2 == "c":
            assert (m2 - md2).twice != 0, f"gapped channel survived at {key}"
    for m in projections(scheme.j_c):
        assert rs.feeding.get(("c", m, m, "c", m, m), 0j) == 0.0


def test_criterion_10_end_to_end_determinism(tmp_path):
    """The paper-K preset writes byte-identical CSV across two runs and
    when read back from its serialized INI file."""
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(["rates", "--preset", "dline-paper-k", "--out", str(paths[0])]) == 0
    assert main(["rates", "--preset", "dline-paper-k", "--out", str(paths[1])]) == 0
    ini = tmp_path / "paper-k.ini"
    ini.write_text(serialize_config(preset_config("dline-paper-k")), encoding="utf-8")
    assert main(["rates", "--config", str(ini), "--out", str(paths[2])]) == 0
    first = paths[0].read_bytes()
    assert first == paths[1].read_bytes()
    assert first == paths[2].read_bytes()
