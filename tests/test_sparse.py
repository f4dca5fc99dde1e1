"""Sparse superoperators, the sparse evolve path and one-call-per-row CSV.

Each fast path is checked against the code it replaced, kept here as the
oracle: the dense kron assembly of the superoperator builders (equal to the
bit), a dense-gemv RK4 loop (to 1e-13), and the per-element ``repr(float(x))``
CSV loops (byte for byte).
"""

import csv
import io
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import vrelax
from vrelax.config import (
    PRESETS,
    build_rate_sets,
    build_rho0,
    build_scheme,
    preset_config,
    preset_names,
    scheme_basis,
)
from vrelax.csvio import write_superoperator, write_trajectory
from vrelax.dynamics import Trajectory, build_hamiltonian, propagate
from vrelax.environment import KMatrix
from vrelax.errors import SchemeError, VrelaxError
from vrelax.halfint import half
from vrelax.operators import (
    Basis,
    BasisState,
    HyperfineScheme,
    LevelScheme,
    Superoperator,
    _embed_upper,
    _feeding_states,
    build_relaxation_superop,
    build_stimulated_superop,
    rates_fine,
    rates_hyperfine,
    rates_injected,
)


def dline(**kw):
    return LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"), **kw)


def random_psd_k(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return KMatrix((m.conj().T @ m) / 3.0, evaluated_at=None, provenance="injected")


def bits(array):
    """The raw bit patterns of a complex array (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(array, dtype=complex).view(np.uint64)


# ---------------------------------------------------------------------------
# dense references


def _subtract_depopulation(lmat, g):
    n = g.shape[0]
    eye = np.eye(n, dtype=complex)
    lmat -= np.kron(g, eye)
    lmat -= np.kron(eye, g.conj())


def dense_superop(rates, basis):
    """The dense assembly the sparse builders replace: np.zeros, -= kron,
    then the feeding += loops (emission, and for stimulated sets absorption)."""
    n = len(basis)
    stimulated = rates.kind == "stimulated"
    lmat = np.zeros((n * n, n * n), dtype=complex)
    _subtract_depopulation(lmat, _embed_upper(rates, basis))
    if stimulated:
        g_ground = np.zeros((n, n), dtype=complex)
        for (md1, md2), value in rates.ground.items():
            i = basis.index(BasisState("d", md1))
            j = basis.index(BasisState("d", md2))
            g_ground[i, j] += value
        _subtract_depopulation(lmat, g_ground)
    for key, value in rates.feeding.items():
        i1, id1, i2, id2 = (basis.index(s) for s in _feeding_states(rates, key))
        conj = complex(value).conjugate()
        lmat[id1 * n + id2, i1 * n + i2] += conj
        lmat[id2 * n + id1, i2 * n + i1] += value
        if stimulated:
            lmat[i1 * n + i2, id1 * n + id2] += conj
            lmat[i2 * n + i1, id2 * n + id1] += value
    return lmat


def dense_rk4(rho0, h, superop_matrices, steps, dt):
    """Fixed-step RK4 with dense gemv and re-Hermitization, as propagate did."""
    n = rho0.shape[0]
    eye = np.eye(n, dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for mat in superop_matrices:
        gen = gen + mat
    states = [rho0]
    y = rho0.reshape(n * n)
    for _ in range(steps):
        k1 = gen @ y
        k2 = gen @ (y + (0.5 * dt) * k1)
        k3 = gen @ (y + (0.5 * dt) * k2)
        k4 = gen @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = y.reshape(n, n)
        rho = 0.5 * (rho + rho.conj().T)
        y = rho.reshape(n * n)
        states.append(rho)
    return np.asarray(states)


def _build(rates, basis):
    if rates.kind == "stimulated":
        return build_stimulated_superop(rates, basis)
    return build_relaxation_superop(rates, basis)


# ---------------------------------------------------------------------------
# builders against the dense assembly


@pytest.mark.parametrize("name", preset_names())
def test_builders_bitwise_equal_dense_assembly_on_presets(name):
    cfg = preset_config(name)
    basis = scheme_basis(build_scheme(cfg))
    sets = build_rate_sets(cfg)
    assert sets
    for _label, rates in sets:
        sup = _build(rates, basis)
        assert sup.matrix.format == "csr"
        assert np.array_equal(bits(sup.matrix.toarray()), bits(dense_superop(rates, basis)))


def test_builders_bitwise_equal_dense_assembly_on_helicity_mixing_k():
    rng = np.random.default_rng(31)
    fine = dline(omega_bd=1.3, omega_cd=1.0)
    hyperfine = HyperfineScheme(fine=fine, nuclear_spin=half("1"))
    for _ in range(3):
        k = random_psd_k(rng)
        cases = [
            (rates_fine(fine, k, random_psd_k(rng)), Basis.for_fine(fine)),
            (rates_injected(fine, k), Basis.for_fine(fine)),
            (rates_hyperfine(hyperfine, k), Basis.for_hyperfine(hyperfine)),
        ]
        for rates, basis in cases:
            dense = dense_superop(rates, basis)
            assert np.count_nonzero(dense) > 0
            assert np.array_equal(bits(_build(rates, basis).matrix.toarray()), bits(dense))


@pytest.mark.parametrize("name, steps", [("dline-cos2", 400), ("sodium-hyperfine", 150)])
def test_sparse_rk4_matches_dense_gemv_rk4(name, steps):
    cfg = preset_config(name)
    scheme = build_scheme(cfg)
    basis = scheme_basis(scheme)
    superops = [_build(rates, basis) for _label, rates in build_rate_sets(cfg)]
    hamiltonian = build_hamiltonian(scheme, basis)
    rho0 = build_rho0(cfg, scheme, basis)
    dt = cfg.run.dt
    traj = propagate(rho0, hamiltonian, superops, steps * dt, dt)
    ref = dense_rk4(
        rho0, hamiltonian.matrix(), [op.matrix.toarray() for op in superops], steps, dt
    )
    assert traj.states.shape == ref.shape
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


def test_sparse_rk4_matches_dense_gemv_rk4_with_full_hamiltonian():
    """A non-diagonal Hamiltonian takes the kron branch of the generator."""
    rng = np.random.default_rng(37)
    scheme = dline(omega_bd=1.3, omega_cd=1.0)
    basis = Basis.for_fine(scheme)
    n = len(basis)
    sup = build_relaxation_superop(rates_fine(scheme, random_psd_k(rng), random_psd_k(rng)))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.2 * (m + m.conj().T)
    rho0 = np.eye(n, dtype=complex) / n
    traj = propagate(rho0, h, [sup], 200 * 0.005, 0.005)
    ref = dense_rk4(rho0, h, [sup.matrix.toarray()], 200, 0.005)
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# construction


def test_superoperator_rejects_wrong_shape_at_construction():
    basis = Basis.for_fine(dline())
    n = len(basis)
    for bad in (np.zeros((n, n)), np.zeros((n * n, n * n + 1)), np.zeros((n * n,)),
                np.zeros((2, n * n, n * n))):
        with pytest.raises(SchemeError, match="shape") as exc_info:
            Superoperator(bad, basis, "bad")
        assert isinstance(exc_info.value, VrelaxError)


def test_dense_input_round_trips():
    rng = np.random.default_rng(41)
    basis = Basis.for_fine(dline())
    n = len(basis)
    dense = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    dense[rng.random(dense.shape) < 0.9] = 0.0
    sup = Superoperator(dense, basis, "random")
    assert sup.matrix.format == "csr"
    assert sup.matrix.nnz == np.count_nonzero(dense)
    assert np.array_equal(sup.matrix.toarray(), dense)
    real = Superoperator(dense.real, basis, "real")
    assert real.matrix.dtype == complex
    assert np.array_equal(real.matrix.toarray(), dense.real)


def test_import_and_rate_assembly_leave_scipy_unloaded(tmp_path):
    ini = tmp_path / "sodium.ini"
    ini.write_text(textwrap.dedent(PRESETS["sodium-hyperfine"]), encoding="utf-8")
    code = textwrap.dedent(
        f"""
        import sys
        import vrelax
        from vrelax.config import build_rate_sets, preset_config, preset_names
        assert build_rate_sets(vrelax.load_config({str(ini)!r}))
        for name in preset_names():
            build_rate_sets(preset_config(name))
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(",".join(loaded))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(vrelax.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------------
# CSV emission against the per-element loops


def _num(value):
    return repr(float(value))


def loop_trajectory_csv(trajectory, labels, populations_only):
    """The per-element writer that write_trajectory replaced."""
    out = io.StringIO()
    n = len(labels)
    for i, label in enumerate(labels):
        out.write(f"# basis {i}: {label}\n")
    writer = csv.writer(out, lineterminator="\n")
    if populations_only:
        writer.writerow(["t"] + [f"pop_{i}" for i in range(n)])
        for t, state in trajectory:
            writer.writerow([_num(t)] + [_num(state[i, i].real) for i in range(n)])
        return out.getvalue()
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    writer.writerow(header)
    for t, state in trajectory:
        row = [_num(t)]
        for i in range(n):
            for j in range(n):
                row += [_num(state[i, j].real), _num(state[i, j].imag)]
        writer.writerow(row)
    return out.getvalue()


def test_trajectory_csv_bytes_match_per_element_loop():
    rng = np.random.default_rng(43)
    n, samples = 5, 7
    states = rng.normal(size=(samples, n, n)) + 1j * rng.normal(size=(samples, n, n))
    states[0, 0, 0] = complex(-0.0, -0.0)
    states[1, 1, 1] = complex(5e-324, -5e-324)
    states[2, 2, 2] = 1e22 + 1e-300j
    states[3, 3, 3] = complex(0.1 + 0.2, -1.0 / 3.0)
    states[4] = 0.0
    times = np.array([0.0, 5e-324, 0.1 + 0.2, 1e22, 2.5, 3.0, -0.0])
    trajectory = Trajectory(times, states)
    labels = [f"s{i}" for i in range(n)]
    for populations_only in (False, True):
        out = io.StringIO()
        write_trajectory(out, trajectory, labels, populations_only=populations_only)
        assert out.getvalue() == loop_trajectory_csv(trajectory, labels, populations_only)


def test_superoperator_csv_bytes_match_per_element_loop():
    rng = np.random.default_rng(47)
    basis = Basis.for_fine(dline())
    n = len(basis)
    dense = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    dense[rng.random(dense.shape) < 0.8] = 0.0
    dense[0, 1] = complex(5e-324, -0.0)
    dense[2, 3] = 1e22 + 1e-300j
    sup = Superoperator(dense, basis, "random")
    out = io.StringIO()
    write_superoperator(out, sup, comments=["c"])

    ref = io.StringIO()
    ref.write("# c\n# label: random\n# vec convention: row-major, vec index = i*n + j\n")
    for i, label in enumerate(basis.labels()):
        ref.write(f"# basis {i}: {label}\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(("row", "col", "re", "im"))
    matrix = sup.matrix.toarray()
    for row in range(n * n):
        for col in range(n * n):
            value = matrix[row, col]
            writer.writerow((row, col, _num(value.real), _num(value.imag)))
    assert out.getvalue() == ref.getvalue()
