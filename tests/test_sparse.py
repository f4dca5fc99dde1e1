"""Sparse superoperators, the sparse evolve path and one-call-per-row CSV.

Each fast path is checked against the code it replaced, kept here as the
oracle: the dense kron assembly of the superoperator builders (equal to the
bit), a dense-gemv RK4 loop (to 1e-13), the full-space sparse RK4 that
propagation over the reached entries replaced (to 1e-13, with every entry
outside them exactly +0.0, and the reached entries those it ever makes
nonzero), the complex step plus Hermitization that the real coordinates
replaced (to 1e-13, on a superoperator that does not preserve Hermiticity),
the per-step trace and positivity monitors that the batched ones replaced
(to the bit, aborts included), and
the per-element ``repr(float(x))`` CSV loops (byte for byte).  The tables a
``RateSet`` derives from its feeding table are checked against the dict
path that summed them from the keys before (equal to the bit), and the
component labelling against
scipy's weak ``connected_components`` (equal labels).
"""

import csv
import io
import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import vrelax
from vrelax.config import (
    PRESETS,
    build_rate_sets,
    build_rho0,
    build_scheme,
    preset_config,
    preset_names,
)
from vrelax.csvio import (
    write_density_matrix,
    write_rate_tables,
    write_superoperator,
    write_trajectory,
)
from vrelax.dynamics import (
    _NEGATIVITY_TOL,
    _TRACE_DRIFT_TOL,
    AtomicHamiltonian,
    Trajectory,
    _blocks,
    _components,
    _generator,
    _hermitized,
    _reached,
    build_hamiltonian,
    propagate,
    step_count,
    validate_density_matrix,
)
from vrelax.environment import KMatrix
from vrelax.errors import NumericalAbortError, SchemeError, VrelaxError
from vrelax.halfint import HalfInt, half
from vrelax.operators import (
    Basis,
    BasisState,
    HyperfineScheme,
    LevelScheme,
    SparseMatrix,
    Superoperator,
    build_relaxation_superop,
    build_stimulated_superop,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    sparse_sum,
)


def dline(**kw):
    return LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"), **kw)


def random_psd_k(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return KMatrix((m.conj().T @ m) / 3.0, evaluated_at=None, provenance="injected")


def bits(array):
    """The raw bit patterns of a complex array (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(array, dtype=complex).view(np.uint64)


def full_trajectory(times, states):
    """A Trajectory that stores every vec entry of its (samples, n, n) states."""
    samples, n, _ = np.shape(states)
    return Trajectory(np.asarray(times, dtype=float), np.arange(n * n),
                      np.reshape(states, (samples, n * n)), n)


def assert_same_csv(got: str, expected: str) -> None:
    """``assert got == expected`` for CSV texts that fails with the first
    differing line, not with pytest's diff of the whole strings (which ran
    for minutes on a multi-thousand-line CSV)."""
    if got == expected:
        return
    pairs = itertools.zip_longest(got.splitlines(True), expected.splitlines(True))
    number, (ours, theirs) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
    pytest.fail(f"CSV line {number} differs:\n  got      {ours!r}\n  expected {theirs!r}")


def assert_sorted_coo(matrix):
    """``matrix`` is a SparseMatrix: int64 (row, col) sorted by row then
    column, each stored once, with a complex nonzero value each."""
    assert isinstance(matrix, SparseMatrix)
    assert matrix.row.dtype == matrix.col.dtype == np.int64
    assert matrix.data.dtype == complex and np.all(matrix.data != 0)
    keys = matrix.row * matrix.shape[1] + matrix.col
    assert np.all(np.diff(keys) > 0) and matrix.nnz == keys.size


# The dict path that summed ``RateSet``'s derived tables from the feeding
# keys themselves, before they were summed from basis positions, kept as
# their oracle: every key is split into its halves in Python.


def _split_feeding(key: tuple, hyperfine: bool) -> tuple[tuple, tuple, tuple, tuple]:
    """(upper1, ground1, upper2, ground2) halves of a feeding key.

    The halves are (level, M) + (Md,) for fine structure and
    (level, F, M) + (Fd, Md) for hyperfine structure.
    """
    mid = len(key) // 2
    cut = 3 if hyperfine else 2
    return key[:cut], key[cut:mid], key[mid : mid + cut], key[mid + cut :]


def _partial_trace(
    feeding: Mapping[tuple, complex], hyperfine: bool, over: str
) -> dict[tuple, complex]:
    """Sums of feeding entries sharing their ``over`` sublevel ("ground" or "upper").

    Entries are added in feeding-table order.
    """
    sums: dict[tuple, complex] = {}
    for key, value in feeding.items():
        up1, gr1, up2, gr2 = _split_feeding(key, hyperfine)
        if over == "ground" and gr1 == gr2:
            out = up1 + up2
        elif over == "upper" and up1 == up2:
            out = gr1 + gr2
        else:
            continue
        sums[out] = sums.get(out, 0.0 + 0.0j) + value
    return sums


def _nonzero(table: Mapping[tuple, complex]) -> dict[tuple, complex]:
    return {key: value for key, value in table.items() if value != 0.0}


def ordered_partial_traces(rates):
    """(upper, ground) of a rate set, summed here from its feeding table.

    The oracle of the tables ``RateSet`` derives: ``upper`` adds, in feeding
    order, the entries whose two ground halves agree and ``ground`` those
    whose two excited halves agree.  Fine ``upper`` and every ``ground`` drop
    sums of exactly 0.0; ``ground`` is None for spontaneous sets.
    """
    upper = _partial_trace(rates.feeding, rates.hyperfine, over="ground")
    if not rates.hyperfine:
        upper = _nonzero(upper)
    ground = _nonzero(_partial_trace(rates.feeding, rates.hyperfine, over="upper"))
    return upper, (ground if rates.kind == "stimulated" else None)


def assert_derived_tables_bitwise(rates):
    """The set's ``upper`` and ``ground`` equal the oracle's: keys, order and bits."""
    upper, ground = ordered_partial_traces(rates)
    for table, oracle in ((rates.upper, upper), (rates.ground, ground)):
        if oracle is None:
            assert table is None
            continue
        assert list(table) == list(oracle)
        assert all(type(value) is complex for value in table.values())
        assert np.array_equal(bits(list(table.values())), bits(list(oracle.values())))


# ---------------------------------------------------------------------------
# dense references


def _subtract_depopulation(lmat, g):
    n = g.shape[0]
    eye = np.eye(n, dtype=complex)
    lmat -= np.kron(g, eye)
    lmat -= np.kron(eye, g.conj())


# The oracle reads rate-table keys itself, into BasisState objects that it
# finds by search in ``basis.states``, so it shares no code with the
# builders' key reader or position map.


def _state(level, numbers):
    """Basis state of a key half's quantum numbers, (M,) or (F, M)."""
    return BasisState(level, numbers[-1], *numbers[:-1])


def oracle_positions(rates, table, key, basis):
    """Basis positions of the states a key names, in key order.

    Feeding halves are (level, M) + (Md,) for fine and (level, F, M) +
    (Fd, Md) for hyperfine structure; ground keys hold ground halves only.
    """
    mid = len(key) // 2
    if table == "feeding":
        cut = 3 if rates.hyperfine else 2
        up1, gr1, up2, gr2 = key[:cut], key[cut:mid], key[mid : mid + cut], key[mid + cut :]
        states = (_state(up1[0], up1[1:]), _state("d", gr1), _state(up2[0], up2[1:]),
                  _state("d", gr2))
    elif table == "ground":
        states = (_state("d", key[:mid]), _state("d", key[mid:]))
    else:
        states = (_state(key[0], key[1:mid]), _state(key[mid], key[mid + 1 :]))
    return [basis.states.index(state) for state in states]


def _oracle_embed(rates, table, basis):
    n = len(basis)
    g = np.zeros((n, n), dtype=complex)
    for key, value in getattr(rates, table).items():
        i, j = oracle_positions(rates, table, key, basis)
        g[i, j] += value
    return g


def dense_superop(rates, basis):
    """The dense assembly the sparse builders replace: np.zeros, -= kron,
    then the feeding += loops (emission, and for stimulated sets absorption)."""
    n = len(basis)
    stimulated = rates.kind == "stimulated"
    lmat = np.zeros((n * n, n * n), dtype=complex)
    _subtract_depopulation(lmat, _oracle_embed(rates, "upper", basis))
    if stimulated:
        _subtract_depopulation(lmat, _oracle_embed(rates, "ground", basis))
    for key, value in rates.feeding.items():
        i1, id1, i2, id2 = oracle_positions(rates, "feeding", key, basis)
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


def full_space_propagate(
    rho0: np.ndarray,
    hamiltonian: AtomicHamiltonian,
    superops: Sequence[Superoperator],
    t_final: float,
    dt: float,
    *,
    sample_every: int = 1,
) -> Trajectory:
    """The full-space RK4 that ``propagate`` replaced, kept as its oracle.

    Every step multiplies all n^2 vec entries by the whole sparse generator
    (as scipy CSR, the form it was stored in).

    ``t_final`` must be a whole number of ``dt`` steps (see :func:`step_count`);
    the trajectory is sampled every ``sample_every`` steps and always includes
    the initial and final states.  Warns when dt * max|generator| exceeds 0.1.

    Aborts with :class:`NumericalAbortError` (carrying the time and the
    monitor value) as soon as the trace drifts from its initial value by more
    than 1e-6 or an eigenvalue falls below -1e-6.
    """
    rho = validate_density_matrix(rho0).copy()
    steps = step_count(t_final, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    gen = _generator(hamiltonian, superops)
    gen = csr_array((gen.data, (gen.row, gen.col)), shape=gen.shape)
    n = len(hamiltonian.basis)
    if rho.shape != (n, n):
        raise SchemeError(
            f"Hamiltonian shape {(n, n)} does not match state dimension {rho.shape[0]}"
        )
    stiffness = dt * float(np.max(np.abs(gen.data))) if gen.nnz else 0.0
    if stiffness > 0.1:
        warnings.warn(
            f"dt * max|generator| = {stiffness:.3g} exceeds 0.1; "
            f"RK4 accuracy degrades, consider a smaller dt",
            RuntimeWarning,
            stacklevel=2,
        )

    trace0 = float(rho.trace().real)
    times = [0.0]
    states = [rho.copy()]
    y = rho.reshape(n * n)
    for step in range(1, steps + 1):
        k1 = gen @ y
        k2 = gen @ (y + (0.5 * dt) * k1)
        k3 = gen @ (y + (0.5 * dt) * k2)
        k4 = gen @ (y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = _hermitized(y.reshape(n, n))
        y = rho.reshape(n * n)
        t = step * dt

        drift = abs(float(rho.trace().real) - trace0)
        if drift > _TRACE_DRIFT_TOL:
            raise NumericalAbortError(
                f"trace drifted by {drift:.3e} (tolerance {_TRACE_DRIFT_TOL:.1e}) "
                f"at t={t:.6g}",
                time=t,
                value=drift,
            )
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < -_NEGATIVITY_TOL:
            raise NumericalAbortError(
                f"eigenvalue {smallest:.3e} fell below -{_NEGATIVITY_TOL:.1e} "
                f"at t={t:.6g}",
                time=t,
                value=smallest,
            )

        if step % sample_every == 0 or step == steps:
            times.append(t)
            states.append(rho.copy())

    return full_trajectory(times, np.asarray(states))


def per_step_propagate(
    rho0: np.ndarray,
    hamiltonian: AtomicHamiltonian,
    superops: Sequence[Superoperator],
    t_final: float,
    dt: float,
    *,
    sample_every: int = 1,
) -> Trajectory:
    """The per-step monitors that ``propagate``'s batched ones replaced, kept
    as their oracle.

    The same blocked RK4 step in real coordinates, then after every step the
    trace, the Cholesky certificate, finiteness and ``eigvalsh`` on the
    scattered n x n state.
    """
    rho = validate_density_matrix(rho0).copy()
    steps = step_count(t_final, dt)
    gen = _generator(hamiltonian, superops)
    n = len(hamiltonian.basis)
    trace0 = float(rho.trace().real)
    samples = -(-steps // sample_every) + 1
    states = np.zeros((samples, n, n), dtype=complex)
    states[0] = rho
    unsampled = np.zeros((n, n), dtype=complex)
    shift = (0.5 * _NEGATIVITY_TOL) * np.eye(n)
    positions, partner = _reached(gen, rho)
    index = np.full(n * n, -1)
    index[positions] = np.arange(positions.size)
    kept = (index[gen.row] >= 0) & (index[gen.col] >= 0)
    reached = [(index[gen.row[kept]], index[gen.col[kept]], gen.data[kept])]
    # slot a of (i, j) holds re rho_ij (i <= j) or im rho_ji (i > j): the state
    # x = T y has x_a = y_a + i y_b (i < j), y_b - i y_a (i > j), y_a (i = j),
    # with b the slot of (j, i), and the step is y <- Re(T^-1 P T) y
    lower = np.greater(*np.divmod(positions, n))
    local = np.arange(positions.size)
    diagonal = partner == local
    off = ~diagonal
    to_complex = sparse_sum(
        [
            (local, np.where(lower, partner, local), np.ones(positions.size)),
            (local[off], np.where(lower, local, partner)[off], np.where(lower, -1j, 1j)[off]),
        ],
        positions.size,
    )
    steppers = []
    with np.errstate(over="ignore", invalid="ignore"):
        for at, stack, t in _blocks(sparse_sum(reached, positions.size), to_complex):
            p = eye = np.eye(stack.shape[1])
            for c in (4.0, 3.0, 2.0, 1.0):
                p = eye + (dt / c) * stack @ p
            # T^-1 = T^dagger over the squared norms of T's columns
            norms = (abs(t) ** 2).sum(axis=1)[..., None]
            steppers.append((at, (t.conj().swapaxes(1, 2) @ p @ t).real / norms))
        x = rho.reshape(n * n)[positions]
        x = 0.5 * (x + x[partner].conj())
        y = np.where(lower, x[partner].imag, x.real)
        for step in range(1, steps + 1):
            for at, q in steppers:
                y[at] = np.matmul(q, y[at][..., None])[..., 0]
            x = np.empty(positions.size, dtype=complex)
            x.real = np.where(lower, y[partner], y)
            x.imag = np.where(lower, 0.0 - y, np.where(diagonal, 0.0, y[partner]))
            if step % sample_every == 0 or step == steps:
                rho = states[-(-step // sample_every)]
            else:
                rho = unsampled
            rho.reshape(n * n)[positions] = x
            t = step * dt
            drift = abs(float(rho.trace().real) - trace0)
            if not drift <= _TRACE_DRIFT_TOL:
                raise NumericalAbortError(
                    f"trace drifted by {drift:.3e} (tolerance {_TRACE_DRIFT_TOL:.1e}) "
                    f"at t={t:.6g}",
                    time=t,
                    value=drift,
                )
            try:
                if np.isfinite(np.linalg.cholesky(rho + shift)).all():
                    continue
            except np.linalg.LinAlgError:
                pass
            if not np.isfinite(rho).all():
                raise NumericalAbortError(f"state not finite at t={t:.6g}", time=t, value=math.nan)
            smallest = float(np.linalg.eigvalsh(rho)[0])
            if smallest < -_NEGATIVITY_TOL:
                raise NumericalAbortError(
                    f"eigenvalue {smallest:.3e} fell below -{_NEGATIVITY_TOL:.1e} "
                    f"at t={t:.6g}",
                    time=t,
                    value=smallest,
                )
    times = np.minimum(np.arange(samples) * sample_every, steps) * dt
    return full_trajectory(times, states)


def _build(rates, basis):
    if rates.kind == "stimulated":
        return build_stimulated_superop(rates, basis)
    return build_relaxation_superop(rates, basis)


# ---------------------------------------------------------------------------
# builders against the dense assembly


@pytest.mark.parametrize("name", preset_names())
def test_builders_bitwise_equal_dense_assembly_on_presets(name):
    cfg = preset_config(name)
    basis = Basis.for_scheme(build_scheme(cfg))
    sets = build_rate_sets(cfg)
    assert sets
    for _label, rates in sets:
        sup = _build(rates, basis)
        assert_sorted_coo(sup.matrix)
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


@st.composite
def random_rate_sets(draw):
    """A fine, injected or hyperfine rate set on a random scheme with n <= 32,
    under random PSD K, with its basis."""
    jd = draw(st.integers(0, 5))  # all angular momenta twice their value
    allowed = list(range(abs(jd - 2), jd + 3, 2))  # dipole partners of J_d
    jb, jc = draw(st.sampled_from(allowed)), draw(st.sampled_from(allowed))
    fine = LevelScheme(
        j_b=HalfInt(jb), j_c=HalfInt(jc), j_d=HalfInt(jd),
        omega_bd=draw(st.sampled_from([1.0, 1.3])), omega_cd=1.0,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["fine", "injected", "hyperfine"]))
    if kind == "fine":
        return rates_fine(fine, random_psd_k(rng), random_psd_k(rng)), Basis.for_fine(fine)
    if kind == "injected":
        return rates_injected(fine, random_psd_k(rng)), Basis.for_fine(fine)
    size = jb + jc + jd + 3  # sum of 2J + 1 over the three levels
    spin = draw(st.integers(0, 32 // size - 1))  # (2I + 1) * size <= 32
    scheme = HyperfineScheme(fine=fine, nuclear_spin=HalfInt(spin))
    return rates_hyperfine(scheme, random_psd_k(rng)), Basis.for_hyperfine(scheme)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_rate_sets())
def test_derived_tables_equal_ordered_partial_traces_on_random_schemes(case):
    rates, _basis = case
    assert_derived_tables_bitwise(rates)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_rate_sets(), st.integers(0, 2**32 - 1))
def test_generator_preserves_trace_and_hermiticity_on_random_schemes(case, seed):
    rates, basis = case
    gen = _generator(build_hamiltonian(rates.scheme, basis), [_build(rates, basis)])
    rng = np.random.default_rng(seed)
    n = len(basis)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a + a.conj().T
    drho = (gen.toarray() @ rho.reshape(n * n)).reshape(n, n)
    bound = 1e-13 * np.max(np.abs(gen.data)) * np.max(np.abs(rho))
    assert abs(np.trace(drho)) <= bound
    assert np.max(np.abs(drho - drho.conj().T)) <= bound


def _csv_row_key(row):
    """(table, key) of a rate CSV row, read back from its cells."""
    table = row[0].rsplit("-", 1)[1]
    j1, f1, m1, j2, f2, m2, md1, md2 = row[1:9]

    def upper(level, f, m):
        return (level, *([half(f)] if f else []), half(m))

    def ground(cell):
        return tuple(half(part) for part in cell.split(":"))

    if table == "upper":
        return table, upper(j1, f1, m1) + upper(j2, f2, m2)
    if table == "feeding":
        return table, upper(j1, f1, m1) + ground(md1) + upper(j2, f2, m2) + ground(md2)
    return table, ground(md1) + ground(md2)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(random_rate_sets())
def test_random_schemes_match_dense_oracle_and_write_rows_in_basis_order(case):
    rates, basis = case
    assert len(basis) <= 32
    dense = dense_superop(rates, basis)
    assert np.array_equal(bits(_build(rates, basis).matrix.toarray()), bits(dense))

    out = io.StringIO()
    write_rate_tables(out, [("x", rates)])
    rows = list(csv.reader(out.getvalue().splitlines()))[1:]
    keys = [_csv_row_key(row) for row in rows]
    tables = [table for table, _key in keys]
    expected = ["upper", "feeding", "ground"]
    assert tables == sorted(tables, key=expected.index)
    for table in expected:
        written = [key for name, key in keys if name == table]
        assert sorted(written, key=repr) == sorted(getattr(rates, table) or {}, key=repr)
        order = [oracle_positions(rates, table, key, basis) for key in written]
        assert order == sorted(order) and len(order) == len(set(map(tuple, order)))


@pytest.mark.parametrize("name, steps", [("dline-cos2", 400), ("sodium-hyperfine", 150)])
def test_sparse_rk4_matches_dense_gemv_rk4(name, steps):
    cfg = preset_config(name)
    scheme = build_scheme(cfg)
    basis = Basis.for_scheme(scheme)
    superops = [_build(rates, basis) for _label, rates in build_rate_sets(cfg)]
    hamiltonian = build_hamiltonian(scheme, basis)
    rho0 = build_rho0(cfg, scheme, basis)
    dt = cfg.run.dt
    traj = propagate(rho0, hamiltonian, superops, steps * dt, dt)
    ref = dense_rk4(
        rho0, np.diag(hamiltonian.diagonal).astype(complex),
        [op.matrix.toarray() for op in superops], steps, dt,
    )
    assert traj.states.shape == ref.shape
    assert np.max(np.abs(traj.states - ref)) <= 1e-13


def _preset_problem(name, rho0=None):
    cfg = preset_config(name)
    if rho0 is not None:
        cfg = replace(cfg, run=replace(cfg.run, rho0=rho0))
    scheme = build_scheme(cfg)
    basis = Basis.for_scheme(scheme)
    superops = [_build(rates, basis) for _label, rates in build_rate_sets(cfg)]
    return cfg, build_hamiltonian(scheme, basis), superops, build_rho0(cfg, scheme, basis)


def outcome(run, *args, **kwargs):
    """A propagation's result as bits, or the type and message it raised."""
    try:
        traj = run(*args, **kwargs)
    except NumericalAbortError as exc:
        return type(exc).__name__, str(exc), exc.time, exc.value
    return traj.times.tolist(), bits(traj.states).tobytes()


def assert_matches_full_space_oracle(rho0, hamiltonian, superops, t_final, dt, **kwargs):
    """``propagate`` against ``full_space_propagate`` on the same inputs.

    The times are equal; every vec entry outside the reached ones is +0.0,
    bit for bit, in every sample; the states agree within 1e-13.  An abort
    has the oracle's type and time and its value within 1e-9 relative.  Two
    calls give the same bits, and so does ``per_step_propagate``.
    """
    args = (rho0, hamiltonian, superops, t_final, dt)
    result = outcome(propagate, *args, **kwargs)
    assert outcome(propagate, *args, **kwargs) == result
    assert outcome(per_step_propagate, *args, **kwargs) == result
    try:
        ref = full_space_propagate(*args, **kwargs)
    except NumericalAbortError as exc:
        assert result[0] == type(exc).__name__ and result[2] == exc.time
        assert result[3] == pytest.approx(exc.value, rel=1e-9, abs=0.0)
        return
    traj = propagate(*args, **kwargs)
    assert np.array_equal(traj.times, ref.times)
    n = rho0.shape[0]
    outside = np.ones(n * n, dtype=bool)
    outside[_reached(_generator(hamiltonian, superops), rho0)[0]] = False
    assert not bits(traj.states.reshape(len(traj), n * n)[:, outside]).any()
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-13


@st.composite
def random_patterns(draw):
    """A nonzero pattern on 1..60 vec entries: random (row, col) pairs, so
    one-way edges, self-loops and isolated entries all occur."""
    size = draw(st.integers(1, 60))
    index = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(index, index), max_size=2 * size))
    return size, edges


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_patterns())
@example((1, []))
@example((5, [(3, 3)]))
@example((40, [(i + 1, i) for i in range(39)]))  # a path down from the last entry
@example((40, [((7 * i) % 40, (7 * i + 7) % 40) for i in range(39)]))  # a scrambled path
def test_components_label_like_csgraph(case):
    """Equal labels, not only equal partitions, to scipy's weak components."""
    size, edges = case
    rows, cols = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    pattern = sparse_sum([(rows, cols, np.ones(rows.size, dtype=complex))], size)
    oracle = csr_array((np.ones(pattern.nnz), (pattern.row, pattern.col)), shape=pattern.shape)
    count, labels = _components(pattern)
    ref_count, ref_labels = connected_components(oracle, directed=True, connection="weak")
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)


def reached_blocks(hamiltonian, superops, rho0):
    """Vec entries evolved from ``rho0`` and how many blocks hold them."""
    gen = _generator(hamiltonian, superops)
    positions, _partner = _reached(gen, rho0)
    return positions, len(np.unique(_components(gen)[1][positions]))


@pytest.mark.parametrize(
    "name", [name for name in preset_names() if preset_config(name).run.dt is not None]
)
def test_reachable_propagation_matches_full_space_oracle(name):
    cfg, hamiltonian, superops, rho0 = _preset_problem(name)
    assert_matches_full_space_oracle(rho0, hamiltonian, superops, cfg.run.t_final, cfg.run.dt)


@pytest.mark.parametrize("name", ["dline-vacuum", "sodium-hyperfine"])
@pytest.mark.parametrize("rho0", ["thermal-ground", "uniform:b"])
def test_initial_states_over_several_sublevels_match_full_space_oracle(name, rho0):
    cfg, hamiltonian, superops, rho0 = _preset_problem(name, rho0)
    positions, _blocks = reached_blocks(hamiltonian, superops, rho0)
    n = rho0.shape[0]
    assert np.count_nonzero(rho0) > 1 and positions.size < n * n
    assert_matches_full_space_oracle(rho0, hamiltonian, superops, 200 * cfg.run.dt, cfg.run.dt)


def random_density_matrix(rng, n, support):
    """A random Hermitian PSD trace-1 matrix, nonzero only on support x support."""
    a = rng.normal(size=(len(support), len(support))) + 1j * rng.normal(
        size=(len(support), len(support))
    )
    block = a @ a.conj().T
    rho = np.zeros((n, n), dtype=complex)
    rho[np.ix_(support, support)] = block / np.trace(block).real
    return rho


def test_random_state_spanning_several_blocks_under_helicity_mixing_k():
    rng = np.random.default_rng(53)
    scheme = dline(omega_bd=1.3, omega_cd=1.0)
    basis = Basis.for_fine(scheme)
    superops = [_build(rates_fine(scheme, random_psd_k(rng), random_psd_k(rng)), basis)]
    hamiltonian = build_hamiltonian(scheme, basis)
    # every b sublevel and one ground sublevel: the b-b, b-d and d-b blocks
    support = [i for i, state in enumerate(basis) if state.level == "b"] + [0]
    rho0 = random_density_matrix(rng, len(basis), support)
    positions, blocks = reached_blocks(hamiltonian, superops, rho0)
    assert blocks == 3 and positions.size < len(basis) ** 2
    assert_matches_full_space_oracle(rho0, hamiltonian, superops, 300 * 0.005, 0.005)


def test_coherence_without_its_transpose_still_reaches_the_transposed_block():
    # rho0 is Hermitian only to 1e-12: rho[0, 4] is set and rho[4, 0] is not,
    # so the block of (4, 0) is reached through the Hermitization alone
    rng = np.random.default_rng(59)
    scheme = dline(omega_bd=1.3, omega_cd=1.0)
    basis = Basis.for_fine(scheme)
    superops = [_build(rates_fine(scheme, random_psd_k(rng), random_psd_k(rng)), basis)]
    hamiltonian = build_hamiltonian(scheme, basis)
    n = len(basis)
    rho0 = np.diag(np.full(n, 1.0 / n)).astype(complex)
    rho0[0, 4] = 1e-13
    positions, blocks = reached_blocks(hamiltonian, superops, rho0)
    assert {0 * n + 4, 4 * n + 0} <= set(positions.tolist()) and blocks == 3
    assert_matches_full_space_oracle(rho0, hamiltonian, superops, 300 * 0.005, 0.005)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(random_rate_sets(), st.integers(0, 2**32 - 1), st.integers(1, 25))
def test_reachable_propagation_equals_full_space_on_random_schemes(case, seed, sample_every):
    rates, basis = case
    rng = np.random.default_rng(seed)
    n = len(basis)
    support = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
    rho0 = random_density_matrix(rng, n, support)
    hamiltonian = build_hamiltonian(rates.scheme, basis)
    superops = [_build(rates, basis)]
    scale = float(np.max(np.abs(_generator(hamiltonian, superops).data)))
    dt = 0.05 / scale
    assert_matches_full_space_oracle(
        rho0, hamiltonian, superops, 20 * dt, dt, sample_every=sample_every
    )


def ever_nonzero(trajectory):
    """Vec entries that are not exactly zero in some sample."""
    flat = trajectory.states.reshape(len(trajectory), -1)
    return np.flatnonzero((flat != 0).any(axis=0))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(random_rate_sets(), st.integers(0, 2**32 - 1))
def test_directed_reach_holds_every_entry_the_full_space_oracle_makes_nonzero(case, seed):
    rates, basis = case
    rng = np.random.default_rng(seed)
    n = len(basis)
    support = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
    rho0 = random_density_matrix(rng, n, support)
    hamiltonian = build_hamiltonian(rates.scheme, basis)
    superops = [_build(rates, basis)]
    gen = _generator(hamiltonian, superops)
    dt = 0.05 / float(np.max(np.abs(gen.data)))
    oracle = full_space_propagate(rho0, hamiltonian, superops, 20 * dt, dt)
    reached = _reached(gen, rho0)[0]
    assert np.isin(ever_nonzero(oracle), reached).all()
    outside = np.setdiff1d(np.arange(n * n), reached)
    assert not bits(oracle.states.reshape(len(oracle), n * n)[:, outside]).any()  # all +0.0


@pytest.mark.parametrize("f, m", [(f, m) for f in range(4) for m in range(-f, f + 1)])
def test_sodium_positions_are_the_entries_the_full_space_oracle_makes_nonzero(f, m):
    cfg, hamiltonian, superops, rho0 = _preset_problem("sodium-hyperfine", f"single:b:{f}:{m}")
    args = (rho0, hamiltonian, superops, 40 * cfg.run.dt, cfg.run.dt)
    assert np.array_equal(propagate(*args).positions, ever_nonzero(full_space_propagate(*args)))


def complex_step_and_hermitization(rho0, hamiltonian, superops, steps, dt):
    """The complex RK4 step P(dt G) on all n^2 entries, each followed by the
    Hermitization, as ``propagate`` stepped before its real coordinates."""
    n = rho0.shape[0]
    gen = _generator(hamiltonian, superops).toarray()
    p = eye = np.eye(n * n)
    for c in (4.0, 3.0, 2.0, 1.0):
        p = eye + (dt / c) * gen @ p
    states = [rho0]
    for _ in range(steps):
        states.append(_hermitized((p @ states[-1].reshape(n * n)).reshape(n, n)))
    return np.asarray(states)


def test_superoperator_that_breaks_hermiticity_keeps_the_complex_step_dynamics():
    rng = np.random.default_rng(61)
    scheme = dline(omega_bd=1.3, omega_cd=1.0)
    basis = Basis.for_fine(scheme)
    n = len(basis)
    mat = 0.05 * (rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))
    diagonal = np.arange(n) * (n + 1)
    mat[diagonal] -= mat[diagonal].mean(axis=0)  # trace-preserving, so no trace abort
    superops = [Superoperator(mat, basis, "random")]
    hamiltonian = build_hamiltonian(scheme, basis)
    rho0 = 0.5 * np.eye(n) / n + 0.5 * random_density_matrix(rng, n, list(range(n)))
    # the superoperator's image of rho0 is far from Hermitian: the projection matters
    image = (mat @ rho0.reshape(n * n)).reshape(n, n)
    assert np.max(np.abs(image - image.conj().T)) > 1e-2
    trajectory = propagate(rho0, hamiltonian, superops, 100 * 0.01, 0.01)
    expected = complex_step_and_hermitization(rho0, hamiltonian, superops, 100, 0.01)
    assert trajectory.positions.size == n * n
    assert np.max(np.abs(trajectory.states - expected)) <= 1e-13


def monitored_twolevel(coherence_step, trace_step, dt=0.02):
    """A J=1, 1 over J=0 problem, starting from rho_00 = rho_11 = 1/2, whose
    first step with an eigenvalue below -5e-6 is ``coherence_step`` and whose
    first step with a trace drift above 1e-6 is ``trace_step`` (None: never).

    The coherence rho_01 grows by P(0.4 dt) per step from where it reaches
    1/2 + 5e-6 at ``coherence_step``; rho_00 grows by P(g dt) per step, with
    g set so that the drift crosses 1e-6 half a step before ``trace_step``.
    """
    basis = Basis.for_fine(LevelScheme(j_b=half(1), j_c=half(1), j_d=half(0)))
    n = len(basis)
    mat = np.zeros((n * n, n * n), dtype=complex)
    rho0 = np.zeros((n, n), dtype=complex)
    rho0[0, 0] = rho0[1, 1] = 0.5
    if coherence_step is not None:
        z = 0.4 * dt
        mat[0 * n + 1, 0 * n + 1] = mat[1 * n + 0, 1 * n + 0] = 0.4
        rho0[0, 1] = rho0[1, 0] = (
            (0.5 + 5e-6) / (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** coherence_step
        )
    if trace_step is not None:
        mat[0, 0] = math.log1p(2e-6) / (trace_step - 0.5) / dt
    superops = [Superoperator(mat, basis, "growth")]
    return rho0, AtomicHamiltonian(np.zeros(n), basis), superops


@pytest.mark.parametrize(
    "coherence_step, trace_step, sample_every, aborts_at, monitor",
    [
        (1, None, 1, 1, "eigenvalue"),
        (256, None, 1, 256, "eigenvalue"),  # the last step of the first 256
        (257, None, 1, 257, "eigenvalue"),  # the first step of the next 256
        (None, 1, 1, 1, "trace"),
        (None, 256, 1, 256, "trace"),
        (None, 257, 1, 257, "trace"),
        (10, None, 7, 10, "eigenvalue"),  # steps 7 and 14 are sampled, 10 is not
        (None, 10, 7, 10, "trace"),
        (100, 200, 1, 100, "eigenvalue"),  # positivity fails first in the same 256
        (120, 120, 1, 120, "trace"),  # both fail at one step: the trace is checked first
    ],
)
def test_batched_monitors_abort_like_the_per_step_ones(
    coherence_step, trace_step, sample_every, aborts_at, monitor
):
    args = (*monitored_twolevel(coherence_step, trace_step), 300 * 0.02, 0.02)
    result = outcome(propagate, *args, sample_every=sample_every)
    assert result == outcome(per_step_propagate, *args, sample_every=sample_every)
    name, message, time, _value = result
    assert name == "NumericalAbortError" and message.startswith(monitor)
    assert time == aborts_at * 0.02


def test_negative_zero_outside_the_reached_entries_stays_in_the_first_sample():
    cfg, hamiltonian, superops, rho0 = _preset_problem("dline-vacuum")
    n = rho0.shape[0]
    reached = _reached(_generator(hamiltonian, superops), rho0)[0]
    outside = np.setdiff1d(np.arange(n * n), reached)[[0, -1]]  # two coherences
    rho0.reshape(n * n)[outside] = complex(-0.0, -0.0)
    args = (rho0, hamiltonian, superops, 20 * cfg.run.dt, cfg.run.dt)
    trajectory = propagate(*args, sample_every=3)
    assert outcome(propagate, *args, sample_every=3) == outcome(
        per_step_propagate, *args, sample_every=3
    )
    assert np.signbit(trajectory.states[0].reshape(n * n)[outside].view(float)).all()
    labels = hamiltonian.basis.labels()
    oracle = per_step_propagate(*args, sample_every=3)
    for populations_only in (True, False):
        out = io.StringIO()
        write_trajectory(out, trajectory, labels, populations_only=populations_only)
        assert_same_csv(out.getvalue(), loop_trajectory_csv(oracle, labels, populations_only))
    first_sample, second_sample = out.getvalue().splitlines()[n + 1 : n + 3]
    assert first_sample.split(",").count("-0.0") == 4  # re and im of each
    assert "-0.0" not in second_sample.split(",")


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
    assert_sorted_coo(sup.matrix)
    assert sup.matrix.nnz == np.count_nonzero(dense)
    assert np.array_equal(sup.matrix.toarray(), dense)
    real = Superoperator(dense.real, basis, "real")
    assert real.matrix.data.dtype == complex
    assert np.array_equal(real.matrix.toarray(), dense.real)


CLI_RUNS = {
    "kmatrix": ["--preset", "dline-cavity"],
    "rates": ["--preset", "sodium-hyperfine"],
    "superop": ["--preset", "dline-paper-k"],
    "evolve": ["--preset", "dline-vacuum"],
    "steady": ["--preset", "dline-isotropic"],
    "doctor": [],
}


def test_import_and_rate_assembly_leave_scipy_unloaded(tmp_path):
    """Neither rate assembly nor any CLI command, each in a fresh process,
    imports scipy."""
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

    loaded = {}
    for command, args in CLI_RUNS.items():
        code = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from vrelax.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main({[command, *args]!r}) == 0
            print(",".join(m for m in sorted(sys.modules) if m.split(".")[0] == "scipy"))
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        loaded[command] = done.stdout.strip()
    assert loaded == dict.fromkeys(CLI_RUNS, "")


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
    trajectory = full_trajectory(times, states)
    labels = [f"s{i}" for i in range(n)]
    for populations_only in (False, True):
        out = io.StringIO()
        write_trajectory(out, trajectory, labels, populations_only=populations_only)
        assert_same_csv(out.getvalue(), loop_trajectory_csv(trajectory, labels, populations_only))


# how a column of a random trajectory is filled; all but "zero" make it live
COLUMN_KINDS = (
    "zero", "negative zero", "sparse", "dense", "non-finite",
    "mirror", "negative nan", "negative inf",
)


@st.composite
def sparse_trajectories(draw):
    """Trajectories whose re/im columns each take one of ``COLUMN_KINDS``,
    over 1 to 600 samples (on and across the writer's 64-sample chunks).

    A "mirror" column is the exact negation of an earlier one, as Hermitian
    partners' imaginary parts are, so its cells differ only in the sign bit.
    """
    n = draw(st.integers(1, 3))
    samples = draw(st.sampled_from([1, 2, 7, 63, 64, 65, 129, 256, 257, 600]))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=2 * n * n, max_size=2 * n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros((samples, 2 * n * n))
    for col, kind in enumerate(kinds):
        if kind == "negative zero":
            values[:, col] = -0.0
        elif kind == "sparse":
            rows = rng.random(samples) < 0.1
            values[rows, col] = rng.normal(size=int(rows.sum()))
        elif kind == "dense":
            values[:, col] = rng.normal(size=samples) * 10.0 ** rng.integers(-300, 300, samples)
        elif kind == "non-finite":
            values[:, col] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5], samples)
        elif kind == "mirror":
            values[:, col] = -values[:, rng.integers(col)] if col else -0.0
        elif kind in ("negative nan", "negative inf"):
            special = np.copysign(np.nan, -1.0) if kind == "negative nan" else -np.inf
            values[:, col] = np.where(rng.random(samples) < 0.5, special, rng.normal(size=samples))
    times = np.arange(samples) * draw(st.sampled_from([0.002, 0.1 + 0.2, 5e-324]))
    return full_trajectory(times, values.view(complex).reshape(samples, n, n))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_trajectories())
@example(full_trajectory(np.arange(300.0), np.zeros((300, 2, 2), dtype=complex)))  # none live
@example(full_trajectory(np.array([0.0]), np.full((1, 1, 1), complex(-0.0, np.nan))))
def test_trajectory_csv_bytes_match_per_element_loop_on_random_trajectories(trajectory):
    labels = [f"s{i}" for i in range(trajectory.states.shape[1])]
    for populations_only in (False, True):
        out = io.StringIO()
        write_trajectory(out, trajectory, labels, populations_only=populations_only)
        assert_same_csv(out.getvalue(), loop_trajectory_csv(trajectory, labels, populations_only))


@pytest.mark.parametrize(
    "positions, shape", [([1, 0], (2, 2)), ([0, 0], (2, 2)), ([0, 4], (2, 2)),
                         ([-1, 1], (2, 2)), ([0, 1], (3, 2))],
)
def test_trajectory_refuses_positions_out_of_order_or_range(positions, shape):
    # the CSV writer lays the stored entries out by position, so a misordered
    # position would shift every column after it
    with pytest.raises(ValueError, match=r"ascending positions below n\^2 = 4"):
        Trajectory(np.zeros(2), np.array(positions), np.zeros(shape, dtype=complex), 2)


@pytest.mark.parametrize("populations_only", [False, True])
def test_trajectory_csv_refuses_labels_of_the_wrong_length(populations_only):
    trajectory = full_trajectory(np.zeros(2), np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match=r"3 basis labels for states of shape \(2, 2\)"):
        write_trajectory(io.StringIO(), trajectory, list("abc"), populations_only=populations_only)


def test_density_matrix_csv_refuses_labels_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"3 basis labels for a state of shape \(2, 2\)"):
        write_density_matrix(io.StringIO(), np.eye(2) / 2, list("abc"))


def test_sodium_trajectory_csv_bytes_match_per_element_loop():
    cfg, hamiltonian, superops, rho0 = _preset_problem("sodium-hyperfine")
    # 131 samples: two full 64-sample chunks of the writer and a partial one
    trajectory = propagate(rho0, hamiltonian, superops, 130 * cfg.run.dt, cfg.run.dt)
    assert np.count_nonzero(trajectory.states) < 0.2 * trajectory.states.size
    labels = hamiltonian.basis.labels()
    for populations_only in (False, True):
        out = io.StringIO()
        write_trajectory(out, trajectory, labels, populations_only=populations_only)
        assert_same_csv(out.getvalue(), loop_trajectory_csv(trajectory, labels, populations_only))


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
    assert_same_csv(out.getvalue(), ref.getvalue())


def test_density_matrix_csv_bytes_match_per_element_loop():
    # 130 rows: two full 64-row chunks of the writer and a partial one
    rng = np.random.default_rng(53)
    n = 130
    rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho[rng.random(rho.shape) < 0.9] = 0.0
    rho = rho + rho.conj().T  # Hermitian partners: imaginary parts equal up to the sign bit
    rho[0, 1] = complex(-0.0, np.copysign(np.nan, -1.0))
    rho[64, 2] = complex(np.inf, -np.inf)
    rho[129, 128] = complex(5e-324, -5e-324)
    labels = [f"s{i}" for i in range(n)]
    out = io.StringIO()
    write_density_matrix(out, rho, labels, comments=["c"])

    ref = io.StringIO()
    ref.write("# c\n")
    for i, label in enumerate(labels):
        ref.write(f"# basis {i}: {label}\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(("i", "j", "re", "im"))
    for i in range(n):
        for j in range(n):
            writer.writerow((i, j, _num(rho[i, j].real), _num(rho[i, j].imag)))
    assert_same_csv(out.getvalue(), ref.getvalue())
