"""Master-equation propagation and steady states.

The equation of motion is

    drho/dt = -i [H, rho] + sum_k L_k[rho]

with H = diag(E) the atomic Hamiltonian of bare level energies
(:class:`AtomicHamiltonian`, the only form accepted) and L_k the relaxation /
stimulated superoperators from :mod:`vrelax.operators`.  Everything here works
on the row-major vectorization of rho, so the full generator is the matrix

    G = -i diag(E_i - E_j) + sum_k L_k.matrix

stored as its nonzeros, like each L_k.  G splits exactly into the diagonal
blocks of its weakly connected components: vec entries that no chain of
nonzeros links never mix, so G is a direct sum of these blocks up to a
permutation (for a helicity-diagonal K they refine the coherence orders
q = M_i - M_j; helicity cross terms only make them larger).

Propagation is classical fixed-step RK4 on dy/dt = G y over the entries that
rho_0 reaches along G's directed nonzeros; every other entry stays exactly 0.0
(on sodium from one excited sublevel, 2 to 34 of 1024).  For a constant G one
RK4 step is y <- P(dt G) y, with P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4
stability function (Hairer, Norsett & Wanner, Solving ODEs I, section II.1).
The state is held in real coordinates (re rho_ij for i <= j, im rho_ji for
i > j): a step is one batched real product per block size, by the matrix of
y -> (x' + x'^dagger)/2 with x' = P(dt B) x for the state x that y holds, so a
superoperator that does not preserve Hermiticity is projected back each step.
The monitors run batched on 256 stored steps at a time, and step by step on
the n x n state only where a batch fails them.  Fixed stepping keeps runs
bit-reproducible; the caller picks dt, so `propagate` warns when it is stiff.

The steady state is the null vector of G, found block by block.  Each block
is decomposed by a dense SVD, blocks of equal size in one batched call, and
the n^2 x n^2 matrix is never formed.  A singular value counts as zero
below n^2 * eps * sigma_max(G), the numerical-rank tolerance of an
n^2 x n^2 matrix (that of ``np.linalg.matrix_rank``; Golub & Van Loan,
Matrix Computations, section 5.4), with sigma_max(G) the largest singular
value over all blocks.  So a slow relaxation mode reads as null only once
it sinks to the roundoff of the fastest scale in G: on a D-line at optical
frequencies ~1e6, weak isotropic pumping (n_mean = 1e-6) still gives a
unique state, and n_mean = 1e-9 a degenerate one.  The one null vector is
taken from its block with each row scaled to unit largest magnitude (row
equilibration, Higham section 7.3, so the Hamiltonian's rows do not blur a
slow mode), normalized by its trace, Hermitized and checked for its
fixed-point residual against the sparse G.  A degenerate report also counts
the null vectors that live wholly on the ground-ground (d-d) entries, the
dark ground manifold that nothing pumps out of.

Positivity is monitored, never enforced -- an eigenvalue below -tau aborts
the run instead of being projected back.  A finite Cholesky factor of
rho + (tau/2) I, backward stable (Higham, Accuracy and Stability of Numerical
Algorithms, section 10.1), puts them all above -tau/2 - n^2 eps |rho|: no
abort.  The batched certificate factors the blocks of rho instead.  Only a
failed or non-finite factor lets eigvalsh decide, and a state that is not
finite aborts before it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateSteadyStateError, NumericalAbortError, SchemeError
from .operators import Basis, HyperfineScheme, LevelScheme, SparseMatrix, Superoperator, sparse_sum

# every tolerance of this module; none is a caller's knob
_HERM_TOL = 1e-12  # validate_density_matrix: max |rho - rho^dagger|
_TRACE_TOL = 1e-9  # validate_density_matrix: |trace - 1|
_EIG_FLOOR = -1e-9  # validate_density_matrix: smallest eigenvalue
_TRACE_DRIFT_TOL = 1e-6  # propagate: trace drift that aborts the run
_NEGATIVITY_TOL = 1e-6  # propagate: how far below zero an eigenvalue may fall
_CHUNK = 256  # propagate: steps buffered between two runs of the monitors

__all__ = [
    "AtomicHamiltonian",
    "Trajectory",
    "build_hamiltonian",
    "propagate",
    "steady_state",
    "step_count",
    "validate_density_matrix",
]


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AtomicHamiltonian:
    """Diagonal Hamiltonian of bare level energies, in rad/s.

    Ground sublevels sit at zero; excited sublevels at their transition
    frequency omega_{jd}; hyperfine sublevels additionally carry the per-F
    offsets of the scheme (on all three levels, so ground hyperfine splitting
    is representable too).
    """

    diagonal: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal, dtype=float)
        if diag.ndim != 1 or diag.size != len(self.basis):
            raise SchemeError(
                f"Hamiltonian diagonal has {diag.size} entries for a basis of "
                f"{len(self.basis)} states"
            )
        if not np.all(np.isfinite(diag)):
            raise SchemeError(f"Hamiltonian energies must be finite, got {diag.tolist()}")
        object.__setattr__(self, "diagonal", diag)


def build_hamiltonian(
    scheme: LevelScheme | HyperfineScheme, basis: Basis | None = None
) -> AtomicHamiltonian:
    """Assemble the diagonal Hamiltonian over the scheme's standard basis."""
    basis = basis if basis is not None else Basis.for_scheme(scheme)
    if isinstance(scheme, HyperfineScheme):
        diag = [
            scheme.fine.omega(state.level) + scheme.f_offset(state.level, state.f)
            for state in basis
        ]
    else:
        diag = [scheme.omega(state.level) for state in basis]
    return AtomicHamiltonian(np.asarray(diag, dtype=float), basis)


# ---------------------------------------------------------------------------
# state validation
# ---------------------------------------------------------------------------


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants; returns the array as complex.

    Raises ``ValueError`` naming the first violated invariant: square shape,
    finite entries, Hermiticity (max asymmetry at most 1e-12), unit trace
    within 1e-9, and no eigenvalue below -1e-9.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("density matrix contains non-finite entries")
    asym = float(np.max(np.abs(arr - arr.conj().T)))
    if asym > _HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian: max asymmetry {asym:.3e}")
    trace = complex(arr.trace())
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace must be 1, got {trace!r}")
    smallest = float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0])
    if smallest < _EIG_FLOOR:
        raise ValueError(
            f"density matrix has a negative eigenvalue {smallest:.3e} "
            f"below the floor {_EIG_FLOOR:.1e}"
        )
    return arr


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------


def _generator(
    hamiltonian: AtomicHamiltonian, superops: Sequence[Superoperator]
) -> SparseMatrix:
    """Sparse generator on the row-major vec basis.

    The commutator -i[H, rho] of the diagonal H is the diagonal
    -i (E_i - E_j) at vec position i n + j, stored where it is nonzero.
    """
    if not isinstance(hamiltonian, AtomicHamiltonian):
        raise SchemeError(
            f"hamiltonian must be an AtomicHamiltonian, got {type(hamiltonian).__name__}"
        )
    energy = hamiltonian.diagonal
    n = energy.size
    split = (energy[:, None] - energy[None, :]).reshape(n * n)
    stored = np.flatnonzero(split)
    parts = [(stored, stored, -1j * split[stored])]
    for op in superops:
        if op.matrix.shape != (n * n, n * n):
            raise SchemeError(
                f"superoperator '{op.label}' acts on {op.matrix.shape[0]}-dim vec space, "
                f"expected {n * n}"
            )
        parts.append((op.matrix.row, op.matrix.col, op.matrix.data))
    return sparse_sum(parts, n * n)


def _components(*matrices: SparseMatrix) -> tuple[int, np.ndarray]:
    """Weakly connected components of the joint nonzero pattern of ``matrices``
    (of one shape): their count and the label of every vec entry, numbered in
    the order of their smallest entries.

    No chain of nonzeros links entries of different components, so each matrix
    is the direct sum of its diagonal blocks over them, up to a permutation.
    Min-label propagation: each entry points at a smaller or equal entry of its
    component, and the roots end as the smallest entries.
    """
    rows, cols = (np.concatenate(ends) for ends in zip(*((m.row, m.col) for m in matrices)))
    parent = np.arange(matrices[0].shape[0])
    while not np.array_equal(parent[rows], parent[cols]):
        low = np.minimum(parent[rows], parent[cols])
        for end in (rows, cols):  # hook the root of each end onto the smaller one
            np.minimum.at(parent, parent[end], low)
        while not np.array_equal(parent[parent], parent):  # pointer jumping
            parent = parent[parent]
    roots, labels = np.unique(parent, return_inverse=True)
    return roots.size, labels


def _hermitized(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of the master equation.

    ``values[k, c]`` is vec entry ``positions[c]`` (ascending) of the n x n
    state at ``times[k]``; every other entry is exactly +0.0.  Iterating
    yields (time, density matrix) pairs; they and ``states``, the stacked
    (n_samples, n, n) complex array, are built on demand.
    """

    times: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    n: int

    def __post_init__(self) -> None:
        gaps = np.diff(self.positions, prepend=-1, append=self.n**2)
        if np.shape(self.values) != (len(self), len(self.positions)) or np.any(gaps < 1):
            raise ValueError(
                f"trajectory values of shape {np.shape(self.values)} are not (samples, "
                f"positions) at ascending positions below n^2 = {self.n**2}"
            )

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __iter__(self) -> Iterator[tuple[float, np.ndarray]]:
        return zip((float(t) for t in self.times), map(self._matrices, range(len(self))))

    def _matrices(self, samples) -> np.ndarray:
        values = self.values[samples]
        flat = np.zeros((*values.shape[:-1], self.n * self.n), dtype=complex)
        flat[..., self.positions] = values
        return flat.reshape(*values.shape[:-1], self.n, self.n)

    @property
    def states(self) -> np.ndarray:
        return self._matrices(slice(None))

    def final(self) -> np.ndarray:
        return self._matrices(-1)

    def populations(self) -> np.ndarray:
        """Real diagonal entries, shape (n_samples, n)."""
        diagonal = self.positions % (self.n + 1) == 0  # vec index i n + i
        populations = np.zeros((len(self), self.n))
        populations[:, self.positions[diagonal] // (self.n + 1)] = self.values[:, diagonal].real
        return populations

    def traces(self) -> np.ndarray:
        return self.populations().sum(axis=1)


def step_count(t_final: float, dt: float) -> int:
    """Number of ``dt`` steps in ``t_final``; raises ``ValueError`` unless
    both are finite and positive and the count is whole within 1e-9 relative."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    steps_exact = t_final / dt
    steps = int(round(steps_exact))
    if steps < 1 or abs(steps - steps_exact) > 1e-9 * max(abs(steps_exact), 1.0):
        raise ValueError(
            f"t_final={t_final!r} is not a whole number of dt={dt!r} steps "
            f"(t_final/dt = {steps_exact!r})"
        )
    return steps


def _reached(gen: SparseMatrix, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vec entries that propagation from ``rho0`` can make nonzero, in
    ascending order, and the local index of each one's transpose.

    They close the nonzeros of ``rho0`` under the edge x[row] <- x[col] of
    every stored generator entry, since P(dt B) links entries only along such
    directed paths, and under transposition, since the real coordinates hold
    (i, j) and (j, i) together.  Every other entry of rho stays exactly 0.0.
    """
    n = rho0.shape[0]
    transpose = np.arange(n * n).reshape(n, n).T.reshape(n * n)
    reached, grown = None, rho0.reshape(n * n) != 0
    while not np.array_equal(reached, grown):
        reached, grown = grown, grown | grown[transpose]
        grown[gen.row[grown[gen.col]]] = True
    positions = np.flatnonzero(reached)
    return positions, np.searchsorted(positions, transpose[positions])


def propagate(
    rho0: np.ndarray,
    hamiltonian: AtomicHamiltonian,
    superops: Sequence[Superoperator],
    t_final: float,
    dt: float,
    *,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate the master equation with classical RK4.

    ``t_final`` must be a whole number of ``dt`` steps (see :func:`step_count`);
    the trajectory is sampled every ``sample_every`` steps and always includes
    the initial and final states.  Warns when dt * max|generator| exceeds 0.1.

    Only the entries that ``rho0`` reaches (:func:`_reached`) are evolved, in
    the real coordinates of the module docstring, by the real matrix of P(dt B)
    and the Hermitization; every other entry stays exactly 0.0, as RK4 over all
    n^2 entries leaves it.  The trajectory stores the reached entries, and any
    other entry of ``rho0`` that is not +0.0 (a -0.0, in sample 0).

    Aborts with :class:`NumericalAbortError` (carrying the time and the
    monitor value) at the first step whose trace drifts from its initial
    value by more than 1e-6 (checked first), whose state is not finite or
    that has an eigenvalue below -1e-6 (computed only where the Cholesky
    certificate of the module docstring fails).  The monitors check 256
    steps at once, and step by step only where those fail.  Raises
    ``MemoryError`` when the trajectory is too large to allocate.
    """
    rho = validate_density_matrix(rho0).copy()
    steps = step_count(t_final, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    gen = _generator(hamiltonian, superops)
    n = len(hamiltonian.basis)
    if rho.shape != (n, n):
        raise SchemeError(f"Hamiltonian shape {(n, n)} does not match state dimension {len(rho)}")
    stiffness = dt * float(np.max(np.abs(gen.data))) if gen.nnz else 0.0
    if stiffness > 0.1:
        message = f"dt * max|generator| = {stiffness:.3g} exceeds 0.1; RK4 accuracy degrades"
        warnings.warn(f"{message}, consider a smaller dt", RuntimeWarning, stacklevel=2)

    trace0 = float(rho.trace().real)
    flat = rho.reshape(n * n)
    reached, partner = _reached(gen, rho)
    signed = flat.view(np.uint64).reshape(n * n, 2).any(axis=1)  # not +0.0
    positions = np.union1d(reached, np.flatnonzero(signed))
    # samples: step 0, every sample_every-th step and the last one
    samples = -(-steps // sample_every) + 1
    try:
        values = np.zeros((samples, positions.size), dtype=complex)
    except ValueError as exc:  # numpy's error for a shape past its index range
        message = f"Unable to allocate a trajectory of {float(samples):.3g} samples: {exc}"
        raise MemoryError(message) from None
    values[0] = flat[positions]
    columns = np.searchsorted(positions, reached)
    index = np.full(n * n, reached.size)  # unreached entries read the buffer's +0j column
    index[reached] = np.arange(reached.size)
    kept = (index[gen.row] < reached.size) & (index[gen.col] < reached.size)  # both ends
    sub = sparse_sum([(index[gen.row[kept]], index[gen.col[kept]], gen.data[kept])], reached.size)
    diagonal = index[np.arange(n) * (n + 1)]
    # rho is the direct sum of its blocks over the components of the basis
    # indices that the reached entries link, so it is PSD exactly when each is
    pattern = SparseMatrix(*np.divmod(reached, n), np.ones(reached.size, dtype=complex), (n, n))
    shift = (0.5 * _NEGATIVITY_TOL) * np.eye(n)
    blocks = [(index[m[:, :, None] * n + m[:, None, :]], shift[: m.shape[1], : m.shape[1]])
              for m, _stack in _blocks(pattern)]  # (buffer columns of each block, its shift)
    # real coordinates: the slot of (i, j) holds re rho_ij for i <= j and im rho_ji
    # for i > j; T y is the Hermitian state y holds, and Re(T^-1 z) is y of H(z)
    lower, local = np.greater(*np.divmod(reached, n)), np.arange(reached.size)
    real_of = np.where(lower, partner, local)
    imag_of = np.where(lower, local, np.where(partner == local, reached.size, partner))
    off = imag_of < reached.size  # a diagonal entry reads the +0.0 column instead
    imaginary = (local[off], imag_of[off], np.where(lower, -1j, 1j)[off])
    to_complex = sparse_sum([(local, real_of, np.ones(reached.size)), imaginary], reached.size)
    x = 0.5 * (flat[reached] + flat[reached][partner].conj())  # rho0: Hermitian to 1e-12
    y = np.where(lower, x[partner].imag, x.real)
    # an overflowing P(dt B) or state aborts typed below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        steppers, prev, order = [], [], np.zeros(0, dtype=np.intp)  # order: slots by block
        for at, stack, tb in _blocks(sub, to_complex):  # tb: the blocks of T
            p = eye = np.eye(stack.shape[1])
            for c in (4.0, 3.0, 2.0, 1.0):  # P(dt B) by Horner's rule
                p = eye + (dt / c) * stack @ p
            # T^-1 is T^dagger over the squared norms of T's columns (1 or 2)
            q = (tb.conj().swapaxes(1, 2) @ p @ tb).real / (abs(tb) ** 2).sum(axis=1)[..., None]
            steppers.append((q, np.zeros((_CHUNK, *at.shape, 1))))  # with Q y of each step
            prev, order = prev + [y[at][..., None]], np.append(order, at)
        column = np.append(np.argsort(order), reached.size)  # stored column of each slot
        real_of, imag_of = column[real_of], column[imag_of]
        for first in range(1, steps + 1, _CHUNK):
            stepped = np.arange(first, min(first + _CHUNK, steps + 1))
            for row in range(stepped.size):  # y <- Q y, each step into its own row
                prev = [np.matmul(q, last, out=out[row]) for (q, out), last in zip(steppers, prev)]
            stored = [out[: stepped.size].reshape(stepped.size, -1) for _q, out in steppers]
            stored = np.column_stack([*stored, np.zeros(stepped.size)])  # and a +0.0 column
            chunk = np.zeros((stepped.size, reached.size + 1), dtype=complex)
            chunk.real[:, :-1] = stored[:, real_of]
            imag = stored[:, imag_of]
            chunk.imag[:, :-1] = np.where(lower, 0.0 - imag, imag)  # -imag: -0.0 for +0.0

            drift = np.abs(chunk[:, diagonal].sum(axis=1).real - trace0)
            try:  # the certificate on the state's blocks; see the module docstring
                passed = np.all(drift <= _TRACE_DRIFT_TOL) and all(
                    np.isfinite(np.linalg.cholesky(chunk[:, entries] + block_shift)).all()
                    for entries, block_shift in blocks
                )
            except np.linalg.LinAlgError:
                passed = False
            for row, step in enumerate(() if passed else stepped):  # the per-step monitor
                rho = np.zeros((n, n), dtype=complex)
                rho.reshape(n * n)[reached] = chunk[row, :-1]
                t = step * dt
                drift = abs(float(rho.trace().real) - trace0)
                if not drift <= _TRACE_DRIFT_TOL:  # a NaN trace aborts too
                    message = f"trace drifted by {drift:.3e} (tolerance {_TRACE_DRIFT_TOL:.1e})"
                    raise NumericalAbortError(f"{message} at t={t:.6g}", time=t, value=drift)
                try:
                    if np.isfinite(np.linalg.cholesky(rho + shift)).all():
                        continue
                except np.linalg.LinAlgError:
                    pass
                if not np.isfinite(rho).all():
                    message, smallest = "state not finite", math.nan
                else:
                    smallest = float(np.linalg.eigvalsh(rho)[0])
                    message = f"eigenvalue {smallest:.3e} fell below -{_NEGATIVITY_TOL:.1e}"
                if not smallest >= -_NEGATIVITY_TOL:  # NaN: not finite
                    raise NumericalAbortError(f"{message} at t={t:.6g}", time=t, value=smallest)

            sampled = (stepped % sample_every == 0) | (stepped == steps)
            values[-(-stepped[sampled] // sample_every)[:, None], columns] = chunk[sampled, :-1]

    times = np.minimum(np.arange(values.shape[0]) * sample_every, steps) * dt
    return Trajectory(times, positions, values, n)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------


def steady_state(
    hamiltonian: AtomicHamiltonian, superops: Sequence[Superoperator]
) -> np.ndarray:
    """Trace-1 fixed point of the full generator.

    Splits the sparse generator G into its weakly connected components (see
    the module docstring), takes the singular values, without vectors, of
    each diagonal block and counts those below n^2 * eps times the largest
    over all blocks as null: the numerical-rank rule of the dense SVD of G,
    a direct sum of its blocks up to a permutation.  The one null vector,
    from a full SVD of its row-scaled block, is scattered back into vec
    space, divided by its trace and Hermitized.

    A null space of dimension > 1 means the long-time state depends on the
    initial condition; that raises :class:`DegenerateSteadyStateError` with
    the dimension, and with how much of it lies wholly in the ground-ground
    (d-d) sector, instead of silently picking one.  A marginal candidate --
    no null vector, an essentially traceless one (|trace| <= 1e-9), or a
    fixed-point residual above 1e-10 * max(1, max|G|) -- raises
    :class:`ConvergenceError` naming which.
    """
    gen = _generator(hamiltonian, superops)
    n = len(hamiltonian.basis)

    scale = float(np.max(np.abs(gen.data))) if gen.nnz else 0.0
    if scale == 0.0:
        # the zero generator fixes everything; never a unique state for n > 0
        raise DegenerateSteadyStateError(n * n)

    stacks = _blocks(gen)
    svals = [np.linalg.svd(stack, compute_uv=False) for _, stack in stacks]
    largest = max(float(values[:, 0].max()) for values in svals)
    smallest = min(float(values[:, -1].min()) for values in svals)
    threshold = n * n * np.finfo(float).eps * largest
    null_dim = sum(int(np.sum(values < threshold)) for values in svals)
    if null_dim > 1:
        dark = _dark_ground_dimension(stacks, svals, threshold, hamiltonian.basis)
        raise DegenerateSteadyStateError(null_dim, dark_ground=dark)
    if null_dim == 0:
        raise ConvergenceError(
            f"generator has no null vector (smallest singular value "
            f"{smallest / largest:.3e} of the largest)"
        )
    i = next(i for i, values in enumerate(svals) if values[:, -1].min() < threshold)
    (positions, stack), k = stacks[i], int(np.argmin(svals[i][:, -1]))
    # rows scaled to unit largest magnitude (all-zero rows left alone): D B x = 0
    # exactly when B x = 0, so the null vector is the same, resolved better
    rows = np.abs(stack[k]).max(axis=1, keepdims=True)
    vh = np.linalg.svd(stack[k] / np.where(rows > 0.0, rows, 1.0))[2]
    vec = np.zeros(n * n, dtype=complex)
    vec[positions[k]] = vh[-1].conj()
    raw = vec.reshape(n, n)
    trace = complex(raw.trace())
    if abs(trace) <= 1e-9:
        raise ConvergenceError(f"the null vector is traceless (|trace| = {abs(trace):.3e})")
    rho = _hermitized(raw / trace)
    image = np.zeros(n * n, dtype=complex)
    np.add.at(image, gen.row, gen.data * rho.reshape(n * n)[gen.col])
    residual = float(np.max(np.abs(image)))
    limit = 1e-10 * max(1.0, scale)
    if residual > limit:
        raise ConvergenceError(f"null vector residual {residual:.3e} exceeds {limit:.3e}")
    return rho


def _blocks(gen: SparseMatrix, *more: SparseMatrix) -> list[tuple[np.ndarray, ...]]:
    """The dense diagonal blocks of ``gen`` and of each of ``more`` (of its
    shape), one per weakly connected component of their joint nonzeros.

    Blocks of equal size are stacked: one ``(positions, stack, *more_stacks)``
    tuple per block size s, for k blocks of that size, with ``positions``
    (k, s) each block's vec indices in ascending order.
    """
    size = gen.shape[0]
    count, labels = _components(gen, *more)
    # relabel components in ascending size, so that equal sizes sit side by side
    sizes = np.bincount(labels, minlength=count)
    by_size = np.argsort(sizes, kind="stable")
    relabel = np.empty(count, dtype=np.intp)
    relabel[by_size] = np.arange(count)
    labels, sizes = relabel[labels], sizes[by_size]
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    local = np.empty(size, dtype=np.intp)
    local[order] = np.arange(size) - np.repeat(starts, sizes)

    # scatter every nonzero (each stored once) into one buffer of all blocks per matrix
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    buffers = np.zeros((1 + len(more), int(np.sum(sizes * sizes))), dtype=complex)
    for buffer, matrix in zip(buffers, (gen, *more)):
        label = labels[matrix.row]
        buffer[offsets[label] + local[matrix.row] * sizes[label] + local[matrix.col]] = matrix.data

    blocks = []
    first = 0
    for s, k in zip(*np.unique(sizes, return_counts=True)):
        s, k = int(s), int(k)
        stacks = buffers[:, offsets[first] : offsets[first] + k * s * s].reshape(-1, k, s, s)
        positions = order[starts[first] : starts[first] + k * s].reshape(k, s)
        blocks.append((positions, *stacks))
        first += k
    return blocks


def _dark_ground_dimension(stacks, svals, threshold: float, basis: Basis) -> int:
    """Dimension of the null space that lies wholly in the d-d sector.

    Per block, that is its null count minus the rank of its null vectors, from
    a full SVD, restricted to the entries outside d-d (rank at 1e-12 of their
    unit norm), so it does not depend on which null basis the SVD returned.
    """
    ground = np.array([state.level == "d" for state in basis])
    in_dd = np.outer(ground, ground).reshape(-1)
    dark = 0
    for (positions, stack), values in zip(stacks, svals):
        for k in np.nonzero(values[:, -1] < threshold)[0]:
            null = np.linalg.svd(stack[k])[2][values[k] < threshold]  # both descending
            outside = null[:, ~in_dd[positions[k]]]
            dark += null.shape[0] - int(np.linalg.matrix_rank(outside, tol=1e-12))
    return dark
