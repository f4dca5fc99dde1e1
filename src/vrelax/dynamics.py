"""Master-equation propagation and steady states.

The equation of motion is

    drho/dt = -i [H, rho] + sum_k L_k[rho]

with H = diag(E) the atomic Hamiltonian of bare level energies
(:class:`AtomicHamiltonian`, the only form accepted) and L_k the relaxation /
stimulated superoperators from :mod:`vrelax.operators`.  Everything here works
on the row-major vectorization of rho, so the full generator is the matrix

    G = -i diag(E_i - E_j) + sum_k L_k.matrix

stored sparse (CSR).  G splits exactly into the diagonal blocks of its
weakly connected components: vec entries that no chain of nonzeros links
never mix, so G is a direct sum of these blocks up to a permutation (for a
helicity-diagonal K they refine the coherence orders q = M_i - M_j; helicity
cross terms only make them larger).

Propagation is classical fixed-step RK4 on dy/dt = G y over the blocks that
hold a nonzero of rho_0 only; every other entry of rho stays exactly 0.0 (on
sodium from one excited sublevel, 120 of 1024 entries).  For a constant G
one RK4 step is exactly y <- P(dt G) y, with P(z) = 1 + z + z^2/2 + z^3/6 +
z^4/24 the RK4 stability function (Hairer, Norsett & Wanner, Solving ODEs I,
section II.1), so a step is one batched product per block size with P(dt B)
of each dense diagonal block B.  The trace and positivity monitors still
read the full n x n state.  Fixed stepping (rather than adaptive) keeps
trajectories bit-reproducible; the price is that the caller picks dt, so
`propagate` warns when dt * max|G| looks stiff.

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
normalized by its trace, Hermitized and checked for its fixed-point
residual against the sparse G.  A degenerate report also counts the null
vectors that live wholly on the ground-ground (d-d) entries, the dark
ground manifold that nothing pumps out of.

Two hygiene rules, both disclosed rather than hidden:

* the state is re-Hermitized, rho <- (rho + rho^dagger)/2, after every step
  (RK4 preserves Hermiticity only up to roundoff);
* positivity is monitored, never enforced -- a state drifting past the
  negativity tolerance aborts the run instead of being projected back.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSteadyStateError,
    NumericalAbortError,
    SchemeError,
)
from .operators import Basis, HyperfineScheme, LevelScheme, Superoperator

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# every tolerance of this module; none is a caller's knob
_HERM_TOL = 1e-12  # validate_density_matrix: max |rho - rho^dagger|
_TRACE_TOL = 1e-9  # validate_density_matrix: |trace - 1|
_EIG_FLOOR = -1e-9  # validate_density_matrix: smallest eigenvalue
_TRACE_DRIFT_TOL = 1e-6  # propagate: trace drift that aborts the run
_NEGATIVITY_TOL = 1e-6  # propagate: how far below zero an eigenvalue may fall

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
) -> csr_array:
    """Sparse generator on the row-major vec basis.

    The commutator -i[H, rho] of the diagonal H is the diagonal
    -i (E_i - E_j) at vec position i n + j, stored where it is nonzero.
    """
    from scipy.sparse import csr_array

    if not isinstance(hamiltonian, AtomicHamiltonian):
        raise SchemeError(
            f"hamiltonian must be an AtomicHamiltonian, got {type(hamiltonian).__name__}"
        )
    energy = hamiltonian.diagonal
    n = energy.size
    split = (energy[:, None] - energy[None, :]).reshape(n * n)
    stored = split != 0.0
    indptr = np.concatenate(([0], np.cumsum(stored)))
    gen = csr_array(
        (-1j * split[stored], np.flatnonzero(stored), indptr), shape=(n * n, n * n)
    )
    for op in superops:
        if op.matrix.shape != (n * n, n * n):
            raise SchemeError(
                f"superoperator '{op.label}' acts on {op.matrix.shape[0]}-dim vec space, "
                f"expected {n * n}"
            )
        gen = gen + op.matrix
    return gen


def _components(gen: csr_array) -> tuple[int, np.ndarray]:
    """Weakly connected components of the nonzero pattern of ``gen``: their
    count and the component label of every vec entry.

    No chain of nonzeros links entries of different components, so ``gen``
    is the direct sum of its diagonal blocks over them, up to a permutation.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    # an int8 pattern: csgraph casts its input to float, which complex refuses
    pattern = csr_array(
        (np.ones(gen.nnz, dtype=np.int8), gen.indices, gen.indptr), shape=gen.shape
    )
    return connected_components(pattern, directed=True, connection="weak")


def _hermitized(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + rho.conj().T)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution of the master equation.

    Iterating yields (time, density matrix) pairs; ``states`` is the stacked
    (n_samples, n, n) complex array for vectorized post-processing.
    """

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __iter__(self) -> Iterator[tuple[float, np.ndarray]]:
        return zip((float(t) for t in self.times), iter(self.states))

    def final(self) -> np.ndarray:
        return self.states[-1]

    def populations(self) -> np.ndarray:
        """Real diagonal entries, shape (n_samples, n)."""
        return self.states.diagonal(axis1=1, axis2=2).real

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


def _reached(gen: csr_array, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vec entries that propagation from ``rho0`` can make nonzero.

    That is the union of the components of ``gen`` (see :func:`_components`)
    holding a nonzero of ``rho0``, closed under transposition, since each step
    writes rho[j, i] into rho[i, j] when it Hermitizes.  Returns those vec
    indices in ascending order and, for each, the local index of its
    transpose partner.  Every other entry of rho stays exactly 0.0.
    """
    n = rho0.shape[0]
    count, labels = _components(gen)
    kept = np.zeros(count, dtype=bool)
    partners = np.flatnonzero(rho0.reshape(n * n))
    while not kept[labels[partners]].all():
        kept[labels[partners]] = True
        positions = np.flatnonzero(kept[labels])
        row, col = np.divmod(positions, n)
        partners = col * n + row
    return positions, np.searchsorted(positions, partners)


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

    Only the vec entries that ``rho0`` reaches are evolved: the union of the
    generator's blocks holding a nonzero of ``rho0`` (closed under
    transposition for the Hermitization).  Each step multiplies every such
    block B by its RK4 propagator P(dt B) and scatters the result into an
    n x n state, the trajectory's own sample where the step is sampled, whose
    other entries are exactly 0.0, as RK4 over all n^2 entries leaves them:
    no nonzero of the generator links them to the reached ones.

    Aborts with :class:`NumericalAbortError` (carrying the time and the
    monitor value) as soon as the trace of the full state drifts from its
    initial value by more than 1e-6 or an eigenvalue of it falls below -1e-6.
    """
    rho = validate_density_matrix(rho0).copy()
    steps = step_count(t_final, dt)
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")

    gen = _generator(hamiltonian, superops)
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
    # samples: step 0, every sample_every-th step and the last one
    samples = -(-steps // sample_every) + 1
    states = np.zeros((samples, n, n), dtype=complex)
    states[0] = rho
    unsampled = np.zeros((n, n), dtype=complex)
    positions, partner = _reached(gen, rho)
    steppers = []
    for local, stack in _blocks(gen[positions][:, positions]):
        p = eye = np.eye(stack.shape[1])
        for c in (4.0, 3.0, 2.0, 1.0):  # P(dt B) by Horner's rule
            p = eye + (dt / c) * stack @ p
        steppers.append((local, p))
    x = rho.reshape(n * n)[positions]
    for step in range(1, steps + 1):
        for local, p in steppers:
            x[local] = np.matmul(p, x[local][..., None])[..., 0]
        x = 0.5 * (x + x[partner].conj())
        if step % sample_every == 0 or step == steps:
            rho = states[-(-step // sample_every)]
        else:
            rho = unsampled
        rho.reshape(n * n)[positions] = x
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

    times = np.minimum(np.arange(samples) * sample_every, steps) * dt
    return Trajectory(times, states)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------


def steady_state(
    hamiltonian: AtomicHamiltonian, superops: Sequence[Superoperator]
) -> np.ndarray:
    """Trace-1 fixed point of the full generator.

    Splits the sparse generator G into its weakly connected components (see
    the module docstring), takes the SVD of each diagonal block and counts
    singular values below n^2 * eps times the largest one over all blocks
    as null: the numerical-rank rule of the dense SVD of G, since G is a
    direct sum of its blocks up to a permutation.  The one null vector is
    scattered back into vec space, divided by its trace and Hermitized.

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

    blocks = [(positions, *np.linalg.svd(stack)[1:]) for positions, stack in _blocks(gen)]
    largest = max(float(svals[:, 0].max()) for _, svals, _ in blocks)
    smallest = min(float(svals[:, -1].min()) for _, svals, _ in blocks)
    threshold = n * n * np.finfo(float).eps * largest
    null_dim = sum(int(np.sum(svals < threshold)) for _, svals, _ in blocks)
    if null_dim > 1:
        dark = _dark_ground_dimension(blocks, threshold, hamiltonian.basis)
        raise DegenerateSteadyStateError(null_dim, dark_ground=dark)
    if null_dim == 0:
        raise ConvergenceError(
            f"generator has no null vector (smallest singular value "
            f"{smallest / largest:.3e} of the largest)"
        )
    positions, svals, vh = next(b for b in blocks if b[1][:, -1].min() < threshold)
    k = int(np.argmin(svals[:, -1]))
    vec = np.zeros(n * n, dtype=complex)
    vec[positions[k]] = vh[k, -1].conj()
    raw = vec.reshape(n, n)
    trace = complex(raw.trace())
    if abs(trace) <= 1e-9:
        raise ConvergenceError(f"the null vector is traceless (|trace| = {abs(trace):.3e})")
    rho = _hermitized(raw / trace)
    residual = float(np.max(np.abs(gen @ rho.reshape(n * n))))
    limit = 1e-10 * max(1.0, scale)
    if residual > limit:
        raise ConvergenceError(f"null vector residual {residual:.3e} exceeds {limit:.3e}")
    return rho


def _blocks(gen: csr_array) -> list[tuple[np.ndarray, np.ndarray]]:
    """The dense diagonal blocks of ``gen``, one per weakly connected component.

    Blocks of equal size are stacked.  One ``(positions, stack)`` pair per
    block size s, for k blocks of that size: ``positions`` (k, s) holds each
    block's vec indices, in ascending order, and ``stack`` (k, s, s) the
    blocks themselves.
    """
    size = gen.shape[0]
    count, labels = _components(gen)
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

    # scatter every nonzero into one flat buffer of all dense blocks; ``gen``
    # is a sparse sum or a slice of one, so each (row, col) is stored once
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    rows = np.repeat(np.arange(size), np.diff(gen.indptr))
    row_labels = labels[rows]
    buffer = np.zeros(int(np.sum(sizes * sizes)), dtype=complex)
    flat = offsets[row_labels] + local[rows] * sizes[row_labels] + local[gen.indices]
    buffer[flat] = gen.data

    blocks = []
    first = 0
    for s, k in zip(*np.unique(sizes, return_counts=True)):
        s, k = int(s), int(k)
        stack = buffer[offsets[first] : offsets[first] + k * s * s].reshape(k, s, s)
        positions = order[starts[first] : starts[first] + k * s].reshape(k, s)
        blocks.append((positions, stack))
        first += k
    return blocks


def _dark_ground_dimension(blocks, threshold: float, basis: Basis) -> int:
    """Dimension of the null space that lies wholly in the d-d sector.

    Per block, that is its null count minus the rank of its null vectors
    restricted to the entries outside d-d (rank at 1e-12 of their unit norm),
    so it does not depend on which basis of the null space the SVD returned.
    """
    ground = np.array([state.level == "d" for state in basis])
    in_dd = np.outer(ground, ground).reshape(-1)
    dark = 0
    for positions, svals, vh in blocks:
        for k in np.nonzero(svals[:, -1] < threshold)[0]:
            null = vh[k, svals[k] < threshold]
            outside = null[:, ~in_dd[positions[k]]]
            dark += null.shape[0] - int(np.linalg.matrix_rank(outside, tol=1e-12))
    return dark
