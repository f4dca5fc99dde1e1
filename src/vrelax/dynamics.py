"""Master-equation propagation and steady states.

The equation of motion is

    drho/dt = -i [H, rho] + sum_k L_k[rho]

with H the diagonal atomic Hamiltonian and L_k the relaxation / stimulated
superoperators from :mod:`vrelax.operators`.  Everything here works on the
row-major vectorization of rho, so the full generator is the matrix

    G = -i (kron(H, 1) - kron(1, H^T)) + sum_k L_k.matrix

stored sparse (CSR; for the diagonal H built here the commutator is a
diagonal), and propagation is classical fixed-step RK4 on dy/dt = G y, one
sparse product per stage.  Only the steady-state solve densifies G, for its
SVD.  Fixed stepping (rather than adaptive) keeps trajectories
bit-reproducible; the price is that the caller picks dt, so `propagate` warns
when dt * max|G| looks stiff.

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
from typing import TYPE_CHECKING, Iterator, Sequence, Union

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

__all__ = [
    "AtomicHamiltonian",
    "Trajectory",
    "build_hamiltonian",
    "propagate",
    "steady_state",
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
        object.__setattr__(self, "diagonal", diag)

    def matrix(self) -> np.ndarray:
        return np.diag(self.diagonal.astype(complex))


def build_hamiltonian(
    scheme: Union[LevelScheme, HyperfineScheme], basis: Basis | None = None
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


def validate_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-9,
    eig_floor: float = -1e-9,
) -> np.ndarray:
    """Check the density-matrix invariants; returns the array as complex.

    Raises ``ValueError`` naming the first violated invariant: square shape,
    Hermiticity (max asymmetry below ``herm_tol``), unit trace within
    ``trace_tol``, and eigenvalues above ``eig_floor``.
    """
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("density matrix contains non-finite entries")
    asym = float(np.max(np.abs(arr - arr.conj().T)))
    if asym > herm_tol:
        raise ValueError(f"density matrix is not Hermitian: max asymmetry {asym:.3e}")
    trace = complex(arr.trace())
    if abs(trace - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace must be 1, got {trace!r}")
    smallest = float(np.linalg.eigvalsh(0.5 * (arr + arr.conj().T))[0])
    if smallest < eig_floor:
        raise ValueError(
            f"density matrix has a negative eigenvalue {smallest:.3e} "
            f"below the floor {eig_floor:.1e}"
        )
    return arr


# ---------------------------------------------------------------------------
# generator assembly
# ---------------------------------------------------------------------------


def _hamiltonian_matrix(
    hamiltonian: Union[AtomicHamiltonian, np.ndarray, Sequence[float]], n: int
) -> np.ndarray:
    if isinstance(hamiltonian, AtomicHamiltonian):
        mat = hamiltonian.matrix()
    else:
        arr = np.asarray(hamiltonian)
        if arr.ndim == 1:
            mat = np.diag(arr.astype(complex))
        elif arr.ndim == 2:
            mat = arr.astype(complex)
        else:
            raise SchemeError(
                f"Hamiltonian must be a diagonal vector or a square matrix, "
                f"got ndim={arr.ndim}"
            )
    if mat.shape != (n, n):
        raise SchemeError(
            f"Hamiltonian shape {mat.shape} does not match state dimension {n}"
        )
    defect = float(np.max(np.abs(mat - mat.conj().T))) if n else 0.0
    if defect > 1e-12 * max(1.0, float(np.max(np.abs(mat)))):
        raise SchemeError(f"Hamiltonian is not Hermitian: max asymmetry {defect:.3e}")
    return mat


def _generator(hamiltonian, superops: Sequence[Superoperator], n: int) -> csr_array:
    """Sparse generator on the row-major vec basis."""
    from scipy.sparse import csr_array, identity, kron

    h = _hamiltonian_matrix(hamiltonian, n)
    eye = identity(n, dtype=complex, format="csr")
    gen = csr_array(-1j * (kron(h, eye, format="csr") - kron(eye, h.T, format="csr")))
    for op in superops:
        if op.matrix.shape != (n * n, n * n):
            raise SchemeError(
                f"superoperator '{op.label}' acts on {op.matrix.shape[0]}-dim vec space, "
                f"expected {n * n}"
            )
        gen = gen + op.matrix
    return gen


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


def propagate(
    rho0: np.ndarray,
    hamiltonian: Union[AtomicHamiltonian, np.ndarray, Sequence[float]],
    superops: Sequence[Superoperator],
    t_final: float,
    dt: float,
    *,
    sample_every: int = 1,
    trace_tol: float = 1e-6,
    negativity_tol: float = 1e-6,
) -> Trajectory:
    """Integrate the master equation with classical RK4.

    ``t_final`` must be a whole number of ``dt`` steps (within 1e-9 relative);
    the trajectory is sampled every ``sample_every`` steps and always includes
    the initial and final states.  Warns when dt * max|generator| exceeds 0.1.

    Aborts with :class:`NumericalAbortError` (carrying the time and the
    monitor value) as soon as the trace drifts from its initial value by more
    than ``trace_tol`` or an eigenvalue falls below ``-negativity_tol``.
    """
    rho = validate_density_matrix(rho0).copy()
    n = rho.shape[0]
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    steps_exact = t_final / dt
    steps = int(round(steps_exact))
    if steps < 1 or abs(steps - steps_exact) > 1e-9 * max(abs(steps_exact), 1.0):
        raise ValueError(
            f"t_final={t_final!r} is not a whole number of dt={dt!r} steps "
            f"(t_final/dt = {steps_exact!r})"
        )

    gen = _generator(hamiltonian, superops, n)
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
        if drift > trace_tol:
            raise NumericalAbortError(
                f"trace drifted by {drift:.3e} (tolerance {trace_tol:.1e}) "
                f"at t={t:.6g}",
                time=t,
                value=drift,
            )
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < -negativity_tol:
            raise NumericalAbortError(
                f"eigenvalue {smallest:.3e} fell below -{negativity_tol:.1e} "
                f"at t={t:.6g}",
                time=t,
                value=smallest,
            )

        if step % sample_every == 0 or step == steps:
            times.append(t)
            states.append(rho.copy())

    return Trajectory(np.asarray(times, dtype=float), np.asarray(states))


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------


def steady_state(
    hamiltonian: Union[AtomicHamiltonian, np.ndarray, Sequence[float]],
    superops: Sequence[Superoperator],
    *,
    method: str = "auto",
    null_tol: float = 1e-10,
) -> np.ndarray:
    """Trace-1 fixed point of the full generator.

    ``method="auto"`` takes the null vector of the generator's SVD and falls
    back to long-time propagation (converged to ||drho/dt||_max < 1e-12) when
    the SVD candidate is numerically marginal: an essentially traceless null
    vector, or a fixed-point residual above tolerance.  ``"svd"`` and
    ``"propagate"`` force one branch, for cross-checking.

    A null space of dimension > 1 means the long-time state depends on the
    initial condition; that raises :class:`DegenerateSteadyStateError` with
    the dimension instead of silently picking one.
    """
    if method not in ("auto", "svd", "propagate"):
        raise ValueError(f"method must be 'auto', 'svd' or 'propagate', got {method!r}")
    n = _state_dimension(hamiltonian, superops)
    gen = _generator(hamiltonian, superops, n).toarray()

    scale = float(np.max(np.abs(gen)))
    if scale == 0.0:
        # the zero generator fixes everything; never a unique state for n > 0
        raise DegenerateSteadyStateError(n * n)

    _, svals, vh = np.linalg.svd(gen)
    null_dim = int(np.sum(svals < null_tol * svals[0]))
    if null_dim > 1:
        raise DegenerateSteadyStateError(null_dim)

    if method == "propagate":
        return _relax_to_fixed_point(gen, n)

    candidate = None
    if null_dim == 1:
        raw = vh[-1].conj().reshape(n, n)
        trace = complex(raw.trace())
        if abs(trace) > 1e-9:
            candidate = _hermitized(raw / trace)
            residual = float(np.max(np.abs(gen @ candidate.reshape(n * n))))
            if residual > 1e-10 * max(1.0, scale):
                candidate = None
    if candidate is None:
        if method == "svd":
            raise ConvergenceError(
                "SVD null vector is numerically marginal (traceless or poor "
                "fixed-point residual); use method='auto' or 'propagate'"
            )
        candidate = _relax_to_fixed_point(gen, n)
    return candidate


def _state_dimension(hamiltonian, superops: Sequence[Superoperator]) -> int:
    if isinstance(hamiltonian, AtomicHamiltonian):
        return len(hamiltonian.basis)
    arr = np.asarray(hamiltonian)
    if arr.ndim in (1, 2) and arr.size:
        return int(arr.shape[0])
    if superops:
        return len(superops[0].basis)
    raise SchemeError("cannot infer the state dimension from the arguments")


def _relax_to_fixed_point(
    gen: np.ndarray, n: int, *, tol: float = 1e-12
) -> np.ndarray:
    """March exp(gen t) applied to the maximally mixed state out to t -> inf.

    One RK4 step matrix at a safe dt is squared repeatedly, doubling the time
    horizon per iteration, until ||drho/dt||_max falls below ``tol``.  The
    state is re-Hermitized and trace-renormalized between doublings.
    """
    scale = float(np.max(np.abs(gen)))
    dt = 0.05 / scale
    a = gen * dt
    eye = np.eye(n * n, dtype=complex)
    # RK4 one-step matrix: degree-4 Taylor polynomial of exp(a)
    stepper = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)

    rho = np.eye(n, dtype=complex) / n
    y = rho.reshape(n * n)
    for _ in range(64):
        y = stepper @ y
        rho = _hermitized(y.reshape(n, n))
        trace = float(rho.trace().real)
        if abs(trace) < 1e-300:
            break
        rho = rho / trace
        y = rho.reshape(n * n)
        if float(np.max(np.abs(gen @ y))) < tol:
            return rho
        stepper = stepper @ stepper
    raise ConvergenceError(
        f"long-time propagation did not reach ||drho/dt|| < {tol:.1e}; "
        f"the generator may have undamped modes"
    )
