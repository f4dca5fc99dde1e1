"""Transition-rate tables and relaxation superoperators for V-type schemes.

The level labels are fixed: two excited levels "b" and "c" share a common
ground level "d".  Every photon channel carries helicity sigma = M_upper -
M_lower in {-1, 0, +1}, and the environment enters only through a 3x3
helicity matrix (see environment.KMatrix).

Rate tables come in two shapes.  The two-index table ("upper") couples pairs
of excited sublevels and drives depopulation together with the coherence
decay between the excited levels.  The four-index table ("feeding") resolves
the ground sublevels the decay feeds into.  Every coefficient has one form,
S * A1 * A2 * K(sigma1, sigma2): two dipole channel amplitudes times the
helicity matrix, contracted once per level pair over a channel table
(``_channels``).  A ``RateSet`` stores only the feeding table and derives
the others from it: the two-index table is the ordered sum of the
diagonal-ground feeding entries, and the ground table of stimulated sets the
ordered sum of the diagonal-excited ones, so both trace identities hold by
construction and nothing downstream re-checks them.

Superoperators act on the row-major vectorisation of the density matrix:
vec(A rho B) = kron(A, B.T) vec(rho).  They are stored sparse (scipy CSR):
every term links only sublevels joined by a dipole channel, so the builders
emit (row, col, value) triplets straight from the rate tables -- the
depopulation -(G (x) 1 + 1 (x) G*) over the nonzeros of the n x n table G,
then the feeding pairs -- and never form the kron products.  Duplicate
triplets are summed in the order a dense ``+=`` assembly would add them, so
every stored value equals that assembly's to the bit.  Feeding terms are
inserted in conjugate pairs so that trace and Hermiticity are preserved for
complex helicity matrices, not only for real ones.  scipy is imported only
when a superoperator is built, never by rate assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .angular import clebsch_gordan, wigner_6j
from .environment import KMatrix
from .errors import RateSetContractError, SchemeError
from .halfint import HalfInt, half, projections, triangle_ok, triangle_range

if TYPE_CHECKING:  # scipy is imported lazily, when a superoperator is built
    from scipy.sparse import csr_array

EXCITED_LEVELS = ("b", "c")
GROUND_LEVEL = "d"
LEVEL_ORDER = ("d", "c", "b")

__all__ = [
    "EXCITED_LEVELS",
    "GROUND_LEVEL",
    "LEVEL_ORDER",
    "LevelScheme",
    "HyperfineScheme",
    "hyperfine_mixing",
    "BasisState",
    "Basis",
    "RateSet",
    "rates_fine",
    "rates_stimulated",
    "rates_injected",
    "rates_hyperfine",
    "Superoperator",
    "build_relaxation_superop",
    "build_stimulated_superop",
    "InterferencePoint",
    "InterferenceReport",
    "interference_report",
]


# ---------------------------------------------------------------------------
# level schemes


@dataclass(frozen=True)
class LevelScheme:
    """Angular momenta, transition frequencies and dipole strengths.

    ``dipole_mode`` selects how the scalar prefactor S_{j1 j2} of each rate
    coefficient is built:

    * ``"alkali"``: every S_{j1 j2} equals ``rate_scale``.  This is the
      common case where both excited levels belong to one fine-structure
      multiplet and share a reduced dipole element, and it makes the
      interference degree scale-free.
    * ``"explicit"``: S_{j1 j2} = rate_scale * 2 * mu_{j1} mu_{j2}
      omega_{j2 d}^3 / sqrt((2 J_{j1}+1)(2 J_{j2}+1)), with hbar = c = 1
      absorbed into ``rate_scale``.  Note the cube sits on the frequency of
      the *second* index, so the two cross coefficients differ by
      (omega_cd / omega_bd)^3.
    """

    j_b: HalfInt
    j_c: HalfInt
    j_d: HalfInt
    omega_bd: float = 1.0
    omega_cd: float = 1.0
    dipole_mode: str = "alkali"
    rate_scale: float = 1.0
    mu_bd: float | None = None
    mu_cd: float | None = None

    def __post_init__(self) -> None:
        for name in ("j_b", "j_c", "j_d"):
            value = half(getattr(self, name))
            if value.twice < 0:
                raise SchemeError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        for name in ("omega_bd", "omega_cd"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise SchemeError(f"{name} must be a positive finite frequency, got {value!r}")
            object.__setattr__(self, name, value)
        for level in EXCITED_LEVELS:
            if not triangle_ok(self.j(level), self.j_d, half(1)):
                raise SchemeError(
                    f"transition {level}-d is not dipole allowed: "
                    f"J_{level}={self.j(level)}, J_d={self.j_d}"
                )
        if not math.isfinite(self.rate_scale) or self.rate_scale <= 0.0:
            raise SchemeError(f"rate_scale must be positive, got {self.rate_scale!r}")
        if self.dipole_mode == "alkali":
            if self.mu_bd is not None or self.mu_cd is not None:
                raise SchemeError("dipole moments are only meaningful with dipole_mode='explicit'")
        elif self.dipole_mode == "explicit":
            for name in ("mu_bd", "mu_cd"):
                value = getattr(self, name)
                if value is None or not math.isfinite(value) or value <= 0.0:
                    raise SchemeError(f"dipole_mode='explicit' requires positive {name}")
        else:
            raise SchemeError(f"unknown dipole_mode {self.dipole_mode!r}")

    def j(self, level: str) -> HalfInt:
        try:
            return {"b": self.j_b, "c": self.j_c, "d": self.j_d}[level]
        except KeyError:
            raise SchemeError(f"unknown level {level!r}, expected one of 'b', 'c', 'd'") from None

    def omega(self, level: str) -> float:
        """Transition frequency of level -> d; zero for the ground level itself."""
        self.j(level)
        return {"b": self.omega_bd, "c": self.omega_cd, "d": 0.0}[level]

    def s_factor(self, j1: str, j2: str) -> float:
        """Scalar prefactor of the (j1, j2) rate coefficient."""
        if j1 not in EXCITED_LEVELS or j2 not in EXCITED_LEVELS:
            raise SchemeError(f"s_factor is defined for excited level pairs, got ({j1!r}, {j2!r})")
        if self.dipole_mode == "alkali":
            return self.rate_scale
        mu = {"b": self.mu_bd, "c": self.mu_cd}
        om = {"b": self.omega_bd, "c": self.omega_cd}
        norm = math.sqrt((self.j(j1).twice + 1) * (self.j(j2).twice + 1))
        return self.rate_scale * 2.0 * mu[j1] * mu[j2] * om[j2] ** 3 / norm


@dataclass(frozen=True)
class HyperfineScheme:
    """Fine-structure scheme dressed with a nuclear spin.

    ``f_offsets`` maps (level, F) to a frequency offset added to the level
    energy in the Hamiltonian only; the rate tables never see it (the
    hyperfine splitting is assumed small against the optical frequencies).
    """

    fine: LevelScheme
    nuclear_spin: HalfInt
    f_offsets: Mapping[tuple[str, HalfInt], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spin = half(self.nuclear_spin)
        if spin.twice < 0:
            raise SchemeError(f"nuclear_spin must be non-negative, got {spin}")
        object.__setattr__(self, "nuclear_spin", spin)
        normalized: dict[tuple[str, HalfInt], float] = {}
        for key, offset in dict(self.f_offsets).items():
            level, f_raw = key
            f_value = half(f_raw)
            if f_value not in self.f_values(level):
                raise SchemeError(
                    f"f_offsets key ({level!r}, {f_value}) is not a hyperfine level of "
                    f"J={self.fine.j(level)}, I={spin}"
                )
            value = float(offset)
            if not math.isfinite(value):
                raise SchemeError(
                    f"f_offsets[({level!r}, {f_value})] must be finite, got {value!r}"
                )
            normalized[(level, f_value)] = value
        object.__setattr__(self, "f_offsets", normalized)

    def f_values(self, level: str) -> tuple[HalfInt, ...]:
        return tuple(triangle_range(self.fine.j(level), self.nuclear_spin))

    def f_offset(self, level: str, f: HalfInt) -> float:
        return self.f_offsets.get((level, half(f)), 0.0)


def hyperfine_mixing(scheme: HyperfineScheme, level: str, f: HalfInt, f_d: HalfInt) -> float:
    """Recoupling factor carried by a hyperfine channel F -> F_d.

    This is the exact reduction of the uncoupling sum over nuclear
    projections: for J coupled with I to F, the dipole amplitude between
    |F M> and |F_d M_d> equals this factor times the plain channel amplitude
    <F_d M_d; 1 sigma | F M>, all divided by sqrt(2 J + 1).  At I = 0 it
    collapses to 1/sqrt(2 J + 1) so the hyperfine tables reduce entry by
    entry to the fine-structure ones.
    """
    j_level = scheme.fine.j(level)
    t_sum = j_level.twice + scheme.nuclear_spin.twice + half(f_d).twice
    sign = -1.0 if (t_sum // 2 + 1) % 2 else 1.0
    return (
        sign
        * math.sqrt(half(f_d).twice + 1)
        * wigner_6j(j_level, f, scheme.nuclear_spin, f_d, scheme.fine.j_d, 1)
    )


# ---------------------------------------------------------------------------
# basis bookkeeping


@dataclass(frozen=True)
class BasisState:
    level: str
    m: HalfInt
    f: HalfInt | None = None

    def label(self) -> str:
        if self.f is None:
            return f"{self.level}:M={self.m}"
        return f"{self.level}:F={self.f}:M={self.m}"


class Basis:
    """Ordered sublevel basis: levels d, c, b; within a level F then M ascending.

    A basis maps each sublevel tuple, (level, M) or (level, F, M), to its
    position; rate-table keys are made of these tuples (see "Key layouts").
    """

    def __init__(self, states: Iterable[BasisState]):
        self.states = tuple(states)
        self._position = {_sublevel(state): i for i, state in enumerate(self.states)}
        if len(self._position) != len(self.states):
            raise SchemeError("basis states must be distinct")

    @classmethod
    def for_fine(cls, scheme: LevelScheme) -> "Basis":
        states = [
            BasisState(level, m)
            for level in LEVEL_ORDER
            for m in projections(scheme.j(level))
        ]
        return cls(states)

    @classmethod
    def for_hyperfine(cls, scheme: HyperfineScheme) -> "Basis":
        states = [
            BasisState(level, m, f)
            for level in LEVEL_ORDER
            for f in scheme.f_values(level)
            for m in projections(f)
        ]
        return cls(states)

    @classmethod
    def for_scheme(cls, scheme: LevelScheme | HyperfineScheme) -> "Basis":
        if isinstance(scheme, HyperfineScheme):
            return cls.for_hyperfine(scheme)
        return cls.for_fine(scheme)

    @property
    def sublevels(self) -> tuple[tuple, ...]:
        """The sublevel tuple of every state, in basis order."""
        return tuple(self._position)

    def position(self, sublevel: tuple) -> int:
        try:
            return self._position[sublevel]
        except KeyError:
            level, *numbers = sublevel
            state = BasisState(level, numbers[-1], *numbers[:-1])
            raise SchemeError(f"state {state.label()} is not in the basis") from None

    def index(self, state: BasisState) -> int:
        return self.position(_sublevel(state))

    def labels(self) -> tuple[str, ...]:
        return tuple(state.label() for state in self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)


def _sublevel(state: BasisState) -> tuple:
    return (state.level, state.m) if state.f is None else (state.level, state.f, state.m)


# ---------------------------------------------------------------------------
# rate tables

# Key layouts (all angular momenta as HalfInt):
#   fine upper    (j1, M1, j2, M2)
#   fine feeding  (j1, M1, Md1, j2, M2, Md2)
#   hf upper      (j1, F1, M1, j2, F2, M2)
#   hf feeding    (j1, F1, M1, Fd1, Md1, j2, F2, M2, Fd2, Md2)
#   ground        (Md1, Md2), or (Fd1, Md1, Fd2, Md2) with hyperfine structure
# A key is a run of sublevels.  An excited half, (j, M) or (j, F, M), is
# the sublevel tuple itself; a ground half, (Md,) or (Fd, Md), names the
# sublevel ("d", Md) or ("d", Fd, Md).  Only this module parses keys;
# ``RateSet.entries`` hands them to the superoperator builders and the CSV
# writer as sublevel tuples, which ``Basis.position`` resolves.  CSV order is basis order: rows sort by the
# basis positions of their key's sublevels, taken in key order.


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


@dataclass(frozen=True, eq=False)
class RateSet:
    """A feeding table plus enough context to build superoperators.

    ``RateSet(scheme, feeding, stimulated=False)``: the four-index feeding
    table is the one stored input.  The two-index table ``upper`` (its
    partial trace over the shared ground sublevel) and, for stimulated sets,
    the ground absorption table ``ground`` (its partial trace over the shared
    excited sublevel; None for spontaneous sets) are derived at construction
    and cannot be passed in, so the trace identities hold by construction.
    Fine-structure ``upper`` and every ``ground`` omit sums that cancel to
    exactly 0.0; hyperfine ``upper`` keeps every sum a feeding entry reaches,
    because whether one of its analytic cancellations lands on exactly 0.0
    depends on the last bit of K, which would make the key set change with K.
    All three tables are read-only views, and the feeding table is a copy of
    the one given, so no later write can make them disagree.

    The tables are Hermitian (Γ(2,1) = conj Γ(1,2)) whenever one helicity
    matrix serves every level pair; per-frequency evaluation with detuned
    levels legitimately breaks that symmetry in the cross block, and the
    superoperator builders are written to preserve trace and Hermiticity of
    the density matrix regardless, so Hermiticity is not a contract.
    """

    scheme: LevelScheme | HyperfineScheme
    feeding: Mapping[tuple, complex]
    stimulated: bool = False
    upper: Mapping[tuple, complex] = field(init=False)
    ground: Mapping[tuple, complex] | None = field(init=False)

    def __post_init__(self) -> None:
        hyperfine = self.hyperfine
        feeding = MappingProxyType(dict(self.feeding))
        upper = _partial_trace(feeding, hyperfine, over="ground")
        if not hyperfine:
            upper = _nonzero(upper)
        ground = None
        if self.stimulated:
            ground = MappingProxyType(_nonzero(_partial_trace(feeding, hyperfine, over="upper")))
        object.__setattr__(self, "feeding", feeding)
        object.__setattr__(self, "upper", MappingProxyType(upper))
        object.__setattr__(self, "ground", ground)

    @property
    def kind(self) -> str:
        """``"stimulated"`` or ``"spontaneous"``."""
        return "stimulated" if self.stimulated else "spontaneous"

    @property
    def hyperfine(self) -> bool:
        return isinstance(self.scheme, HyperfineScheme)

    def entries(self, table: str) -> list[tuple[tuple[tuple, ...], complex]]:
        """(sublevels, value) pairs of the "upper", "feeding" or "ground" table.

        Pairs come in table order, each with the sublevels its key names in
        key order: (upper1, upper2), (upper1, ground1, upper2, ground2) or
        (ground1, ground2).
        """
        d = (GROUND_LEVEL,)
        pairs = []
        if table == "feeding":
            hyperfine = self.hyperfine
            for key, value in self.feeding.items():
                up1, gr1, up2, gr2 = _split_feeding(key, hyperfine)
                pairs.append(((up1, d + gr1, up2, d + gr2), value))
            return pairs
        prefix = d if table == "ground" else ()
        for key, value in (getattr(self, table) or {}).items():
            mid = len(key) // 2
            pairs.append(((prefix + key[:mid], prefix + key[mid:]), value))
        return pairs

    def restricted(self, level: str) -> "RateSet":
        """Two-level reduction: drop every entry touching the other excited level."""
        hyperfine = self.hyperfine
        feeding = {}
        for key, value in self.feeding.items():
            up1, _gr1, up2, _gr2 = _split_feeding(key, hyperfine)
            if up1[0] == level and up2[0] == level:
                feeding[key] = value
        return replace(self, feeding=feeding)


def _sigma_of(m_upper: HalfInt, m_lower: HalfInt) -> int | None:
    t = m_upper.twice - m_lower.twice
    if t in (-2, 0, 2):
        return t // 2
    return None


def _channels(
    scheme: LevelScheme | HyperfineScheme, level: str
) -> tuple[list[tuple], list[tuple], np.ndarray, np.ndarray]:
    """Nonzero dipole channels of one excited level, ordered by (F, M, Fd, Md).

    Returns the upper and ground key halves of each channel, its helicity and
    its amplitude R(F, Fd) * <Fd Md; 1 sigma | F M>.  Fine structure is the
    one-F case: F = J, Fd = J_d, no recoupling factor and no F in the halves.
    """
    hyperfine = isinstance(scheme, HyperfineScheme)
    if hyperfine:
        f_upper, f_ground = scheme.f_values(level), scheme.f_values(GROUND_LEVEL)
    else:
        f_upper, f_ground = (scheme.j(level),), (scheme.j_d,)
    uppers, grounds, sigmas, amplitudes = [], [], [], []
    for f in f_upper:
        for m in projections(f):
            for fd in f_ground:
                mixing = hyperfine_mixing(scheme, level, f, fd) if hyperfine else 1.0
                if mixing == 0.0:
                    continue
                for md in projections(fd):
                    sigma = _sigma_of(m, md)
                    if sigma is None:
                        continue
                    c = clebsch_gordan(fd, md, 1, sigma, f, m)
                    if c != 0.0:
                        uppers.append((level, f, m) if hyperfine else (level, m))
                        grounds.append((fd, md) if hyperfine else (md,))
                        sigmas.append(sigma)
                        amplitudes.append(mixing * c)
    return uppers, grounds, np.array(sigmas, dtype=int), np.array(amplitudes, dtype=float)


def _tables(
    scheme: LevelScheme | HyperfineScheme, k_b: KMatrix, k_c: KMatrix
) -> dict[tuple, complex]:
    """Feeding table: S * A1 * A2 * K(sigma1, sigma2) per channel pair."""
    k_b.validate()
    k_c.validate()
    hyperfine = isinstance(scheme, HyperfineScheme)
    fine = scheme.fine if hyperfine else scheme
    channels = {level: _channels(scheme, level) for level in EXCITED_LEVELS}
    feeding: dict[tuple, complex] = {}
    for j1 in EXCITED_LEVELS:
        up1, gr1, sig1, a1 = channels[j1]
        for j2 in EXCITED_LEVELS:
            up2, gr2, sig2, a2 = channels[j2]
            scale = fine.s_factor(j1, j2)
            if hyperfine:
                # the recoupling factors absorb 1/sqrt(2J+1) each, which this
                # scale puts back so that I = 0 reproduces the fine tables
                scale *= math.sqrt((fine.j(j1).twice + 1) * (fine.j(j2).twice + 1))
            # the coefficient inherits the frequency of its second index
            k = (k_b if j2 == "b" else k_c).entries
            # ((S A1) A2) K: one fixed product order keeps every value bit-stable
            values = (scale * a1)[:, None] * a2[None, :] * k[sig1[:, None] + 1, sig2[None, :] + 1]
            rows, cols = np.nonzero(values)
            for i, j, value in zip(rows.tolist(), cols.tolist(), values[rows, cols].tolist()):
                feeding[up1[i] + gr1[i] + up2[j] + gr2[j]] = value
    return feeding


def rates_fine(scheme: LevelScheme, k_b: KMatrix, k_c: KMatrix) -> RateSet:
    """Assemble the fine-structure rate tables from per-level helicity matrices.

    ``k_b`` and ``k_c`` are the helicity matrices evaluated at omega_bd and
    omega_cd.  Each cross coefficient takes the matrix of its second index,
    so passing one matrix twice makes both cross coefficients share it.
    """
    return RateSet(scheme, _tables(scheme, k_b, k_c))


def rates_stimulated(
    scheme: LevelScheme,
    distribution,
    modifier,
    *,
    quad_order: int = 16,
) -> RateSet:
    """Stimulated tables for a photon distribution seen through a mode modifier.

    Each coefficient is evaluated with the helicity matrix at the frequency
    of its second index, so detuned level pairs pick up different photon
    occupations.  The ground table that drives absorption sums the feeding
    entries over their shared excited sublevel.
    """
    from .environment import k_stimulated

    k_b = k_stimulated(distribution, modifier, scheme.omega_bd, quad_order=quad_order)
    k_c = k_stimulated(distribution, modifier, scheme.omega_cd, quad_order=quad_order)
    return RateSet(scheme, _tables(scheme, k_b, k_c), stimulated=True)


def rates_injected(scheme: LevelScheme, k: KMatrix) -> RateSet:
    """Stimulated-structure tables from one literal helicity matrix.

    The injection path feeds externally specified K values straight into
    the operator assembly, bypassing any angular quadrature.
    Both excited levels share the single matrix, and the ground absorption
    table is built from it as well, so the result can drive the full two-way
    superoperator just like a quadrature product.
    """
    return RateSet(scheme, _tables(scheme, k, k), stimulated=True)


def rates_hyperfine(scheme: HyperfineScheme, k: KMatrix) -> RateSet:
    """Spontaneous hyperfine rate tables from a single helicity matrix.

    The hyperfine splittings are assumed negligible on the scale over which
    the mode density varies, so one matrix per fine-structure line suffices.
    Only spontaneous tables are built here; resolving a photon distribution
    over hyperfine components is out of scope.
    """
    return RateSet(scheme, _tables(scheme, k, k))


# ---------------------------------------------------------------------------
# superoperators


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on density matrices, stored on the row-major vec basis.

    ``matrix`` is a ``scipy.sparse.csr_array`` of shape n^2 x n^2; a dense or
    other sparse input is converted to it at construction.
    """

    matrix: csr_array
    basis: Basis
    label: str

    def __post_init__(self) -> None:
        from scipy.sparse import csr_array, issparse

        size = len(self.basis) ** 2
        shape = self.matrix.shape if issparse(self.matrix) else np.shape(self.matrix)
        if shape != (size, size):
            raise SchemeError(
                f"superoperator '{self.label}' has shape {shape}, expected "
                f"{(size, size)} for a basis of {len(self.basis)} states"
            )
        object.__setattr__(self, "matrix", csr_array(self.matrix, dtype=complex))


def _embed(pairs: list[tuple[tuple[tuple, ...], complex]], basis: Basis) -> np.ndarray:
    """A two-sublevel table ("upper" or "ground" entries) as an n x n matrix."""
    n = len(basis)
    g = np.zeros((n, n), dtype=complex)
    for (s1, s2), value in pairs:
        g[basis.position(s1), basis.position(s2)] += value
    return g


def _depopulation(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets of -(G (x) 1) followed by those of -(1 (x) G*), over G's nonzeros.

    -(G rho + rho G^dagger): the conjugate on the right factor is what keeps
    Hermiticity preservation exact when per-frequency evaluation leaves the
    embedded table non-Hermitian.
    """
    n = g.shape[0]
    i, j = np.nonzero(g)
    k = np.arange(n)
    value = np.repeat(g[i, j], n)
    rows = np.concatenate([(i[:, None] * n + k).ravel(), (k * n + i[:, None]).ravel()])
    cols = np.concatenate([(j[:, None] * n + k).ravel(), (k * n + j[:, None]).ravel()])
    return rows, cols, np.concatenate([-value, -value.conj()])


def _feeding(rates: RateSet, basis: Basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets of the feeding terms, entry by entry in table order:
    conj(G) |d1><1| rho |2><d2|  +  G |d2><2| rho |1><d1|."""
    n = len(basis)
    position = basis.position
    rows, cols = [], []
    for sublevels, _value in rates.entries("feeding"):
        up1, gr1, up2, gr2 = map(position, sublevels)
        rows += (gr1 * n + gr2, gr2 * n + gr1)
        cols += (up1 * n + up2, up2 * n + up1)
    values = np.fromiter(rates.feeding.values(), dtype=complex, count=len(rates.feeding))
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.stack([values.conj(), values], axis=1).ravel(),
    )


def _summed_csr(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]], size: int) -> csr_array:
    """CSR matrix of (rows, cols, values) triplets with duplicates summed.

    Duplicates are summed from 0 in the order the triplets are given, which
    is the order of repeated ``+=`` into a zero dense matrix, so every value
    is bit-identical to that dense assembly.  Sums that cancel to exactly
    zero are not stored.
    """
    from scipy.sparse import csr_array

    rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    keys, group = np.unique(rows * size + cols, return_inverse=True)
    sums = np.zeros(keys.size, dtype=complex)
    np.add.at(sums, group, values)  # unbuffered, one triplet at a time, in order
    keep = sums != 0
    return csr_array((sums[keep], np.divmod(keys[keep], size)), shape=(size, size))


def build_relaxation_superop(rates: RateSet, basis: Basis | None = None) -> Superoperator:
    """Spontaneous-decay superoperator: excited depopulation plus ground feeding.

    The feeding insertion places each four-index coefficient twice, once
    conjugated, and the depopulation table is the feeding table's partial
    trace, so the result preserves trace and Hermiticity.
    """
    if basis is None:
        basis = Basis.for_scheme(rates.scheme)
    n = len(basis)
    matrix = _summed_csr(
        [_depopulation(_embed(rates.entries("upper"), basis)), _feeding(rates, basis)], n * n
    )
    return Superoperator(matrix=matrix, basis=basis, label="relaxation")


def build_stimulated_superop(rates: RateSet, basis: Basis | None = None) -> Superoperator:
    """Stimulated superoperator: emission plus absorption driven by one photon field.

    Reuses the emission feeding table for absorption with the state pairs
    swapped, which is exactly the detailed-balance structure of a single
    photon distribution acting on both directions of each line.
    """
    if rates.kind != "stimulated":
        raise RateSetContractError(
            f"stimulated superoperator needs a stimulated rate set, got kind={rates.kind!r}"
        )
    if rates.hyperfine:
        # no rate builder makes one: rates_stimulated and rates_injected are fine-only
        raise RateSetContractError(
            "stimulated superoperator does not support hyperfine rate sets "
            "(hyperfine=True with kind='stimulated')"
        )
    if basis is None:
        basis = Basis.for_scheme(rates.scheme)
    n = len(basis)
    rows, cols, values = _feeding(rates, basis)
    # emission: excited depopulation + feeding down into the ground manifold;
    # absorption: ground depopulation + the emission feeding with the upper and
    # ground roles swapped (its triplets never share a position with an
    # emission triplet)
    matrix = _summed_csr(
        [
            _depopulation(_embed(rates.entries("upper"), basis)),
            _depopulation(_embed(rates.entries("ground"), basis)),
            (rows, cols, values),
            (cols, rows, values),
        ],
        n * n,
    )
    return Superoperator(matrix=matrix, basis=basis, label="stimulated")


# ---------------------------------------------------------------------------
# interference diagnostics


@dataclass(frozen=True)
class InterferencePoint:
    m: HalfInt
    f: HalfInt | None
    value: float | None


@dataclass(frozen=True)
class InterferenceReport:
    points: tuple[InterferencePoint, ...]
    off_diagonal: tuple[tuple[tuple, complex], ...]


def _interference_value(g_bc: complex, g_bb: complex, g_cc: complex) -> float | None:
    denom = (complex(g_bb).real) * (complex(g_cc).real)
    if denom <= 0.0:
        # a vanishing diagonal forces a vanishing cross term, so the degree
        # is 0/0 and genuinely undefined rather than zero
        return None
    return complex(g_bc).real / math.sqrt(denom)


def interference_report(rates: RateSet) -> InterferenceReport:
    """Degree of interference per shared sublevel, plus the raw cross terms.

    The degree at sublevel M (or (F, M)) is the cross coefficient divided by
    the geometric mean of the two diagonal coefficients at the same
    projection.  Sublevels where both diagonals vanish report ``None``.
    """
    # the quantum numbers, (M,) or (F, M), of the sublevels b and c share,
    # in basis order
    sublevels = Basis.for_scheme(rates.scheme).sublevels
    of_c = {sublevel[1:] for sublevel in sublevels if sublevel[0] == "c"}
    shared = [
        sublevel[1:] for sublevel in sublevels if sublevel[0] == "b" and sublevel[1:] in of_c
    ]
    points = []
    for q in shared:
        g_bb = rates.upper.get(("b", *q, "b", *q), 0.0 + 0.0j)
        g_cc = rates.upper.get(("c", *q, "c", *q), 0.0 + 0.0j)
        g_bc = rates.upper.get(("b", *q, "c", *q), 0.0 + 0.0j)
        f = q[0] if len(q) == 2 else None
        points.append(InterferencePoint(m=q[-1], f=f, value=_interference_value(g_bc, g_bb, g_cc)))
    off = [
        (key, complex(value))
        for key, value in rates.upper.items()
        if key[: len(key) // 2] != key[len(key) // 2 :] and value != 0.0
    ]
    off.sort(key=lambda item: (-abs(item[1]), tuple(map(repr, item[0]))))
    return InterferenceReport(points=tuple(points), off_diagonal=tuple(off))
