"""Transition-rate tables and relaxation superoperators for V-type schemes.

The level labels are fixed: two excited levels "b" and "c" share a common
ground level "d".  Every photon channel carries helicity sigma = M_upper -
M_lower in {-1, 0, +1}, and the environment enters only through a 3x3
helicity matrix (see environment.KMatrix).

Rate tables come in two shapes.  The two-index table ("upper") couples pairs
of excited sublevels and drives depopulation together with the coherence
decay between the excited levels.  The four-index table ("feeding") resolves
the ground sublevels the decay feeds into.  Every coefficient has one form,
((S * A1) * A2) * K(sigma1, sigma2): two dipole channel amplitudes (``_channels``)
times one entry of the helicity matrix, which the two channels' helicities
fix.  So a scheme's rate tables are a fixed linear map of K: its skeleton
(``_skeleton``, cached as ``scheme.skeleton``) holds, for every pair of
channels in table order, the flat index of the K entry it reads, and per
level pair what gives each pair's product (S * A1) * A2 and its two channels.
A rate builder is one masked product of the skeleton with K, over the pairs
whose K entry is not zero, and ``interference_sweep`` sums the few pairs p(M)
reads over many K at once.  A ``RateSet`` holds each table as rows: the basis
positions of each entry's sublevels and its value.  The feeding rows are given
and the others summed from them: the two-index table adds the diagonal-ground
feeding entries in order, and the ground table of stimulated sets the
diagonal-excited ones, so both trace identities hold by construction and
nothing downstream re-checks them.  Every reader here reads the rows.  Keys are
made only for the three public mappings (and the interference report's
off-diagonal list), each by one join: of two sublevels' parts, or of the two
halves of a feeding key, which the basis holds for every sublevel followed by
a ground one.  A key is read back into sublevels only from a feeding table
made by hand.

Superoperators act on the row-major vectorisation of the density matrix:
vec(A rho B) = kron(A, B.T) vec(rho).  They are stored as their nonzeros
(:class:`SparseMatrix`): every term links only sublevels joined by a dipole
channel, so the builders emit (row, col, value) triplets with numpy from the
rate set's rows -- the depopulation -(G (x) 1 + 1 (x) G*) over the
nonzeros of the n x n table G, then the feeding pairs -- and never form the
kron products.  Duplicate triplets are summed in the order a dense ``+=``
assembly would add them, so every stored value equals that assembly's to the
bit, and a sum of finite terms that overflows raises.  Feeding terms are
inserted in conjugate pairs so that trace and Hermiticity are preserved for
complex helicity matrices, not only for real ones.  The generator of
:mod:`vrelax.dynamics` is summed by the same function (:func:`sparse_sum`).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .angular import clebsch_gordan, wigner_6j
from .environment import KMatrix
from .errors import DistributionDomainError, RateSetContractError, SchemeError
from .halfint import HalfInt, half, projections, triangle_ok, triangle_range

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
    "SparseMatrix",
    "Superoperator",
    "build_relaxation_superop",
    "build_stimulated_superop",
    "sparse_sum",
    "InterferencePoint",
    "InterferenceReport",
    "interference_report",
    "InterferenceSweep",
    "interference_sweep",
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

    @cached_property
    def basis(self) -> "Basis":
        """The sublevel basis, built once per scheme (``Basis.for_scheme``)."""
        return Basis.for_fine(self)

    @cached_property
    def channels(self) -> dict[str, tuple]:
        """Each excited level's dipole channels, built once per scheme (``_channels``)."""
        return {level: _channels(self, level) for level in EXCITED_LEVELS}

    @cached_property
    def skeleton(self) -> tuple:
        """The K-free factors of every channel pair, built once per scheme (``_skeleton``)."""
        return _skeleton(self)


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

    @cached_property
    def basis(self) -> "Basis":
        """The sublevel basis, built once per scheme (``Basis.for_scheme``)."""
        return Basis.for_hyperfine(self)

    @cached_property
    def channels(self) -> dict[str, tuple]:
        """Each excited level's dipole channels, built once per scheme (``_channels``)."""
        return {level: _channels(self, level) for level in EXCITED_LEVELS}

    @cached_property
    def skeleton(self) -> tuple:
        """The K-free factors of every channel pair, built once per scheme (``_skeleton``)."""
        return _skeleton(self)


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
        """The scheme's own basis, built on its first request and shared after."""
        return scheme.basis

    @property
    def sublevels(self) -> tuple[tuple, ...]:
        """The sublevel tuple of every state, in basis order."""
        return tuple(self._position)

    def position(self, sublevel: tuple) -> int:
        try:
            return self._position[sublevel]
        except (KeyError, TypeError):  # TypeError: an unhashable sublevel
            pass
        if not isinstance(sublevel, tuple) or len(sublevel) not in (2, 3):
            raise SchemeError(f"sublevel {sublevel!r} is not (level, M) or (level, F, M)")
        level, *numbers = sublevel
        state = BasisState(level, numbers[-1], *numbers[:-1])
        raise SchemeError(f"state {state.label()} is not in the basis")

    def index(self, state: BasisState) -> int:
        return self.position(_sublevel(state))

    def labels(self) -> tuple[str, ...]:
        return tuple(state.label() for state in self.states)

    @cached_property
    def _parts(self) -> np.ndarray:
        """Each sublevel as it runs in a key (a ground one without its "d"), an object array."""
        return np.fromiter((s[1:] if s[0] == GROUND_LEVEL else s for s in self.sublevels), object)

    @cached_property
    def _halves(self) -> np.ndarray:
        """The key of every sublevel followed by every ground sublevel, an n x n object
        array (None where the second is not a ground sublevel): a feeding key is two."""
        ground = [p for p, s in enumerate(self.sublevels) if s[0] == GROUND_LEVEL]
        halves = np.full((len(self), len(self)), None, object)
        halves[:, ground] = np.add.outer(self._parts, self._parts[ground])
        return halves

    @cached_property
    def _part_rank(self) -> np.ndarray:
        """Each sublevel's rank by the reprs of its key part, in tuple order."""
        text = cache(repr)  # each label and quantum number formatted once
        order = sorted(range(len(self)), key=lambda p: tuple(map(text, self._parts[p])))
        return np.argsort(order)

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
# One rule makes every key: the sublevels it names run together in order,
# each ground sublevel ("d", Md) or ("d", Fd, Md) without its "d".  A basis
# holds each sublevel's part of a key (``Basis._parts``) and the key of every
# sublevel followed by a ground one (``Basis._halves``); ``_keyed`` joins them
# along rows of basis positions, for the mappings and the report's off-diagonal
# list only, and ``_key_sublevels`` reads a key of a feeding table made by hand
# back into sublevels; no other code knows it.  CSV rows sort by the basis
# positions of their key's sublevels, taken in key order.


def _keyed(basis: Basis, rows: tuple) -> MappingProxyType:
    """The read-only {key: value} mapping of rows (positions into ``basis``, values),
    in row order; each key is one join: of two parts, or of a feeding key's halves."""
    at = rows[0]
    if at.shape[1] == 2:
        keys = basis._parts[at[:, 0]] + basis._parts[at[:, 1]]
    else:
        keys = basis._halves[at[:, 0], at[:, 1]] + basis._halves[at[:, 2], at[:, 3]]
    return MappingProxyType(dict(zip(keys.tolist(), rows[1].tolist())))


def _key_sublevels(key: tuple, hyperfine: bool) -> tuple[tuple, ...]:
    """The sublevels a key names, in key order; a ground one opens on a quantum number."""
    size, sublevels, at = (3 if hyperfine else 2), [], 0
    while at < len(key):
        head = () if isinstance(key[at], str) else (GROUND_LEVEL,)
        sublevels.append(head + key[at : at + size - len(head)])
        at += size - len(head)
    return tuple(sublevels)


def _partial_sums(sites: np.ndarray, values: np.ndarray, n: int, over: str, drop: bool) -> tuple:
    """(pairs, sums), read-only: the sums, from 0 in feeding order, of the entries sharing
    their ``over`` sublevel ("ground": pairs (up1, up2); "upper": pairs (gr1, gr2)), one
    row per pair of positions they reach, in order of first appearance; ``drop`` leaves
    out the sums of exactly 0.0.  Raises :class:`SchemeError` when a sum is not finite."""
    up1, gr1, up2, gr2 = sites.T
    left, right, keep = (up1, up2, gr1 == gr2) if over == "ground" else (gr1, gr2, up1 == up2)
    flat = left[keep].astype(np.int64) * n + right[keep]
    g = np.zeros(n * n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # raised typed below instead
        np.add.at(g, flat, values[keep])  # unbuffered, one entry at a time, in order
    if not np.isfinite(g).all():
        raise SchemeError(f"rate coefficients overflow: a sum over the shared {over} sublevel")
    flat = flat[np.sort(np.unique(flat, return_index=True)[1])]
    if drop:
        flat = flat[g[flat] != 0]
    pairs, sums = np.stack(np.divmod(flat, n), axis=1), g[flat]
    pairs.flags.writeable = sums.flags.writeable = False
    return pairs, sums


_NO_ROWS = np.broadcast_to(0, (0, 2)), np.broadcast_to(0j, 0)  # read-only, as all rows are


@dataclass(frozen=True, eq=False)
class RateSet:
    """A feeding table plus enough context to build superoperators.

    ``RateSet(scheme, feeding, stimulated=False)``: the four-index feeding table
    is the one stored input.  Each table is held as rows, read-only (positions,
    values) arrays in table order (``rows``); feeding's are ``sites``, the basis
    positions (up1, gr1, up2, gr2) of each entry's sublevels (int32), and
    ``values`` (complex), which the rate builders pass.  The two-index table
    ``upper`` (the partial trace over the shared ground sublevel) and, for
    stimulated sets, the ground absorption table ``ground`` (over the shared
    excited sublevel; no rows and a None mapping for spontaneous sets) are
    summed from them and cannot be passed in, so the trace identities hold by
    construction; a sum that is not finite raises :class:`SchemeError`.
    Fine-structure ``upper`` and every ``ground`` omit sums that cancel to
    exactly 0.0; hyperfine ``upper`` keeps every sum a feeding entry reaches,
    because whether one of its analytic cancellations lands on exactly 0.0
    depends on the last bit of K, which would make the key set change with K.
    Every reader, the rate CSV included, reads the rows; the three read-only
    mappings are made from them, except that a feeding table given by hand is
    kept as a copy of it, and its keys are read back into positions.

    The tables are Hermitian (Γ(2,1) = conj Γ(1,2)) whenever one helicity
    matrix serves every level pair; per-frequency evaluation with detuned
    levels legitimately breaks that symmetry in the cross block, and the
    superoperator builders are written to preserve trace and Hermiticity of
    the density matrix regardless, so Hermiticity is not a contract.
    """

    scheme: LevelScheme | HyperfineScheme
    feeding: Mapping[tuple, complex]
    stimulated: bool = False
    _arrays: InitVar[tuple | None] = None  # (sites, values) with feeding=None; replace() drops them
    upper: Mapping[tuple, complex] = field(init=False)
    ground: Mapping[tuple, complex] | None = field(init=False)

    def __post_init__(self, _arrays: tuple | None) -> None:
        basis = Basis.for_scheme(self.scheme)
        n = len(basis)
        if _arrays is None:
            feeding = dict(self.feeding)
            rows = []
            for key in feeding:
                sublevels = _key_sublevels(key, self.hyperfine)
                if [s[0] == GROUND_LEVEL for s in sublevels] != [False, True, False, True]:
                    raise SchemeError(f"feeding key {key!r} is not (upper, ground, upper, ground)")
                rows.append([*map(basis.position, sublevels)])
            sites = np.array(rows, dtype=np.int32).reshape(-1, 4)
            values = np.fromiter(feeding.values(), dtype=complex, count=len(feeding))
        else:
            feeding, (sites, values) = None, _arrays
        sites.flags.writeable = values.flags.writeable = False
        upper = _partial_sums(sites, values, n, "ground", not self.hyperfine)
        ground = _partial_sums(sites, values, n, "upper", True) if self.stimulated else _NO_ROWS
        object.__setattr__(self, "_rows", dict(upper=upper, feeding=(sites, values), ground=ground))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "values", values)
        # the mappings: the one place a set makes keys
        made = _keyed(basis, (sites, values)) if feeding is None else MappingProxyType(feeding)
        object.__setattr__(self, "feeding", made)
        object.__setattr__(self, "upper", _keyed(basis, upper))
        object.__setattr__(self, "ground", _keyed(basis, ground) if self.stimulated else None)

    @property
    def kind(self) -> str:
        """``"stimulated"`` or ``"spontaneous"``."""
        return "stimulated" if self.stimulated else "spontaneous"

    @property
    def hyperfine(self) -> bool:
        return isinstance(self.scheme, HyperfineScheme)

    def rows(self, table: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (positions, values) of the "upper", "feeding" or "ground" table, in
        table order; each row holds the basis positions of the sublevels its key names,
        in key order: (upper1, upper2), (upper1, ground1, upper2, ground2) or (ground1,
        ground2).  Feeding's are ``sites`` and ``values``."""
        if table not in self._rows:
            raise RateSetContractError(
                f"unknown rate table {table!r}, expected one of 'upper', 'feeding', 'ground'"
            )
        return self._rows[table]

    def entries(self, table: str) -> list[tuple[tuple[tuple, ...], complex]]:
        """(sublevels, value) pairs of the table's ``rows``, each position its sublevel."""
        (at, values), sub = self.rows(table), Basis.for_scheme(self.scheme).sublevels
        return [(tuple(sub[p] for p in row), v) for row, v in zip(at.tolist(), values.tolist())]

    def restricted(self, level: str) -> "RateSet":
        """Two-level reduction: drop every entry touching the other excited level."""
        if level not in EXCITED_LEVELS:
            raise SchemeError(f"cannot restrict to level {level!r}, expected one of 'b', 'c'")
        of_level = np.array([s[0] == level for s in Basis.for_scheme(self.scheme).sublevels])
        keep = of_level[self.sites[:, 0]] & of_level[self.sites[:, 2]]
        return replace(self, feeding=None, _arrays=(self.sites[keep], self.values[keep]))


def _sigma_of(m_upper: HalfInt, m_lower: HalfInt) -> int | None:
    t = m_upper.twice - m_lower.twice
    if t in (-2, 0, 2):
        return t // 2
    return None


def _channels(
    scheme: LevelScheme | HyperfineScheme, level: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero dipole channels of one excited level, ordered by (F, M, Fd, Md).

    Returns the basis positions (upper, ground) of each channel's sublevels,
    its helicity and its amplitude R(F, Fd) * <Fd Md; 1 sigma | F M>, as
    read-only arrays.  Fine structure is the one-F case: F = J, Fd = J_d and
    no recoupling factor.  The rate builders read them from ``scheme.channels``.
    """
    hyperfine = isinstance(scheme, HyperfineScheme)
    if hyperfine:
        f_upper, f_ground = scheme.f_values(level), scheme.f_values(GROUND_LEVEL)
    else:
        f_upper, f_ground = (scheme.j(level),), (scheme.j_d,)
    position = Basis.for_scheme(scheme).position
    sites, sigmas, amplitudes = [], [], []
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
                        upper = (level, f, m) if hyperfine else (level, m)
                        ground = (GROUND_LEVEL, fd, md) if hyperfine else (GROUND_LEVEL, md)
                        sites.append((position(upper), position(ground)))
                        sigmas.append(sigma)
                        amplitudes.append(mixing * c)
    arrays = np.array(sites, np.int32).reshape(-1, 2), np.array(sigmas, int), np.array(amplitudes)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _skeleton(scheme: LevelScheme | HyperfineScheme) -> tuple:
    """The K-free half of every rate coefficient, for every pair of channels.

    Pairs run in table order: level pair b b, b c, c b, c c, then the first level's
    channel, then the second's; channels run b's, then c's.  Returns (k_index,
    blocks, scaled, amplitudes, sites), read-only: per pair the flat index of the K
    entry it reads, into k_b's entries then k_c's, 3 (sigma1 + 1) + (sigma2 + 1)
    plus 9 when the second level is c (int8); per level pair its first pair, the
    second level's channel count, where its S A1 start in ``scaled`` and the first
    channel of each of its levels; S A1 of each level pair's first level; each
    channel's amplitude A; and each channel's int32 (upper, ground) positions packed
    in one int64, so that the four positions of a pair are two gathers.
    ``_pair_factors`` reads a pair's product (S A1) A2 and channels off it; the rate
    builders read it from ``scheme.skeleton``.
    """
    hyperfine = isinstance(scheme, HyperfineScheme)
    fine = scheme.fine if hyperfine else scheme
    channels = scheme.channels
    start = {"b": 0, "c": len(channels["b"][0])}
    k_index, blocks, scaled, pairs = [], [], [], 0
    for j1 in EXCITED_LEVELS:
        _, sig1, a1 = channels[j1]
        for j2 in EXCITED_LEVELS:
            _, sig2, a2 = channels[j2]
            scale = fine.s_factor(j1, j2)
            if hyperfine:
                # the recoupling factors absorb 1/sqrt(2J+1) each, which this
                # scale puts back so that I = 0 reproduces the fine tables
                scale *= math.sqrt((fine.j(j1).twice + 1) * (fine.j(j2).twice + 1))
            # the coefficient inherits the frequency of its second index
            k_index.append((3 * sig1[:, None] + sig2[None, :] + (4 if j2 == "b" else 13)).ravel())
            blocks.append((pairs, len(a2), sum(map(len, scaled)), start[j1], start[j2]))
            scaled.append(scale * a1)
            pairs += len(a1) * len(a2)
    levels = [channels[level] for level in EXCITED_LEVELS]
    arrays = (
        np.concatenate(k_index).astype(np.int8),
        np.array(blocks, np.int64),
        np.concatenate(scaled),
        np.concatenate([amplitudes for _, _, amplitudes in levels]),
        np.concatenate([positions for positions, _, _ in levels]).view(np.int64).ravel(),
    )
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _pair_factors(skeleton: tuple, at: np.ndarray) -> tuple[np.ndarray, ...]:
    """(coef, first, second) of the channel pairs at ascending table positions ``at``:
    the product (S A1) A2 and the two channels, indices into the skeleton's sites."""
    _k_index, blocks, scaled, amplitudes = skeleton[:4]
    block = np.searchsorted(blocks[:, 0], at, "right") - 1
    start, width, at_scaled, first, second = blocks[block].T
    i, j = np.divmod(at - start, width)
    return scaled.take(at_scaled + i) * amplitudes.take(second + j), first + i, second + j


def _tables(
    scheme: LevelScheme | HyperfineScheme, k_b: KMatrix, k_c: KMatrix, stimulated: bool = False
) -> RateSet:
    """Rate set of ((S A1) A2) K(sigma1, sigma2) per channel pair, without the zeros."""
    k_b.validate()
    k_c.validate()
    k_index, *_, sites = scheme.skeleton
    k = np.concatenate((k_b.entries.ravel(), k_c.entries.ravel()))
    at = np.flatnonzero((k != 0).take(k_index))  # a zero K entry gives a zero product
    coef, first, second = _pair_factors(scheme.skeleton, at)
    # ((S A1) A2) K: one fixed product order keeps every value bit-stable
    with np.errstate(over="ignore", invalid="ignore"):  # raised typed below instead
        values = coef * k.take(k_index.take(at))
    if not np.isfinite(values).all():
        raise SchemeError("rate coefficients overflow: a product S A1 A2 K is not finite")
    nonzero = values != 0
    if not nonzero.all():
        values, first, second = values[nonzero], first[nonzero], second[nonzero]
    pair_sites = np.stack((sites.take(first), sites.take(second)), axis=1)
    return RateSet(scheme, None, stimulated, _arrays=(pair_sites.view(np.int32), values))


def _fine_only(scheme: LevelScheme | HyperfineScheme, builder: str) -> None:
    if isinstance(scheme, HyperfineScheme):
        raise RateSetContractError(
            f"{builder} builds fine-structure tables only, got a HyperfineScheme "
            "(rates_hyperfine builds its spontaneous tables)"
        )


def rates_fine(scheme: LevelScheme, k_b: KMatrix, k_c: KMatrix) -> RateSet:
    """Assemble the fine-structure rate tables from per-level helicity matrices.

    ``k_b`` and ``k_c`` are the helicity matrices evaluated at omega_bd and
    omega_cd.  Each cross coefficient takes the matrix of its second index,
    so passing one matrix twice makes both cross coefficients share it.
    """
    return _tables(scheme, k_b, k_c)


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

    _fine_only(scheme, "rates_stimulated")
    k_b = k_stimulated(distribution, modifier, scheme.omega_bd, quad_order=quad_order)
    k_c = k_stimulated(distribution, modifier, scheme.omega_cd, quad_order=quad_order)
    return _tables(scheme, k_b, k_c, stimulated=True)


def rates_injected(scheme: LevelScheme, k: KMatrix) -> RateSet:
    """Stimulated-structure tables from one literal helicity matrix.

    The injection path feeds externally specified K values straight into
    the operator assembly, bypassing any angular quadrature.
    Both excited levels share the single matrix, and the ground absorption
    table is built from it as well, so the result can drive the full two-way
    superoperator just like a quadrature product.
    """
    _fine_only(scheme, "rates_injected")
    return _tables(scheme, k, k, stimulated=True)


def rates_hyperfine(scheme: HyperfineScheme, k: KMatrix) -> RateSet:
    """Spontaneous hyperfine rate tables from a single helicity matrix.

    The hyperfine splittings are assumed negligible on the scale over which
    the mode density varies, so one matrix per fine-structure line suffices.
    Only spontaneous tables are built here; resolving a photon distribution
    over hyperfine components is out of scope.
    """
    return _tables(scheme, k, k)


# ---------------------------------------------------------------------------
# superoperators


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """A complex matrix as its nonzeros ``data`` at int64 (``row``, ``col``),
    sorted by row then column, each stored once (:func:`sparse_sum`); the
    names are those of ``scipy.sparse.coo_array``."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=complex)
        dense[self.row, self.col] = self.data
        return dense


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on density matrices, stored on the row-major vec basis.

    ``matrix`` is a :class:`SparseMatrix` of shape n^2 x n^2; a dense input
    is converted to it at construction.
    """

    matrix: SparseMatrix
    basis: Basis
    label: str

    def __post_init__(self) -> None:
        size = len(self.basis) ** 2
        shape = np.shape(self.matrix)
        if shape != (size, size):
            raise SchemeError(
                f"superoperator '{self.label}' has shape {shape}, expected "
                f"{(size, size)} for a basis of {len(self.basis)} states"
            )
        if not isinstance(self.matrix, SparseMatrix):
            m = np.asarray(self.matrix, dtype=complex)
            object.__setattr__(self, "matrix", sparse_sum([(*m.nonzero(), m[m != 0])], size))


def _placed(rates: RateSet, basis: Basis | None, tables: tuple[str, ...]) -> tuple:
    """(basis, lookup): ``lookup[p]`` is the position in ``basis`` of sublevel p of
    the set's own basis; a missing sublevel raises at the first one the rows of
    ``tables`` name, walked table by table, row by row."""
    own = Basis.for_scheme(rates.scheme)
    basis = own if basis is None else basis
    lookup = np.array([basis._position.get(s, -1) for s in own.sublevels])
    if np.any(lookup[rates.sites] < 0):
        walk = np.concatenate([rates.rows(table)[0].ravel() for table in tables])
        basis.position(own.sublevels[walk[lookup[walk] < 0][0]])  # raises, naming it
    return basis, lookup


def _depopulation(rows: tuple, lookup: np.ndarray, n: int) -> tuple:
    """Triplets of -(G (x) 1) followed by those of -(1 (x) G*), over G's nonzeros.

    G is the ``upper`` or ``ground`` table of a ``RateSet`` as its rows, (i, j)
    positions and values, placed by ``lookup`` and taken in row-major order.
    -(G rho + rho G^dagger): the conjugate on the right factor is what keeps
    Hermiticity preservation exact when per-frequency evaluation leaves the
    embedded table non-Hermitian.
    """
    (i, j), g = rows[0].T, rows[1]
    order = np.lexsort((lookup[j], lookup[i]))
    order = order[g[order] != 0]
    i, j, k, value = lookup[i[order]], lookup[j[order]], np.arange(n), np.repeat(g[order], n)
    rows = np.concatenate([(i[:, None] * n + k).ravel(), (k * n + i[:, None]).ravel()])
    cols = np.concatenate([(j[:, None] * n + k).ravel(), (k * n + j[:, None]).ravel()])
    return rows, cols, np.concatenate([-value, -value.conj()])


def _feeding(sites: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Triplets of the feeding terms, entry by entry in table order:
    conj(G) |d1><1| rho |2><d2|  +  G |d2><2| rho |1><d1|."""
    up1, gr1, up2, gr2 = sites.T.astype(np.int64)
    pairs = (gr1 * n + gr2, gr2 * n + gr1), (up1 * n + up2, up2 * n + up1), (values.conj(), values)
    return tuple(np.stack(pair, axis=1).ravel() for pair in pairs)


def sparse_sum(parts: list[tuple[np.ndarray, ...]], size: int) -> SparseMatrix:
    """The size x size matrix of (rows, cols, values) triplets, duplicates summed.

    Duplicates are summed from 0 in the order the triplets are given, which
    is the order of repeated ``+=`` into a zero dense matrix, so every value
    is bit-identical to that dense assembly.  Sums that cancel to exactly
    zero are not stored.  A sum of finite terms that is not finite (an
    overflow) raises :class:`SchemeError`; a term that is not finite is the
    caller's to pass on.
    """
    rows, cols, values = (np.concatenate(column) for column in zip(*parts))
    keys, group = np.unique(rows * size + cols, return_inverse=True)
    sums = np.zeros(keys.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # raised typed below instead
        np.add.at(sums, group, values)  # unbuffered, one triplet at a time, in order
    if not np.isfinite(sums).all() and np.isfinite(values).all():
        raise SchemeError("matrix entries overflow: a sum of finite terms is not finite")
    keep = sums != 0
    return SparseMatrix(*np.divmod(keys[keep], size), sums[keep], (size, size))


def build_relaxation_superop(rates: RateSet, basis: Basis | None = None) -> Superoperator:
    """Spontaneous-decay superoperator: excited depopulation plus ground feeding.

    The feeding insertion places each four-index coefficient twice, once
    conjugated, and the depopulation table is the feeding table's partial
    trace, so the result preserves trace and Hermiticity.
    """
    basis, lookup = _placed(rates, basis, ("upper", "feeding"))
    n = len(basis)
    depopulation = _depopulation(rates.rows("upper"), lookup, n)
    matrix = sparse_sum([depopulation, _feeding(lookup[rates.sites], rates.values, n)], n * n)
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
        # only a hand-made set can be one: rates_stimulated and rates_injected
        # refuse hyperfine schemes
        raise RateSetContractError(
            "stimulated superoperator does not support hyperfine rate sets "
            "(hyperfine=True with kind='stimulated')"
        )
    basis, lookup = _placed(rates, basis, ("feeding",))
    n = len(basis)
    rows, cols, doubled = _feeding(lookup[rates.sites], rates.values, n)
    # emission: excited depopulation + feeding down into the ground manifold;
    # absorption: ground depopulation + the emission feeding with the upper and
    # ground roles swapped (its triplets never share a position with an
    # emission triplet)
    matrix = sparse_sum(
        [
            _depopulation(rates.rows("upper"), lookup, n),
            _depopulation(rates.rows("ground"), lookup, n),
            (rows, cols, doubled),
            (cols, rows, doubled),
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


def _degrees(g_bb: np.ndarray, g_cc: np.ndarray, g_bc: np.ndarray) -> np.ndarray:
    """g_bc / sqrt(g_bb g_cc) over real sums; NaN where g_bb g_cc <= 0, as a vanishing
    diagonal forces a vanishing cross term, so the degree is 0/0 and genuinely undefined."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite product gives 0.0
        denom = g_bb * g_cc
        return np.divide(g_bc, np.sqrt(denom), out=np.full(denom.shape, np.nan), where=denom > 0)


def _shared(sublevels: tuple[tuple, ...]) -> list[tuple[int, int]]:
    """The positions (b, c) of the sublevels b and c share, (M,) or (F, M), in basis order."""
    of_c = {s[1:]: p for p, s in enumerate(sublevels) if s[0] == "c"}
    return [(p, of_c[s[1:]]) for p, s in enumerate(sublevels) if s[0] == "b" and s[1:] in of_c]


def interference_report(rates: RateSet) -> InterferenceReport:
    """Degree of interference per shared sublevel, plus the raw cross terms.

    The degree at sublevel M (or (F, M)) is the cross coefficient divided by
    the geometric mean of the two diagonal coefficients at the same
    projection.  Sublevels where both diagonals vanish report ``None``.
    """
    basis, (at, sums) = Basis.for_scheme(rates.scheme), rates.rows("upper")
    sublevels = basis.sublevels
    g = np.zeros((len(sublevels),) * 2, dtype=complex)  # a sum the table does not hold is 0
    g[at[:, 0], at[:, 1]] = sums
    b, c = np.array(_shared(sublevels), dtype=np.int64).reshape(-1, 2).T
    degrees = _degrees(g[b, b].real, g[c, c].real, g[b, c].real).tolist()
    points = []
    for p, value in zip(b.tolist(), degrees):
        q, value = sublevels[p][1:], None if math.isnan(value) else value
        points.append(InterferencePoint(m=q[-1], f=q[0] if len(q) == 2 else None, value=value))
    off = (at[:, 0] != at[:, 1]) & (sums != 0.0)
    (p, q), values = at[off].T, sums[off].tolist()
    # by falling magnitude, then by the reprs of the key's items; the parts of
    # excited sublevels have one length, so those order as the two parts' ranks
    rank = basis._part_rank
    order = np.lexsort((rank[q], rank[p], [-abs(v) for v in values])).tolist()
    keys = (basis._parts[p[order]] + basis._parts[q[order]]).tolist()
    off_diagonal = tuple(zip(keys, [values[i] for i in order]))
    return InterferenceReport(points=tuple(points), off_diagonal=off_diagonal)


@dataclass(frozen=True, eq=False)
class InterferenceSweep:
    """Degrees of interference over a sweep: ``values[i, s]`` is the degree at point i
    of shared sublevel s, which is (``m[s]``, ``f[s]``) in the order of
    ``InterferenceReport.points``; NaN where the report says ``None``.  ``values`` is a
    read-only (points, sublevels) float64 array."""

    m: tuple[HalfInt, ...]
    f: tuple[HalfInt | None, ...]
    values: np.ndarray


def interference_sweep(
    scheme: LevelScheme | HyperfineScheme,
    ks: Sequence[KMatrix],
    ks_c: Sequence[KMatrix] | None = None,
) -> InterferenceSweep:
    """The degrees of :func:`interference_report` at many helicity matrices at once.

    Row i equals, bit for bit, the degrees of ``interference_report(rates)`` for
    ``rates = rates_hyperfine(scheme, ks[i])`` or ``rates_fine(scheme, ks[i], ks_c[i])``
    (``ks_c`` defaults to ``ks`` and is for fine schemes only; a stimulated set over
    the same two matrices has the same degrees), wherever that builder succeeds.  No
    rate set is built: a degree reads three sums of the two-index table, each over
    one shared sublevel's channel pairs into one ground sublevel, and those pairs read
    diagonal K entries only.  Their terms come from ``scheme.skeleton`` and are
    summed from 0 in table order, as the table sums them, for every point at once.
    A sum read here that is not finite raises :class:`SchemeError`.
    """
    if isinstance(scheme, HyperfineScheme) and ks_c is not None:
        raise RateSetContractError(
            "interference_sweep takes one K per point for a HyperfineScheme, as "
            "rates_hyperfine does; got ks_c"
        )
    ks = list(ks)
    ks_c = ks if ks_c is None else list(ks_c)
    if len(ks_c) != len(ks):
        raise DistributionDomainError(
            f"ks and ks_c need one K per point each, got {len(ks)} and {len(ks_c)}"
        )
    for k in ks if ks_c is ks else ks + ks_c:
        k.validate()
    k_index, *_, sites = scheme.skeleton
    basis = Basis.for_scheme(scheme)
    n, shared = len(basis), _shared(basis.sublevels)
    # per shared sublevel the sums (b b), (c c), (b c), as flat positions of the table
    targets = np.array([(b * n + b, c * n + c, b * n + c) for b, c in shared], int).ravel()
    slot = np.full(n * n, -1)
    slot[targets] = np.arange(targets.size)
    pairs = np.arange(k_index.size)
    coef, first, second = _pair_factors(scheme.skeleton, pairs)
    ends = sites.view(np.int32).reshape(-1, 2)
    (up1, gr1), (up2, gr2) = ends[first].T, ends[second].T
    summed = np.where(gr1 == gr2, slot[up1.astype(np.int64) * n + up2], -1)
    pairs, coef, summed = pairs[summed >= 0], coef[summed >= 0], summed[summed >= 0]
    k = np.concatenate(
        [np.array([m.entries for m in stack]).reshape(-1, 9) for stack in (ks, ks_c)], axis=1
    )
    # the real part of (S A1) A2 K, which is all a sum's real part reads, summed
    # from 0 in table order along each point's row
    sums = np.zeros((len(ks), targets.size))
    with np.errstate(over="ignore", invalid="ignore"):  # raised typed below instead
        np.add.at(sums, (slice(None), summed), coef * k.real[:, k_index[pairs]])
    if not np.isfinite(sums).all():
        raise SchemeError("rate coefficients overflow: a sum over the shared ground sublevel")
    g_bb, g_cc, g_bc = np.moveaxis(sums.reshape(len(ks), len(shared), 3), 2, 0)
    values = _degrees(g_bb, g_cc, g_bc)
    values.flags.writeable = False
    q = [basis.sublevels[b][1:] for b, _c in shared]
    return InterferenceSweep(
        m=tuple(s[-1] for s in q), f=tuple(s[0] if len(s) == 2 else None for s in q), values=values
    )
