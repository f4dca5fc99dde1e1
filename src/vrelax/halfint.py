"""Exact bookkeeping for half-integer angular momentum quantum numbers.

Every J, M, F, I in this package is carried as a :class:`HalfInt`, which
stores twice the value as a plain ``int``.  That keeps projections like 3/2
exact (no 1.4999999 drift into selection rules) and makes parity checks
trivial: a quantum number is integral iff ``twice`` is even.

HalfInts are interned (hash-consed): there is exactly one object per value
of ``twice``, whichever path builds it (the constructor, :func:`half`,
arithmetic, :func:`projections`, pickle or ``copy``).  Identity is therefore
value equality, so ``__hash__`` and ``__eq__`` are ``object``'s own and run
in C.  The rate tables are dicts keyed by sublevel tuples such as
``("b", F, M)``, and hashing and comparing those keys was most of the cost of
building them while the two methods were Python functions.  Sharing one
object is safe because a HalfInt is immutable, and the constructor checks the
type of ``twice`` before it looks in the cache.  The cache is never emptied;
it holds one small object per value ever built.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

from .errors import AngularDomainError

HalfIntLike = Union["HalfInt", int, float, str]


class HalfInt:
    """A number of the form n/2 with n integer, stored as ``twice = n``.

    Immutable and interned: ``HalfInt(t)`` returns the one instance for
    ``t``, so ``==`` and ``hash`` are by identity.  ``__new__`` checks that
    ``twice`` is an ``int`` *before* it looks in the cache, because ``2.0``
    and ``np.int64(2)`` compare and hash equal to ``2`` and would otherwise
    be handed ``HalfInt(2)``; both raise :class:`AngularDomainError`.  A
    ``bool`` is an ``int`` and is accepted, stored as its ``int`` value.
    Setting or deleting ``twice`` raises ``AttributeError``.
    """

    __slots__ = ("twice",)
    twice: int

    def __new__(cls, twice: int) -> "HalfInt":
        if not isinstance(twice, int):
            raise AngularDomainError(f"HalfInt.twice must be an int, got {twice!r}")
        self = _INTERNED.get(twice)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "twice", int(twice))
            # setdefault: if another thread stored this value first, use its object
            self = _INTERNED.setdefault(self.twice, self)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: HalfInt is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: HalfInt is immutable")

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through __new__, i.e. the cache
        return (HalfInt, (self.twice,))

    # -- construction ------------------------------------------------------

    @classmethod
    def coerce(cls, value: HalfIntLike) -> "HalfInt":
        """Accept a HalfInt, an int, an exact (half-)integral float, or a
        string like ``"3/2"``, ``"1.5"``, ``"2"``."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):  # bools are ints, but never quantum numbers
            raise AngularDomainError(f"cannot interpret {value!r} as a quantum number")
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, float):
            doubled = 2.0 * value
            if not math.isfinite(doubled) or doubled != round(doubled):
                raise AngularDomainError(
                    f"{value!r} is not an integer or half-odd-integer"
                )
            return cls(int(round(doubled)))
        if isinstance(value, str):
            return cls.parse(value)
        raise AngularDomainError(f"cannot interpret {value!r} as a quantum number")

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        s = text.strip()
        if "/" in s:
            num_str, _, den_str = s.partition("/")
            try:
                num, den = int(num_str), int(den_str)
            except ValueError as exc:
                raise AngularDomainError(f"cannot parse quantum number {text!r}") from exc
            if den == 2:
                return cls(num)
            if den == 1:
                return cls(2 * num)
            raise AngularDomainError(
                f"quantum number {text!r} must have denominator 1 or 2"
            )
        try:
            return cls.coerce(float(s))
        except (ValueError, AngularDomainError):
            raise AngularDomainError(f"cannot parse quantum number {text!r}") from None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    def __radd__(self, other: HalfIntLike) -> "HalfInt":
        return self.__add__(other)

    def __sub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __rsub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(HalfInt.coerce(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    # -- ordering -----------------------------------------------------------

    def __lt__(self, other: HalfIntLike) -> bool:
        return self.twice < HalfInt.coerce(other).twice

    def __le__(self, other: HalfIntLike) -> bool:
        return self.twice <= HalfInt.coerce(other).twice

    def __gt__(self, other: HalfIntLike) -> bool:
        return self.twice > HalfInt.coerce(other).twice

    def __ge__(self, other: HalfIntLike) -> bool:
        return self.twice >= HalfInt.coerce(other).twice

    # -- views --------------------------------------------------------------

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


_INTERNED: dict[int, HalfInt] = {}


def half(value: HalfIntLike) -> HalfInt:
    """Shorthand constructor: ``half("3/2")``, ``half(2)``, ``half(0.5)``."""
    return HalfInt.coerce(value)


def projections(j: HalfIntLike) -> list[HalfInt]:
    """All magnetic sublevels of j, ascending: -j, -j+1, ..., +j."""
    jj = half(j)
    if jj.twice < 0:
        raise AngularDomainError(f"angular momentum must be >= 0, got {jj}")
    return [HalfInt(t) for t in range(-jj.twice, jj.twice + 1, 2)]


def triangle_range(a: HalfIntLike, b: HalfIntLike) -> Iterator[HalfInt]:
    """Values c with |a-b| <= c <= a+b in integer steps (coupling range)."""
    ta, tb = half(a).twice, half(b).twice
    if ta < 0 or tb < 0:
        raise AngularDomainError("angular momenta must be >= 0")
    for t in range(abs(ta - tb), ta + tb + 1, 2):
        yield HalfInt(t)


def triangle_ok(a: HalfIntLike, b: HalfIntLike, c: HalfIntLike) -> bool:
    """True iff (a, b, c) satisfy the triangle rule with integral perimeter."""
    ta, tb, tc = half(a).twice, half(b).twice, half(c).twice
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def check_sigma(sigma: int) -> int:
    """Validate a spherical polarization index (must be -1, 0 or +1)."""
    if sigma not in (-1, 0, 1):
        raise AngularDomainError(
            f"polarization index must be -1, 0 or +1, got {sigma!r}"
        )
    return sigma
