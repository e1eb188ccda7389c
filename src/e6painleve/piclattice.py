"""Exact integer model of the Picard lattice of an 8-point blowup of P1 x P1.

The lattice has rank 10 with basis (Hf, Hg, E1, ..., E8), where Hf and Hg are
the classes of vertical and horizontal lines and Ei are the exceptional
classes of the blowup points.  It carries the intersection form

    Hf.Hg = 1,   Hf.Hf = Hg.Hg = Hf.Ei = Hg.Ei = 0,   Ei.Ej = -delta_ij,

of signature (1, 9).  The anticanonical class 2Hf + 2Hg - E1 - ... - E8
decomposes into three surface roots d0, d1, d2 (an affine A2 configuration),
and the orthogonal complement of their span is the symmetry sublattice Q,
spanned by seven simple roots a0, ..., a6 forming an affine E6 diagram:

        a0 - a1 - a2 - a3 - a4
                  |
                  a5
                  |
                  a6

All computations are exact: integer vectors, and root coordinates and
membership in Q by closed forms, with no linear solve.  Every value is immutable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

RANK = 10
BASIS_LABELS = ("Hf", "Hg", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")

#: Coefficients of the null root delta on the symmetry simple roots.
DELTA_WEIGHTS = (1, 2, 3, 2, 1, 2, 1)

#: Edges of the affine E6 diagram on indices 0..6.
E6_EDGES = frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)})


class NotInSymmetryLattice(ValueError):
    """The class does not lie in the span of the symmetry simple roots."""


@dataclass(frozen=True)
class DivisorClass:
    """Integer vector in the basis (Hf, Hg, E1, ..., E8)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != RANK:
            raise ValueError(f"expected {RANK} coefficients, got {len(self.coeffs)}")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("divisor class coefficients must be integers")

    @classmethod
    def of(cls, *coeffs: int) -> "DivisorClass":
        return cls(tuple(int(c) for c in coeffs))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * a for a in self.coeffs))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


ZERO_CLASS = DivisorClass((0,) * RANK)
H_F = DivisorClass.of(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
H_G = DivisorClass.of(0, 1, 0, 0, 0, 0, 0, 0, 0, 0)


def exceptional(i: int) -> DivisorClass:
    """Exceptional class E_i of the blowup point p_i, 1 <= i <= 8."""
    if not 1 <= i <= 8:
        raise IndexError(f"exceptional index must be 1..8, got {i}")
    return DivisorClass(tuple(1 if k == i + 1 else 0 for k in range(RANK)))


def intersection(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a.b (symmetric, signature (1,9))."""
    x, y = a.coeffs, b.coeffs
    return x[0] * y[1] + x[1] * y[0] - sum(x[k] * y[k] for k in range(2, RANK))


def gram_matrix() -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the intersection form in the standard basis."""
    rows = [[0] * RANK for _ in range(RANK)]
    rows[0][1] = rows[1][0] = 1
    for k in range(2, RANK):
        rows[k][k] = -1
    return tuple(tuple(r) for r in rows)


def anticanonical() -> DivisorClass:
    """The anticanonical class 2Hf + 2Hg - E1 - ... - E8."""
    return DivisorClass.of(2, 2, -1, -1, -1, -1, -1, -1, -1, -1)


_SYMMETRY_ROOTS = (
    DivisorClass.of(0, 0, 0, 0, 1, -1, 0, 0, 0, 0),   # a0 = E3 - E4
    DivisorClass.of(0, 0, 0, 1, -1, 0, 0, 0, 0, 0),   # a1 = E2 - E3
    DivisorClass.of(0, 0, 1, -1, 0, 0, 0, 0, 0, 0),   # a2 = E1 - E2
    DivisorClass.of(1, 0, -1, 0, 0, 0, 0, 0, -1, 0),  # a3 = Hf - E1 - E7
    DivisorClass.of(0, 0, 0, 0, 0, 0, 0, 0, 1, -1),   # a4 = E7 - E8
    DivisorClass.of(0, 1, -1, 0, 0, 0, -1, 0, 0, 0),  # a5 = Hg - E1 - E5
    DivisorClass.of(0, 0, 0, 0, 0, 0, 1, -1, 0, 0),   # a6 = E5 - E6
)

_SURFACE_ROOTS = (
    DivisorClass.of(1, 1, -1, -1, -1, -1, 0, 0, 0, 0),  # d0 = Hf + Hg - E1..E4
    DivisorClass.of(1, 0, 0, 0, 0, 0, -1, -1, 0, 0),    # d1 = Hf - E5 - E6
    DivisorClass.of(0, 1, 0, 0, 0, 0, 0, 0, -1, -1),    # d2 = Hg - E7 - E8
)


def symmetry_root(i: int) -> DivisorClass:
    """Simple root a_i of the symmetry sublattice Q, 0 <= i <= 6."""
    if not 0 <= i <= 6:
        raise IndexError(f"symmetry root index must be 0..6, got {i}")
    return _SYMMETRY_ROOTS[i]


def surface_root(i: int) -> DivisorClass:
    """Simple root d_i of the surface sublattice, 0 <= i <= 2."""
    if not 0 <= i <= 2:
        raise IndexError(f"surface root index must be 0..2, got {i}")
    return _SURFACE_ROOTS[i]


def cartan_matrix() -> tuple[tuple[int, ...], ...]:
    """Matrix [a_i.a_j] of the symmetry roots.

    Sign convention: diagonal entries are -2 and diagram edges carry +1
    (the opposite of the usual Cartan sign), so the table can be read
    directly off the intersection form.
    """
    return tuple(
        tuple(intersection(_SYMMETRY_ROOTS[i], _SYMMETRY_ROOTS[j]) for j in range(7))
        for i in range(7)
    )


CARTAN = cartan_matrix()

#: The nonzero entries (j, c_ij) of each row of CARTAN: the coordinates a
#: reflection w_i moves, with the multiple of the pivot each one gains.
CARTAN_TERMS = tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in CARTAN)


@dataclass(frozen=True)
class RootVector:
    """Integer coordinates on the symmetry simple roots a0..a6."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 7:
            raise ValueError(f"expected 7 coefficients, got {len(self.coeffs)}")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise TypeError("root vector coefficients must be integers")

    @classmethod
    def of(cls, *coeffs: int) -> "RootVector":
        return cls(tuple(int(c) for c in coeffs))

    def __add__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RootVector") -> "RootVector":
        return RootVector(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "RootVector":
        return RootVector(tuple(k * a for a in self.coeffs))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


@dataclass(frozen=True)
class RationalRootVector:
    """Rational coordinates on the symmetry simple roots (element of Q tensor QQ)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 7:
            raise ValueError(f"expected 7 coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @classmethod
    def of(cls, *coeffs) -> "RationalRootVector":
        return cls(tuple(Fraction(c) for c in coeffs))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero"
    MIXED = "mixed"


def root_sign(v: RootVector) -> Sign:
    """Sign of a symmetry-lattice vector in the simple-root cone."""
    has_pos = any(c > 0 for c in v.coeffs)
    has_neg = any(c < 0 for c in v.coeffs)
    if has_pos and has_neg:
        return Sign.MIXED
    if has_pos:
        return Sign.POSITIVE
    if has_neg:
        return Sign.NEGATIVE
    return Sign.ZERO


def _alpha_coords(coeffs: Iterable[int]) -> tuple[int, ...] | None:
    """The symmetry-root coordinates of ten integers, or None outside Q.

    Q is a primitive sublattice, so the coordinates are a triangular closed
    form: x3 and x5 are the Hf and Hg coefficients, x4 and x6 minus those of
    E8 and E6, and x0, x1, x2 follow from E4, E3, E2 in turn.  The class is in
    Q exactly when its other entries match sum_i x_i a_i: E1 = x2 - Hf - Hg,
    E5 = -E6 - Hg and E7 = -E8 - Hf.
    """
    hf, hg, e1, e2, e3, e4, e5, e6, e7, e8 = coeffs
    x0 = -e4
    x1 = x0 - e3
    x2 = x1 - e2
    if e1 != x2 - hf - hg or e5 != -e6 - hg or e7 != -e8 - hf:
        return None
    return (x0, x1, x2, hf, -e8, hg, -e6)


def to_alpha_coords(c: DivisorClass) -> RootVector:
    """A class in symmetry-root coordinates; NotInSymmetryLattice outside Q."""
    coords = _alpha_coords(c.coeffs)
    if coords is None:
        raise NotInSymmetryLattice(f"{c} is not in the span of the symmetry roots")
    return RootVector(coords)


def from_alpha_coords(v: RootVector) -> DivisorClass:
    """Inverse of to_alpha_coords: the class sum_i v_i a_i."""
    result = ZERO_CLASS
    for i, c in enumerate(v.coeffs):
        result = result + c * _SYMMETRY_ROOTS[i]
    return result
