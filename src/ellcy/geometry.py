"""Intersection-theoretic skeleton of the threefold.

Houses the constant pairing table :data:`PAIRING` of the basis line
bundles L1, L2, L3 against the curve classes C, F, E, the splitting of
the rational elliptic surface lattice with its pushforward to the
threefold, bordered-Gram discriminants of Noether-Lefschetz indices,
and the Euler-characteristic and Hodge bookkeeping of the Weierstrass
model.

Everything here is exact integer arithmetic on small constant tables.
The value classes are tuples with named fields, equal and hashed as
tuples, built without the class-building cost of
`collections.namedtuple`.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by first-row cofactor expansion.

    The matrices here are the 3 x 3 pairing table and the leading minors
    of an 8 x 8 tridiagonal Gram matrix, and a zero entry of the first row
    is skipped with its minor.
    """
    if not m:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


class CurveClass(tuple):
    """Integer coordinates (c, e, f) of a curve class in the basis {C, E, F}."""

    __slots__ = ()
    c = property(itemgetter(0))
    e = property(itemgetter(1))
    f = property(itemgetter(2))

    def __new__(cls, c: int = 0, e: int = 0, f: int = 0):
        return tuple.__new__(cls, (c, e, f))

    def label(self) -> str:
        parts = []
        for coef, sym in ((self.c, "C"), (self.f, "F"), (self.e, "E")):
            if coef == 0:
                continue
            if coef in (1, -1):  # a unit coefficient writes as its sign
                parts.append(sym if coef == 1 else f"-{sym}")
            else:
                parts.append(f"{coef}{sym}")
        return "+".join(parts).replace("+-", "-") if parts else "0"


class Gamma19Class(tuple):
    """Class a*H + sum b_i*C_i on the rational elliptic surface, as (a, b)."""

    __slots__ = ()
    a = property(itemgetter(0))
    b = property(itemgetter(1))

    def __new__(cls, a: int, b: Sequence[int]):
        b = tuple(b)
        if len(b) != 9:
            raise ValueError("expected 9 exceptional-curve coefficients")
        if list(map(type, (a, *b))).count(int) != 10:  # exact ints, no bools
            raise TypeError("Gamma19Class coordinates must be ints")
        return tuple.__new__(cls, (a, b))


# Pairing <L_i, beta> of the basis line bundles with the curve classes,
# columns ordered (C, F, E); determinant -1.
PAIRING = ((-1, -2, 1),
           (-1, 1, 0),
           (1, 0, 0))

# Stored constants (computed via Mordell-Weil rank in the literature).
H11 = 3
H21 = 243


def pushforward(gamma: Gamma19Class) -> CurveClass:
    """Image in H_2 of the threefold of a class on the elliptic surface.

    H maps to 3(C+E), the section class C_0 to C, and each remaining
    exceptional curve C_i (i >= 1) to C+E; the fibre-class coordinate of
    the image is always zero.
    """
    b0 = gamma.b[0]
    rest = sum(gamma.b[1:])
    c = 3 * gamma.a + b0 + rest
    e = 3 * gamma.a + rest
    return CurveClass(c=c, e=e, f=0)


def nl_discriminant(h: int, d1: int, d2: int) -> int:
    """Discriminant of the Noether-Lefschetz index (h; d1, d2).

    The determinant of the K3 polarizing Gram matrix ((-2, 1), (1, 0))
    of L1, L2 bordered by the row and column (d1, d2, 2h - 2), with the
    general sign (-1)^rank = +1, in closed form: 2(d2^2 + d1 d2 - h + 1).
    It is always even, so an NL number never needs a half-integer index.
    """
    if h < 0:
        raise ValueError("h must be non-negative")
    return 2 * (d2 * d2 + d1 * d2 - h + 1)


class EulerData(tuple):
    """Euler-characteristic bookkeeping of the Weierstrass discriminant."""

    __slots__ = ()
    l_squared = property(itemgetter(0))
    deg_K_delta = property(itemgetter(1))
    cusps = property(itemgetter(2))
    e_delta = property(itemgetter(3))
    e_X = property(itemgetter(4))

    def __new__(cls, l_squared: int, deg_K_delta: int, cusps: int,
                e_delta: int, e_X: int):
        return tuple.__new__(cls, (l_squared, deg_K_delta, cusps, e_delta,
                                   e_X))


def euler_characteristic(l_squared: int) -> EulerData:
    """Euler characteristic of the threefold, parameterized by L.L.

    deg K of the discriminant curve is 11*12*(L.L), the cusp count is
    4*6*(L.L), e(discriminant) = -deg K + 2*cusps, and resolving nodes
    and cusps gives e(X) = e(discriminant) + cusps.
    """
    if l_squared < 1:
        raise ValueError("L.L must be a positive integer")
    deg_k = 11 * 12 * l_squared
    cusps = 4 * 6 * l_squared
    e_delta = -deg_k + 2 * cusps
    return EulerData(l_squared, deg_k, cusps, e_delta, e_delta + cusps)


def hodge_consistency() -> bool:
    """Euler characteristic vs Hodge numbers of the threefold.

    Checks e(X) = 2(h11 - h21) at L.L = 8 and that the Betti numbers
    B2 = h11 and B3 = 2 + 2*h21 of the Hodge diamond are 3 and 488.
    """
    e_x = euler_characteristic(8).e_X
    return e_x == 2 * (H11 - H21) and H11 == 3 and 2 + 2 * H21 == 488
