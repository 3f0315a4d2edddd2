"""Generators for the specific modular objects the computation needs.

Everything here returns a :class:`~ellcy.series.QSeries` truncated to a
requested number of terms counted from the leading exponent.  Every eta
power, Delta = eta^24 and the denominators 1/Delta = eta^-24 and
1/sqrt(Delta) = eta^-12 included, comes from one integer recurrence in
:func:`eta_power`; no generator takes a series square root or inverse.
Two of the generators are deliberately redundant: the E8 theta series is
computed by exhaustive lattice-vector counting and never via the weight-4
Eisenstein series, so that the classical identity Theta_E8 = E_4 is
available as a cross-check of two unrelated algorithms.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .series import QSeries


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^k over the divisors d of n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
    return total


def eta_power(e: int, nterms: int) -> QSeries:
    """q^(e/24) * prod_{n>=1} (1 - q^n)^e, keeping nterms terms.

    Any nonzero even e, negative ones included.  The product's
    coefficients p_n come from Euler's recurrence for powers of a power
    series (Knuth, TAOCP vol. 2, 4.7): the log-derivative of
    prod (1 - q^n)^e is -e sum sigma_1(k) q^k, so
    n p_n = -e sum_{k=1}^{n} sigma_1(k) p_{n-k} with p_0 = 1, all in
    integers.  The exponent denominator is 24/gcd(e, 24): 1 for
    eta^(+-24) and 2 for eta^(+-12).
    """
    if e == 0 or e % 2:
        raise ValueError("the exponent must be a nonzero even integer")
    if nterms < 1:
        raise ValueError("nterms must be positive")
    sig = [0] + [sigma(1, k) for k in range(1, nterms)]
    cs = [1] + [0] * (nterms - 1)
    for n in range(1, nterms):
        # sig[n], ..., sig[1] against p_0, ..., p_{n-1}
        s = sum(map(operator.mul, sig[n:0:-1], cs))
        cs[n], rem = divmod(-e * s, n)
        if rem:
            raise ArithmeticError(
                f"eta^{e}: coefficient {n} is not an integer")
    exp_den = 24 // math.gcd(e, 24)
    shift = e * exp_den // 24  # e/24 in units of 1/exp_den
    if exp_den == 1:
        return QSeries(cs, shift, shift + nterms, 1)
    scaled = [0] * (nterms * exp_den)
    scaled[::exp_den] = cs
    return QSeries(scaled, shift, shift + nterms * exp_den, exp_den)


def delta(nterms: int) -> QSeries:
    """The discriminant cusp form Delta = eta^24 = q - 24q^2 + ..."""
    return eta_power(24, nterms)


def inverse_delta(nterms: int) -> QSeries:
    """1/Delta = eta^-24 = q^-1 + 24 + 324q + 3200q^2 + ..., nterms terms."""
    return eta_power(-24, nterms)


def inverse_sqrt_delta(nterms: int) -> QSeries:
    """1/sqrt(Delta) = eta^-12 = q^(-1/2)(1 + 12q + ...), nterms terms."""
    return eta_power(-12, nterms)


def eisenstein(k: int, nterms: int) -> QSeries:
    """Eisenstein series of weight k in {4, 6, 10}.

    E4 and E6 come straight from divisor sums; E10 is returned as the
    product E4 * E6, exactly as it enters the Noether-Lefschetz formula.
    """
    if nterms < 1:
        raise ValueError("nterms must be positive")
    if k == 4:
        cs = [Fraction(1)] + [Fraction(240 * sigma(3, n))
                              for n in range(1, nterms)]
        return QSeries(cs, 0, nterms)
    if k == 6:
        cs = [Fraction(1)] + [Fraction(-504 * sigma(5, n))
                              for n in range(1, nterms)]
        return QSeries(cs, 0, nterms)
    if k == 10:
        return eisenstein(4, nterms) * eisenstein(6, nterms)
    raise ValueError(f"unsupported Eisenstein weight {k}; expected 4, 6 or 10")


def _profile_product(a: dict[tuple[int, int], int],
                     b: dict[tuple[int, int], int],
                     bound: int) -> dict[tuple[int, int], int]:
    """Convolve two (norm, sum mod 4) count tables, keeping norm <= bound."""
    counts: dict[tuple[int, int], int] = {}
    for (na, sa), ca in a.items():
        for (nb, sb), cb in b.items():
            n = na + nb
            if n <= bound:
                key = (n, (sa + sb) % 4)
                counts[key] = counts.get(key, 0) + ca * cb
    return counts


@lru_cache(maxsize=None)
def _half_norm_profiles(parity: int, bound: int) -> dict[tuple[int, int], int]:
    """Count 4-tuples of integers of the given parity by (norm, sum mod 4).

    Works in doubled coordinates y = 2x, so `norm` here is sum(y_i^2)
    and `bound` is its inclusive cap.  Exhaustive enumeration: every
    2-tuple is counted by (norm, sum mod 4), and a 4-tuple is a pair of
    2-tuples, so the 4-tuple table is that pair table convolved with
    itself.
    """
    lim = math.isqrt(bound)
    vals = [y for y in range(-lim, lim + 1) if y % 2 == parity]
    singles = Counter((y * y, y % 4) for y in vals)
    pairs = _profile_product(singles, singles, bound)
    return _profile_product(pairs, pairs, bound)


@lru_cache(maxsize=None)
def e8_norm_counts(max_half_norm: int) -> tuple[int, ...]:
    """Number of E8 lattice vectors of each even norm, by enumeration.

    Entry m is the count of vectors with positive-definite norm 2m, for
    0 <= m <= max_half_norm.  Vectors are modelled in the standard
    coordinates (all-integer or all-half-integer 8-tuples with even
    coordinate sum) and counted by exhaustively enumerating each half of
    the coordinates and convolving the two halves; no modular-forms input
    is used anywhere.
    """
    if max_half_norm < 0:
        raise ValueError("max_half_norm must be non-negative")
    bound = 8 * max_half_norm  # cap on sum(y_i^2) with y = 2x
    counts = [0] * (max_half_norm + 1)
    for parity in (0, 1):
        # a pair of halves is a vector iff its norm is 0 mod 8 and its
        # coordinate sum of x is even, i.e. the y-sum is 0 mod 4; group
        # the halves by (norm mod 8, sum mod 4), each group by norm
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (n, s), c in sorted(_half_norm_profiles(parity, bound).items()):
            groups.setdefault((n % 8, s), []).append((n, c))
        for (r, s), group in groups.items():
            partners = groups.get((-r % 8, -s % 4), [])
            for na, ca in group:
                for nb, cb in partners:
                    if na + nb > bound:
                        break
                    counts[(na + nb) // 8] += ca * cb
    return tuple(counts)


def theta_e8(nterms: int) -> QSeries:
    """Theta series of the E8 lattice, by exhaustive vector counting.

    Coefficient of q^m is the number of lattice vectors of norm 2m.
    Independent of :func:`eisenstein` by construction.
    """
    if nterms < 1:
        raise ValueError("nterms must be positive")
    counts = e8_norm_counts(nterms - 1)
    return QSeries([Fraction(c) for c in counts], 0, nterms)


def yau_zaslow(hmax: int) -> tuple[Fraction, ...]:
    """Reduced genus-0 K3 invariants r_0, ..., r_hmax, read off 1/Delta.

    r_h is the coefficient of q^(h-1) in 1/Delta; the table starts
    1, 24, 324, 3200, ...
    """
    if hmax < 0:
        raise ValueError("hmax must be non-negative")
    inv = inverse_delta(hmax + 1)
    return tuple(inv.coeff_at(h - 1) for h in range(hmax + 1))
