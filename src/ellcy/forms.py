"""Generators for the specific modular objects the computation needs.

Everything here returns a :class:`~ellcy.series.QSeries`, a power series
from q^0 truncated to a requested number of terms.  Every eta power, odd
or even, is stored on the integer grid as prod (1 - q^n)^e without its
q^(e/24), and no generator takes a series square root or inverse.  One power
recurrence makes them all, from two sparse base series on purpose:
:func:`eta_power` raises Euler's pentagonal series to the e-th power for
the closed routes and every `series` command, :func:`eta_power_jacobi`
Jacobi's cube prod (1 - q^n)^3 to the power e/3 for the direct routes
only.  So a fault in either base shows as a mismatch between the two
routes of a pair; a fault in the shared recurrence moves both alike, and
the eta-power-additivity oracles catch it: Jacobi's series to the 8th
by the product kernel, and Delta = (E4^3 - E6^2)/1728.
Two more generators are deliberately redundant: the E8 theta series
counts lattice vectors by norm through powers of Jacobi theta series
built from the coordinates, and never via the weight-4 Eisenstein series,
so that the classical identity Theta_E8 = E_4 is available as a
cross-check of two unrelated algorithms.  E10 comes from the sieve and
never as E4 * E6, which the direct fibre route writes out itself; a
single E10 coefficient comes from sigma_9 by trial division, the oracle
of both E10 streams.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat

from .series import QSeries


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d^k over the divisors d of n.

    By trial division: each prime p found is divided out of n as often
    as it divides, contributing 1 + p^k + ... + p^(ak) to the product,
    and the search stops at the square root of what is left, which is 1
    or a prime.  That takes at most sqrt(n) trial divisors, all of them
    for a prime n, and about 2600 for 2*10^12 + 1 = 3*43*2347*6605827.
    Only this loop is used, never the divisor-sum sieve.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    total = 1
    p = 2
    while True:
        for p in range(p, math.isqrt(n) + 1):
            if n % p == 0:
                break
        else:
            break
        pk = p ** k
        term = part = 1
        while n % p == 0:
            n //= p
            term *= pk
            part += term
        total *= part
        p += 1
    if n > 1:
        total *= 1 + n ** k
    return total


def divisor_sums(k: int, n: int) -> list[int]:
    """[0, sigma_k(1), ..., sigma_k(n - 1)] by a sieve over the divisors.

    Each d adds d^k to every multiple of d below n: O(n log n) integer
    additions, where :func:`sigma` term by term costs O(n^1.5).  Only
    the Eisenstein series use the sieve; trial-division :func:`sigma`
    gives the single coefficients of :func:`e10_coefficient`.
    """
    sums = [0] * n
    for d in range(1, n):
        sums[d::d] = map(operator.add, sums[d::d], repeat(d ** k))
    return sums


def e10_coefficient(k: int) -> int:
    """Coefficient of q^k in E10, from sigma_9 alone in O(sqrt k).

    E10 = 1 - 264 sum_{k>=1} sigma_9(k) q^k is a modular form, so it has
    no negative powers of q: 0 for k < 0 and 1 at k = 0.  Trial division
    touches neither the series product nor the divisor-sum sieve behind
    :func:`eisenstein`, so it checks both E10 streams, the sieve's and
    E4 * E6.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    return -264 * sigma(9, k)


def _sparse_power(terms: list[tuple[int, int]], e: int,
                  nterms: int) -> QSeries:
    """f^e for f = 1 + sum a_k q^k, given its nonzero terms (k, a_k), k >= 1.

    The recurrence for powers of a power series (Knuth, TAOCP vol. 2,
    4.7), n p_n = sum_{k=1}^{n} ((e + 1)k - n) a_k p_{n-k} with p_0 = 1,
    reads only the listed k: O(n^1.5) integer steps for a base with
    O(sqrt n) terms.  A p_n that is not an exact quotient raises
    ArithmeticError rather than being floored.
    """
    if e == 0:
        raise ValueError("the exponent must be a nonzero integer")
    if nterms < 1:
        raise ValueError("nterms must be positive")
    weighted = [(k, (e + 1) * k * a, a) for k, a in terms]  # in order of k
    cs = [1] + [0] * (nterms - 1)
    for n in range(1, nterms):
        s = 0
        for k, w, a in weighted:
            if k > n:
                break
            s += (w - n * a) * cs[n - k]
        cs[n], rem = divmod(s, n)
        if rem:
            raise ArithmeticError(f"power {e}: coefficient {n} is not an "
                                  "integer")
    return QSeries(cs, nterms)


def eta_power(e: int, nterms: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^e = q^(-e/24) eta^e from q^0, nterms terms.

    Any nonzero integer e, odd and negative ones included.  Euler's
    pentagonal theorem makes prod (1 - q^n) = sum_k a_k q^k sparse:
    a_k = (-1)^j at the generalised pentagonal numbers k = j(3j -+ 1)/2
    and 0 elsewhere, and :func:`_sparse_power` raises it to the e-th
    power.  The q^(e/24) is left to the caller, so every power sits on
    the integer grid: Delta, 1/Delta and the Bryan-Leung
    q^(1/2)/sqrt(Delta) are the powers 24, -24 and -12 times q, q^-1 and
    q^0, and the CLI's series table states each printed shift.
    The direct routes read :func:`eta_power_jacobi` instead.
    """
    pentagonal = []
    j = 1
    while j * (3 * j - 1) // 2 < nterms:
        a = -1 if j % 2 else 1
        pentagonal += [(j * (3 * j - 1) // 2, a), (j * (3 * j + 1) // 2, a)]
        j += 1
    return _sparse_power(pentagonal, e, nterms)


def eta_power_jacobi(e: int, nterms: int) -> QSeries:
    """The same series as :func:`eta_power`, as a power of Jacobi's cube.

    Jacobi's prod (1 - q^n)^3 = sum_k (-1)^k (2k + 1) q^(k(k+1)/2) is
    sparse too, so :func:`_sparse_power` raises it to the power e/3, for
    e a multiple of 3.  Only the direct routes read it: the eta^-24 of the
    NL sum, whose coefficient of q^h is the Yau-Zaslow number r_h, and the
    Bryan-Leung eta^-12 of the section convolution.
    """
    if e % 3:
        raise ValueError("the exponent must be a multiple of 3")
    triangular = []
    k = 1
    while k * (k + 1) // 2 < nterms:
        triangular.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return _sparse_power(triangular, e // 3, nterms)


def eisenstein(k: int, nterms: int) -> QSeries:
    """Eisenstein series E_k = 1 + c_k sum_{n>=1} sigma_(k-1)(n) q^n.

    For the weights k = 4, 6 and 10, with c_k = 240, -504 and -264, all
    from the divisor-sum sieve.
    """
    if nterms < 1:
        raise ValueError("nterms must be positive")
    c = {4: 240, 6: -504, 10: -264}.get(k)
    if c is None:
        raise ValueError(f"unsupported Eisenstein weight {k}; expected 4, 6 "
                         "or 10")
    cs = [c * s for s in divisor_sums(k - 1, nterms)]
    cs[0] = 1
    return QSeries(cs, nterms)


def _eighth_power(cs: list[int]) -> list[int]:
    """cs^8 by three series squarings, truncated to len(cs) terms."""
    f = QSeries(cs, len(cs))
    for _ in range(3):
        f = f * f
    return list(f.coeffs)


def theta_e8(nterms: int) -> QSeries:
    """Theta series of the E8 lattice, by counting vectors by norm.

    Coefficient of q^m is the number of lattice vectors of norm 2m, by
    theta powers.  E8 is the set of 8-tuples x, all integer or all
    half-integer, with even coordinate sum, so its theta series is
    (theta_3^8 + theta_4^8 + theta_2^8)/2 (Jacobi): theta_3 counts one
    integer coordinate by x^2, theta_4 the same with sign (-1)^x, and
    theta_2 one half-integer coordinate.  At an even norm, an integer
    8-tuple has even sum, so the theta_3 and theta_4 terms agree and
    their half is theta_3^8 alone.  A half-integer coordinate
    +-(j + 1/2) has x^2 = 2 T_j + 1/4, T_j = j(j+1)/2, so eight of them
    have norm 2(T + 1) for T the sum of the T_j, counted by psi^8 with
    psi = sum_j 2 p^(T_j); flipping one sign moves the sum by an odd
    number, so half of them have even sum.  No modular-forms input is
    used anywhere, so it is independent of :func:`eisenstein` by
    construction.
    """
    if nterms < 1:
        raise ValueError("nterms must be positive")
    top = 2 * nterms - 2  # largest norm sum(x_i^2) counted
    theta3 = [0] * (top + 1)
    for x in range(math.isqrt(top) + 1):
        theta3[x * x] = 2 if x else 1
    psi = [0] * (nterms - 1)
    j = 0
    while j * (j + 1) // 2 < nterms - 1:
        psi[j * (j + 1) // 2] = 2
        j += 1
    counts = _eighth_power(theta3)[::2]
    for m, c in enumerate(_eighth_power(psi), 1):
        counts[m] += c // 2
    return QSeries(counts, nterms)
