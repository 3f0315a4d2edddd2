"""Genus-0 Gopakumar-Vafa invariants of the threefold, by two routes each.

Every route returns a plain list whose entry n is the invariant of the
n-th class, from n = 0: n_{C+nE} for the section routes, n_{mF+nE} for
the fibre-direction routes.  Every entry is an int.

Fibre-direction classes mF + nE (m >= 1; the fibre classes F + nE are
m = 1) are fibre rows, n_{mF+nE} = n_{F+kE} with k = :func:`fiber_row`
(m, n), read through the Noether-Lefschetz numbers of the K3 fibration
with the Yau-Zaslow coefficients, and independently off the closed form
-2 E10/Delta.  Section classes C + nE are counted through the closed
form q^(1/2) E4/sqrt(Delta) and independently by convolving E8 vector
counts (by norm, from Jacobi theta powers) with the Bryan-Leung section
series q^(1/2)/sqrt(Delta) = q^(1/2) eta^-12, which counts C'' + jE'' at
q^j.  Tests compare the routes entry by entry.  The routes share one eta
power recurrence but not its base series: the closed routes read powers
of the pentagonal series (:func:`forms.eta_power`), the direct routes of
Jacobi's cube (:func:`forms.eta_power_jacobi`).  The recurrence itself
and E10 = E4 * E6, shared by the mF + nE pair, are pinned by oracles:
eta-power-additivity and e10-sigma9.  So is the fibre-row index that
both mF + nE routes read, :func:`fiber_row` and :func:`first_row`: a
wrong index moves both routes alike, and slice-partition pins it
against the NL discriminant.  The NL sum and the section convolution run
on plain integers: one dot product of two int lists per class.

The resolution of the singular Weierstrass model doubles every invariant
of the polarized family; the factor 1/2 undoing it is applied in exactly
one place per route.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from . import forms, geometry
from .geometry import CurveClass

TYPE_CHECKING = False  # typing's flag unimported; checkers read it as true
if TYPE_CHECKING:
    from fractions import Fraction


def nl_number(h: int, d1: int, d2: int) -> int:
    """Noether-Lefschetz number of the resolved K3 fibration.

    -4 times the E10 coefficient at half the bordered discriminant, which
    is always even: disc = 2(d2^2 + d1 d2 - h + 1).  The coefficient
    comes from sigma_9 (:func:`forms.e10_coefficient`), so a negative
    discriminant gives zero, since E10 has no negative powers of q
    (Maulik-Pandharipande, arXiv:0705.1653), and no series is built.
    """
    disc = geometry.nl_discriminant(h, d1, d2)
    return -4 * forms.e10_coefficient(disc // 2)


def f_section_closed(nterms: int) -> list[int]:
    """n_{C+nE} for 0 <= n < nterms, by the closed form q^(1/2) E4/sqrt(Delta).

    Entry n is the coefficient of q^n.
    """
    f = forms.eisenstein(4, nterms) * forms.inverse_sqrt_delta(nterms)
    return f.window(0, nterms)


def f_section_convolution(nterms: int) -> list[int]:
    """n_{C+nE} for 0 <= n < nterms, by E8 vector counts against Bryan-Leung.

    Entry n is n_{C+nE}, as in :func:`f_section_closed`.  A section
    class C + nE pulls back to classes C'' + nE'' + lambda on the
    rational elliptic surface; shifting by half the (negative) norm of
    lambda reduces each to a pure section class, counted by the
    Bryan-Leung series q^(1/2) eta^-12, here a power of Jacobi's cube and
    not the closed route's :func:`forms.inverse_sqrt_delta`.
    Only effective classes contribute: lambda of positive-definite norm
    2m enters at level n iff m <= n, which is exactly the effectivity
    bound on the surface.
    """
    # raises ValueError unless nterms >= 1
    bv = forms.eta_power_jacobi(-12, nterms).coeffs
    counts = forms.e8_norm_counts(nterms - 1)
    # norm 2m shifts level n down to C'' + (n - m)E''
    return [sum(map(mul, counts[:n + 1], bv[n::-1])) for n in range(nterms)]


def fiber_row(m: int, n: int) -> int:
    """Fibre row k of the class mF + nE, so that n_{mF+nE} = n_{F+kE}.

    The class has degrees (d1, d2) = (n - 2m, m) against L1, L2
    (:func:`geometry.pairing_matrix`), so :func:`geometry.nl_discriminant`
    is 2(m^2 + (n - 2m)m - h + 1) = 2(k - h): the NL sum sees (m, n) only
    through k.  A row with k < 0 has no h >= 0 and reads 0.
    """
    return m * (n - m) + 1


def first_row(m: int) -> int:
    """Lowest n with :func:`fiber_row` (m, n) >= 0; earlier rows read 0."""
    return m if m > 1 else 0


def _fiber_rows(m: int, nmax: int) -> list[int]:
    """The fibre rows of mF + nE for 0 <= n <= nmax, in increasing order."""
    if m < 1:
        raise ValueError("fibre multiplicity must be at least 1")
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    return [fiber_row(m, n) for n in range(nmax + 1)]


def f_multifiber_direct(m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for m >= 1 and 0 <= n <= nmax, by the NL sum.

    Row k = :func:`fiber_row` (m, n) is (1/2) sum_h r_h NL_h with
    NL_h = -4 [q^(k-h)] E10 (:func:`nl_number`): one dot product of int
    lists times -2, exact since E10 is integral.
    """
    rows = _fiber_rows(m, nmax)
    top = max(0, rows[-1])
    r = forms.yau_zaslow(top)
    ev = forms.eisenstein(10, top + 1).window(0, top + 1)
    return [-2 * sum(map(mul, r[:k + 1], ev[k::-1])) if k >= 0 else 0
            for k in rows]


def f_multifiber_slice(m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for m >= 1 and 0 <= n <= nmax, by the closed form.

    Row k = :func:`fiber_row` (m, n) is the coefficient of q^(k-1) in
    -2 E10/Delta, which starts at q^-1, so a row with k < 0 reads 0.  The
    exponents k - 1 = m(n - m) are 0 mod m: the rows read the slice at
    0 mod m, -2 sum_l (1/Delta)_{m, l-1} (E10)_{m, 1-l}.
    """
    rows = _fiber_rows(m, nmax)
    uterms = max(0, rows[-1]) + 1  # exponents through q^-1 and rows[-1] - 1
    product = forms.inverse_delta(uterms) * forms.eisenstein(10, uterms)
    return [-2 * product.coeff_at(k - 1) for k in rows]


def gv_to_gw_genus0(table: dict[CurveClass, int],
                    beta: CurveClass) -> Fraction:
    """Genus-0 Gromov-Witten invariant from BPS counts by multiple cover.

    N_{0,beta} = sum over k dividing beta of n_{0,beta/k} / k^3; a class
    beta/k missing from the table raises KeyError naming it.
    """
    if beta.is_zero():
        raise ValueError("the zero class has no multiple-cover expansion")
    from fractions import Fraction
    g = gcd(gcd(abs(beta.c), abs(beta.e)), abs(beta.f))
    total = Fraction(0)
    for k in range(1, g + 1):
        if g % k:
            continue
        eta = CurveClass(beta.c // k, beta.e // k, beta.f // k)
        if eta not in table:
            raise KeyError(f"no invariant recorded for class {eta.label()}")
        total += Fraction(table[eta], k ** 3)
    return total
