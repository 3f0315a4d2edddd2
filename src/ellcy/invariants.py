"""Genus-0 Gopakumar-Vafa invariants of the threefold, by two routes each.

Every route returns a plain list whose entry n is the invariant of the
n-th class, from n = 0: n_{C+nE} for the section routes, n_{mF+nE} for
the fibre-direction routes.  Every entry is an int.

Each route reads its rows off one series product of two generators, one
coefficient at a time with :meth:`QSeries.coeff_at`, and the two routes
of a pair share no generator.  The class mF + nE (m >= 1; F + nE is
m = 1) is fibre row k = :func:`fiber_row` (m, n), the
coefficient of q^(k-1) in -2 E10/Delta: the closed route multiplies the
pentagonal eta^-24 by E10 from the sigma_9 sieve, the direct route, the
Noether-Lefschetz sum of the K3 fibration, the Yau-Zaslow coefficients
(Jacobi's cube to the power -8) by E4 * E6.  C + nE is the coefficient
of q^n in q^(1/2) E4/sqrt(Delta): the closed route multiplies E4 by the
pentagonal eta^-12, the direct route E8 vector counts by norm (from
Jacobi theta powers) by the Bryan-Leung series q^(1/2)/sqrt(Delta),
Jacobi's cube to the power -4.  Tests compare the routes entry by entry.
What the routes share is pinned by its own oracles: the eta power
recurrence by eta-power-additivity, the product kernel by ring-laws,
both E10 streams by e10-sigma9, and the fibre-row index (:func:`fiber_row`,
:func:`first_row`) by slice-partition, since a wrong index moves both
routes alike.

The resolution of the singular Weierstrass model doubles every invariant
of the polarized family; the factor 1/2 undoing it is applied in exactly
one place per route.
"""

from __future__ import annotations

from math import gcd

from . import forms, geometry
from .geometry import CurveClass
from .series import QSeries

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
    return [f.coeff_at(n) for n in range(nterms)]


def f_section_convolution(nterms: int) -> list[int]:
    """n_{C+nE} for 0 <= n < nterms, by E8 vector counts against Bryan-Leung.

    Entry n is n_{C+nE}, as in :func:`f_section_closed`.  A section
    class C + nE pulls back to classes C'' + nE'' + lambda on the
    rational elliptic surface; shifting by half the (negative) norm of
    lambda reduces each to a pure section class, counted by the
    Bryan-Leung series q^(1/2) eta^-12 at q^(n-m).  So the counts are the
    E8 theta series (vectors by norm, :func:`forms.theta_e8`) times that
    series, here a power of Jacobi's cube and not the closed route's
    :func:`forms.inverse_sqrt_delta`.  Only effective classes
    contribute: lambda of positive-definite norm 2m enters at level n iff
    m <= n, which is exactly the effectivity bound on the surface.
    """
    f = forms.theta_e8(nterms) * forms.eta_power_jacobi(-12, nterms)
    return [f.coeff_at(n) for n in range(nterms)]


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


def _fiber_table(m: int, nmax: int, operands) -> list[int]:
    """n_{mF+nE} for 0 <= n <= nmax, read off one product.

    operands(u) gives 1/Delta from q^-1 and E10, u terms each; row k =
    :func:`fiber_row` (m, n) is -2 [q^(k-1)] of their product, 0 below q^-1.
    """
    if m < 1:
        raise ValueError("fibre multiplicity must be at least 1")
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    rows = [fiber_row(m, n) for n in range(nmax + 1)]
    inverse_delta, e10 = operands(max(0, rows[-1]) + 1)
    product = inverse_delta * e10  # exponents q^-1 .. q^(rows[-1] - 1)
    return [-2 * product.coeff_at(k - 1) for k in rows]


def f_multifiber_direct(m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for m >= 1 and 0 <= n <= nmax, by the NL sum.

    Row k = :func:`fiber_row` (m, n) is (1/2) sum_h r_h NL_h with
    NL_h = -4 [q^(k-h)] E10 (:func:`nl_number`), that is -2 times the
    coefficient of q^(k-1) in (sum_h r_h q^(h-1)) E10: the Yau-Zaslow
    numbers as a series from q^-1, a power of Jacobi's cube, times
    E10 = E4 * E6.  A non-int r_h is refused by the series.
    """
    return _fiber_table(m, nmax, lambda u: (
        QSeries(forms.yau_zaslow(u - 1), -1, u - 1),
        forms.eisenstein(4, u) * forms.eisenstein(6, u)))


def f_multifiber_slice(m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for m >= 1 and 0 <= n <= nmax, by the closed form.

    Row k = :func:`fiber_row` (m, n) is the coefficient of q^(k-1) in
    -2 E10/Delta, with 1/Delta the pentagonal eta^-24 and E10 from the
    sigma_9 sieve.  The exponents k - 1 = m(n - m) are 0 mod m: the rows
    read the slice at 0 mod m, -2 sum_l (1/Delta)_{m, l-1} (E10)_{m, 1-l}.
    """
    return _fiber_table(m, nmax, lambda u: (forms.inverse_delta(u),
                                            forms.eisenstein(10, u)))


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
