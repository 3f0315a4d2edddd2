"""Genus-0 Gopakumar-Vafa invariants of the threefold, by two routes each.

Every route returns a plain list whose entry n is the invariant of the
n-th class, from n = 0: n_{C+nE} for the section routes, n_{mF+nE} for
the fibre-direction routes.  Every entry is an int.

Fibre-direction classes mF + nE (m >= 1; the fibre classes F + nE are
m = 1) are counted through the Noether-Lefschetz numbers of the K3
fibration together with the Yau-Zaslow coefficients, and independently
through the slice at 0 mod m of -2 E10/Delta, which at m = 1 is the
whole closed form.  Section classes C + nE are counted through the closed
form E4/sqrt(Delta) and independently by convolving E8 vector counts
(by norm, from Jacobi theta powers) with the Bryan-Leung section series
1/sqrt(Delta).  The q^(-1/2) of 1/sqrt(Delta) is dropped in one place,
:func:`_bryan_leung`.  Tests compare the routes entry by entry.  Each
pair shares generators: both section routes read eta^-12, and both
mF + nE routes read eta^-24 and E10 = E4 * E6; separate oracle checks
pin those.  The NL sum and the section convolution run on plain
integers: one dot product of two int lists per class.

The resolution of the singular Weierstrass model doubles every invariant
of the polarized family; the factor 1/2 undoing it is applied in exactly
one place per route.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from . import forms, geometry
from .geometry import CurveClass
from .series import QSeries


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


def _bryan_leung(nterms: int) -> QSeries:
    """q^(1/2)/sqrt(Delta) = 1 + 12q + ...: C'' + jE'' counted at q^j."""
    inv = forms.inverse_sqrt_delta(nterms)
    return QSeries.from_ints(inv.window(-1, 2 * nterms - 1, 2)[::2], 0,
                             nterms)


def f_section_closed(nterms: int) -> list[int]:
    """n_{C+nE} for 0 <= n < nterms, by the closed form q^(1/2) E4/sqrt(Delta).

    Entry n is the coefficient of q^n.
    """
    f = forms.eisenstein(4, nterms) * _bryan_leung(nterms)
    return [f.coeff_at(n) for n in range(nterms)]


def f_section_convolution(nterms: int) -> list[int]:
    """n_{C+nE} for 0 <= n < nterms, by E8 vector counts against Bryan-Leung.

    Entry n is n_{C+nE}, as in :func:`f_section_closed`.  A section
    class C + nE pulls back to classes C'' + nE'' + lambda on the
    rational elliptic surface; shifting by half the (negative) norm of
    lambda reduces each to a pure section class, counted by
    :func:`_bryan_leung`.  Only effective classes contribute: lambda of
    positive-definite norm 2m enters at level n iff m <= n, which is
    exactly the effectivity bound on the surface.
    """
    bl = _bryan_leung(nterms)  # raises ValueError unless nterms >= 1
    bv = [bl.coeff_at(n) for n in range(nterms)]
    counts = forms.e8_norm_counts(nterms - 1)
    # norm 2m shifts level n down to C'' + (n - m)E''
    return [sum(map(mul, counts[:n + 1], bv[n::-1])) for n in range(nterms)]


def first_row(m: int) -> int:
    """Lowest n for which the class mF + nE has a nonempty NL sum.

    The NL sum of mF + nE runs h from 0 to 1 + m(n - m) (see
    :func:`f_multifiber_direct`), so it is empty below n = m for m >= 2
    and never for m = 1.  Every invariant before this row is 0.
    """
    return m if m > 1 else 0


def f_multifiber_direct(m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for m >= 1 and 0 <= n <= nmax, by the NL sum.

    Entry n is (1/2) sum_h r_h NL_{h; d1, d2}, where (d1, d2) = (n - 2m, m)
    are the degrees of the class; the discriminant 2 - 2h + 2nm - 2m^2
    bounds h by 1 + m(n - m).  The fibre classes F + nE are m = 1.
    With r and E10 read into int lists once, each class from
    :func:`first_row` on is one dot product times -2, the NL factor -4
    halved (E10 is integral, so the halving is exact); the classes before
    it read 0 without a discriminant.
    """
    if m < 1:
        raise ValueError("fibre multiplicity must be at least 1")
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    hcap = max(0, 1 + m * (nmax - m))
    r = forms.yau_zaslow(hcap)
    e10 = forms.eisenstein(10, hcap + 1)
    ev = e10.window(0, hcap + 1)
    first = min(first_row(m), nmax + 1)
    values = [0] * first
    for n in range(first, nmax + 1):
        d1, d2 = geometry.class_to_degrees(CurveClass(e=n, f=m))
        # disc(h) = disc(0) - 2h, so h runs up to half0 = disc(0)/2 and
        # NL_h = -4 [q^(half0 - h)] E10 (see nl_number)
        half0 = geometry.nl_discriminant(0, d1, d2) // 2
        values.append(-2 * sum(map(mul, r[:half0 + 1], ev[half0::-1])))
    return values


def f_multifiber_slice(m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for m >= 1 and 0 <= n <= nmax, by a congruence slice.

    Entry n is the coefficient of q^(m(n-m)) in the slice at 0 mod m of
    the one product -2 E10/Delta.  That slice is -2 times the sum over l
    of the slice products (1/Delta)_{m, l-1} (E10)_{m, 1-l}, which pair
    the residue a = l - 1 of 1/Delta with -a of E10 for every a mod m.
    The exponents m(n-m) are multiples of m, so the slice keeps them, and
    the entries are read straight off the product.
    For the fibre classes F + nE (m = 1) it is the whole product, and
    entry n is its coefficient of q^(n-1).  The product starts at q^-1,
    so when m(nmax - m) is below that every entry is 0, as in
    :func:`f_multifiber_direct`.
    """
    if m < 1:
        raise ValueError("fibre multiplicity must be at least 1")
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    uterms = m * (nmax - m) + 2  # need exponents through m(nmax - m)
    if uterms < 1:
        return [0] * (nmax + 1)
    product = forms.inverse_delta(uterms) * forms.eisenstein(10, uterms)
    return [-2 * product.coeff_at(m * (n - m)) for n in range(nmax + 1)]


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
