"""Genus-0 Gopakumar-Vafa invariants of the threefold, by two routes each.

:data:`ROUTES` holds two routes, closed and direct, for each family of
classes: C + nE (target "section") and mF + nE (target "fiber").  Each
route is one series product of two generators from q^0, and the two
routes of a family share no generator.  :func:`gv_table` reads a route's
rows off its product, row i :data:`SCALE` times the coefficient of q^i:
n_{C+iE} or n_{F+iE}.  :func:`fiber_classes` reads each n_{mF+nE} off
fibre row :func:`fiber_row` (m, n).  Tests compare the routes row by
row.  What the routes share is pinned by its own oracles: the eta power
recurrence by eta-power-additivity, the product kernel by ring-laws,
both E10 streams by e10-sigma9, and the fibre-row index
(:func:`fiber_row`, :func:`first_row`) by slice-partition, since a wrong
index moves both routes alike.

The resolution of the singular Weierstrass model doubles every invariant
of the polarized family; the factor 1/2 undoing it is applied in exactly
one place per route.
"""

import math

from . import forms, geometry


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


# ROUTES[target][method]: the two generators of the route's one product,
# each a function of its term count u, from q^0, that looks its form up on
# `forms` when it runs, so a generator replaced there (by a test or a
# tracer) is the one the route multiplies.
ROUTES = {
    # n_{C+nE} is the coefficient of q^n in q^(1/2) E4/sqrt(Delta)
    "section": {
        # E4 times the pentagonal eta^-12
        "closed": (lambda u: forms.eisenstein(4, u),
                   lambda u: forms.eta_power(-12, u)),
        # C + nE pulls back to C'' + nE'' + lambda on the rational elliptic
        # surface, counted by Bryan-Leung q^(1/2)/sqrt(Delta) at q^(n-m)
        # for lambda of norm 2m, effective iff m <= n: E8 vectors by norm
        # (Jacobi theta powers) times Jacobi's cube to the power -4
        "direct": (lambda u: forms.theta_e8(u),
                   lambda u: forms.eta_power_jacobi(-12, u)),
    },
    # n_{mF+nE} is -2 [q^k] q E10/Delta at row k = fiber_row(m, n), 1 mod m
    "fiber": {
        # the pentagonal eta^-24 = q/Delta times the sieve E10
        "closed": (lambda u: forms.eta_power(-24, u),
                   lambda u: forms.eisenstein(10, u)),
        # the Noether-Lefschetz sum (1/2) sum_h r_h NL_h, NL_h =
        # -4 [q^(k-h)] E10 (nl_number): Jacobi's cube to the -8, whose
        # coefficient of q^h is the Yau-Zaslow r_h, times E10 = E4 * E6
        "direct": (lambda u: forms.eta_power_jacobi(-24, u),
                   lambda u: forms.eisenstein(4, u) * forms.eisenstein(6, u)),
    },
}
# row i is SCALE[target] [q^i]: the fibre's -2 is nl_number's -4 times 1/2
SCALE = {"section": 1, "fiber": -2}


def gv_table(target: str, method: str, nrows: int) -> list[int]:
    """Rows 0 .. nrows - 1 of one route of :data:`ROUTES`, off its product.

    Row i is SCALE[target] times the coefficient of q^i: n_{C+iE} for
    "section" and n_{F+iE} for "fiber".
    """
    first, second = ROUTES[target][method]
    product = first(nrows) * second(nrows)
    return [SCALE[target] * product.coeff_at(i) for i in range(nrows)]


def fiber_classes(rows: list[int], m: int, ns) -> list[int]:
    """n_{mF+nE} for each n in ns, read off a fibre table's rows.

    Class n reads row k = :func:`fiber_row` (m, n), and a row k < 0 reads
    0.  A row past the end raises IndexError, so a short table fails.
    """
    if m < 1:
        raise ValueError("fibre multiplicity must be at least 1")
    return [rows[k] if (k := fiber_row(m, n)) >= 0 else 0 for n in ns]


def fiber_row(m: int, n: int) -> int:
    """Fibre row k of the class mF + nE, so that n_{mF+nE} = n_{F+kE}.

    The class has degrees (d1, d2) = (n - 2m, m) against L1, L2
    (:data:`geometry.PAIRING`), so :func:`geometry.nl_discriminant`
    is 2(m^2 + (n - 2m)m - h + 1) = 2(k - h): the NL sum sees (m, n) only
    through k.  A row with k < 0 has no h >= 0 and reads 0.
    """
    return m * (n - m) + 1


def first_row(m: int) -> int:
    """Lowest n with :func:`fiber_row` (m, n) >= 0; earlier rows read 0."""
    return m if m > 1 else 0


def gv_to_gw_genus0(rows: list[int], m: int, n: int):
    """Genus-0 Gromov-Witten invariant N_0 of mF + nE by multiple cover.

    N_0 = sum over k dividing gcd(m, n) of n_{(m/k)F+(n/k)E} / k^3, an
    exact Fraction, each class read off the fibre rows by
    :func:`fiber_classes`, so m < 1 raises ValueError and a class past the
    last row IndexError.  A primitive class, such as every C + nE, has
    N_0 equal to its row.
    """
    from fractions import Fraction
    g = math.gcd(m, n)
    # k = 1 always runs, so the reader refuses m < 1 even for m = n = 0
    return sum(Fraction(fiber_classes(rows, m // k, [n // k])[0], k ** 3)
               for k in range(1, max(g, 1) + 1) if g % k == 0)
