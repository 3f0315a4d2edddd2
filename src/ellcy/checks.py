"""Self-contained consistency suite behind the `check` CLI command.

Each check recomputes a headline identity by two independent routes (or
verifies a structural invariant) and compares exactly.  A run builds each
route once, and the checks that compare routes read its rows.  The suite
is a list of named callables so tests can fault-inject a generator and
assert that at least one dual-route comparison catches the corruption.
The oracles of the series product and the suite's sums accumulate in ints
term by term and never call the series kernel, but for one: the series
product of the closed fibre operands, zero-padded to keep every term,
checked at a point modulo a prime, O(n) where the product is not.  Every
sample and oracle is an integer, so the suite never imports `fractions`.
"""

from __future__ import annotations

from operator import itemgetter

from . import forms, geometry, invariants
from .geometry import CurveClass, Gamma19Class
from .series import _SCHOOLBOOK_TERMS, PrecisionError, QSeries


class CheckResult(tuple):
    """Outcome of one named check, with a detail line when it failed.

    A tuple (name, passed, detail) with named fields.
    """

    __slots__ = ()
    name = property(itemgetter(0))
    passed = property(itemgetter(1))
    detail = property(itemgetter(2))

    def __new__(cls, name: str, passed: bool, detail: str = ""):
        return tuple.__new__(cls, (name, passed, detail))


def _sample_series() -> list[QSeries]:
    """Fixed sample series exercising leading zeros and cancellation."""
    return [
        QSeries([1, 24, 324, 3200], 4),
        QSeries([2, 0, -5, 7], 4),
        QSeries([0, 0, -7, 3], 4),
        forms.eisenstein(4, 6),
        QSeries([0, *forms.eta_power(24, 5).coeffs], 6),  # Delta
        forms.eta_power(12, 5),
    ]


def _schoolbook(f: QSeries, g: QSeries) -> QSeries:
    """f * g by the double loop, sharing no code with the kernel."""
    n = min(f.prec, g.prec)
    cs = [0] * n
    for i, a in enumerate(f.coeffs[:n]):
        for j, b in enumerate(g.coeffs[:n - i]):
            cs[i + j] += a * b
    return QSeries(cs, n)


def _term_sum(f: QSeries, g: QSeries) -> QSeries:
    """f + g term by term; series are only multiplied, never added."""
    return QSeries([a + b for a, b in zip(f.coeffs, g.coeffs)],
                   min(f.prec, g.prec))


def _agree(f: QSeries, g: QSeries) -> bool:
    """f and g are equal up to the lower of their precision bounds."""
    p = min(f.prec, g.prec)
    return f.coeffs[:p] == g.coeffs[:p]


# a product h = f * g of integer polynomials has h(x) = f(x) g(x) mod the
# Mersenne prime _P at any x, here a fixed 128-bit one; a coefficient i of
# h off by d moves h(x) by d x^i, 0 mod _P only if _P divides d (Freivalds;
# Schwartz; Zippel)
_P = 2 ** 127 - 1
_X = 0x9E3779B97F4A7C15F39CC0605CEDC835 % _P


def _at_point(cs) -> int:
    """The polynomial sum cs[i] x^i at x = _X mod _P, by Horner's rule."""
    v = 0
    for c in reversed(cs):
        v = (v * _X + c) % _P
    return v


def check_ring_laws(nterms: int) -> CheckResult:
    """Products against a double loop, the ring laws, and one at a point.

    Each sample product, and Jacobi's series squared past the kernel's
    row-loop cutover, is compared with a double loop that never calls
    the kernel; the laws take their sums term by term.  Then the closed
    fibre generators of invariants.ROUTES, eta^-24 and E10 at nterms
    terms, are padded with zeros to the length of their product and
    multiplied as series, and the untruncated product is checked at a
    point against the operands' values, in O(n) steps.
    """
    fs = _sample_series()
    sums = [[_term_sum(f, g) for g in fs] for f in fs]
    jac = _jacobi_cube(_SCHOOLBOOK_TERMS + 1)
    if jac * jac != _schoolbook(jac, jac):
        return CheckResult("ring-laws", False,
                           "product differs from the schoolbook product")
    prods = [[f * g for g in fs] for f in fs]
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            fg = prods[i][j]
            if fg != _schoolbook(f, g):
                return CheckResult("ring-laws", False,
                                   "product differs from the schoolbook "
                                   "product")
            if fg != prods[j][i]:
                return CheckResult("ring-laws", False,
                                   "multiplication is not commutative")
            for k, h in enumerate(fs):
                if not _agree(fg * h, f * prods[j][k]):
                    return CheckResult("ring-laws", False,
                                       "multiplication is not associative")
                if not _agree(f * sums[j][k], _term_sum(fg, prods[i][k])):
                    return CheckResult("ring-laws", False,
                                       "distributivity fails")
    f, g = (gen(nterms).coeffs for gen in invariants.ROUTES["fiber"]["closed"])
    size = len(f) + len(g) - 1
    h = QSeries(f, size) * QSeries(g, size)
    if _at_point(h.coeffs) != _at_point(f) * _at_point(g) % _P:
        return CheckResult("ring-laws", False,
                           f"the {len(f)} x {len(g)}-term product differs "
                           "from the product of values mod 2^127 - 1")
    return CheckResult("ring-laws", True)


def check_slice_partition(nmax: int) -> CheckResult:
    """The fibre-row index, which both fibre routes read and so agree on.

    Row k = fiber_row(m, n) of mF + nE, 0 <= n <= nmax, read by both
    routes at q^k, must be 1 mod m and half the class's h = 0 NL
    discriminant, and first_row(m) must be the least n with k >= 0.
    """
    (_, l1f, l1e), (_, l2f, l2e), _ = geometry.PAIRING
    for m in (1, 2, 3, 5):
        for n in range(nmax + 1):
            k = invariants.fiber_row(m, n)
            disc = geometry.nl_discriminant(0, l1f * m + l1e * n,
                                            l2f * m + l2e * n)
            if (k - 1) % m or disc != 2 * k:
                return CheckResult("slice-partition", False,
                                   f"fiber_row({m}, {n}) = {k}, and the NL "
                                   f"discriminant of {m}F+{n}E at h = 0 is "
                                   f"{disc}")
        first = invariants.first_row(m)
        if not (invariants.fiber_row(m, first - 1) < 0
                <= invariants.fiber_row(m, first)):
            return CheckResult("slice-partition", False,
                               f"first_row({m}) = {first} is not the least "
                               f"n with fiber_row({m}, n) >= 0")
    return CheckResult("slice-partition", True)


def check_precision_honesty() -> CheckResult:
    f = forms.eisenstein(4, 5)
    for e in (5, 7):  # at and past the bound
        try:
            f.coeff_at(e)
        except PrecisionError:
            continue
        return CheckResult("precision-honesty", False,
                           "coefficient past the bound did not error")
    return CheckResult("precision-honesty", True)


def check_pairing_determinant() -> CheckResult:
    det = geometry._det(geometry.PAIRING)
    if det != -1:
        return CheckResult("pairing-determinant", False, f"determinant {det}")
    return CheckResult("pairing-determinant", True)


def check_pushforward_kernel() -> CheckResult:
    """Pushforward kills exactly the orthogonal complement of {C'', E''}."""
    # spanning set of the rank-8 orthogonal complement: b0 = 0 and
    # 3a + sum b_i = 0
    complement = [Gamma19Class(1, (0, -3, 0, 0, 0, 0, 0, 0, 0))]
    for i in range(1, 8):
        b = [0] * 9
        b[i], b[i + 1] = 1, -1
        complement.append(Gamma19Class(0, tuple(b)))
    for gamma in complement:
        if not geometry.pushforward(gamma).is_zero():
            return CheckResult("pushforward-kernel", False,
                               "complement class Gamma19Class(a={}, b={}) "
                               "survives".format(*gamma))
    section = geometry.pushforward(Gamma19Class(0, (1, 0, 0, 0, 0, 0, 0, 0, 0)))
    fibre = geometry.pushforward(Gamma19Class(3, (-1,) * 9))
    if section != CurveClass(c=1) or fibre != CurveClass(e=1):
        return CheckResult("pushforward-kernel", False,
                           "C0 or the fibre class maps incorrectly")
    return CheckResult("pushforward-kernel", True)


def check_nl_vanishing() -> CheckResult:
    for h in range(6):
        for d1 in range(-4, 3):
            for d2 in range(-2, 3):
                disc = geometry.nl_discriminant(h, d1, d2)
                if disc >= 0:
                    continue
                nl = invariants.nl_number(h, d1, d2)
                if nl != 0:
                    return CheckResult(
                        "nl-vanishing", False,
                        f"NL({h};{d1},{d2}) = {nl} despite discriminant {disc}")
    return CheckResult("nl-vanishing", True)


def check_theta_is_e4(prec: int) -> CheckResult:
    """Theta_E8 = E4, the section routes' first generators in ROUTES."""
    routes = invariants.ROUTES["section"]
    if routes["direct"][0](prec) != routes["closed"][0](prec):
        return CheckResult("theta-e8-equals-e4", False,
                           f"mismatch within {prec} terms")
    return CheckResult("theta-e8-equals-e4", True)


def check_e10_sigma9(nterms: int) -> CheckResult:
    """Both E10 streams against the weight-10 divisor-sum expansion.

    The second generator of each fibre route in invariants.ROUTES, the
    sieve E10 (closed) and E4 * E6 (direct), must have
    forms.e10_coefficient(n) at q^n, 1 at n = 0 and -264*sigma_9(n)
    after: an oracle that touches neither the series product nor the
    divisor-sum sieve, sigma_9 by trial division.  The NL numbers of `nl`
    come from it, so a fault on either side shows here.
    """
    for _, generator in invariants.ROUTES["fiber"].values():
        e10 = generator(nterms)
        for n in range(nterms):
            expected = forms.e10_coefficient(n)
            if e10.coeff_at(n) != expected:
                return CheckResult("e10-sigma9", False,
                                   f"coefficient {n}: {e10.coeff_at(n)} vs "
                                   f"divisor sum {expected}")
    return CheckResult("e10-sigma9", True)


def _jacobi_cube(nterms: int) -> QSeries:
    """Jacobi's prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)."""
    cs = [0] * nterms
    k = 0
    while k * (k + 1) // 2 < nterms:
        cs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return QSeries(cs, nterms)


def check_eta_additivity(nterms: int) -> CheckResult:
    """Pin every eta power the routes use against an independent oracle.

    The routes read two eta generators, powers of the pentagonal series
    on the closed side and of Jacobi's cube on the direct side, made by
    one shared power recurrence.  Each is checked against series that
    never call that recurrence, on the integer grid: eta^24/q =
    prod (1 - q^n)^24 against the eighth power of Jacobi's series for
    prod (1 - q^n)^3 by the product kernel, 1/Delta against the inverse of
    Delta = (E4^3 - E6^2)/1728 built from divisor sums, stated in the
    integers as (E4^3 - E6^2) q/Delta = 1728 q, and eta^12/q^(1/2) and
    q^(1/2) eta^-12 by squaring into eta^24/q and q/Delta.
    """
    j = _jacobi_cube(nterms)
    j2 = j * j
    j4 = j2 * j2
    j8 = j4 * j4
    e4, e6 = forms.eisenstein(4, nterms), forms.eisenstein(6, nterms)
    minus_e6 = QSeries([-c for c in e6.coeffs], e6.prec)
    disc = _term_sum(e4 * e4 * e4, minus_e6 * e6)
    for eta in (forms.eta_power, forms.eta_power_jacobi):
        eta24 = eta(24, nterms)
        twelve = eta(12, nterms)
        if not _agree(twelve * twelve, eta24):
            return CheckResult("eta-power-additivity", False,
                               "eta^12 squared differs from eta^24")
        if not _agree(j8, eta24):
            return CheckResult("eta-power-additivity", False,
                               "eta^24/q differs from Jacobi's series to "
                               "the 8th")
        inv = eta(-24, nterms)  # q/Delta
        if not _agree(disc * inv, QSeries([0, 1728], nterms)):
            return CheckResult("eta-power-additivity", False,
                               "(E4^3 - E6^2)/1728 times eta^-24 is not 1")
        inv_half = eta(-12, nterms)
        if not _agree(inv_half * inv_half, inv):
            return CheckResult("eta-power-additivity", False,
                               "eta^-12 squared differs from eta^-24")
    return CheckResult("eta-power-additivity", True)


def _first_mismatch(name: str, a_name: str, a: list, b_name: str,
                    b: list) -> CheckResult:
    """Two routes' rows compared entry by entry; a FAIL names the first n."""
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return CheckResult(name, False,
                               f"n={n}: {a_name} {x} vs {b_name} {y}")
    if len(a) != len(b):
        return CheckResult(name, False, f"{len(a)} rows from {a_name} vs "
                                        f"{len(b)} from {b_name}")
    return CheckResult(name, True)


def check_section_routes(closed: list, convolution: list) -> CheckResult:
    return _first_mismatch("section-dual-route", "closed", closed,
                           "convolution", convolution)


def _multifiber_name(m: int) -> str:
    return "fiber-dual-route" if m == 1 else f"multifiber-dual-route-m{m}"


def check_multifiber_routes(m: int, nmax: int, slice_rows: list,
                            nl_rows: list) -> CheckResult:
    """The fibre pair at the classes mF + nE, 0 <= n <= nmax.

    Each route's rows are read by invariants.fiber_classes, so a class
    past a route's last row raises IndexError and a short route fails.
    """
    a, b = (invariants.fiber_classes(rows, m, range(nmax + 1))
            for rows in (slice_rows, nl_rows))
    return _first_mismatch(_multifiber_name(m), "slice", a, "NL sum", b)


def check_integrality(slice_rows: list, nl_rows: list, closed: list,
                      convolution: list) -> CheckResult:
    """Every row of both pairs is an int; a non-int r_h shows in the NL sum."""
    streams = {"fiber slice": slice_rows, "fiber NL sum": nl_rows,
               "section closed": closed, "section convolution": convolution}
    for name, values in streams.items():
        for v in values:
            if type(v) is not int:
                return CheckResult("gv-integrality", False,
                                   f"{name} produced non-integer {v}")
    return CheckResult("gv-integrality", True)


def check_euler_hodge() -> CheckResult:
    data = geometry.euler_characteristic(8)
    ok = (data.deg_K_delta == 1056 and data.cusps == 192
          and data.e_delta == -672 and data.e_X == -480
          and geometry.hodge_consistency())
    return CheckResult("euler-hodge", ok, "" if ok else
                       "got EulerData(l_squared={}, deg_K_delta={}, cusps={}, "
                       "e_delta={}, e_X={})".format(*data))


def _guarded(name: str, check, *args) -> CheckResult:
    """check(*args), or a FAIL whose detail names the exception raised.

    A corrupted generator may raise (the eta recurrence refuses an inexact
    step) instead of returning a wrong series; that must end in a FAIL
    line for this check, not end the suite.  An argument that is an
    exception, a route that raised, fails the check unrun.
    """
    try:
        for arg in args:
            if isinstance(arg, Exception):
                raise arg
        return check(*args)
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _built(route, *args):
    """route(*args), or the exception it raised."""
    try:
        return route(*args)
    except Exception as exc:
        return exc


def run_checks(prec: int) -> list[CheckResult]:
    """Run the whole suite at the given term count (at least 2).

    Each route of invariants.ROUTES is built once per call, the fibre
    pair up to the last row any check reads, and the checks that compare
    routes read those rows.
    Each check_* name is looked up in this module when the suite runs,
    so a check replaced on the module (by a tracer or a test) is the one
    that runs.
    """
    m3_nmax = max(5, (2 * prec) // 3)
    top = max(invariants.fiber_row(2, prec), invariants.fiber_row(3, m3_nmax))
    nrows = {"section": prec, "fiber": top + 1}
    built = {target: [_built(invariants.gv_table, target, method,
                             nrows[target]) for method in methods]
             for target, methods in invariants.ROUTES.items()}
    section, fibre = built["section"], built["fiber"]
    return [_guarded(*entry) for entry in (
        ("ring-laws", check_ring_laws, top),
        # every n that the m = 1, 2, 3 checks read
        ("slice-partition", check_slice_partition, max(prec, m3_nmax)),
        ("precision-honesty", check_precision_honesty),
        ("pairing-determinant", check_pairing_determinant),
        ("pushforward-kernel", check_pushforward_kernel),
        ("nl-vanishing", check_nl_vanishing),
        ("theta-e8-equals-e4", check_theta_is_e4, prec),
        ("e10-sigma9", check_e10_sigma9, max(prec, 21)),
        ("eta-power-additivity", check_eta_additivity, prec),
        (_multifiber_name(1), check_multifiber_routes, 1, prec - 1, *fibre),
        ("section-dual-route", check_section_routes, *section),
        (_multifiber_name(2), check_multifiber_routes, 2, prec, *fibre),
        (_multifiber_name(3), check_multifiber_routes, 3, m3_nmax, *fibre),
        ("gv-integrality", check_integrality, *fibre, *section),
        ("euler-hodge", check_euler_hodge),
    )]
