"""Self-contained consistency suite behind the `check` CLI command.

Each check recomputes a headline identity by two independent routes (or
a structural invariant against its stated value) and compares exactly.
A check is a private function that returns or yields its comparisons,
pairs (a_name, a, b_name, b) of sequences, and names nothing.
run_checks names each check once, in its table, and one function,
check_pairs, makes every verdict: a FAIL names the first index n at
which two sequences differ and both values, or both lengths, or the
exception raised by a check or by a route it reads.  A run builds each
route once, and the checks that compare routes read its rows.  Tests
can fault-inject a generator and assert that at least one dual-route
comparison catches the corruption.  The oracles of the series product
and the suite's sums accumulate in ints term by term and never call the
series kernel, but for one: the series product of the closed fibre
operands, zero-padded to keep every term, checked at a point modulo a
prime, O(n) where the product is not.  Every sample and oracle is an
integer, so the suite never imports `fractions`.
"""

from __future__ import annotations

from operator import itemgetter, mul

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


def check_pairs(name: str, pairs_of, *args) -> CheckResult:
    """The verdict of check name on the pairs of pairs_of(*args).

    PASS, or a FAIL at the first pair (a_name, a, b_name, b) whose
    sequences differ.  Each pair is compared whole, and only one that
    differs is scanned: the detail names the first n with a[n] != b[n]
    and both values, or both lengths if one sequence is a prefix of the
    other.  No pair after a FAIL is built.  It never raises: an argument
    that is an exception, a route that raised, fails the check unrun,
    and so does an exception raised while the pairs are built, as a
    corrupted generator may raise (the eta recurrence refuses an inexact
    step) instead of returning a wrong series; the detail names it.
    """
    try:
        for arg in args:
            if isinstance(arg, Exception):
                raise arg
        for a_name, a, b_name, b in pairs_of(*args):
            if a == b:
                continue
            for n, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    return CheckResult(
                        name, False, f"n={n}: {a_name} {x} vs {b_name} {y}")
            if len(a) != len(b):
                return CheckResult(name, False, f"{len(a)} rows from "
                                   f"{a_name} vs {len(b)} from {b_name}")
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, True)


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


def _ring_laws(nterms: int):
    """Products against a double loop, the ring laws, and one at a point.

    Each product fi*fj of the samples fi = _sample_series()[i], and Jacobi's
    series squared past the row-loop cutover, is compared with a double loop
    that never calls the kernel; the laws take their sums term by term.
    Then the closed fibre generators of invariants.ROUTES, eta^-24 and E10
    at nterms terms, are padded with zeros to their product's length and
    multiplied as series, and that untruncated product is checked at a point
    against the operands' values, in O(n) steps.
    """
    jac = _jacobi_cube(_SCHOOLBOOK_TERMS + 1)
    yield ("Jacobi's series squared", (jac * jac).coeffs,
           "schoolbook", _schoolbook(jac, jac).coeffs)
    fs = _sample_series()
    ids = [f"f{i}" for i in range(len(fs))]  # not per label: 930 of them
    sums = [[_term_sum(f, g) for g in fs] for f in fs]
    prods = [[f * g for g in fs] for f in fs]
    for i, (a, f) in enumerate(zip(ids, fs)):
        for j, (b, g) in enumerate(zip(ids, fs)):
            fg = prods[i][j]
            yield (f"product {a}*{b}", fg.coeffs,
                   "schoolbook", _schoolbook(f, g).coeffs)
            if i < j:
                yield (f"commutativity {a}*{b}", fg.coeffs,
                       f"{b}*{a}", prods[j][i].coeffs)
            for k, (c, h) in enumerate(zip(ids, fs)):
                yield (f"associativity ({a}*{b})*{c}", (fg * h).coeffs,
                       f"{a}*({b}*{c})", (f * prods[j][k]).coeffs)
                yield (f"distributivity {a}*({b} + {c})",
                       (f * sums[j][k]).coeffs, f"{a}*{b} + {a}*{c}",
                       _term_sum(fg, prods[i][k]).coeffs)
    f, g = (gen(nterms).coeffs
            for gen in invariants.ROUTES["fiber"]["closed"])
    size = len(f) + len(g) - 1
    h = QSeries(f, size) * QSeries(g, size)
    yield (f"the {len(f)} x {len(g)}-term product at a point mod "
           f"2^127 - 1", [_at_point(h.coeffs)], "the product of values",
           [_at_point(f) * _at_point(g) % _P])


def _slice_partition(nmax: int):
    """The fibre-row index, which both fibre routes read and so agree on.

    Row k = fiber_row(m, n) of mF + nE, 0 <= n <= nmax, read by both
    routes at q^k, must be half the class's h = 0 NL discriminant and
    1 mod m, and first_row(m) must count the rows k < 0, the n below it.
    """
    (_, l1f, l1e), (_, l2f, l2e), _ = geometry.PAIRING
    ns = range(nmax + 1)
    for m in (1, 2, 3, 5):
        ks = [invariants.fiber_row(m, n) for n in ns]
        yield (f"2 fiber_row({m}, n)", [2 * k for k in ks],
               f"the h = 0 NL discriminant of {m}F+nE",
               [geometry.nl_discriminant(0, l1f * m + l1e * n,
                                         l2f * m + l2e * n) for n in ns])
        yield (f"fiber_row({m}, n) mod {m}", [k % m for k in ks],
               f"1 mod {m}", [1 % m] * len(ks))
        yield (f"first_row({m})", [invariants.first_row(m)],
               f"the rows k < 0 of {m}F+nE", [sum(k < 0 for k in ks)])


def _precision_honesty():
    """A read at or past a series' bound raises, and never reads 0."""
    f = forms.eisenstein(4, 5)
    return [("E4 to q^5 read at q^n", [type(_built(f.coeff_at, e)).__name__
                                       for e in range(8)],
             "its bound", ["int"] * 5 + [PrecisionError.__name__] * 3)]


def _pairing_determinant():
    return [("the determinant of PAIRING", [geometry._det(geometry.PAIRING)],
             "the paper", [-1])]


def _pushforward_kernel():
    """Pushforward kills exactly the orthogonal complement of {C'', E''}.

    The complement is then checked to be -E8, the lattice whose vectors
    the direct section route counts: under diag(1, -1, ..., -1) the Gram
    matrix of its 8 spanning vectors has an even diagonal and leading
    minors of alternating sign ending in 1, so the lattice is even,
    unimodular and negative definite of rank 8, and E8 is the only such
    lattice up to sign (Conway and Sloane, Sphere Packings, Lattices and
    Groups).
    """
    # spanning set of the rank-8 orthogonal complement: b0 = 0 and
    # 3a + sum b_i = 0
    complement = [Gamma19Class(1, (0, -3, 0, 0, 0, 0, 0, 0, 0))]
    for i in range(1, 8):
        b = [0] * 9
        b[i], b[i + 1] = 1, -1
        complement.append(Gamma19Class(0, tuple(b)))
    images = [(gamma, CurveClass(), "the zero class") for gamma in complement]
    # C0, and the fibre class 3H - sum C_i
    images += [(Gamma19Class(0, (1,) + (0,) * 8), CurveClass(c=1),
                "the section class"),
               (Gamma19Class(3, (-1,) * 9), CurveClass(e=1),
                "the fibre class")]
    for gamma, beta, name in images:
        yield ("pushforward of Gamma19Class(a={}, b={})".format(*gamma),
               [geometry.pushforward(gamma).label()], name, [beta.label()])
    gram = [[g.a * h.a - sum(map(mul, g.b, h.b)) for h in complement]
            for g in complement]
    yield ("the leading minors of the complement's Gram matrix",
           [geometry._det([row[:k] for row in gram[:k]]) for k in range(1, 9)],
           "-E8 in this basis", [-8, 7, -6, 5, -4, 3, -2, 1])
    yield ("its diagonal mod 2", [gram[i][i] % 2 for i in range(8)],
           "even", [0] * 8)


def _nl_vanishing():
    """NL(h; d1, d2) is 0 at a negative discriminant: E10 starts at q^0."""
    return ((f"NL({h};{d1},{d2}) (discriminant {disc})",
             [invariants.nl_number(h, d1, d2)], "E10 below q^0", [0])
            for h in range(6) for d1 in range(-4, 3) for d2 in range(-2, 3)
            if (disc := geometry.nl_discriminant(h, d1, d2)) < 0)


def _theta_is_e4(prec: int):
    """Theta_E8 = E4, the section routes' first generators in ROUTES."""
    routes = invariants.ROUTES["section"]
    return [("Theta_E8", routes["direct"][0](prec).coeffs,
             "E4", routes["closed"][0](prec).coeffs)]


def _e10_sigma9(nterms: int):
    """Both E10 streams against the weight-10 divisor-sum expansion.

    The second generator of each fibre route in invariants.ROUTES, the
    sieve E10 (closed) and E4 * E6 (direct), must have
    forms.e10_coefficient(n) at q^n, 1 at n = 0 and -264*sigma_9(n)
    after: an oracle that touches neither the series product nor the
    divisor-sum sieve, sigma_9 by trial division.  The NL numbers of `nl`
    come from it, so a fault on either side shows here.
    """
    expected = tuple(map(forms.e10_coefficient, range(nterms)))
    return ((f"{method} E10", generator(nterms).coeffs, "divisor sum",
             expected)
            for method, (_, generator) in invariants.ROUTES["fiber"].items())


def _jacobi_cube(nterms: int) -> QSeries:
    """Jacobi's prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2)."""
    cs = [0] * nterms
    k = 0
    while k * (k + 1) // 2 < nterms:
        cs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return QSeries(cs, nterms)


def _eta_additivity(nterms: int):
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
    j8 = _jacobi_cube(nterms)
    for _ in range(3):  # Jacobi's series to the 8th by three squarings
        j8 = j8 * j8
    e4, e6 = forms.eisenstein(4, nterms), forms.eisenstein(6, nterms)
    minus_e6 = QSeries([-c for c in e6.coeffs], e6.prec)
    disc = _term_sum(e4 * e4 * e4, minus_e6 * e6)
    for eta in (forms.eta_power, forms.eta_power_jacobi):
        eta24, twelve = eta(24, nterms), eta(12, nterms)
        inv, inv_half = eta(-24, nterms), eta(-12, nterms)
        yield ("eta^12/q^(1/2) squared", (twelve * twelve).coeffs,
               "eta^24/q", eta24.coeffs)
        yield ("Jacobi's series to the 8th", j8.coeffs,
               "eta^24/q", eta24.coeffs)
        yield ("(E4^3 - E6^2) q/Delta", (disc * inv).coeffs,
               "1728 q", QSeries([0, 1728], nterms).coeffs)
        yield ("q^(1/2) eta^-12 squared", (inv_half * inv_half).coeffs,
               "q/Delta", inv.coeffs)


def _section_routes(closed: list, convolution: list):
    return [("closed", closed, "convolution", convolution)]


def _multifiber_routes(m: int, nmax: int, slice_rows: list, nl_rows: list):
    """The fibre pair at the classes mF + nE, 0 <= n <= nmax.

    Each route's rows are read by invariants.fiber_classes, so a class
    past a route's last row raises IndexError and a short route fails.
    """
    a, b = (invariants.fiber_classes(rows, m, range(nmax + 1))
            for rows in (slice_rows, nl_rows))
    return [("slice", a, "NL sum", b)]


def _integrality(slice_rows: list, nl_rows: list, closed: list,
                 convolution: list):
    """Every row of both pairs is an int; a non-int r_h shows in the NL sum."""
    streams = {"fiber slice": slice_rows, "fiber NL sum": nl_rows,
               "section closed": closed, "section convolution": convolution}
    return ((f"{name} row type", [type(v).__name__ for v in rows],
             "exactly", ["int"] * len(rows)) for name, rows in streams.items())


def _euler_hodge():
    """EulerData at L.L = 8, and e(X) against the Hodge numbers."""
    return [("EulerData at L.L = 8, hodge_consistency()",
             [(*geometry.euler_characteristic(8),
               geometry.hodge_consistency())],
             "the paper", [(8, 1056, 192, -672, -480, True)])]


def _built(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def run_checks(prec: int) -> list[CheckResult]:
    """Run the whole suite at the given term count (at least 2).

    Each route of invariants.ROUTES is built once per call, the fibre
    pair up to the last row any check reads, and the checks that compare
    routes read those rows.
    The table below is the one place that names each check, by its
    pairs function and arguments.  check_pairs, the module's one check_*
    name, is looked up when the suite runs, so a verdict function
    replaced on the module (by a tracer or a test) is the one that runs.
    """
    m3_nmax = max(5, (2 * prec) // 3)
    top = max(invariants.fiber_row(2, prec), invariants.fiber_row(3, m3_nmax))
    nrows = {"section": prec, "fiber": top + 1}
    built = {target: [_built(invariants.gv_table, target, method,
                             nrows[target]) for method in methods]
             for target, methods in invariants.ROUTES.items()}
    section, fibre = built["section"], built["fiber"]
    return [check_pairs(*entry) for entry in (
        ("ring-laws", _ring_laws, top),
        # every n that the m = 1, 2, 3 checks read
        ("slice-partition", _slice_partition, max(prec, m3_nmax)),
        ("precision-honesty", _precision_honesty),
        ("pairing-determinant", _pairing_determinant),
        ("pushforward-kernel", _pushforward_kernel),
        ("nl-vanishing", _nl_vanishing),
        ("theta-e8-equals-e4", _theta_is_e4, prec),
        # one past the row loop, so E4 * E6 runs the packed path
        ("e10-sigma9", _e10_sigma9, max(prec, _SCHOOLBOOK_TERMS + 1)),
        ("eta-power-additivity", _eta_additivity, prec),
        ("fiber-dual-route", _multifiber_routes, 1, prec - 1, *fibre),
        ("section-dual-route", _section_routes, *section),
        ("multifiber-dual-route-m2", _multifiber_routes, 2, prec, *fibre),
        ("multifiber-dual-route-m3", _multifiber_routes, 3, m3_nmax, *fibre),
        ("gv-integrality", _integrality, *fibre, *section),
        ("euler-hodge", _euler_hodge),
    )]
