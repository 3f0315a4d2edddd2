"""Tests for the Noether-Lefschetz numbers and the dual-route invariants."""

import io
from fractions import Fraction

import pytest

from ellcy import cli, forms, geometry, invariants, series
from ellcy.series import PrecisionError, QSeries

# each route of invariants.ROUTES by (target, method), and its test id: the
# name its route function had before the table, so the ids stay stable
ROUTE_IDS = {("section", "closed"): "f_section_closed",
             ("section", "direct"): "f_section_convolution",
             ("fiber", "closed"): "f_multifiber_slice",
             ("fiber", "direct"): "f_multifiber_direct"}
FIBER_ROUTES = [("fiber", "closed"), ("fiber", "direct")]


def classes(method: str, m: int, nmax: int) -> list[int]:
    """n_{mF+nE} for 0 <= n <= nmax by one fibre route, through the reader.

    The table has the rows the classes read, and at least one, so that a
    table whose classes all lie below row 0 is still built.
    """
    rows = invariants.gv_table("fiber", method,
                               max(1, invariants.fiber_row(m, nmax) + 1))
    return invariants.fiber_classes(rows, m, range(nmax + 1))


def fraction_nl_sum(m: int, nmax: int) -> list[Fraction]:
    """n_{mF+nE} for 0 <= n <= nmax by a Fraction loop over every (n, h).

    Independent of the series product of the direct fibre route: one
    bordered discriminant and one NL number per (n, h), summed in
    Fractions and halved per class.
    """
    hcap = max(0, 1 + m * (nmax - m))
    r = forms.eta_power_jacobi(-24, hcap + 1).coeffs  # Yau-Zaslow r_h
    e10 = forms.eisenstein(10, hcap + 1)
    out = []
    (_, l1f, l1e), (_, l2f, l2e), _ = geometry.PAIRING
    for n in range(nmax + 1):
        d1, d2 = l1f * m + l1e * n, l2f * m + l2e * n  # degrees of mF + nE
        total = Fraction(0)
        for h in range(max(0, 1 + m * (n - m)) + 1):
            disc = geometry.nl_discriminant(h, d1, d2)
            total += r[h] * -4 * e10.coeff_at(disc // 2)
        out.append(total / 2)
    return out


def slice_product_sum(m: int, nmax: int) -> QSeries:
    """The slice route as m slice products summed, one per residue.

    -2 times the sum over l of (q/Delta)_{m, l} (E10)_{m, 1-l}, row k its
    coefficient of q^k: the route's former algorithm, which the closed
    fibre route replaces by the slice at 1 mod m of one product.
    """
    uterms = m * (nmax - m) + 2  # need rows through m(nmax - m) + 1
    if uterms < 1:
        raise ValueError("nmax is too small for a nonempty expansion")
    inv_delta_u = forms.eta_power(-24, uterms)  # q/Delta
    e10_u = forms.eisenstein(10, uterms)
    total = [0] * uterms
    for ell in range(m):
        piece = residue_part(inv_delta_u, m, ell) * \
            residue_part(e10_u, m, 1 - ell)
        for i in range(uterms):
            total[i] -= 2 * piece.coeff_at(i)
    return QSeries(total, uterms)


def residue_part(f: QSeries, m: int, k: int) -> QSeries:
    """The terms of f whose exponent is k mod m, by one list slice."""
    first = k % m  # index of the first kept term
    cs = [0] * len(f.coeffs)
    cs[first::m] = f.coeffs[first::m]
    return QSeries(cs, f.prec)


def fraction_section_convolution(nterms: int) -> list[Fraction]:
    """n_{C+nE} for n < nterms by a Fraction double loop.

    Independent of the series product of the direct section route: each E8
    norm count times the Bryan-Leung count it shifts to, read one
    coefficient at a time.
    """
    counts = forms.theta_e8(nterms).coeffs
    bl = forms.eta_power(-12, nterms)  # q^(1/2)/sqrt(Delta)
    out = []
    for n in range(nterms):
        total = Fraction(0)
        for m in range(n + 1):
            total += counts[m] * bl.coeff_at(n - m)
        out.append(total)
    return out


class TestNLNumber:
    def test_origin_value(self):
        assert invariants.nl_number(0, 0, 0) == 1056

    def test_negative_discriminant_vanishes(self):
        # fibre-family discriminant 2n - 2h is negative for h > n
        assert invariants.nl_number(3, -2, 1) == 0
        assert invariants.nl_number(5, 0, 1) == 0

    def test_discriminant_zero_case(self):
        # (1; -1, 1) has discriminant 0, so the value is -4 [0]E10 = -4
        assert geometry.nl_discriminant(1, -1, 1) == 0
        assert invariants.nl_number(1, -1, 1) == -4

    def test_via_e10_coefficients(self):
        # sigma_9 against -4 [q^(disc/2)] of the E4 * E6 series, over
        # negative, zero and positive discriminants
        e10 = forms.eisenstein(4, 32) * forms.eisenstein(6, 32)
        signs = set()
        for h in range(5):
            for d1 in range(-6, 8):
                for d2 in range(-3, 4):
                    disc = geometry.nl_discriminant(h, d1, d2)
                    signs.add((disc > 0) - (disc < 0))
                    assert invariants.nl_number(h, d1, d2) == \
                        -4 * e10.coeff_at(disc // 2), (h, d1, d2)
        assert signs == {-1, 0, 1}

    def test_precision_error(self):
        # index 11 lies past a 3-term E10: an error, not a zero
        with pytest.raises(PrecisionError):
            forms.eisenstein(10, 3).coeff_at(11)

    @pytest.mark.parametrize("h, d1", [(0, 3000), (2, 2500), (1, 1234)])
    def test_exact_at_large_index(self, h, d1):
        # half-discriminant k = d1 - h + 2; E10 coefficients there are
        # ~2^115, and the E4 * E6 series has them in slots of real width
        k = d1 - h + 2
        e10 = forms.eisenstein(4, k + 1) * forms.eisenstein(6, k + 1)
        assert invariants.nl_number(h, d1, 1) == -4 * e10.coeff_at(k)


class TestFiberRoutes:
    def test_closed_known_values(self):
        assert invariants.gv_table("fiber", "closed", 4) == \
            [-2, 480, 282888, 17058560]

    def test_direct_known_values(self):
        assert invariants.gv_table("fiber", "direct", 4) == \
            [-2, 480, 282888, 17058560]

    def test_routes_agree_to_20(self):
        assert invariants.gv_table("fiber", "closed", 21) == \
            invariants.gv_table("fiber", "direct", 21)

    def test_slice_is_closed_form(self):
        # the fibre rows are the whole closed form -2 E10/Delta, row n its
        # coefficient of q^(n-1): the product from q^0 is q E10/Delta,
        # E10 times eta^-24
        for nrows in (1, 2, 6, 13):
            closed = (forms.eisenstein(10, nrows)
                      * forms.eta_power(-24, nrows))
            assert invariants.gv_table("fiber", "closed", nrows) == \
                [-2 * closed.coeff_at(n) for n in range(nrows)]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_slice_matches_slice_product_sum(self, m):
        # every nmax up to 40 with a nonempty expansion: entry n is row
        # m(n-m) + 1 of the sum of the slice products
        for nmax in (n for n in range(41) if m * (n - m) + 2 >= 1):
            ref = slice_product_sum(m, nmax)
            assert classes("closed", m, nmax) == \
                [ref.coeff_at(m * (n - m) + 1) for n in range(nmax + 1)], \
                nmax

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_slice_makes_one_product(self, m, monkeypatch):
        # E10 is built before counting, so only the route's own
        # series-by-series products are counted
        uterms = m * 10 + 2  # nmax = m + 10
        e10 = forms.eisenstein(10, uterms)

        def built_e10(k, nterms):
            assert (k, nterms) == (10, uterms)
            return e10

        real = QSeries.__mul__
        products = []

        def counting(a, b):
            if isinstance(b, QSeries):
                products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(forms, "eisenstein", built_e10)
        monkeypatch.setattr(QSeries, "__mul__", counting)
        classes("closed", m, m + 10)
        assert len(products) == 1

    def test_slice_at_nmax_zero(self):
        # one row, q^0 of -2 q E10/Delta
        assert invariants.gv_table("fiber", "closed", 1) == [-2]


class TestSectionRoutes:
    def test_closed_known_values(self):
        assert invariants.gv_table("section", "closed", 4) == \
            [1, 252, 5130, 54760]

    def test_closed_multiplies_on_the_integer_grid(self, monkeypatch):
        # every generator of either route of a pair shares the integer
        # grid with its partner, so no product packs a slot beyond the
        # terms that the returned rows need, and the largest packs exactly
        # those; the series product is the kernel's one caller, the E8
        # theta powers' squarings included, so it is recorded there
        sizes = []
        real = series.int_product

        def recording(f, g, n):
            sizes.append(n)
            return real(f, g, n)

        monkeypatch.setattr(series, "int_product", recording)
        for route, nrows, need in [
                (("section", "closed"), 1, 1),
                (("section", "closed"), 4, 4),
                (("section", "closed"), 50, 50),
                # the theta powers count norms up to 2(nterms - 1) in
                # steps of one: 2 nterms - 1 terms of a series in q^(1/2)
                (("section", "direct"), 1, 1),
                (("section", "direct"), 4, 7),
                (("section", "direct"), 50, 99),
                (("fiber", "closed"), 1, 1),
                (("fiber", "closed"), 53, 53),
                (("fiber", "direct"), 1, 1),
                (("fiber", "direct"), 53, 53)]:
            sizes.clear()
            invariants.gv_table(*route, nrows)
            assert max(sizes) == need, (route, nrows)
        assert invariants.gv_table("section", "closed", 4) == \
            [1, 252, 5130, 54760]

    @pytest.mark.parametrize("route", list(ROUTE_IDS),
                             ids=list(ROUTE_IDS.values()))
    def test_integer_grid_from_q0(self, route):
        # every route returns one plain list, row i for the i-th class
        # from i = 0, and every row an int
        for nrows in (1, 2, 30):
            values = invariants.gv_table(*route, nrows)
            assert type(values) is list and len(values) == nrows, nrows
            assert all(type(v) is int for v in values), nrows

    def test_zero_vector_contribution_is_bryan_leung(self):
        # the lambda = 0 term of the convolution alone is the Bryan-Leung
        # series q^(1/2)/sqrt(Delta), which counts C'' + jE'' at q^j
        bl = forms.eta_power(-12, 6)
        conv = invariants.gv_table("section", "direct", 6)
        # at n = 0 only lambda = 0 is effective
        assert conv[0] == bl.coeff_at(0) == 1

    @pytest.mark.parametrize("route", list(ROUTE_IDS)[:2],
                             ids=list(ROUTE_IDS.values())[:2])
    def test_routes_read_the_generator_as_it_is(self, route, monkeypatch):
        # each route reads its own Bryan-Leung series once, at the table's
        # size, with no regridding step of its own: the closed route the
        # pentagonal q^(1/2) eta^-12, the convolution J^-4, J Jacobi's cube
        calls = []

        def recording(name):
            real = getattr(forms, name)

            def generator(*args):
                calls.append((name, *args))
                return real(*args)
            return generator

        for name in ("eta_power", "eta_power_jacobi"):
            monkeypatch.setattr(forms, name, recording(name))
        assert invariants.gv_table(*route, 5) == \
            [1, 252, 5130, 54760, 419895]
        assert calls == {("section", "closed"): [("eta_power", -12, 5)],
                         ("section", "direct"): [
                             ("eta_power_jacobi", -12, 5)]}[route]
        assert not hasattr(invariants, "_bryan_leung")

    def test_routes_agree_to_20(self):
        closed = invariants.gv_table("section", "closed", 20)
        conv = invariants.gv_table("section", "direct", 20)
        assert closed == conv

    @pytest.mark.parametrize("nterms", [1, 2, 3, 17, 200])
    def test_convolution_matches_fraction_loop(self, nterms):
        assert invariants.gv_table("section", "direct", nterms) == \
            fraction_section_convolution(nterms)

    def test_ineffective_pairs_do_not_contribute(self):
        # every E8 vector of norm 2m contributes only from level n = m on;
        # truncating at n < m must reproduce the truncated convolution
        conv = invariants.gv_table("section", "direct", 3)
        counts = forms.theta_e8(3).coeffs
        bl = forms.eta_power(-12, 3)
        n = 2
        manual = sum(counts[m] * bl.coeff_at(n - m) for m in range(n + 1))
        assert conv[n] == manual


class TestMultifiberRoutes:
    def test_below_threshold_vanishes(self):
        assert classes("direct", 2, 6)[:2] == [0, 0]
        assert classes("direct", 3, 6)[:3] == [0, 0, 0]

    def test_routes_agree_m2(self):
        nmax = 16  # 15 q-terms from the first possibly-nonzero level
        assert classes("closed", 2, nmax) == classes("direct", 2, nmax)

    def test_routes_agree_m3(self):
        nmax = 12  # 10 q-terms
        assert classes("closed", 3, nmax) == classes("direct", 3, nmax)

    def test_reader_reads_the_slice_at_one_mod_m(self):
        # the classes mF + nE read the fibre rows k = m(n - m) + 1 >= 0
        # only, the slice at 1 mod m, so they need no slice of their own
        read = []

        class Rows(list):
            def __getitem__(self, k):
                read.append(k)
                return list.__getitem__(self, k)

        rows = Rows(invariants.gv_table("fiber", "closed", 40))
        for m in (2, 3):
            read.clear()
            invariants.fiber_classes(rows, m, range(m + 6))
            assert read == [m * (n - m) + 1 for n in range(m, m + 6)]
            assert all(type(k) is int and k % m == 1 for k in read)

    def test_integrality(self):
        for m in (2, 3):
            for v in classes("direct", m, 10):
                assert v.denominator == 1
                assert type(v) is int  # an exact halving stores an int

    def test_e10_built_once_per_table(self, monkeypatch):
        # the NL sum writes out E10 = E4 * E6 once per table, and never
        # reads the sieve E10 of the closed route
        reference = classes("direct", 2, 10)
        real = forms.eisenstein
        weights = []

        def corrupted(k, nterms):
            weights.append(k)
            f = real(k, nterms)
            if k != 6:
                return f
            cs = list(f.coeffs)
            cs[2] += 1
            return type(f)(cs, f.prec)

        monkeypatch.setattr(forms, "eisenstein", corrupted)
        assert classes("direct", 2, 10) != reference
        assert weights == [4, 6]
        monkeypatch.undo()
        # no hidden cache: with the patch gone the table is built afresh
        assert classes("direct", 2, 10) == reference

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_nl_sum_matches_fraction_loop(self, m):
        # rows run from n = 0, so for m >= 2 the first classes have every
        # discriminant negative (half0 < 0) and must read 0, never the
        # end of the E10 list
        direct = classes("direct", m, 40)
        assert direct == fraction_nl_sum(m, 40)
        assert any(1 + m * (n - m) < 0 for n in range(41)) == (m > 1)

    def test_no_discriminant_before_first_row(self, monkeypatch):
        # first_row is the lowest n with 1 + m(n - m) >= 0, and the NL
        # sum reads every row's index from fiber_row, so it computes no
        # discriminant at all
        for m in range(1, 12):
            assert invariants.first_row(m) == min(
                n for n in range(m + 1) if 1 + m * (n - m) >= 0)
        real = geometry.nl_discriminant
        calls = []

        def counting(h, d1, d2):
            calls.append((h, d1, d2))
            return real(h, d1, d2)

        monkeypatch.setattr(geometry, "nl_discriminant", counting)
        values = classes("direct", 50, 50)
        assert calls == []
        assert values == [0] * 50 + [fraction_nl_sum(50, 50)[50]]

    @pytest.mark.parametrize("route", FIBER_ROUTES,
                             ids=[ROUTE_IDS[r] for r in FIBER_ROUTES])
    def test_every_row_is_a_fiber_row(self, route):
        # n_{mF+nE} = n_{F+kE} with k = fiber_row(m, n), read off the
        # same route's fibre table; a negative k reads 0
        fiber = invariants.gv_table(*route, 200)
        for m in (2, 3, 5, 7):
            rows = [invariants.fiber_row(m, n) for n in range(30)]
            assert classes(route[1], m, 29) == \
                [fiber[k] if k >= 0 else 0 for k in rows], m

    @pytest.mark.parametrize("route", FIBER_ROUTES,
                             ids=[ROUTE_IDS[r] for r in FIBER_ROUTES])
    def test_tables_before_first_row_are_empty(self, route):
        # every class below first_row has k < 0, so the reader reads all
        # of them as 0 off a one-row table
        for m in range(2, 7):
            for nmax in range(invariants.first_row(m)):
                assert classes(route[1], m, nmax) == [0] * (nmax + 1), \
                    (m, nmax)

    def test_m_below_one_rejected(self):
        # by the reader, on either route's rows
        for method in ("closed", "direct"):
            rows = invariants.gv_table("fiber", method, 6)
            for m in (0, -1):
                with pytest.raises(ValueError, match="fibre multiplicity"):
                    invariants.fiber_classes(rows, m, range(3))

    def test_routes_share_their_domain(self):
        # both routes are total on m >= 1, nmax >= 0, where m(nmax - m) + 1
        # lies below row 0 too
        for m in range(1, 7):
            for nmax in range(13):
                assert classes("closed", m, nmax) == \
                    classes("direct", m, nmax)
        assert classes("closed", 2, 0) == [0]
        for route in ROUTE_IDS:
            with pytest.raises(ValueError, match="must be"):
                invariants.gv_table(*route, 0)

    @pytest.mark.parametrize("route", FIBER_ROUTES,
                             ids=[ROUTE_IDS[r] for r in FIBER_ROUTES])
    def test_table_is_a_prefix_of_a_longer_one(self, route):
        # row i does not depend on the table's length
        for nrows in (1, 2, 7, 40):
            assert invariants.gv_table(*route, 2 * nrows)[:nrows] == \
                invariants.gv_table(*route, nrows), nrows


class TestFiberClasses:
    ROWS = [10, 11, 12, 13, 14]  # stand-ins for n_{F+kE}, 0 <= k < 5

    def test_rows_below_zero_read_zero(self):
        # rows k = -3, -1, 1, 3 for n = 0 .. 3: a negative k never wraps
        # to the end of the rows
        assert invariants.fiber_classes(self.ROWS, 2, range(4)) == \
            [0, 0, 11, 13]
        assert invariants.fiber_classes(self.ROWS, 5, [0, 4]) == [0, 0]

    def test_row_past_the_end_raises(self):
        # fiber_row(2, 4) = 5 is one past the last row
        with pytest.raises(IndexError):
            invariants.fiber_classes(self.ROWS, 2, range(5))
        with pytest.raises(IndexError):
            invariants.fiber_classes(self.ROWS, 1, [5])


class TestRouteGenerators:
    # the forms generators each route calls, E_k by its weight k and the
    # divisor-sum sieve by its exponent k; _sparse_power, the recurrence
    # behind both eta generators, is private and pinned by
    # eta-power-additivity
    CALLS = {
        ("fiber", "closed"): {"eta_power",
                              ("eisenstein", 10), ("divisor_sums", 9)},
        ("fiber", "direct"): {"eta_power_jacobi",
                              ("eisenstein", 4), ("eisenstein", 6),
                              ("divisor_sums", 3), ("divisor_sums", 5)},
        ("section", "closed"): {"eta_power", ("eisenstein", 4),
                                ("divisor_sums", 3)},
        ("section", "direct"): {"theta_e8", "eta_power_jacobi"},
    }

    def test_routes_of_a_pair_share_no_generator(self, monkeypatch):
        calls = set()

        def recording(name, real):
            def generator(*args):
                keyed = name in ("eisenstein", "divisor_sums")
                calls.add((name, args[0]) if keyed else name)
                return real(*args)
            return generator

        for name, fn in list(vars(forms).items()):
            if (not name.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == forms.__name__
                    and not isinstance(fn, type)):
                monkeypatch.setattr(forms, name, recording(name, fn))
        table = {}
        for target, methods in invariants.ROUTES.items():
            for method in methods:
                calls.clear()
                invariants.gv_table(target, method, 30)
                table[target, method] = set(calls)
        assert table == self.CALLS
        for target, methods in invariants.ROUTES.items():
            closed, direct = (table[target, method] for method in methods)
            assert not closed & direct, target

    @pytest.mark.parametrize(
        "source", list(ROUTE_IDS) + sorted(cli._SERIES),
        ids=list(ROUTE_IDS.values()) + sorted(cli._SERIES))
    def test_every_product_starts_at_q0(self, source):
        # row i of every table is [q^i] of its product: both generators
        # and their product hold n terms from q^0, and so does every
        # series the CLI prints, so no layer shifts an index
        for n in (1, 2, 30):
            if source in cli._SERIES:
                made = [cli._SERIES[source][0](n)]
            else:
                f, g = (gen(n) for gen in invariants.ROUTES[source[0]][
                    source[1]])
                made = [f, g, f * g]
            assert [(s.prec, len(s.coeffs)) for s in made] == \
                [(n, n)] * len(made), n


class TestRoutePrecision:
    # each route with one of its two generators a term short, and the gv
    # command that runs it at --prec 6
    SHORTENED = [
        ("fiber", "closed", "eisenstein",
         lambda: invariants.gv_table("fiber", "closed", 6)),
        ("fiber", "direct", "eisenstein",
         lambda: invariants.gv_table("fiber", "direct", 6)),
        ("section", "closed", "eisenstein",
         lambda: invariants.gv_table("section", "closed", 6)),
        ("section", "direct", "eta_power_jacobi",
         lambda: invariants.gv_table("section", "direct", 6)),
    ]

    @pytest.mark.parametrize("target, method, generator, route", SHORTENED,
                             ids=[f"{t}-{m}" for t, m, _, _ in SHORTENED])
    def test_short_generator_raises(self, target, method, generator, route,
                                    monkeypatch, capsys):
        full = getattr(forms, generator)
        monkeypatch.setattr(forms, generator,
                            lambda k, nterms: full(k, nterms - 1))
        with pytest.raises(PrecisionError) as exc:
            route()
        assert str(exc.value).startswith("coefficient of q^(")
        assert " is beyond the precision bound q^(" in str(exc.value)
        argv = ["gv", target, "--method", method, "--prec", "6"]
        assert cli.main(argv, io.StringIO()) == 2
        assert capsys.readouterr().err == f"ellcy: error: {exc.value}\n"


class TestMultipleCover:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_closed_and_direct_rows_agree(self, m):
        # every divisor class (m/k)F + (n/k)E lies at or below row
        # fiber_row(m, n), so the rows that gv builds serve every term
        ns = range(invariants.first_row(m), 25)
        nrows = invariants.fiber_row(m, ns[-1]) + 1
        closed, direct = (invariants.gv_table("fiber", method, nrows)
                          for method in ("closed", "direct"))
        assert [invariants.gv_to_gw_genus0(closed, m, n) for n in ns] == \
            [invariants.gv_to_gw_genus0(direct, m, n) for n in ns]

    def test_primitive_class_is_its_row(self):
        # at m = 1 every class F + nE is primitive
        rows = invariants.gv_table("fiber", "direct", 30)
        assert [invariants.gv_to_gw_genus0(rows, 1, n) for n in range(30)] \
            == rows

    def test_double_fiber_formula(self):
        # N_0 of 2F + nE, n even, adds n_{F+(n/2)E}/8 to its own row
        rows = invariants.gv_table("fiber", "closed",
                                   invariants.fiber_row(2, 24) + 1)
        for n in range(0, 25, 2):
            gv = invariants.fiber_classes(rows, 2, [n])[0]
            assert invariants.gv_to_gw_genus0(rows, 2, n) == \
                gv + Fraction(rows[n // 2], 8), n
        # n_{2F} reads row -3, so N_0 of 2F is n_F/8 = -2/8
        assert invariants.gv_to_gw_genus0(rows, 2, 0) == Fraction(-2, 8)

    def test_result_is_a_fraction(self):
        # int rows over k^3 stay exact, never a float, also when the sum
        # is a whole number
        rows = invariants.gv_table("fiber", "direct", 6)
        for m, n in ((1, 3), (2, 0), (2, 2)):
            assert type(invariants.gv_to_gw_genus0(rows, m, n)) is Fraction

    def test_m_below_one_rejected(self):
        rows = invariants.gv_table("fiber", "direct", 6)
        for m, n in ((0, 0), (0, 3), (-1, 2), (-2, 4)):
            with pytest.raises(ValueError, match="fibre multiplicity"):
                invariants.gv_to_gw_genus0(rows, m, n)

    def test_class_past_the_last_row_raises(self):
        # 2F + 4E reads row fiber_row(2, 4) = 5, one past the last
        rows = invariants.gv_table("fiber", "direct", 5)
        assert invariants.gv_to_gw_genus0(rows, 2, 3) == rows[3]
        with pytest.raises(IndexError):
            invariants.gv_to_gw_genus0(rows, 2, 4)


class TestResolutionFactor:
    def test_factor_applied_once(self):
        # the polarized-family invariant is twice the threefold one; the
        # NL route divides by two exactly once, so doubling its output
        # must reproduce the raw Theorem-1* sum
        r = forms.eta_power_jacobi(-24, 6).coeffs  # Yau-Zaslow r_h
        for n in range(6):
            raw = sum(r[h] * invariants.nl_number(h, n - 2, 1)
                      for h in range(n + 1))
            assert 2 * invariants.gv_table("fiber", "direct", n + 1)[n] == raw
