"""Unit and property tests for the exact truncated-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellcy import forms, invariants, series
from ellcy.checks import _term_sum
from ellcy.series import PrecisionError, QSeries


def assert_agree(a: QSeries, b: QSeries):
    """Exact agreement on the overlap of the two known ranges."""
    for e in range(min(a.prec, b.prec)):
        assert a.coeff_at(e) == b.coeff_at(e), f"differ at q^{e}"


# -- directed examples ---------------------------------------------------

# A series has no sum of its own: the check suite adds series term by term
# with _term_sum, for distributivity and for E4^3 - E6^2, so the sum
# tests pin that.

def test_add_cancellation():
    f = QSeries([1, 24], 2)
    g = QSeries([0, -24], 2)
    assert _term_sum(f, g) == QSeries([1, 0], 2)


def test_add_identity():
    f = QSeries([0, 0, 3, 0, -5], 5)
    assert _term_sum(f, QSeries([], 5)) == f


def test_add_eisenstein_like():
    # (1 + 240q) + (1 - 264q) = 2 - 24q, checked by hand
    f = QSeries([1, 240], 2)
    g = QSeries([1, -264], 2)
    assert _term_sum(f, g) == QSeries([2, -24], 2)


def test_mul_identity():
    f = QSeries([2, -7, 3], 3)
    one = QSeries([1], 5)
    assert_agree(f * one, f)


def test_mul_inverse_delta_times_e10():
    # (1 + 24q + 324q^2 + 3200q^3)(1 - 264q - 135432q^2)
    # = 1 - 240q - 141444q^2 + O(q^3): q/Delta times E10, -1/2 of the
    # fibre rows
    f = QSeries([1, 24, 324, 3200], 4)
    g = QSeries([1, -264, -135432], 3)
    p = f * g
    assert p.prec == 3
    assert p.coeffs == (1, -240, -141444)


@pytest.mark.parametrize("name", ["invert", "sqrt"])
def test_no_inverse_or_square_root(name):
    # every route multiplies series and reads coefficients; q/Delta and
    # q^(1/2)/sqrt(Delta) are eta powers, so no series is inverted or
    # square-rooted
    assert not callable(getattr(QSeries([1, 2], 2), name, None))


def test_non_integer_coefficient_is_a_type_error():
    with pytest.raises(TypeError):
        QSeries([Fraction(1, 2)], 1)
    with pytest.raises(TypeError):
        QSeries([1, 2.0], 2)
    # exact types: a bool is an int subclass, and is refused too
    with pytest.raises(TypeError, match="QSeries coefficients must be ints"):
        QSeries([True], 1)


def test_negative_precision_is_refused():
    with pytest.raises(ValueError, match="prec"):
        QSeries([], -1)


def test_kernel_that_leaves_the_integers_is_refused(monkeypatch):
    # a product passes the same constructor as every other series, so a
    # kernel slot off by a half raises instead of moving a fibre row:
    # -2 * (x + 1/2) would print n_{F+5E} one too low
    kernel = series.int_product

    def leaky(f, g, n):
        out = kernel(f, g, n)
        if n > 5:
            out[5] = Fraction(out[5]) + Fraction(1, 2)
        return out

    monkeypatch.setattr(series, "int_product", leaky)
    f, g = forms.eta_power(-24, 20), forms.eisenstein(10, 20)
    with pytest.raises(TypeError, match="QSeries coefficients must be ints"):
        f * g
    with pytest.raises(TypeError, match="QSeries coefficients must be ints"):
        invariants.gv_table("fiber", "closed", 20)
    # the E8 theta powers square series too
    with pytest.raises(TypeError, match="QSeries coefficients must be ints"):
        forms.theta_e8(20)


def test_non_integer_scalar_is_a_type_error():
    f = QSeries([1, 2], 2)
    with pytest.raises(TypeError):
        f * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(3) * f


def test_int_scalar_is_a_type_error():
    # a series multiplies only series; no route scales one
    f = QSeries([1, 2], 2)
    with pytest.raises(TypeError):
        f * 3
    with pytest.raises(TypeError):
        3 * f


def test_coeff_at_below_support_is_zero():
    # a stored leading zero, and every exponent below q^0
    f = QSeries([0, 0, 5], 4)
    assert [f.coeff_at(e) for e in (-3, -1, 0, 1, 2, 3)] == [0, 0, 0, 0, 5, 0]


def test_coeff_at_past_precision_errors():
    f = QSeries([0, 0, 5], 4)
    with pytest.raises(PrecisionError):
        f.coeff_at(4)
    with pytest.raises(PrecisionError):
        f.coeff_at(100)


def double_loop(f: list[int], g: list[int], n: int) -> list[int]:
    """First n coefficients of f * g, one term pair at a time."""
    out = [0] * n
    for i, x in enumerate(f[:n]):
        for j, y in enumerate(g[:n - i]):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", [series._SCHOOLBOOK_TERMS - 1,
                               series._SCHOOLBOOK_TERMS,
                               series._SCHOOLBOOK_TERMS + 1, 50])
def test_int_product_matches_double_loop(n):
    # both sides of the size cutover, with negative, zero and 300-bit
    # slots, factors shorter and longer than n, and all-zero and empty
    # factors
    big = 2 ** 300 - 1
    f = [(-1) ** i * (big if i % 3 == 0 else i) for i in range(n // 2 + 1)]
    f[1] = 0
    g = [0, -big, 7, 0, big] * n
    for a, b in ((f, g), (g, f), (f, f), (g[:n - 1], g[:n - 1]),
                 ([0] * n, g), ([5], f), ([], g)):
        assert series.int_product(a, b, n) == double_loop(a, b, n)


slot_st = st.one_of(st.integers(min_value=-30, max_value=30),
                    st.integers(min_value=-2 ** 300, max_value=2 ** 300))


@given(st.lists(slot_st, max_size=40), st.lists(slot_st, max_size=40),
       st.integers(min_value=0, max_value=45))
def test_int_product_matches_double_loop_at_any_size(f, g, n):
    # the series property tests below draw short series, whose products
    # all take the row loop; these lists reach the packed path too
    assert series.int_product(f, g, n) == double_loop(f, g, n)


small_slot_st = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30),
                         st.integers(min_value=-2 ** 300, max_value=2 ** 300))


@st.composite
def sparse_factor(draw):
    """An int list with the zero patterns the kernel meets.

    Runs of zeros, every other slot zero (a series in q^2), or all zero,
    drawn on both sides of the size cutover.
    """
    cs = draw(st.lists(small_slot_st, max_size=2 * series._SCHOOLBOOK_TERMS))
    kind = draw(st.sampled_from(["runs", "strided", "zero"]))
    if kind == "strided":
        strided = [0] * (2 * len(cs))
        strided[::2] = cs
        return strided
    if kind == "zero":
        return [0] * len(cs)
    start = draw(st.integers(min_value=0, max_value=len(cs)))
    stop = draw(st.integers(min_value=start, max_value=len(cs)))
    cs[start:stop] = [0] * (stop - start)
    return cs


@given(sparse_factor(), sparse_factor(),
       st.integers(min_value=0, max_value=3 * series._SCHOOLBOOK_TERMS))
def test_int_product_matches_double_loop_on_sparse_factors(f, g, n):
    # n is drawn independently, so the factors are often shorter than n
    assert series.int_product(f, g, n) == double_loop(f, g, n)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 16])
def test_pack_reads_negative_slots(width):
    # the largest slots the kernel packs, |c| < 2^(8*width-2), with a
    # negative top slot, a negative last slot and a negative slot under
    # a positive one
    top = 2 ** (8 * width - 2) - 1
    for cs in ([-top], [top, -top], [-1, 0, -top], [0, -top, top, -1],
               [top, top, 0, -top], [-top] * 5):
        packed = series._pack(cs, width)
        assert packed == sum(c << (8 * width * i) for i, c in enumerate(cs))


@pytest.mark.parametrize("bits", [4, 8, 12, 16, 60, 64])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_packed_slots_on_byte_boundaries(bits, extra):
    # n = 31 terms (5 bits) fill a coefficient to within a twentieth of a
    # bit of n * max|f| * max|g|.  The slot takes bits + (bits + extra) +
    # 5 + 2 bits: a whole number of bytes at extra = 1, one bit under or
    # over it at 0 and 2, and at 3 a slot without the two spare bits
    # would be exactly full.  The top and last coefficients are negative.
    n = 2 ** 5 - 1
    assert n > series._SCHOOLBOOK_TERMS
    a, b = 2 ** bits - 1, 2 ** (bits + extra) - 1
    for f, g in (([a] * n, [-b] * n), ([-a, 0, a] * n, [b] * n),
                 ([a] * (n - 1) + [-a], [b] + [0] * (n - 2) + [-b]),
                 ([-a] + [a] * (n - 1), [-b] * n)):
        assert series.int_product(f, g, n) == double_loop(f, g, n)


def test_leading_zeros_are_stored():
    # coeffs[i] is the coefficient of q^i, leading zeros included
    f = QSeries([0, 0, 7], 4)
    assert (f.coeffs, f.prec) == ((0, 0, 7, 0), 4)
    assert f != QSeries([7], 2)
    assert QSeries.__slots__ == ("prec", "coeffs")


# -- property tests ------------------------------------------------------

coeffs_st = st.lists(st.integers(min_value=-20, max_value=20),
                     min_size=0, max_size=6)


@st.composite
def qseries(draw):
    cs = draw(coeffs_st)
    extra = draw(st.integers(min_value=0, max_value=3))
    return QSeries(cs, len(cs) + extra)


def schoolbook_product(f: QSeries, g: QSeries):
    """Reference product by the double loop over terms.

    Returns the precision bound of f*g as an exponent, and the map from
    each exponent below it to its coefficient.
    """
    bound = min(f.prec, g.prec)
    out = {}
    for a, x in enumerate(f.coeffs):
        for b, y in enumerate(g.coeffs):
            if a + b < bound:
                out[a + b] = out.get(a + b, 0) + x * y
    return bound, out


wide_coeff_st = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-2 ** 100, max_value=2 ** 100))


@st.composite
def wide_qseries(draw):
    # a leading-zero prefix, stored as it is
    zeros = draw(st.integers(min_value=0, max_value=8))
    cs = [0] * zeros + draw(st.lists(wide_coeff_st, max_size=10))
    extra = draw(st.integers(min_value=0, max_value=4))
    return QSeries(cs, len(cs) + extra)


@given(wide_qseries(), wide_qseries())
def test_mul_matches_schoolbook(f, g):
    p = f * g
    bound, ref = schoolbook_product(f, g)
    assert p.prec == bound
    for i, c in enumerate(p.coeffs):
        assert c == ref.get(i, 0)
    for e, c in ref.items():
        assert p.coeff_at(e) == c


@given(qseries(), qseries())
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(qseries(), qseries())
def test_add_commutative(f, g):
    assert _term_sum(f, g) == _term_sum(g, f)


@settings(max_examples=50)
@given(qseries(), qseries(), qseries())
def test_mul_associative(f, g, h):
    assert_agree((f * g) * h, f * (g * h))


@settings(max_examples=50)
@given(qseries(), qseries(), qseries())
def test_distributive(f, g, h):
    assert_agree(f * _term_sum(g, h), _term_sum(f * g, f * h))


def test_repr_is_the_constructor_call():
    assert repr(QSeries([0, 1, 2], 4)) == "QSeries([0, 1, 2, 0], 4)"
    assert repr(QSeries([], 0)) == "QSeries([], 0)"


@given(wide_qseries())
def test_repr_round_trips(f):
    assert eval(repr(f), {"QSeries": QSeries}) == f


@given(qseries())
def test_precision_honesty(f):
    with pytest.raises(PrecisionError):
        f.coeff_at(f.prec)


# -- the integer representation against a Fraction oracle ----------------
#
# Each series is drawn as raw data (coefficients, prec).  The
# oracle reads the same data as a map from exponent to Fraction
# coefficient with a precision bound, and does every operation term by
# term, so it shares nothing with the kernel's aligned coefficient lists.

rational_st = st.integers(min_value=-30, max_value=30)


@st.composite
def raw_series(draw):
    cs = draw(st.lists(rational_st, max_size=8))
    prec = draw(st.integers(min_value=0, max_value=len(cs) + 3))
    return cs, prec


def oracle(raw):
    """(precision bound, {exponent: nonzero Fraction coefficient})."""
    cs, prec = raw
    terms = {i: Fraction(c) for i, c in enumerate(cs[:prec]) if c}
    return prec, terms


def oracle_add(f, g):
    bound = min(f[0], g[0])
    terms = {}
    for t in (f[1], g[1]):
        for e, c in t.items():
            if e < bound:
                terms[e] = terms.get(e, 0) + c
    return bound, terms


def oracle_mul(f, g):
    # a product is known below the lower of the two bounds
    bound = min(f[0], g[0])
    terms = {}
    for a, x in f[1].items():
        for b, y in g[1].items():
            if a + b < bound:
                terms[a + b] = terms.get(a + b, 0) + x * y
    return bound, terms


def assert_matches(p: QSeries, expected):
    """p holds prec ints and agrees with the oracle term by term."""
    bound, terms = expected
    assert all(type(c) is int for c in p.coeffs)
    assert len(p.coeffs) == p.prec
    assert p.prec == bound
    for i, c in enumerate(p.coeffs):
        assert c == terms.get(i, 0)
    for e, c in terms.items():
        assert p.coeff_at(e) == c


@given(raw_series(), raw_series())
def test_ring_ops_match_fraction_oracle(a, b):
    f, g = QSeries(*a), QSeries(*b)
    fo, go = oracle(a), oracle(b)
    assert_matches(f, fo)
    assert_matches(_term_sum(f, g), oracle_add(fo, go))
    assert_matches(f * g, oracle_mul(fo, go))


@st.composite
def sum_operands(draw):
    """Two raw series with mismatched lengths and precisions."""
    def one():
        cs = draw(st.lists(rational_st, max_size=24))
        prec = draw(st.integers(min_value=0, max_value=len(cs) + 4))
        return cs, prec
    return one(), one()


@given(sum_operands())
def test_add_matches_the_check_suite_oracle(operands):
    # the check suite's term-by-term sum against the Fraction oracle, on
    # operands long enough for runs that overlap in part
    f, g = (QSeries(*raw) for raw in operands)
    fo, go = (oracle(raw) for raw in operands)
    assert_matches(_term_sum(f, g), oracle_add(fo, go))
    assert_matches(_term_sum(g, f), oracle_add(go, fo))


@given(raw_series())
def test_coeffs_are_the_exact_values(a):
    f = QSeries(*a)
    assert type(f.coeffs) is tuple
    assert all(type(c) is int for c in f.coeffs)
    _, terms = oracle(a)
    assert {e: c for e, c in enumerate(f.coeffs) if c} == terms
