"""Truncated power series with exact integer coefficients.

A :class:`QSeries` stores the integer coefficients a_0, ..., a_(p-1) of
a formal power series sum a_e q^e from q^0.  Every series carries an
explicit precision bound p: all coefficients of exponents below ``prec``
are exact, everything at or above it is unknown.  Products propagate
precision pessimistically, so a coefficient that a QSeries reports is
always correct; asking for one beyond the bound raises
:class:`PrecisionError` rather than silently returning zero.

Every q-expansion the routes need has integer coefficients and starts
at q^0 once its q^(e/24) prefactor is set aside (the CLI states the
printed shift of each named series, in ``cli._SERIES``), so only ints
from q^0 are stored: every series, kernel products included, is built by
the one constructor ``QSeries(coeffs, prec)``, which refuses any
other coefficient with a ``TypeError``.  The routes only multiply series
and read coefficients, so that is all a series does besides compare: it
has no inverse or square root, a product with anything but a series is
a ``TypeError``, ``coeffs`` holds the known coefficients, and
:meth:`QSeries.coeff_at` reads one exponent and raises past the bound
(``invariants.gv_table`` reads rows by it).  No
arithmetic here imports `fractions` or uses floating point.  Every
product of coefficient lists goes through :func:`int_product`, which
picks its algorithm by the number n of product terms: up to
``_SCHOOLBOOK_TERMS`` terms it adds one row a * g into the result for
each nonzero term a of f, so the zeros of a sparse factor cost nothing,
and above that both factors are packed into single Python ints by
Kronecker substitution, multiplied once and the product's slots read
back, each step a C-level ``map`` over the terms.
"""

from collections.abc import Iterable
from itertools import repeat
from operator import sub

# Products of at most this many terms are row loops, longer ones are
# packed.  For 1/Delta * E10 on a 2-core Xeon VM with Python 3.11 the row
# loop wins up to about 22 terms (5 terms: 2.3 vs 9.5 us, 22 terms: 28 vs
# 30 us) and loses above (32 terms: 59 vs 48 us, 200 terms: 2.4 vs
# 1.3 ms); on sparse factors, with every other term zero, it wins up to
# about 100 terms.  The README has the table.  The cutover sits lower so
# that every dense product of 32 terms or more stays packed; the checks
# size their short products one term past it, so that `check --prec 2`
# still multiplies through the packed path.
_SCHOOLBOOK_TERMS = 16


class PrecisionError(ValueError):
    """A coefficient at or beyond the known-precision bound was requested."""


def _half_slots(width: int, n: int) -> int:
    """n packed slots of ``width`` bytes, each holding 2^(8*width-1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(cs: list[int], width: int) -> int:
    """sum of cs[i] * 2^(8*width*i), each |cs[i]| < 2^(8*width-2).

    Packing is linear, so each slot is written unsigned with the half-slot
    bias 2^(8*width-1) added, and the packed biases are subtracted once.
    """
    half = 1 << (8 * width - 1)
    biased = b"".join(map(int.to_bytes, map(half.__add__, cs),
                          repeat(width), repeat("little")))
    return int.from_bytes(biased, "little") - _half_slots(width, len(cs))


def int_product(f: list[int], g: list[int], n: int) -> list[int]:
    """First n coefficients of the product of two integer polynomials.

    Its one caller is :meth:`QSeries.__mul__`.  Up to ``_SCHOOLBOOK_TERMS``
    terms, each nonzero term a = f[i] adds the row a * g into the
    coefficients from i on.  Above it, signed Kronecker
    substitution (Harvey, J. Symb. Comp. 2009): f and g are packed into
    one Python int each, with slots wide enough that no product
    coefficient overflows its slot, multiplied once, and the first n
    slots of the product are read back exactly.
    """
    f, g = f[:n], g[:n]
    if n <= _SCHOOLBOOK_TERMS:
        out = [0] * n
        for i, a in enumerate(f):
            if a:
                k = i
                for b in g[:n - i]:
                    out[k] += a * b
                    k += 1
        return out
    # an empty factor packs to 0, and every slot reads back 0
    fbits = max(map(abs, f), default=0).bit_length()
    gbits = max(map(abs, g), default=0).bit_length()
    # |product coefficient| < n * max|f| * max|g|; two spare bits keep
    # it below a quarter of the slot
    width = (fbits + gbits + n.bit_length() + 2 + 7) // 8
    nbytes = width * n
    half = 1 << (8 * width - 1)
    # with the half-slot bias added, each of the first n slots holds its
    # coefficient plus half, in (0, 2^(8*width)), so no slot borrows from
    # the next and every slot reads unsigned
    raw = ((_pack(f, width) * _pack(g, width) + _half_slots(width, n))
           & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    slots = map(raw.__getitem__, map(slice, range(0, nbytes, width),
                                     range(width, nbytes + width, width)))
    return list(map(sub, map(int.from_bytes, slots, repeat("little")),
                    repeat(half)))


class QSeries:
    """Immutable truncated power series over Z in one formal variable.

    The coefficient of q^i is the int ``coeffs[i]`` for 0 <= i < ``prec``,
    the exclusive precision bound, so the tuple ``coeffs`` has length
    ``prec``; structural equality is equality of (series, precision)
    pairs.
    """

    __slots__ = ("prec", "coeffs")

    def __init__(self, coeffs: Iterable[int], prec: int):
        if prec < 0:
            raise ValueError("prec must not be negative")
        cs = list(coeffs)
        del cs[prec:]  # truncated to prec terms, or padded with zeros
        cs += [0] * (prec - len(cs))
        if list(map(type, cs)).count(int) != prec:  # exact ints, no bools
            raise TypeError("QSeries coefficients must be ints")
        self.coeffs, self.prec = tuple(cs), prec

    # -- basic protocol --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.prec == other.prec and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"QSeries({list(self.coeffs)}, {self.prec})"

    # -- products --------------------------------------------------------

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product of two series, their coefficients by :func:`int_product`."""
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        return QSeries(int_product(self.coeffs, other.coeffs, prec), prec)

    # perfbench/trace_child.py's Tracer.install looks both names up with
    # no default; they go with the tracer mend of ROADMAP item 1
    invert = sqrt = None

    # -- coefficient access ----------------------------------------------

    def coeff_at(self, e: int) -> int:
        """Exact coefficient of q^e; 0 below q^0, errors past the bound."""
        if e >= self.prec:
            raise PrecisionError(
                f"coefficient of q^({e}) is beyond the precision bound "
                f"q^({self.prec})")
        return self.coeffs[e] if e >= 0 else 0
