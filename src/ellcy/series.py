"""Truncated Laurent/Puiseux series with exact integer coefficients.

A :class:`QSeries` stores finitely many integer coefficients of a formal
series sum a_e q^e, where the exponents e run over the grid (1/exp_den)Z.
Every series carries an explicit precision bound: all coefficients of
exponents below ``prec / exp_den`` are exact, everything at or above it
is unknown.  All arithmetic propagates precision pessimistically, so a
coefficient that a QSeries reports is always correct; asking for one
beyond the bound raises :class:`PrecisionError` rather than silently
returning zero.

Every q-expansion the routes need has integer coefficients, so only ints
are stored: any other coefficient is a ``TypeError`` at construction, a
scalar must be an int, and ``invert`` and ``sqrt`` raise rather than
leave the integers.  Only the exponents are rational, kept as integers
over ``exp_den`` and printed by :func:`_fmt_ratio`; no arithmetic here
imports `fractions` or uses floating point.  Every product of
coefficient lists goes through :func:`int_product`, which picks its
algorithm by the number n of product terms: up to ``_SCHOOLBOOK_TERMS``
terms it adds one row a * g into the result for each nonzero term a of
f, so the zeros of a sparse factor (an ``exp_den`` lift leaves every
other slot empty) cost nothing, and above that both factors are packed
into single Python ints by Kronecker substitution, multiplied once and
the product's slots read back, each step a C-level ``map`` over the
terms.  Sums add each operand's aligned run of coefficients by one slice
assignment.  The generators that work on plain integer coefficient lists
(the E8 theta powers) call :func:`int_product` directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import add, sub

TYPE_CHECKING = False  # typing's flag unimported; checkers read it as true
if TYPE_CHECKING:
    from fractions import Fraction

# Products of at most this many terms are row loops, longer ones are
# packed.  For 1/Delta * E10 on a 2-core Xeon VM with Python 3.11 the row
# loop wins up to about 22 terms (5 terms: 2.3 vs 9.5 us, 22 terms: 28 vs
# 30 us) and loses above (32 terms: 59 vs 48 us, 200 terms: 2.4 vs
# 1.3 ms); on factors with every other term zero it wins up to about 100
# terms.  The README has the table.  The cutover sits lower so that
# `check --prec 2` still multiplies through the packed path (the 21-term
# E4 * E6 of e10-sigma9, and ring-laws' 17-term product) and every dense
# product of 32 terms or more stays packed.
_SCHOOLBOOK_TERMS = 16


class PrecisionError(ValueError):
    """A coefficient at or beyond the known-precision bound was requested."""


def _fmt_ratio(num: int, den: int) -> str:
    """num/den (den > 0) as `Fraction` prints it: "n" or "n/d", reduced."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


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

    Up to ``_SCHOOLBOOK_TERMS`` terms, each nonzero term a = f[i] adds the
    row a * g into the coefficients from i on.  Above it, signed Kronecker
    substitution (Harvey, J. Symb. Comp. 2009): f and g are packed into
    one Python int each, with slots wide enough that no product
    coefficient overflows its slot, multiplied once, and the first n
    slots of the product are read back exactly.
    """
    f, g = f[:n], g[:n]
    if not f or not g:
        return [0] * n
    if n <= _SCHOOLBOOK_TERMS:
        out = [0] * n
        for i, a in enumerate(f):
            if a:
                k = i
                for b in g[:n - i]:
                    out[k] += a * b
                    k += 1
        return out
    fbits = max(map(abs, f)).bit_length()
    gbits = max(map(abs, g)).bit_length()
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


def _canonical(nums: Sequence[int], offset: int, prec: int,
               exp_den: int) -> tuple[tuple[int, ...], int, int, int]:
    """The canonical (nums, offset, prec, exp_den) of a series.

    Leading zeros move into the offset, and exp_den is reduced whenever
    the offset, the precision bound and the support allow it.
    """
    lead = 0
    while lead < len(nums) and nums[lead] == 0:
        lead += 1
    if lead:
        offset += lead
        nums = nums[lead:]
    d = math.gcd(exp_den, offset, prec)
    for i, c in enumerate(nums):
        if d == 1:
            break
        if c:
            d = math.gcd(d, offset + i)
    if d > 1:
        nums = nums[::d]
        offset //= d
        prec //= d
        exp_den //= d
    return tuple(nums), offset, prec, exp_den


class QSeries:
    """Immutable truncated series over Z in one formal variable.

    Exponents are integers divided by ``exp_den``.  ``offset`` is the
    lowest stored exponent and ``prec`` the exclusive upper bound, both
    in units of ``1/exp_den``.  The coefficient of q^((offset + i)/exp_den)
    is the int ``nums[i]``, and ``nums`` has length ``prec - offset``.

    Instances are canonical: leading zero coefficients are absorbed into
    the offset and ``exp_den`` is reduced whenever the support, offset
    and precision bound allow it, so structural equality coincides with
    equality of (series, precision) pairs.
    """

    __slots__ = ("exp_den", "offset", "prec", "nums")

    def __init__(self, coeffs: Iterable[int], offset: int, prec: int,
                 exp_den: int = 1):
        if exp_den < 1:
            raise ValueError("exp_den must be a positive integer")
        if offset > prec:
            raise ValueError("offset must not exceed prec")
        cs = list(coeffs)
        n = prec - offset
        if len(cs) < n:
            cs.extend([0] * (n - len(cs)))
        elif len(cs) > n:
            del cs[n:]
        if not all(type(c) is int for c in cs):
            raise TypeError("QSeries coefficients must be ints")
        (self.nums, self.offset, self.prec,
         self.exp_den) = _canonical(cs, offset, prec, exp_den)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_ints(cls, nums: Sequence[int], offset: int, prec: int,
                  exp_den: int = 1) -> "QSeries":
        """The series with coefficients nums[i] from q^(offset/exp_den).

        nums must hold exactly prec - offset ints; the result is brought
        to canonical form.
        """
        f = cls.__new__(cls)
        f.nums, f.offset, f.prec, f.exp_den = _canonical(
            nums, offset, prec, exp_den)
        return f

    @classmethod
    def constant(cls, c: int, prec: int, exp_den: int = 1) -> "QSeries":
        return cls([c], 0, prec, exp_den)

    @classmethod
    def monomial(cls, c: int, e: int, prec: int,
                 exp_den: int = 1) -> "QSeries":
        """c * q^(e/exp_den), known up to exponent prec/exp_den."""
        return cls([c], e, prec, exp_den)

    # -- basic protocol --------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The stored coefficients, the same tuple as ``nums``."""
        return self.nums

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.exp_den == other.exp_den and self.offset == other.offset
                and self.prec == other.prec and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.exp_den, self.offset, self.prec, self.nums))

    def __bool__(self) -> bool:
        return bool(self.nums)  # canonical: a stored term is nonzero

    def terms(self) -> Iterator[tuple[Fraction, int]]:
        """Yield (exponent, coefficient) for each nonzero stored term."""
        from fractions import Fraction
        for i, c in enumerate(self.nums):
            if c != 0:
                yield Fraction(self.offset + i, self.exp_den), c

    def __repr__(self) -> str:
        parts = []
        for e, c in self.terms():
            parts.append(f"{c}*q^({e})")
        body = " + ".join(parts) if parts else "0"
        return (f"QSeries({body} + "
                f"O(q^({_fmt_ratio(self.prec, self.exp_den)})))")

    # -- rescaling helpers -----------------------------------------------

    def _upscaled(self, exp_den: int) -> tuple[int, int, Sequence[int]]:
        """Raw (offset, prec, nums) in units of 1/exp_den (a multiple).

        Returns plain data rather than a QSeries: the constructor would
        canonicalize the finer grid straight back down.
        """
        if exp_den % self.exp_den:
            raise ValueError("new exp_den must be a multiple of the old one")
        m = exp_den // self.exp_den
        if m == 1:
            return self.offset, self.prec, self.nums
        cs = [0] * ((self.prec - self.offset) * m)
        cs[::m] = self.nums
        return self.offset * m, self.prec * m, cs

    def truncate(self, prec: int) -> "QSeries":
        """Forget all terms at or above prec/exp_den (prec in self's units)."""
        if prec == self.prec:
            return self  # immutable and canonical
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend precision from {self.prec} to {prec}")
        n = max(0, prec - self.offset)
        return QSeries.from_ints(self.nums[:n], min(self.offset, prec), prec,
                                 self.exp_den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        """Sum on the common exponent grid.

        Each operand's coefficients below the common bound form one
        aligned run, placed by slice assignment: no Python step per
        coefficient.
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        exp_den = math.lcm(self.exp_den, other.exp_den)
        fo, fp, fn = self._upscaled(exp_den)
        go, gp, gn = other._upscaled(exp_den)
        offset = min(fo, go)
        prec = min(fp, gp)
        cs = [0] * (prec - offset)
        i, j = fo - offset, max(fo, prec) - offset
        cs[i:j] = fn[:j - i]  # the first run lands on zeros
        i, j = go - offset, max(go, prec) - offset
        cs[i:j] = map(add, cs[i:j], gn[:j - i])
        return QSeries.from_ints(cs, offset, prec, exp_den)

    def __neg__(self) -> "QSeries":
        return QSeries.from_ints([-c for c in self.nums], self.offset,
                                 self.prec, self.exp_den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c: int) -> "QSeries":
        """c times the series, for an int c."""
        if type(c) is not int:
            raise TypeError("a QSeries scalar must be an int")
        return QSeries.from_ints([c * a for a in self.nums], self.offset,
                                 self.prec, self.exp_den)

    def __mul__(self, other):
        """Product of two series, or of a series and an int scalar.

        The coefficient lists are multiplied by :func:`int_product`.
        """
        if not isinstance(other, QSeries):
            if type(other) is int:
                return self.scale(other)
            return NotImplemented
        exp_den = self.exp_den
        if other.exp_den == exp_den:
            fo, fp, fn = self.offset, self.prec, self.nums
            go, gp, gn = other.offset, other.prec, other.nums
        else:
            exp_den = math.lcm(exp_den, other.exp_den)
            fo, fp, fn = self._upscaled(exp_den)
            go, gp, gn = other._upscaled(exp_den)
        # unknown tails start at f.prec + g.offset and g.prec + f.offset
        prec = min(fp + go, gp + fo)
        offset = fo + go
        if not self or not other:
            return QSeries([], prec, prec, exp_den)
        return QSeries.from_ints(int_product(fn, gn, prec - offset),
                                 offset, prec, exp_den)

    __rmul__ = __mul__

    def invert(self) -> "QSeries":
        """Multiplicative inverse; the leading coefficient must be +-1.

        Any other leading coefficient would leave the integers, so it
        raises ArithmeticError.
        """
        if not self:
            raise ValueError("non-invertible series: zero leading coefficient")
        a = self.nums
        if a[0] not in (1, -1):
            raise ArithmeticError(
                f"leading coefficient {a[0]} is not a unit of the integers")
        n = len(a)
        b = [0] * n
        b[0] = a[0]  # 1/a0 = a0 for a unit
        for k in range(1, n):
            s = sum(a[j] * b[k - j] for j in range(1, k + 1) if a[j])
            b[k] = -s * a[0]
        return QSeries.from_ints(b, -self.offset, self.prec - 2 * self.offset,
                                 self.exp_den)

    def sqrt(self) -> "QSeries":
        """Square root with positive leading coefficient.

        The leading coefficient must be a perfect square, and every later
        step must divide exactly, or ArithmeticError is raised; if the
        leading exponent is odd in the current units, exp_den is doubled.
        """
        if not self:
            raise ValueError("square root of the zero series is ambiguous")
        a = self.nums
        b0 = math.isqrt(a[0]) if a[0] > 0 else 0
        if b0 * b0 != a[0]:
            raise ValueError(f"non-square leading coefficient: {a[0]} is "
                             f"not the square of a positive integer")
        n = len(a)
        b = [0] * n
        b[0] = b0
        for k in range(1, n):
            s = sum(b[j] * b[k - j] for j in range(1, k))
            b[k], rem = divmod(a[k] - s, 2 * b0)
            if rem:
                raise ArithmeticError(
                    f"square root: coefficient {k} is not an integer")
        if self.offset % 2 == 0:
            half = self.offset // 2
            return QSeries.from_ints(b, half, half + n, self.exp_den)
        # odd leading exponent: move to the doubled grid, where the unit
        # part keeps its stride of 2 and the interleaved terms are known
        # zeros
        cs = [0] * (2 * n)
        cs[::2] = b
        return QSeries.from_ints(cs, self.offset, self.offset + 2 * n,
                                 2 * self.exp_den)

    # -- coefficient access ----------------------------------------------

    def _check_bound(self, num: int, den: int) -> None:
        """Raise PrecisionError unless q^(num/den) is below the bound."""
        if num * self.exp_den >= self.prec * den:
            raise PrecisionError(
                f"coefficient of q^({_fmt_ratio(num, den)}) is beyond the "
                f"precision bound q^({_fmt_ratio(self.prec, self.exp_den)})")

    def coeff_at(self, e: int | Fraction) -> int:
        """Exact coefficient of q^e; errors past the precision bound.

        The exponent e is an int or a `Fraction`: anything with a
        numerator and a positive denominator.
        """
        num, den = e.numerator, e.denominator
        self._check_bound(num, den)
        u, r = divmod(num * self.exp_den, den)
        i = u - self.offset
        if r or i < 0:
            return 0
        return self.nums[i]

    def window(self, lo: int, hi: int, exp_den: int = 1) -> list[int]:
        """Coefficients at q^(j/exp_den) for lo <= j < hi.

        exp_den must be a multiple of the series' own.  Terms below the
        support read 0; one at or past the precision bound raises
        PrecisionError.
        """
        offset, _, nums = self._upscaled(exp_den)
        if hi > lo:
            self._check_bound(hi - 1, exp_den)
        pad = [0] * max(0, min(offset, hi) - lo)
        return pad + list(nums[max(0, lo - offset):max(0, hi - offset)])

    # -- exponent surgery ------------------------------------------------

    def slice(self, m: int, k: int) -> "QSeries":
        """Retain only the terms with exponent congruent to k mod m."""
        if m < 1:
            raise ValueError("modulus must be a positive integer")
        if self.exp_den != 1:
            raise ValueError("slice requires an integer-exponent series")
        first = (k - self.offset) % m  # index of the first kept term
        cs = [0] * len(self.nums)
        cs[first::m] = self.nums[first::m]
        return QSeries.from_ints(cs, self.offset, self.prec, 1)
