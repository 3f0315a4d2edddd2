"""Truncated Laurent/Puiseux series with exact rational coefficients.

A :class:`QSeries` stores finitely many coefficients of a formal series
sum a_e q^e, where the exponents e run over (1/exp_den)Z.  Every series
carries an explicit precision bound: all coefficients of exponents below
``prec / exp_den`` are exact, everything at or above it is unknown.  All
arithmetic propagates precision pessimistically, so a coefficient that a
QSeries reports is always correct; asking for one beyond the bound raises
:class:`PrecisionError` rather than silently returning zero.

Coefficients are `fractions.Fraction` throughout; there is no floating
point anywhere in this module.  The product is one exact big-integer
multiplication: each factor is brought to integer coefficients, and
:func:`int_product` packs both into single Python ints by Kronecker
substitution, multiplies them once and reads the product's slots back.
The generators that work on plain integer coefficient lists (the E8
theta powers) call :func:`int_product` directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction

Rational = int | Fraction


class PrecisionError(ValueError):
    """A coefficient at or beyond the known-precision bound was requested."""


def _sqrt_fraction(c: Fraction) -> Fraction:
    """Exact positive square root of a rational, or raise ValueError."""
    if c <= 0:
        raise ValueError(f"{c} is not a positive rational square")
    num, den = c.numerator, c.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{c} is not the square of a rational")
    return Fraction(rn, rd)


def _int_scale(cs: list[Fraction]) -> tuple[int, list[int]]:
    """lcm L of the denominators of cs, and the integers L*c."""
    lcm = math.lcm(*(c.denominator for c in cs))
    return lcm, [c.numerator * (lcm // c.denominator) for c in cs]


def _pack(cs: list[int], width: int) -> int:
    """sum of cs[i] * 2^(8*width*i), each |cs[i]| < 2^(8*width-2).

    Slots hold two's complement; a slot written negative borrows one
    from the slot above, and the top slot's sign is the sum's.
    """
    buf = bytearray(width * len(cs))
    borrow = 0
    for i, c in enumerate(cs):
        v = c - borrow
        buf[i * width:(i + 1) * width] = v.to_bytes(width, "little",
                                                    signed=True)
        borrow = v < 0
    return int.from_bytes(buf, "little", signed=True)


def int_product(f: list[int], g: list[int], n: int) -> list[int]:
    """First n coefficients of the product of two integer polynomials.

    Signed Kronecker substitution (Harvey, J. Symb. Comp. 2009): f and g
    are packed into one Python int each, with slots wide enough that no
    product coefficient overflows its slot, multiplied once, and the
    first n slots of the product are read back exactly.
    """
    f, g = f[:n], g[:n]
    if not f or not g:
        return [0] * n
    fbits = max(map(abs, f)).bit_length()
    gbits = max(map(abs, g)).bit_length()
    # |product coefficient| < n * max|f| * max|g|; two spare bits keep
    # it inside the signed slot
    width = (fbits + gbits + n.bit_length() + 2 + 7) // 8
    nbytes = width * n
    # read the first n slots in two's complement: a slot that reads
    # negative took one from the slot above, which reads one too low
    raw = ((_pack(f, width) * _pack(g, width))
           & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
    out = []
    borrow = 0
    for i in range(0, nbytes, width):
        v = int.from_bytes(raw[i:i + width], "little", signed=True)
        out.append(v + borrow)
        borrow = v < 0
    return out


class QSeries:
    """Immutable truncated series over Q in one formal variable.

    Exponents are integers divided by ``exp_den``.  ``offset`` is the
    lowest stored exponent and ``prec`` the exclusive upper bound, both
    in units of ``1/exp_den``; ``coeffs`` has length ``prec - offset``.

    Instances are canonical: leading zero coefficients are absorbed into
    the offset and ``exp_den`` is reduced whenever the support, offset
    and precision bound allow it, so structural equality coincides with
    equality of (series, precision) pairs.
    """

    __slots__ = ("exp_den", "offset", "prec", "coeffs")

    def __init__(self, coeffs: Iterable[Rational], offset: int, prec: int,
                 exp_den: int = 1):
        if exp_den < 1:
            raise ValueError("exp_den must be a positive integer")
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if offset > prec:
            raise ValueError("offset must not exceed prec")
        n = prec - offset
        if len(cs) < n:
            cs.extend([Fraction(0)] * (n - len(cs)))
        elif len(cs) > n:
            cs = cs[:n]
        # canonical form: absorb leading zeros into the offset
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        offset += lead
        cs = cs[lead:]
        # reduce exp_den when offset, prec and the support permit
        d = math.gcd(exp_den, offset, prec)
        for i, c in enumerate(cs):
            if d == 1:
                break
            if c != 0:
                d = math.gcd(d, offset + i)
        if d > 1:
            cs = cs[::d]
            offset //= d
            prec //= d
            exp_den //= d
        self.exp_den = exp_den
        self.offset = offset
        self.prec = prec
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, prec: int, exp_den: int = 1) -> "QSeries":
        return cls([], prec, prec, exp_den)

    @classmethod
    def constant(cls, c: Rational, prec: int, exp_den: int = 1) -> "QSeries":
        return cls([c], 0, prec, exp_den)

    @classmethod
    def monomial(cls, c: Rational, e: int, prec: int,
                 exp_den: int = 1) -> "QSeries":
        """c * q^(e/exp_den), known up to exponent prec/exp_den."""
        return cls([c], e, prec, exp_den)

    # -- basic protocol --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.exp_den == other.exp_den and self.offset == other.offset
                and self.prec == other.prec and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.exp_den, self.offset, self.prec, self.coeffs))

    def __bool__(self) -> bool:
        return any(c != 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return not self

    def terms(self) -> Iterator[tuple[Fraction, Fraction]]:
        """Yield (exponent, coefficient) for each nonzero stored term."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield Fraction(self.offset + i, self.exp_den), c

    def __repr__(self) -> str:
        parts = []
        for e, c in self.terms():
            parts.append(f"{c}*q^({e})")
        body = " + ".join(parts) if parts else "0"
        return f"QSeries({body} + O(q^({Fraction(self.prec, self.exp_den)})))"

    # -- rescaling helpers -----------------------------------------------

    def _upscaled(self, exp_den: int) -> tuple[int, int, list[Fraction]]:
        """Raw (offset, prec, coeffs) in units of 1/exp_den (a multiple).

        Returns plain data rather than a QSeries: the constructor would
        canonicalize the finer grid straight back down.
        """
        if exp_den % self.exp_den:
            raise ValueError("new exp_den must be a multiple of the old one")
        m = exp_den // self.exp_den
        if m == 1:
            return self.offset, self.prec, list(self.coeffs)
        cs = [Fraction(0)] * ((self.prec - self.offset) * m)
        cs[::m] = self.coeffs
        return self.offset * m, self.prec * m, cs

    def truncate(self, prec: int) -> "QSeries":
        """Forget all terms at or above prec/exp_den (prec in self's units)."""
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend precision from {self.prec} to {prec}")
        n = max(0, prec - self.offset)
        return QSeries(self.coeffs[:n], min(self.offset, prec), prec,
                       self.exp_den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        den = self.exp_den * other.exp_den // math.gcd(self.exp_den,
                                                       other.exp_den)
        fo, fp, fc = self._upscaled(den)
        go, gp, gc = other._upscaled(den)
        offset = min(fo, go)
        prec = min(fp, gp)
        cs = [Fraction(0)] * (prec - offset)
        for so, sc in ((fo, fc), (go, gc)):
            for i, c in enumerate(sc):
                j = so + i - offset
                if j < len(cs):
                    cs[j] += c
        return QSeries(cs, offset, prec, den)

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], self.offset, self.prec,
                       self.exp_den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c: Rational) -> "QSeries":
        c = Fraction(c)
        if c == 0:
            return QSeries.zero(self.prec, self.exp_den)
        return QSeries([c * a for a in self.coeffs], self.offset, self.prec,
                       self.exp_den)

    def __mul__(self, other):
        """Product of two series, or of a series and a rational scalar.

        Both factors are scaled to integers by the lcm of their
        coefficient denominators and multiplied by :func:`int_product`;
        the result is divided back to `Fraction`.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        den = self.exp_den * other.exp_den // math.gcd(self.exp_den,
                                                       other.exp_den)
        fo, fp, fc = self._upscaled(den)
        go, gp, gc = other._upscaled(den)
        # unknown tails start at f.prec + g.offset and g.prec + f.offset
        prec = min(fp + go, gp + fo)
        offset = fo + go
        if self.is_zero() or other.is_zero():
            return QSeries.zero(prec, den)
        n = prec - offset
        fl, fi = _int_scale(fc[:n])
        gl, gi = _int_scale(gc[:n])
        cs = int_product(fi, gi, n)
        scale = fl * gl
        if scale != 1:
            cs = [Fraction(v, scale) for v in cs]
        return QSeries(cs, offset, prec, den)

    __rmul__ = __mul__

    def invert(self) -> "QSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if self.is_zero():
            raise ValueError("non-invertible series: zero leading coefficient")
        a = self.coeffs
        n = len(a)
        b = [Fraction(0)] * n
        b[0] = 1 / a[0]
        for k in range(1, n):
            s = sum(a[j] * b[k - j] for j in range(1, k + 1) if a[j] != 0)
            b[k] = -s / a[0]
        return QSeries(b, -self.offset, self.prec - 2 * self.offset,
                       self.exp_den)

    def sqrt(self) -> "QSeries":
        """Square root with positive leading coefficient.

        The leading coefficient must be a rational square; if the leading
        exponent is odd in the current units, exp_den is doubled.
        """
        if self.is_zero():
            raise ValueError("square root of the zero series is ambiguous")
        a = self.coeffs
        try:
            b0 = _sqrt_fraction(a[0])
        except ValueError as exc:
            raise ValueError(f"non-square leading coefficient: {exc}") from exc
        n = len(a)
        b = [Fraction(0)] * n
        b[0] = b0
        for k in range(1, n):
            s = sum(b[j] * b[k - j] for j in range(1, k))
            b[k] = (a[k] - s) / (2 * b0)
        if self.offset % 2 == 0:
            half = self.offset // 2
            return QSeries(b, half, half + n, self.exp_den)
        # odd leading exponent: move to the doubled grid, where the unit
        # part keeps its stride of 2 and the interleaved terms are known
        # zeros
        cs = [Fraction(0)] * (2 * n)
        cs[::2] = b
        return QSeries(cs, self.offset, self.offset + 2 * n,
                       2 * self.exp_den)

    # -- coefficient access ----------------------------------------------

    def coeff_at(self, e: Rational) -> Fraction:
        """Exact coefficient of q^e; errors past the precision bound."""
        e = Fraction(e)
        if e >= Fraction(self.prec, self.exp_den):
            raise PrecisionError(
                f"coefficient of q^({e}) is beyond the precision bound "
                f"q^({Fraction(self.prec, self.exp_den)})")
        u = e * self.exp_den
        if u.denominator != 1:
            return Fraction(0)
        i = int(u) - self.offset
        if i < 0:
            return Fraction(0)
        return self.coeffs[i]

    # -- exponent surgery ------------------------------------------------

    def slice(self, m: int, k: int) -> "QSeries":
        """Retain only the terms with exponent congruent to k mod m."""
        if m < 1:
            raise ValueError("modulus must be a positive integer")
        if self.exp_den != 1:
            raise ValueError("slice requires an integer-exponent series")
        k %= m
        cs = [c if (self.offset + i) % m == k else Fraction(0)
              for i, c in enumerate(self.coeffs)]
        return QSeries(cs, self.offset, self.prec, 1)

