"""Tests for the modular-form generators, each against an independent oracle."""

import hashlib
import io
import itertools
import math
from fractions import Fraction

import pytest

from ellcy import checks, cli, forms, series
from ellcy.series import QSeries


def dedekind_product_oracle(power: int, nterms: int) -> list[Fraction]:
    """Brute-force expansion of prod_{n>=1} (1 - q^n)^power.

    Independent of forms.eta_power: plain nested polynomial products.
    """
    cs = [Fraction(0)] * nterms
    cs[0] = Fraction(1)
    for n in range(1, nterms):
        factor = [Fraction(0)] * nterms
        factor[0] = Fraction(1)
        if n < nterms:
            factor[n] = Fraction(-1)
        for _ in range(power):
            out = [Fraction(0)] * nterms
            for i, a in enumerate(cs):
                if a == 0:
                    continue
                for j in range(0, nterms - i, n):
                    if factor[j] != 0:
                        out[i + j] += a * factor[j]
            cs = out
    return cs


def four_loop_half_profiles(parity: int,
                            bound: int) -> dict[tuple[int, int], int]:
    """4-tuples of integers of one parity by (norm, sum mod 4), norm <= bound.

    Four nested loops over the doubled coordinates y = 2x, pruned only by
    the running norm; the E8 oracle below pairs two of these halves.
    """
    lim = math.isqrt(bound)
    vals = [y for y in range(-lim, lim + 1) if y % 2 == parity]
    counts: dict[tuple[int, int], int] = {}
    for y1 in vals:
        n1 = y1 * y1
        for y2 in vals:
            n2 = n1 + y2 * y2
            if n2 > bound:
                continue
            for y3 in vals:
                n3 = n2 + y3 * y3
                if n3 > bound:
                    continue
                for y4 in vals:
                    n4 = n3 + y4 * y4
                    if n4 > bound:
                        continue
                    key = (n4, (y1 + y2 + y3 + y4) % 4)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def all_pairs_e8_norm_counts(max_half_norm: int) -> tuple[int, ...]:
    """E8 vector counts by norm, pairing every two half profiles.

    Independent of forms.theta_e8, which raises theta series with the
    eta power recurrence: enumerates the halves of each vector and visits
    every pair of (norm, sum mod 4) keys, keeping those whose norm is
    0 mod 8 and whose sum is 0 mod 4.
    """
    bound = 8 * max_half_norm
    counts = [0] * (max_half_norm + 1)
    for parity in (0, 1):
        halves = four_loop_half_profiles(parity, bound)
        for (na, sa), ca in halves.items():
            for (nb, sb), cb in halves.items():
                if (na + nb) % 8 or (sa + sb) % 4:
                    continue
                m = (na + nb) // 8
                if m <= max_half_norm:
                    counts[m] += ca * cb
    return tuple(counts)


def box_half_profiles(parity: int, bound: int) -> dict[tuple[int, int], int]:
    """The same table as four_loop_half_profiles, from the whole 4-dim box.

    No pruning: every 4-tuple of the box of half-width isqrt(bound) is
    visited and kept when its norm is at most bound.
    """
    lim = math.isqrt(bound)
    vals = [y for y in range(-lim, lim + 1) if y % 2 == parity]
    counts: dict[tuple[int, int], int] = {}
    for ys in itertools.product(vals, repeat=4):
        n = sum(y * y for y in ys)
        if n <= bound:
            key = (n, sum(ys) % 4)
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestEtaPower:
    def test_eta24_against_product_oracle(self):
        # eta_power is the product alone, from q^0; `series delta` prints
        # Delta, q times it, from q^1
        oracle = dedekind_product_oracle(24, 8)
        d = forms.eta_power(24, 8)
        out = io.StringIO()
        assert cli.main(["series", "delta", "--prec", "8"], out=out) == 0
        assert out.getvalue() == "".join(f"{i + 1}\t{c}\n"
                                         for i, c in enumerate(oracle))
        for i, c in enumerate(oracle):
            assert d.coeff_at(i) == c

    def test_eta24_first_terms(self):
        d = forms.eta_power(24, 4)
        assert [d.coeff_at(n) for n in range(4)] == [1, -24, 252, -1472]
        assert d == QSeries([1, -24, 252, -1472], 4)

    def test_inverse_delta_known_values(self):
        # Delta * (1/Delta) = 1, by a double loop over the two coefficient
        # lists of eta^24 and eta^-24, whose shifts q and q^-1 cancel; the
        # known values pin 1/Delta
        d, inv = forms.eta_power(24, 5), forms.eta_power(-24, 5)
        assert inv.coeffs[:4] == (1, 24, 324, 3200)
        n = len(d.coeffs)
        prod = [0] * n
        for i, a in enumerate(d.coeffs):
            for j, b in enumerate(inv.coeffs[:n - i]):
                prod[i + j] += a * b
        assert prod == [1] + [0] * (n - 1)

    def test_eta12_half_integer_exponents(self):
        # eta^12 = q^(1/2) prod (1 - q^n)^12 has the exponents i + 1/2;
        # eta_power keeps the product alone, its q^(i + 1/2) term at q^i
        s = forms.eta_power(12, 5)
        assert s.prec == 5
        assert list(s.coeffs) == dedekind_product_oracle(12, 5)

    def test_eta12_squared_is_eta24(self):
        lhs = forms.eta_power(12, 6) * forms.eta_power(12, 6)
        rhs = forms.eta_power(24, 6)
        p = min(lhs.prec, rhs.prec)
        assert lhs.coeffs[:p] == rhs.coeffs[:p]

    def test_sqrt_delta_matches_eta12(self):
        # Delta/q = prod (1 - q^n)^24 has an even leading exponent, so its
        # square root stays on the integer grid; that root with a positive
        # lead is unique, so eta^12 (lead 1) is it iff its square, by a
        # double loop, is eta^24
        s = forms.eta_power(12, 6).coeffs
        t = forms.eta_power(24, 6).coeffs
        square = [sum(s[i] * s[k - i] for i in range(k + 1))
                  for k in range(6)]
        assert s[0] == 1 and square == list(t)

    @pytest.mark.parametrize("e", [-24, -12, -2, 2, 8, 12, 24])
    def test_every_power_from_q0(self, e):
        # the integer grid: every power from q^0 with nterms terms; only
        # the CLI's series table prints a shift
        s = forms.eta_power(e, 7)
        assert (s.prec, len(s.coeffs), s.coeffs[0]) == (7, 7, 1)
        if e > 0:
            assert list(s.coeffs) == dedekind_product_oracle(e, 7)

    def test_shifted_generators(self):
        # Delta, 1/Delta and the Bryan-Leung q^(1/2)/sqrt(Delta) are eta
        # powers as stored, printed at q^1, q^-1 and q^(-1/2) by the table
        for name, e, den, first in (("delta", 24, 1, 1),
                                    ("inv-delta", -24, 1, -1),
                                    ("inv-sqrt-delta", -12, 2, -1)):
            generator, *shift = cli._SERIES[name]
            assert generator(9) == forms.eta_power(e, 9)
            assert shift == [den, first]
        assert forms.eta_power(-12, 3) == QSeries([1, 12, 90], 3)

    def test_odd_exponents_jacobi_and_euler(self):
        # prod (1 - q^n)^3 is Jacobi's series, and prod (1 - q^n) is
        # Euler's: +-1 at the generalised pentagonal numbers k(3k - 1)/2,
        # with sign (-1)^k, and 0 elsewhere
        assert forms.eta_power(3, 40) == checks._jacobi_cube(40)
        pentagonal = {k * (3 * k - 1) // 2: (-1) ** k
                      for k in range(-10, 11)}
        euler = forms.eta_power(1, 60)
        assert euler.prec == 60
        assert [euler.coeff_at(n) for n in range(60)] == \
            [pentagonal.get(n, 0) for n in range(60)]

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            forms.eta_power(0, 4)

    @pytest.mark.parametrize("e", [12, 24])
    def test_recurrence_matches_product_oracle(self, e):
        s = forms.eta_power(e, 20)
        for i, c in enumerate(dedekind_product_oracle(e, 20)):
            assert s.coeff_at(i) == c

    @pytest.mark.parametrize("e", [12, 24])
    def test_negative_power_is_inverse(self, e):
        prod = forms.eta_power(e, 30) * forms.eta_power(-e, 30)
        assert prod == QSeries([1], prod.prec)
        assert prod.prec == 30

    def test_inverse_delta_by_recurrence_known_values(self):
        assert forms.eta_power(-24, 4) == QSeries([1, 24, 324, 3200], 4)

    def test_ramanujan_tau_at_200_terms(self):
        # tau(n) is the coefficient of q^n in Delta, of q^(n-1) in eta^24
        d = forms.eta_power(24, 200)
        tau = {n: d.coeff_at(n - 1) for n in range(1, 201)}
        assert tau[1] == 1
        for m in range(2, 201):
            for n in range(m + 1, 200 // m + 1):
                if math.gcd(m, n) == 1:
                    assert tau[m * n] == tau[m] * tau[n]
        for p in (2, 3, 5, 7, 11, 13):
            assert tau[p * p] == tau[p] ** 2 - p ** 11

    def test_inexact_step_raises(self):
        # an integer base with a_0 = 1 has integer powers, so the exact
        # step is shown on a rational power: sqrt(1 + 2q) = 1 + q - q^2/2
        # + ..., whose q^2 coefficient the shared recurrence must refuse
        # rather than floor
        with pytest.raises(ArithmeticError, match="coefficient 2 "):
            forms._sparse_power([(1, 2)], Fraction(1, 2), 4)
        # negative quotients are exact: 1/(1 + 2q) = sum (-2)^n q^n
        assert forms._sparse_power([(1, 2)], -1, 5) == \
            QSeries([1, -2, 4, -8, 16], 5)


class TestTwoEtaGenerators:
    """Powers of the pentagonal series (closed side) and of Jacobi's cube."""

    @pytest.mark.parametrize("e", [1, -1, 2, -2, 3, -3, 6, -6, 8, -8, 12,
                                   -12, 24, -24])
    def test_equal_at_1000_terms(self, e):
        # Jacobi's generator takes only multiples of 3; for the other e,
        # the cube of eta^e is J^e
        if e % 3 == 0:
            assert forms.eta_power(e, 1000) == forms.eta_power_jacobi(e, 1000)
        else:
            f = forms.eta_power(e, 1000)
            assert f * f * f == forms.eta_power_jacobi(3 * e, 1000)

    @pytest.mark.parametrize("e", [3, 6, 12, 24])
    def test_jacobi_matches_product_oracle(self, e):
        s = forms.eta_power_jacobi(e, 20)
        assert list(s.coeffs) == dedekind_product_oracle(e, 20)

    @pytest.mark.parametrize("e, nterms", [(0, 4), (0, 1), (24, 0),
                                           (-12, -1)])
    def test_same_errors(self, e, nterms):
        errors = []
        for eta in (forms.eta_power, forms.eta_power_jacobi):
            with pytest.raises(ValueError) as exc:
                eta(e, nterms)
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("e", [1, -1, 2, -2])
    def test_jacobi_refuses_non_multiples_of_3(self, e):
        with pytest.raises(ValueError, match="multiple of 3"):
            forms.eta_power_jacobi(e, 4)


class TestSigma:
    def test_hand_values(self):
        assert forms.sigma(9, 1) == 1
        assert forms.sigma(9, 2) == 513
        assert forms.sigma(3, 4) == 73

    def test_brute_force_agreement(self):
        for n in range(1, 40):
            for k in (1, 3, 5, 9):
                brute = sum(d ** k for d in range(1, n + 1) if n % d == 0)
                assert forms.sigma(k, n) == brute

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            forms.sigma(3, 0)

    def test_prime_square_and_large_factored(self, monkeypatch):
        # prime powers multiply out exactly, and sigma never reads the
        # sieve, so that E4 * E6 and sigma_9 stay independent
        monkeypatch.setattr(forms, "divisor_sums", None)
        p = 1000003
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        primes = (3, 43, 2347, 6605827)
        assert math.prod(primes) == 2 * 10 ** 12 + 1
        for k in (1, 3, 9):
            assert forms.sigma(k, p * p) == 1 + p ** k + p ** (2 * k)
            assert forms.sigma(k, 2 * 10 ** 12 + 1) == \
                math.prod(1 + q ** k for q in primes)


class TestDivisorSums:
    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_sieve_matches_trial_division(self, k):
        sums = forms.divisor_sums(k, 3000)
        assert sums[0] == 0
        assert sums[1:] == [forms.sigma(k, n) for n in range(1, 3000)]

    def test_short_lengths(self):
        assert forms.divisor_sums(3, 0) == []
        assert forms.divisor_sums(3, 1) == [0]
        assert forms.divisor_sums(3, 2) == [0, 1]

    def test_sieve_without_n_itself_is_detected(self, monkeypatch):
        real = forms.divisor_sums

        def proper_divisor_sums(k, n):
            return [s - m ** k if m else 0 for m, s in enumerate(real(k, n))]

        monkeypatch.setattr(forms, "divisor_sums", proper_divisor_sums)
        # E4 and E6 are wrong; the lattice count and the trial-division
        # oracle see it, and no eta power reads the sieve
        results = checks.run_checks(6)
        assert len(results) == 15
        failed = {r.name for r in results if not r.passed}
        assert {"theta-e8-equals-e4", "e10-sigma9"} <= failed
        assert forms.eta_power_jacobi(-24, 50) == forms.eta_power(-24, 50)


class TestEisenstein:
    def test_e4_first_terms(self):
        e4 = forms.eisenstein(4, 3)
        assert (e4.prec, e4.coeffs) == (3, (1, 240, 2160))

    def test_e6_first_terms(self):
        e6 = forms.eisenstein(6, 3)
        assert e6.coeff_at(0) == 1
        assert e6.coeff_at(1) == -504
        assert e6.coeff_at(2) == -504 * 33

    def test_e10_known_values(self):
        e10 = forms.eisenstein(10, 3)
        assert (e10.prec, e10.coeffs) == (3, (1, -264, -135432))

    def test_e10_is_product_of_e4_e6(self):
        lhs = forms.eisenstein(10, 10)
        rhs = forms.eisenstein(4, 10) * forms.eisenstein(6, 10)
        assert lhs == rhs

    def test_e10_sigma9_oracle(self):
        e10 = forms.eisenstein(10, 21)
        for n in range(1, 21):
            assert e10.coeff_at(n) == -264 * forms.sigma(9, n)

    def test_e10_coefficient_matches_product(self):
        # below the support, the constant term and 300 terms of E4 * E6
        e10 = forms.eisenstein(4, 300) * forms.eisenstein(6, 300)
        for k in range(-5, 300):
            assert forms.e10_coefficient(k) == e10.coeff_at(k), k

    def test_unsupported_weight(self):
        with pytest.raises(ValueError):
            forms.eisenstein(8, 4)


class TestThetaE8:
    def test_zero_vector_only(self):
        assert forms.theta_e8(1).coeff_at(0) == 1

    def test_root_count(self):
        assert forms.theta_e8(2).coeff_at(1) == 240

    def test_half_profiles_by_direct_box_enumeration(self):
        # oracle: walk the 4-dim box in doubled coordinates directly
        for parity in (0, 1):
            profiles = four_loop_half_profiles(parity, 8)
            direct: dict[tuple[int, int], int] = {}
            vals = [y for y in range(-3, 4) if y % 2 == parity]
            for y1 in vals:
                for y2 in vals:
                    for y3 in vals:
                        for y4 in vals:
                            n = y1**2 + y2**2 + y3**2 + y4**2
                            if n <= 8:
                                key = (n, (y1 + y2 + y3 + y4) % 4)
                                direct[key] = direct.get(key, 0) + 1
            assert profiles == direct

    @pytest.mark.parametrize("parity", [0, 1])
    def test_half_profiles_match_four_loop(self, parity):
        for bound in range(0, 81):
            assert box_half_profiles(parity, bound) == \
                four_loop_half_profiles(parity, bound)

    @pytest.mark.parametrize("cs", [
        [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0],  # theta_3
        [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1],  # sum_j p^(T_j)
        [1, 1] + [0] * 8, [1, 0, 3, -1, 2, 0], [1, -1, 0, 0, 5], [1]])
    def test_eighth_power_matches_double_loop(self, cs):
        # theta_e8's two 8th powers come from the recurrence, which needs
        # the constant term 1 that both theta bases have
        power = [1] + [0] * (len(cs) - 1)
        for _ in range(8):
            power = [sum(power[i] * cs[k - i] for i in range(k + 1))
                     for k in range(len(cs))]
        terms = [(k, a) for k, a in enumerate(cs) if k and a]
        assert list(forms._sparse_power(terms, 8, len(cs)).coeffs) == power

    def test_norm_counts_match_all_pairs(self):
        for max_half_norm in list(range(0, 41)) + [199]:
            assert forms.theta_e8(max_half_norm + 1).coeffs == \
                all_pairs_e8_norm_counts(max_half_norm)

    def test_equals_e4_to_16_terms(self):
        assert forms.theta_e8(16) == forms.eisenstein(4, 16)

    def test_not_an_alias_of_eisenstein(self, monkeypatch):
        # corrupt the Eisenstein generator; the theta series must be
        # unaffected, proving it is computed by enumeration
        def poisoned(k, nterms):
            raise AssertionError("theta_e8 must not call eisenstein")

        monkeypatch.setattr(forms, "eisenstein", poisoned)
        assert forms.theta_e8(5).coeff_at(4) == 240 * forms.sigma(3, 4)


def test_no_generator_multiplies(monkeypatch):
    # every eta and theta power comes from the one sparse recurrence, so
    # the product kernel is left to the routes and the checks
    def refused(f, g, n):
        raise AssertionError("a generator called the product kernel")

    monkeypatch.setattr(series, "int_product", refused)
    built = {"eta_power": forms.eta_power(-24, 50),
             "eta_power_jacobi": forms.eta_power_jacobi(-12, 50),
             "eisenstein": forms.eisenstein(10, 50),
             "theta_e8": forms.theta_e8(50)}
    assert set(built) == {
        name for name, fn in vars(forms).items()
        if not name.startswith("_") and callable(fn)
        and getattr(fn, "__annotations__", {}).get("return") is QSeries}
    assert all(f.prec == 50 for f in built.values())
    out = io.StringIO()
    assert cli.main(["series", "theta-e8", "--prec", "50"], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        "edc53a8bc490bc25356e1bb372d3a7421d692c8164cf4fb6bd0f4dedffcad7da"


class TestYauZaslow:
    # the reduced genus-0 K3 invariant r_h is the coefficient of q^h in
    # the Jacobi eta^-24, q/Delta, which the NL sum multiplies
    def test_known_values(self):
        r = forms.eta_power_jacobi(-24, 4).coeffs
        assert r[0] == 1
        assert r[1] == 24
        assert r[2] == 324
        assert r[3] == 3200

    def test_positive_integers_up_to_20(self):
        r = forms.eta_power_jacobi(-24, 21).coeffs
        for h in range(21):
            v = r[h]
            assert type(v) is int
            assert v > 0

    def test_out_of_range(self):
        r = forms.eta_power_jacobi(-24, 6).coeffs
        with pytest.raises(IndexError):
            r[6]
