"""Tests for the intersection-theoretic tables and lattice arithmetic."""

import itertools
import random

import pytest

from ellcy import geometry, invariants
from ellcy.geometry import CurveClass, Gamma19Class

# Gram matrix of L1, L2 restricted to a K3 fibre: the polarizing lattice.
K3_GRAM = ((-2, 1), (1, 0))


def degrees(beta: CurveClass) -> tuple[int, int]:
    """(d1, d2) of a curve class: rows L1, L2 of the pairing table."""
    return tuple(row[0] * beta.c + row[1] * beta.f + row[2] * beta.e
                 for row in geometry.PAIRING[:2])


class TestPairing:
    def test_determinant(self):
        assert geometry._det(geometry.PAIRING) == -1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_is_the_leibniz_sum(self, n):
        def leibniz(m):
            total = 0
            for p in itertools.permutations(range(n)):
                term = (-1) ** sum(p[i] > p[j] for i in range(n)
                                   for j in range(i + 1, n))
                for i, j in enumerate(p):
                    term *= m[i][j]
                total += term
            return total

        rng = random.Random(n)
        for _ in range(200):  # entries in -3..3, so zeros come often
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert geometry._det(m) == leibniz(m)

    def test_det_with_a_zero_top_left_entry(self):
        # the case that needs a row swap under elimination
        assert geometry._det([[0, 1], [1, 0]]) == -1
        assert geometry._det([[0, 2, 1], [3, 0, 4], [5, 6, 0]]) == 58

    def test_table_entries(self):
        # rows L1, L2, L3; columns C, F, E
        table = geometry.PAIRING
        assert table[0][0] == -1  # <L1, C>
        assert table[2][2] == 0  # <L3, E>
        assert table[0][1] == -2  # <L1, F>
        assert table[1][1] == 1  # <L2, F>


class TestClassToDegrees:
    def test_fiber_family(self):
        for n in range(6):
            assert degrees(CurveClass(e=n, f=1)) == (n - 2, 1)

    def test_multifiber_family(self):
        for m in range(1, 4):
            for n in range(6):
                assert degrees(CurveClass(e=n, f=m)) == (n - 2 * m, m)

    def test_zero_class(self):
        assert degrees(CurveClass()) == (0, 0)

    def test_half_discriminant_is_the_fiber_row(self):
        # the degrees of mF + nE put its h = 0 half-discriminant at the
        # fibre row that both multifiber routes read
        for m in range(1, 8):
            for n in range(-2, 30):
                d1, d2 = degrees(CurveClass(e=n, f=m))
                assert geometry.nl_discriminant(0, d1, d2) // 2 == \
                    invariants.fiber_row(m, n), (m, n)


class TestPushforward:
    def test_fibre_class(self):
        fibre = Gamma19Class(3, (-1,) * 9)
        assert geometry.pushforward(fibre) == CurveClass(e=1)

    def test_section_class(self):
        c0 = Gamma19Class(0, (1, 0, 0, 0, 0, 0, 0, 0, 0))
        assert geometry.pushforward(c0) == CurveClass(c=1)

    def test_exceptional_curves(self):
        for i in range(1, 9):
            b = [0] * 9
            b[i] = 1
            assert geometry.pushforward(Gamma19Class(0, tuple(b))) == \
                CurveClass(c=1, e=1)

    def test_line_class(self):
        h = Gamma19Class(1, (0,) * 9)
        assert geometry.pushforward(h) == CurveClass(c=3, e=3)

    def test_orthogonal_complement_killed(self):
        # spanning set: b0 = 0 and 3a + sum b_i = 0
        samples = [Gamma19Class(1, (0, -3, 0, 0, 0, 0, 0, 0, 0)),
                   Gamma19Class(2, (0, -1, -1, -1, -1, -1, -1, 0, 0))]
        for i in range(1, 8):
            b = [0] * 9
            b[i], b[i + 1] = 1, -1
            samples.append(Gamma19Class(0, tuple(b)))
        for gamma in samples:
            assert geometry.pushforward(gamma) == CurveClass()

    def test_fiber_coordinate_always_zero(self):
        gamma = Gamma19Class(5, (2, -3, 1, 0, 4, 0, 0, 1, -2))
        assert geometry.pushforward(gamma).f == 0


class TestNLDiscriminant:
    def test_fiber_formula(self):
        for h in range(5):
            for n in range(-2, 6):
                assert geometry.nl_discriminant(h, n - 2, 1) == 2 * n - 2 * h

    def test_multifiber_formula(self):
        for h in range(4):
            for m in range(1, 4):
                for n in range(-2, 6):
                    assert geometry.nl_discriminant(h, n - 2 * m, m) == \
                        2 - 2 * h + 2 * n * m - 2 * m * m

    def test_closed_form_is_the_bordered_gram_determinant(self):
        # the definition: the K3 polarizing Gram matrix of L1, L2
        # bordered by (d1, d2, 2h - 2), and its determinant
        for h in range(7):
            for d1 in range(-6, 7):
                for d2 in range(-6, 7):
                    rows = [row + (d,) for row, d in zip(K3_GRAM, (d1, d2))]
                    bordered = rows + [(d1, d2, 2 * h - 2)]
                    assert geometry.nl_discriminant(h, d1, d2) == \
                        geometry._det(bordered)

    def test_origin(self):
        assert geometry.nl_discriminant(0, 0, 0) == 2

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="h must be non-negative"):
            geometry.nl_discriminant(-1, 0, 0)


class TestEulerCharacteristic:
    def test_degree_eight(self):
        data = geometry.euler_characteristic(8)
        assert data.deg_K_delta == 1056
        assert data.cusps == 192
        assert data.e_delta == -672
        assert data.e_X == -480

    def test_degree_one(self):
        data = geometry.euler_characteristic(1)
        assert (data.deg_K_delta, data.cusps, data.e_delta, data.e_X) == \
            (132, 24, -84, -60)

    def test_linear_in_l_squared(self):
        base = geometry.euler_characteristic(1)
        for k in range(2, 12):
            data = geometry.euler_characteristic(k)
            assert data.deg_K_delta == k * base.deg_K_delta
            assert data.cusps == k * base.cusps
            assert data.e_delta == k * base.e_delta
            assert data.e_X == k * base.e_X

    def test_definitional_identity(self):
        for k in (1, 3, 8, 17):
            data = geometry.euler_characteristic(k)
            assert data.e_X == data.e_delta + data.cusps

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometry.euler_characteristic(0)


class TestHodge:
    def test_consistency(self):
        assert geometry.hodge_consistency()


class TestLatticeGram:
    """Gram matrices of sublattices, as plain tuples of rows."""

    def test_gamma11_discriminant(self):
        # Gram of the sublattice spanned by C0 and 3H - sum C_i in the
        # diagonal form diag(1, -1, ..., -1)
        c0 = [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        fibre = [3] + [-1] * 9
        diag = [1] + [-1] * 9

        def dot(u, v):
            return sum(d * a * b for d, a, b in zip(diag, u, v))

        gram = ((dot(c0, c0), dot(c0, fibre)),
                (dot(fibre, c0), dot(fibre, fibre)))
        assert gram == ((-1, 1), (1, 0))
        assert abs(geometry._det(gram)) == 1


class TestValueClasses:
    """The tuple-based value classes keep their namedtuple behaviour."""

    def test_curve_class_construction_and_defaults(self):
        assert CurveClass() == CurveClass(0, 0, 0) == (0, 0, 0)
        beta = CurveClass(1, f=3)
        assert (beta.c, beta.e, beta.f) == (1, 0, 3)
        assert CurveClass(e=2) == CurveClass(0, 2) == CurveClass(c=0, e=2, f=0)

    def test_curve_class_keys_a_dict(self):
        table = {CurveClass(e=n, f=1): n for n in range(5)}
        assert table[CurveClass(0, 3, 1)] == 3
        assert hash(CurveClass(1, 2, 3)) == hash(CurveClass(c=1, e=2, f=3))
        assert CurveClass(1, 2, 3) != CurveClass(1, 2, 4)

    def test_curve_class_label(self):
        assert [CurveClass(*v).label() for v in
                ((0, 0, 0), (1, 0, 0), (1, 2, 0), (0, -1, 2), (2, 1, 1))] == \
            ["0", "C", "C+2E", "2F-E", "2C+F+E"]

    def test_curve_class_label_writes_minus_one_as_a_sign(self):
        # -1 is written as its sign alone, as 1 is written as nothing
        assert [CurveClass(*v).label() for v in
                ((0, -1, 0), (-1, 0, 0), (-1, -1, -1), (1, -1, 1),
                 (-2, 1, -1))] == \
            ["-E", "-C", "-C-F-E", "C+F-E", "-2C-F+E"]

    def test_gamma19_class(self):
        gamma = Gamma19Class(a=2, b=[1, 0, 0, 0, 0, 0, 0, 0, -1])
        assert gamma == Gamma19Class(2, (1, 0, 0, 0, 0, 0, 0, 0, -1))
        assert (gamma.a, gamma.b) == (2, (1, 0, 0, 0, 0, 0, 0, 0, -1))
        assert hash(gamma) == hash(Gamma19Class(2, (1,) + (0,) * 7 + (-1,)))
        with pytest.raises(ValueError, match="9 exceptional"):
            Gamma19Class(0, (1, 2))

    @pytest.mark.parametrize("a, b", [
        (0.5, (1.9,) + (0,) * 8), (0, (1.0,) + (0,) * 8),
        ("3", (0,) * 9), (0, ("1",) + (0,) * 8),
        (True, (0,) * 9), (0, (0,) * 8 + (False,))],
        ids=["float-a", "float-b", "str-a", "str-b", "bool-a", "bool-b"])
    def test_gamma19_class_refuses_non_ints(self, a, b):
        # b's entries were passed through int() and a was stored as given,
        # so Gamma19Class(0.5, (1.9, 0, ...)) pushed forward to 2.5C+1.5E
        with pytest.raises(TypeError, match="must be ints"):
            Gamma19Class(a, b)

    def test_euler_data(self):
        data = geometry.euler_characteristic(8)
        assert data == geometry.EulerData(8, 1056, 192, -672, -480)
        assert data == geometry.EulerData(l_squared=8, deg_K_delta=1056,
                                          cusps=192, e_delta=-672, e_X=-480)
        assert (data.l_squared, data.e_X) == (8, -480)

    def test_fail_details_name_the_classes(self, monkeypatch):
        # the FAIL details of pushforward-kernel and euler-hodge name the
        # class that survives by its namedtuple-style form and its image's
        # label, and the Euler data with the Hodge verdict
        from ellcy import checks
        monkeypatch.setattr(geometry, "pushforward",
                            lambda gamma: CurveClass(c=1))
        monkeypatch.setattr(geometry, "hodge_consistency", lambda: False)
        assert checks.check_pairs("pushforward-kernel",
                                  checks._pushforward_kernel).detail == (
            "n=0: pushforward of Gamma19Class(a=1, b=(0, -3, 0, 0, 0, 0, 0, "
            "0, 0)) C vs the zero class 0")
        assert checks.check_pairs("euler-hodge",
                                  checks._euler_hodge).detail == (
            "n=0: EulerData at L.L = 8, hodge_consistency() "
            "(8, 1056, 192, -672, -480, False) vs the paper "
            "(8, 1056, 192, -672, -480, True)")

    def test_check_result(self):
        from ellcy import checks
        res = checks.CheckResult("ring-laws", True)
        assert (res.name, res.passed, res.detail) == ("ring-laws", True, "")
        assert checks.CheckResult(name="x", passed=False, detail="d") == \
            checks.CheckResult("x", False, "d")
