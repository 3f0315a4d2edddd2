"""Acceptance suite: every headline criterion at its stated bound.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output).  All numeric comparisons are exact; runtime bounds are
asserted with wall-clock measurements.
"""

import io
import time
from fractions import Fraction

import pytest

from ellcy import checks, forms, invariants, series
from ellcy.cli import main
from test_invariants import classes


def run_cli(argv, limit_seconds):
    out = io.StringIO()
    start = time.perf_counter()
    code = main(argv, out=out)
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, \
        f"{argv} took {elapsed:.2f}s (limit {limit_seconds}s)"
    return code, out.getvalue()


def report(criterion, ok):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_inverse_delta_series():
    code, text = run_cli(["series", "inv-delta", "--prec", "4"], 1.0)
    ok = code == 0 and text == "-1\t1\n0\t24\n1\t324\n2\t3200\n"
    report("1 (series inv-delta)", ok)


def test_criterion_2_e10_series():
    code, text = run_cli(["series", "e10", "--prec", "3"], 1.0)
    ok = code == 0 and text == "0\t1\n1\t-264\n2\t-135432\n"
    report("2 (series e10)", ok)


def test_criterion_3_fiber_closed():
    code, text = run_cli(["gv", "fiber", "--prec", "4", "--method", "closed"],
                         1.0)
    values = [line.split("\t")[2] for line in text.splitlines()]
    ok = code == 0 and values == ["-2", "480", "282888", "17058560"]
    report("3 (gv fiber closed)", ok)


def test_criterion_4_section():
    code, text = run_cli(["gv", "section", "--prec", "4"], 1.0)
    values = [line.split("\t")[2] for line in text.splitlines()]
    ok = code == 0 and values == ["1", "252", "5130", "54760"]
    # row n is entry n of the route
    ok = ok and (invariants.gv_table("section", "closed", 4)
                 == [1, 252, 5130, 54760])
    report("4 (gv section)", ok)


def test_criterion_5_nl_origin():
    code, text = run_cli(["nl", "--h", "0", "--d1", "0", "--d2", "0"], 1.0)
    ok = code == 0 and text == "1056\n"
    report("5 (nl 0;0,0)", ok)


def test_criterion_6_euler():
    code, text = run_cli(["euler"], 1.0)
    lines = text.splitlines()
    ok = (code == 0
          and lines[0] == "deg K_Delta\t1056"
          and lines[1] == "cusps\t192"
          and lines[2] == "e(Delta)\t-672"
          and lines[3] == "e(X)\t-480"
          and "2(3-243) = -480" in lines[4]
          and lines[4].endswith("consistent"))
    report("6 (euler + hodge)", ok)


def test_criterion_7_dual_routes():
    start = time.perf_counter()
    fiber_ok = (invariants.gv_table("fiber", "closed", 21)
                == invariants.gv_table("fiber", "direct", 21))

    section_ok = (invariants.gv_table("section", "closed", 20)
                  == invariants.gv_table("section", "direct", 20))

    multi_ok = True
    for m, nmax in ((2, 16), (3, 12)):  # 15 resp. 10 q-terms
        multi_ok = multi_ok and (
            classes("closed", m, nmax) == classes("direct", m, nmax))

    elapsed = time.perf_counter() - start
    ok = fiber_ok and section_ok and multi_ok and elapsed < 60.0
    report("7 (dual-route oracles)", ok)


def test_criterion_8_theta_equals_e4():
    start = time.perf_counter()
    ok = forms.theta_e8(16) == forms.eisenstein(4, 16)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("8 (theta-e8 = e4 to 16 terms)", ok)


def test_criterion_9_integrality():
    values = invariants.gv_table("fiber", "closed", 21)
    section_values = invariants.gv_table("section", "closed", 20)
    values += section_values
    for m, nmax in ((2, 16), (3, 12)):
        values += classes("direct", m, nmax)
    ok = all(Fraction(v).denominator == 1 for v in values)
    # every section count is positive, so the stream is not read off-grid
    ok = ok and all(v > 0 for v in section_values)
    report("9 (GV integrality)", ok)


def test_criterion_10_check_command_and_fault_injection(monkeypatch):
    code, text = run_cli(["check", "--prec", "16"], 60.0)
    clean_ok = code == 0 and "FAIL" not in text

    # corrupting any generator coefficient, the fibre-row index or the
    # packed kernel must trip at least one check
    detected = []
    real_eis = forms.eisenstein
    real_eta = forms.eta_power
    real_jacobi_eta = forms.eta_power_jacobi
    real_power = forms._sparse_power
    real_e10 = forms.e10_coefficient
    real_row, real_first = invariants.fiber_row, invariants.first_row
    real_pack = series._pack
    real_sieve, real_eighth = forms.divisor_sums, forms._eighth_power

    def corrupt_eisenstein(weight):
        def patched(k, nterms):
            f = real_eis(k, nterms)
            if k != weight or nterms < 3:
                return f
            cs = list(f.coeffs)
            cs[2] += 1
            return type(f)(cs, f.offset, f.prec)
        return patched

    def corrupt_eta(power, real=real_eta):
        def patched(e, nterms):
            f = real(e, nterms)
            if e != power or nterms < 3:
                return f
            cs = list(f.coeffs)
            cs[2] += 1
            return type(f)(cs, f.offset, f.prec)
        return patched

    def corrupt_sigma9(k):
        return real_e10(k) + (k == 2)

    def corrupt_jacobi_term(terms, e, nterms):
        # Jacobi's cube 1 - 3q + 5q^3 - ... read with 6q^3
        if terms[:2] == [(1, -3), (3, 5)]:
            terms = [(1, -3), (3, 6)] + terms[2:]
        return real_power(terms, e, nterms)

    def corrupt_power(terms, e, nterms):
        # every base exponent doubled: both generators alike
        return real_power([(2 * k, a) for k, a in terms], e, nterms)

    def corrupt_sieve(power):
        def patched(k, n):
            sums = real_sieve(k, n)
            if k == power and n > 2:
                sums[2] += 1
            return sums
        return patched

    def corrupt_theta(cs):
        out = real_eighth(cs)
        out[2] += 1
        return out

    def corrupt_top_slot(cs, width):
        # a wrong top slot in packs of more than 40 terms, beyond every
        # sample product of ring-laws
        if len(cs) > 40:
            cs = [*cs[:-1], cs[-1] + 1]
        return real_pack(cs, width)

    faults = {
        "e4": (forms, "eisenstein", corrupt_eisenstein(4)),
        "e6": (forms, "eisenstein", corrupt_eisenstein(6)),
        "e10": (forms, "eisenstein", corrupt_eisenstein(10)),
        "delta": (forms, "eta_power", corrupt_eta(24)),
        "eta12": (forms, "eta_power", corrupt_eta(12)),
        "inverse-delta": (forms, "eta_power", corrupt_eta(-24)),
        "inverse-sqrt-delta": (forms, "eta_power", corrupt_eta(-12)),
        "jacobi-inverse-delta": (forms, "eta_power_jacobi",
                                 corrupt_eta(-24, real_jacobi_eta)),
        "jacobi-inverse-sqrt-delta": (forms, "eta_power_jacobi",
                                      corrupt_eta(-12, real_jacobi_eta)),
        "jacobi-term": (forms, "_sparse_power", corrupt_jacobi_term),
        "power-recurrence": (forms, "_sparse_power", corrupt_power),
        "sigma9": (forms, "e10_coefficient", corrupt_sigma9),
        "packed-top-slot": (series, "_pack", corrupt_top_slot),
        "sigma3-sieve": (forms, "divisor_sums", corrupt_sieve(3)),
        "sigma5-sieve": (forms, "divisor_sums", corrupt_sieve(5)),
        "sigma9-sieve": (forms, "divisor_sums", corrupt_sieve(9)),
        "theta-powers": (forms, "_eighth_power", corrupt_theta),
        # the row index m(n - m) + 2, and the first printed row one late
        # or one early
        "fiber-row": (invariants, "fiber_row",
                      lambda m, n: real_row(m, n) + 1),
        "first-row-high": (invariants, "first_row",
                           lambda m: real_first(m) + 1),
        "first-row-low": (invariants, "first_row",
                          lambda m: real_first(m) - 1),
    }
    # the closed routes read eta_power and the direct routes
    # eta_power_jacobi, so each alone at a negative power must fail the
    # dual-route check of the pair that reads it
    # the closed routes read E4 and the sieve E10, the direct fibre route
    # E4 * E6, so each Eisenstein fault moves one side of a pair
    dual = {"e4": {"theta-e8-equals-e4", "e10-sigma9", "fiber-dual-route",
                   "section-dual-route"},
            "e6": {"e10-sigma9", "eta-power-additivity", "fiber-dual-route"},
            "e10": {"e10-sigma9", "fiber-dual-route"},
            # the same for the sieve under each Eisenstein series, and
            # the theta powers read by the section convolution alone
            "sigma3-sieve": {"theta-e8-equals-e4", "e10-sigma9",
                             "fiber-dual-route", "section-dual-route"},
            "sigma5-sieve": {"e10-sigma9", "fiber-dual-route"},
            "sigma9-sieve": {"e10-sigma9", "fiber-dual-route"},
            "theta-powers": {"theta-e8-equals-e4", "section-dual-route"},
            "inverse-delta": {"fiber-dual-route"},
            "inverse-sqrt-delta": {"section-dual-route"},
            "jacobi-inverse-delta": {"fiber-dual-route"},
            "jacobi-inverse-sqrt-delta": {"section-dual-route"},
            # a Jacobi term moves every direct route and the oracle's
            # own copy of Jacobi's series disagrees with it
            "jacobi-term": {"fiber-dual-route", "section-dual-route",
                            "eta-power-additivity"},
            # the shared recurrence moves both routes alike; the oracles
            # outside it must see it
            "power-recurrence": {"eta-power-additivity"},
            # the sigma_9 oracle must be caught by the check that reads it
            "sigma9": {"e10-sigma9"},
            # both fibre routes read the row index and agree on a wrong
            # one; the check that pins the index must see it
            "fiber-row": {"slice-partition"},
            "first-row-high": {"slice-partition"},
            "first-row-low": {"slice-partition"},
            # the full-size kernel oracle of ring-laws must see it at
            # --prec 22, whose fibre rows reach 41
            "packed-top-slot": {"ring-laws"}}
    at_prec = {"packed-top-slot": 22}
    for name, (module, attr, patched) in faults.items():
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, patched)
        fails = [r for r in checks.run_checks(at_prec.get(name, 6))
                 if not r.passed]
        failed = {r.name for r in fails}
        # a FAIL raised by a stale fault helper or a broken call tests
        # nothing: each fault must fail a check by the corrupted value
        stale = any(r.detail.startswith(("AttributeError", "TypeError"))
                    for r in fails)
        detected.append((name, not stale and (
            dual[name] <= failed if name in dual else bool(failed))))
        monkeypatch.setattr(module, attr, real)

    ok = clean_ok and all(found for _, found in detected)
    report("10 (check suite + fault injection)", ok)
