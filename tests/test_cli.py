"""CLI contract tests: output shapes, JSON round-trips, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ellcy
from ellcy import checks, cli, forms, geometry, invariants, series
from ellcy.cli import (CHECK_BOUND, LSQ_BOUND, NL_BOUND, TERMS_BOUND, main,
                       series_to_doc)
from ellcy.series import QSeries
from test_invariants import classes

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "perfbench", "reference.json")) as f:
    REFERENCE = json.load(f)  # argv joined by spaces: stdout's sha256


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSeriesCommand:
    def test_inv_delta(self):
        code, text = run(["series", "inv-delta", "--prec", "4"])
        assert code == 0
        assert text == "-1\t1\n0\t24\n1\t324\n2\t3200\n"

    def test_e10(self):
        code, text = run(["series", "e10", "--prec", "3"])
        assert code == 0
        assert text == "0\t1\n1\t-264\n2\t-135432\n"

    def test_theta_equals_e4_rows(self):
        _, theta = run(["series", "theta-e8", "--prec", "3"])
        _, e4 = run(["series", "e4", "--prec", "3"])
        assert theta == e4 == "0\t1\n1\t240\n2\t2160\n"

    def test_half_integer_display(self):
        # the one series printed on the half grid, times q^(-1/2)
        assert run(["series", "inv-sqrt-delta", "--prec", "3"]) == \
            (0, "-1/2\t1\n1/2\t12\n3/2\t90\n")
        assert run(["series", "inv-sqrt-delta", "--prec", "3", "--json"]) \
            == (0, INV_SQRT_DELTA_3_JSON)

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["series", "zeta"])
        assert exc.value.code == 1

    def test_bad_prec_is_usage_error(self):
        code, _ = run(["series", "e4", "--prec", "0"])
        assert code == 1

    def test_deterministic(self):
        a = run(["series", "delta", "--prec", "10"])
        b = run(["series", "delta", "--prec", "10"])
        assert a == b


def assert_doc_is_exact(doc, f, den=1, first=0):
    """doc states f's bounds and every exact coefficient.

    The term q^i of f sits at exponent (first + den i)/den over exp_den
    den, and with den > 1 a known zero fills each slot between two.
    """
    assert (doc["offset"], doc["prec"], doc["exp_den"]) == \
        (first, first + den * f.prec, den)
    assert len(doc["coeffs"]) == doc["prec"] - doc["offset"]
    assert {c["den"] for c in doc["coeffs"]} <= {"1"}
    nums = [int(c["num"]) for c in doc["coeffs"]]
    assert nums[::den] == list(f.coeffs)
    assert not any(c for j, c in enumerate(nums) if j % den)


# the printed shift of each named series that has one: (exp_den, first
# exponent); every other name is printed from q^0 on the integer grid
SHIFTS = {"delta": (1, 1), "inv-delta": (1, -1), "inv-sqrt-delta": (2, -1)}


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["delta", "inv-delta", "e4", "e6",
                                      "e10", "theta-e8", "inv-sqrt-delta"])
    def test_round_trip(self, name):
        code, text = run(["series", name, "--prec", "6", "--json"])
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"variable", "exp_den", "offset", "prec", "coeffs"}
        generator, den, first = cli._SERIES[name]
        assert (den, first) == SHIFTS.get(name, (1, 0))
        assert_doc_is_exact(doc, generator(6), den, first)

    def test_big_integers_survive(self):
        f = forms.eta_power(-24, 40)  # 1/Delta from q^-1
        doc = json.loads(series_to_doc(f, 1, -1))
        assert_doc_is_exact(doc, f, 1, -1)
        # coefficients overflow 64 bits well before 40 terms
        assert any(int(c["num"]) > 2 ** 64 for c in doc["coeffs"])

    def test_rationals_as_strings(self):
        doc = json.loads(series_to_doc(QSeries([1, 2], 2), 1, 0))
        for c in doc["coeffs"]:
            assert isinstance(c["num"], str)
            assert isinstance(c["den"], str)

    def test_rational_half_integer_round_trip(self):
        # the half-grid document of q^(-3/2) f survives a JSON round trip:
        # f's q^0 .. q^3 at exponents -3/2 .. 3/2, and every den "1"
        f = QSeries([1, 0, -3, 5], 4)
        doc = json.loads(series_to_doc(f, 2, -3))
        assert (doc["exp_den"], doc["offset"], doc["prec"]) == (2, -3, 5)
        assert [c["num"] for c in doc["coeffs"]] == \
            ["1", "0", "0", "0", "-3", "0", "5", "0"]
        assert_doc_is_exact(doc, f, 2, -3)
        assert {c["den"] for c in doc["coeffs"]} == {"1"}
        assert json.loads(series_to_doc(f, 1, 0))["exp_den"] == 1


def documented_doc(f, den=1, first=0):
    """The README's series document for f's q^i at (first + den i)/den."""
    slots = [{"num": "0", "den": "1"}] * (den * len(f.coeffs))
    slots[::den] = [{"num": str(c), "den": "1"} for c in f.coeffs]
    return {"variable": "q", "exp_den": den, "offset": first,
            "prec": first + den * f.prec, "coeffs": slots}


class TestJsonWriter:
    """series_to_doc writes the document's text itself, without `json`."""

    @pytest.mark.parametrize("f, den, first", [
        (forms.eta_power(-24, 30), 1, -1),  # from q^-1, big coefficients
        (forms.eta_power(-12, 30), 2, -1),  # exp_den 2
        (forms.eta_power(24, 30), 1, 1),  # negative coefficients
        (QSeries([], 0), 1, 3),  # no coefficients
        (QSeries([], 0), 2, 5),
    ], ids=["inverse_delta", "inverse_sqrt_delta", "delta", "empty",
            "empty-half"])
    def test_bytes_equal_json_dumps(self, f, den, first):
        assert series_to_doc(f, den, first) == \
            json.dumps(documented_doc(f, den, first))

    # the argvs arrive as plain strings, so the script imports no json
    SCRIPT = """
import io, sys
from ellcy.cli import main
codes = [main(argv.split(), out=io.StringIO()) for argv in sys.argv[1:]]
print(codes, sorted({"json"} & set(sys.modules)))
"""

    def test_series_json_never_imports_json(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       os.path.abspath(ellcy.__file__))))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", self.SCRIPT,
             "series inv-sqrt-delta --json", "series e4 --json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0] []\n"


class TestGvCommand:
    def test_fiber_closed(self):
        code, text = run(["gv", "fiber", "--prec", "4", "--method", "closed"])
        assert code == 0
        values = [line.split("\t")[2] for line in text.splitlines()]
        assert values == ["-2", "480", "282888", "17058560"]

    def test_section(self):
        code, text = run(["gv", "section", "--prec", "4"])
        values = [line.split("\t")[2] for line in text.splitlines()]
        assert code == 0
        assert values == ["1", "252", "5130", "54760"]

    def test_fiber_routes_diff_is_empty(self):
        _, closed = run(["gv", "fiber", "--prec", "20", "--method", "closed"])
        _, direct = run(["gv", "fiber", "--prec", "20", "--method", "direct"])
        assert closed == direct

    def test_multifiber_routes_diff_is_empty(self):
        for m in ("2", "3"):
            _, closed = run(["gv", "multifiber", "--m", m, "--prec", "8",
                             "--method", "closed"])
            _, direct = run(["gv", "multifiber", "--m", m, "--prec", "8",
                             "--method", "direct"])
            assert closed == direct

    @pytest.mark.parametrize("argv, target, expected", [
        (["fiber"], "fiber",
         lambda method: invariants.gv_table("fiber", method, 12)),
        (["multifiber", "--m", "3"], "fiber",
         lambda method: classes(method, 3, 14)[3:]),
        (["section"], "section",
         lambda method: invariants.gv_table("section", method, 12))],
        ids=["fiber", "m3", "section"])
    def test_rows_are_the_route_table(self, argv, target, expected):
        # every method of the table prints the rows gv_table reads, and
        # gv offers exactly the table's methods, in its order
        methods = tuple(invariants.ROUTES[target])
        assert methods == ("closed", "direct")
        for method in methods:
            code, text = run(["gv", *argv, "--method", method,
                              "--prec", "12"])
            assert code == 0
            values = [int(line.split("\t")[2])
                      for line in text.splitlines()]
            assert values == expected(method), method
        assert "[--method {" + ",".join(methods) + "}]" in cli._help("gv")

    def test_multifiber_requires_m(self):
        code, _ = run(["gv", "multifiber", "--prec", "4"])
        assert code == 1
        code, _ = run(["gv", "multifiber", "--m", "1", "--prec", "4"])
        assert code == 1

    @pytest.mark.parametrize("target", ["fiber", "section"])
    @pytest.mark.parametrize("m", ["1", "5"])
    def test_m_outside_multifiber_is_usage_error(self, target, m, capsys):
        # --m is a multifibre option: fiber is the m = 1 table already,
        # and a section class has no fibre part
        assert run(["gv", target, "--m", m, "--prec", "4"]) == (1, "")
        assert capsys.readouterr().err == \
            "ellcy: error: --m applies to multifiber only\n"


class TestNlCommand:
    def test_origin(self):
        code, text = run(["nl", "--h", "0", "--d1", "0", "--d2", "0"])
        assert code == 0
        assert text == "1056\n"

    def test_negative_discriminant_note(self):
        code, text = run(["nl", "--h", "5", "--d1", "0", "--d2", "1"])
        assert code == 0
        assert text == "0 (discriminant negative)\n"

    def test_discriminant_zero(self):
        code, text = run(["nl", "--h", "1", "--d1", "-1", "--d2", "1"])
        assert code == 0
        assert text == "-4\n"

    def test_builds_no_series(self, monkeypatch):
        # one NL number comes from sigma_9, never from E4 * E6
        def poisoned(k, nterms):
            raise AssertionError("nl must not build an Eisenstein series")

        monkeypatch.setattr(forms, "eisenstein", poisoned)
        argv = ["nl", "--h", "0", "--d1", "1000", "--d2", "1"]
        code, text = run(argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REFERENCE[" ".join(argv)]

    def test_large_discriminant(self):
        # half-discriminant 80001: E4 * E6 to that length took seconds
        code, text = run(["nl", "--h", "0", "--d1", "200", "--d2", "200"])
        assert code == 0
        assert text == ("141757068636577435386651148462735365462651479040"
                        "\n")

    @pytest.mark.parametrize("flag", ["--h", "--d1", "--d2"])
    def test_above_bound_is_usage_error(self, flag, capsys):
        argv = {"--h": "0", "--d1": "0", "--d2": "0"}
        argv[flag] = str(NL_BOUND + 1)
        code, text = run(["nl", *[x for kv in argv.items() for x in kv]])
        assert code == 1
        assert text == ""
        assert f"must be at most {NL_BOUND}" in capsys.readouterr().err

    def test_negative_h_is_domain_error(self, capsys):
        code, text = run(["nl", "--h", "-1", "--d1", "0", "--d2", "0"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == \
            "ellcy: error: h must be non-negative\n"


class TestReferenceDigests:
    # every argv whose stdout the benchmark checks against its recorded
    # sha256, run in process: an output byte that moves fails here too
    @pytest.mark.parametrize("argv", sorted(REFERENCE))
    def test_stdout_matches_the_recorded_digest(self, argv, capsys):
        code, text = run(argv.split())
        assert (code, capsys.readouterr().err) == (0, "")
        assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE[argv]


# stdout sha256 of the commands at the term bounds, where the product
# kernel runs packed, and of every series at one term and at the bound
BOUND_DIGESTS = {
    "gv fiber --prec 3000":
        "4fad9133e54c85c42f7e7e590a18603b61e3f7ee7094088713edbc4a49ddd7f2",
    "gv section --prec 3000":
        "8e8d810113f8299504af7caa127d86011d3fb11cce3714fadff979437ffe65fd",
    "gv multifiber --m 2 --prec 1500":
        "5056cca66e9bea543b54118ff6197e70e326a4d6311f418d79a77ac8b926b7f6",
    "check --prec 300":
        "597a4a2b91017cef6f2d1916690210f196cb7008d83be297b0645ce29e48a308",
}
# the text and --json digests at --prec 1 and 3000; e4, e6, e10 and
# theta-e8 all print the one term 1 at --prec 1
SERIES_DIGESTS = {
    "delta": (
        "b8388c44e448858ae751c59912c120badd77182a983ab50e9665fde279963a9e",
        "1c1abd6d9637c4adb5dc2e65b6bd4c7b3561591f11a3a603ccaf119a01e415e5",
        "2b8c753c58da7d80b135a7dcade68e3a1cbf019d50b63c40658d22585431e82f",
        "f5842bf33bac16b7ebc8d7dec255a7f6903a2d36ac64d2eb26a2ac3648173456"),
    "inv-delta": (
        "b628cd425ae1f63440c1c6aea62bd42ee239d7d2f596531f9dc9f3e6ba10446f",
        "a6f3205df5a06660eb45cfd3a5dfbd24df9a81acf2e0a7918c7dedc07482f03d",
        "bdeeee39f9b7ecac57c2f558a9a183b7d2c93203457e846574a3aaceac2baf3e",
        "b6c3afaab929a9941bb4834d45484ac034fd193621e3fb7a996f26f61d07739f"),
    "inv-sqrt-delta": (
        "478bf5039898765403c12850b6e35a665d09d75d2bd35a9051293ee82a84bd43",
        "ff2a6403c87c504c02da18bb631d329205c2ddfad258d37d22cc1f980ae3cf28",
        "d53f3584153cefb4361f5e028f4b01e6fd61fa9e261b58eb94d2021e424f7d44",
        "a21ccf836865b1d15bea2060a2f59ebc659a9f10cc793bc778f573c1b99e1315"),
    "e4": (
        "2dd01bd53f96a75c966f8245468cbe61d32c2576f4c99df382142590149ee50c",
        "1501f1a1f0d7deb529d8a5c844cec5129807ecf00973d2e39e9a65f26a19b178",
        "241045b6abd0ac28e71551b4c7ee4f06e129295cc7e31451d1b736e1ac50a63a",
        "3e78daf65441f20e77e4a7a063db746b955386db20b2c04ffb907bb356ef8416"),
    "e6": (
        "2dd01bd53f96a75c966f8245468cbe61d32c2576f4c99df382142590149ee50c",
        "1501f1a1f0d7deb529d8a5c844cec5129807ecf00973d2e39e9a65f26a19b178",
        "d286cc07409926fb1b6f641b64a72d5c1a920a78526006442403a2f50ab75f1b",
        "081034e5a3ac166422e7ba78fc83604ba1277cb3ab27788b7991b5c6f1a9fd3c"),
    "e10": (
        "2dd01bd53f96a75c966f8245468cbe61d32c2576f4c99df382142590149ee50c",
        "1501f1a1f0d7deb529d8a5c844cec5129807ecf00973d2e39e9a65f26a19b178",
        "2410f69263bbc96d6d8aaef9df85d267257135d3113a907d22c9b87a871cb63c",
        "b208e17514b0b858081ae27cc0ba2065503dd8512c0d1dd8919977d4b4a6d9a1"),
    "theta-e8": (
        "2dd01bd53f96a75c966f8245468cbe61d32c2576f4c99df382142590149ee50c",
        "1501f1a1f0d7deb529d8a5c844cec5129807ecf00973d2e39e9a65f26a19b178",
        "241045b6abd0ac28e71551b4c7ee4f06e129295cc7e31451d1b736e1ac50a63a",
        "3e78daf65441f20e77e4a7a063db746b955386db20b2c04ffb907bb356ef8416"),
}
BOUND_DIGESTS.update(
    (f"series {name} --prec {prec}{extra}", digest)
    for name, digests in SERIES_DIGESTS.items()
    for (prec, extra), digest in zip(
        [(p, x) for p in (1, TERMS_BOUND) for x in ("", " --json")], digests))


class TestBoundDigests:
    # the reference argvs stop near 200 terms; these reach the bounds, and
    # each gv argv is run by both methods against its one digest
    @pytest.mark.parametrize("argv", sorted(BOUND_DIGESTS))
    def test_stdout_matches_the_recorded_digest(self, argv, capsys):
        methods = ([["--method", m] for m in invariants.ROUTES["fiber"]]
                   if argv.startswith("gv") else [[]])
        for method in methods:
            code, text = run(argv.split() + method)
            assert (code, capsys.readouterr().err) == (0, "")
            assert hashlib.sha256(text.encode()).hexdigest() == \
                BOUND_DIGESTS[argv], method

    def test_every_series_name_is_covered(self):
        assert set(SERIES_DIGESTS) == set(cli._SERIES)


class TestIntegerCommandsLoadNoFractions:
    """Commands without a true rational never import fractions or decimal.

    The commands run one after another in one fresh interpreter without
    site, so only ellcy's own imports count; after each, neither module
    may be loaded.
    """

    ARGVS = (
        [["euler"], ["nl", "--h", "0", "--d1", "12", "--d2", "1"],
         ["nl", "--h", "5", "--d1", "0", "--d2", "1"]]
        + [["series", name, "--prec", "5"] + extra
           for name in ("delta", "inv-delta", "inv-sqrt-delta", "e4", "e6",
                        "e10", "theta-e8")
           for extra in ([], ["--json"])]
        + [["gv", target, "--method", method, "--prec", "5"] + extra
           for target, extra in (("fiber", []), ("section", []),
                                 ("multifiber", ["--m", "2"]))
           for method in ("closed", "direct")]
    )
    SCRIPT = """
import io, json, sys
from ellcy.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    code = main(argv, out=io.StringIO())
    loaded.append([code] + sorted({"fractions", "decimal"} & set(sys.modules)))
print(json.dumps(loaded))
"""

    def test_no_fractions_module(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       os.path.abspath(ellcy.__file__))))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", self.SCRIPT,
             json.dumps(self.ARGVS)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert loaded == [[0]] * len(self.ARGVS)


class TestCheckLoadsNoFractions:
    """check runs in plain integers too: its samples and oracles.

    Run like TestIntegerCommandsLoadNoFractions, in one fresh interpreter
    without site.
    """

    def test_check_loads_no_fractions_module(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       os.path.abspath(ellcy.__file__))))
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             TestIntegerCommandsLoadNoFractions.SCRIPT,
             json.dumps([["check", "--prec", "5"]])],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0]]


class TestStartupLoadsNoArgparse:
    """No command, usage error or help loads argparse, gettext or locale.

    Run like TestIntegerCommandsLoadNoFractions, in one fresh interpreter
    without site, with its argvs plus check, a usage error and help.
    """

    ARGVS = TestIntegerCommandsLoadNoFractions.ARGVS + [
        ["check", "--prec", "2"], ["series", "zeta"], ["--help"]]
    SCRIPT = """
import io, json, sys
from ellcy.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv, out=io.StringIO())
    except SystemExit as exc:
        code = exc.code
    loaded.append([code] + sorted({"argparse", "gettext", "locale"}
                                  & set(sys.modules)))
print(json.dumps(loaded))
"""

    def test_no_argparse_module(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       os.path.abspath(ellcy.__file__))))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", self.SCRIPT,
             json.dumps(self.ARGVS)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == \
            [[0]] * (len(self.ARGVS) - 2) + [[1], [0]]


class TestEulerCommand:
    def test_default(self):
        code, text = run(["euler"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "deg K_Delta\t1056"
        assert lines[1] == "cusps\t192"
        assert lines[2] == "e(Delta)\t-672"
        assert lines[3] == "e(X)\t-480"
        assert lines[4].endswith("consistent")
        assert "2(3-243) = -480" in lines[4]

    def test_lsq_one(self):
        code, text = run(["euler", "--lsq", "1"])
        assert code == 0
        assert text == "deg K_Delta\t132\ncusps\t24\ne(Delta)\t-84\ne(X)\t-60\n"


def failed_checks(text):
    """The names of the FAIL lines of `check` output, in order.

    A fault must fail a check by the value it corrupts: a FAIL whose
    detail is an AttributeError or a TypeError comes from a stale fault
    helper or a broken call, and fails the calling test.
    """
    names = []
    for line in text.splitlines():
        if line.startswith("FAIL"):
            _, name, *detail = line.split("\t")
            assert not "".join(detail).startswith(
                ("AttributeError", "TypeError")), line
            names.append(name)
    return names


def bumped_at(real, power):
    """The eta generator real, with coefficient 2 raised by 1 at e = power."""
    def corrupted(e, nterms):
        f = real(e, nterms)
        if e != power or nterms < 3:
            return f
        cs = list(f.coeffs)
        cs[2] += 1
        return QSeries(cs, f.prec)
    return corrupted


class TestCheckCommand:
    def test_passes(self):
        code, text = run(["check", "--prec", "6"])
        assert code == 0
        assert "FAIL" not in text
        assert text.strip().endswith("checks passed")

    @pytest.mark.parametrize("prec", ["0", "1"])
    def test_prec_below_two_is_usage_error(self, prec, capsys):
        code, text = run(["check", "--prec", prec])
        assert code == 1
        assert text == ""
        assert "--prec must be at least 2" in capsys.readouterr().err

    def test_corrupted_e10_detected(self, monkeypatch):
        real = forms.eisenstein

        def corrupted(k, nterms):
            f = real(k, nterms)
            if k != 10 or nterms < 3:
                return f
            cs = list(f.coeffs)
            cs[2] += 1
            return QSeries(cs, f.prec)

        monkeypatch.setattr(forms, "eisenstein", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert "e10-sigma9" in failed_checks(text)

    def test_corrupted_delta_detected(self, monkeypatch):
        real = forms.eta_power

        def corrupted(e, nterms):
            f = real(e, nterms)
            if e != 24 or nterms < 3:
                return f
            cs = list(f.coeffs)
            cs[1] += 1
            return QSeries(cs, f.prec)

        monkeypatch.setattr(forms, "eta_power", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert "eta-power-additivity" in failed_checks(text)

    def test_corrupted_inverse_delta_detected(self, monkeypatch):
        real = forms.eta_power

        def corrupted(e, nterms):
            f = real(e, nterms)
            if e != -24 or nterms < 3:
                return f
            cs = list(f.coeffs)
            cs[2] += 1
            return QSeries(cs, f.prec)

        monkeypatch.setattr(forms, "eta_power", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert "eta-power-additivity" in failed_checks(text)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_consistent_eta_fault_detected(self, sign, monkeypatch):
        # eta^(12s) times (1 + q) and eta^(24s) times (1 + q)^2 still
        # square into each other, so only an oracle outside the eta
        # recurrence can see it; the negative powers also feed the closed
        # routes, whose direct partners read powers of Jacobi's cube
        real = forms.eta_power
        factor = QSeries([1, 1], 1000)

        def corrupted(e, nterms):
            f = real(e, nterms)
            if e == 12 * sign:
                return f * factor
            if e == 24 * sign:
                return f * factor * factor
            return f

        monkeypatch.setattr(forms, "eta_power", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        dual = ["fiber-dual-route", "section-dual-route",
                "multifiber-dual-route-m2", "multifiber-dual-route-m3"]
        assert failed_checks(text) == \
            ["eta-power-additivity"] + (dual if sign < 0 else [])

    @pytest.mark.parametrize("generator, e, check", [
        ("eta_power", -24, "fiber-dual-route"),
        ("eta_power", -12, "section-dual-route"),
        ("eta_power_jacobi", -24, "fiber-dual-route"),
        ("eta_power_jacobi", -12, "section-dual-route")])
    def test_eta_generator_fault_fails_its_dual_route(self, generator, e,
                                                      check, monkeypatch):
        # the closed routes read powers of the pentagonal series and the
        # direct routes powers of Jacobi's cube, so either generator
        # corrupted alone moves one side of a dual-route pair
        monkeypatch.setattr(forms, generator,
                            bumped_at(getattr(forms, generator), e))
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert check in failed_checks(text)

    @pytest.mark.parametrize("power, checks_failed", [
        (3, {"fiber-dual-route", "section-dual-route"}),
        (5, {"fiber-dual-route"}),
        (9, {"fiber-dual-route"})])
    def test_sieve_fault_fails_its_dual_route(self, power, checks_failed,
                                              monkeypatch):
        # sigma_3 and sigma_5 feed E4 * E6 of the direct fibre route, and
        # sigma_3 also E4 of the closed section route; sigma_9 feeds only
        # the closed fibre route's E10
        real = forms.divisor_sums

        def corrupted(k, n):
            sums = real(k, n)
            if k == power and n > 2:
                sums[2] += 1
            return sums

        monkeypatch.setattr(forms, "divisor_sums", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        failed = set(failed_checks(text))
        assert {"e10-sigma9"} | checks_failed <= failed

    def test_theta_power_fault_fails_the_section_pair(self, monkeypatch):
        # theta_3's 2q^4 read as 3q^4: the theta powers feed only the
        # section convolution
        real = forms._sparse_power

        def corrupted(terms, e, nterms):
            terms = [(4, 3) if term == (4, 2) else term for term in terms]
            return real(terms, e, nterms)

        monkeypatch.setattr(forms, "_sparse_power", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert failed_checks(text) == ["theta-e8-equals-e4",
                                       "section-dual-route"]

    def test_recurrence_fault_in_the_theta_window(self, monkeypatch):
        # +1 at q^30 in every power of more than 30 terms: at --prec 22
        # the fibre routes move alike and the additivity oracles stop
        # short of it, but theta_3^8 runs to 2 * 22 - 1 terms and moves
        # Theta_E8 at q^15, which neither E4 nor the closed route reads
        real = forms._sparse_power

        def corrupted(terms, e, nterms):
            f = real(terms, e, nterms)
            if nterms <= 30:
                return f
            cs = list(f.coeffs)
            cs[30] += 1
            return QSeries(cs, f.prec)

        monkeypatch.setattr(forms, "_sparse_power", corrupted)
        code, text = run(["check", "--prec", "22"])
        assert code == 2
        assert [line.split(": ")[0] for line in text.splitlines()
                if line.startswith("FAIL")] == [
            "FAIL\ttheta-e8-equals-e4\tn=15",
            "FAIL\tsection-dual-route\tn=15"]

    def test_series_kernel_fault_fails_the_kernel_oracles(self, monkeypatch):
        # no generator multiplies, so a kernel fault in products of more
        # than 20 terms moves neither Theta_E8 nor E4, and the two section
        # routes' final products move alike; the ring laws' full-size
        # product and the additivity squares see it
        real = series.int_product

        def bumped(f, g, n):
            out = real(f, g, n)
            if n > 20:
                out[20] += 1
            return out

        monkeypatch.setattr(series, "int_product", bumped)
        failed = {r.name for r in checks.run_checks(22) if not r.passed}
        assert {"ring-laws", "eta-power-additivity"} <= failed
        assert not {"theta-e8-equals-e4", "section-dual-route"} & failed

    @pytest.mark.parametrize("e", [24, 12, -24, -12])
    def test_jacobi_fault_fails_additivity(self, e, monkeypatch):
        # eta-power-additivity pins the Jacobi generator as well as the
        # pentagonal one, at every power it reads
        monkeypatch.setattr(forms, "eta_power_jacobi",
                            bumped_at(forms.eta_power_jacobi, e))
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert "eta-power-additivity" in failed_checks(text)

    def test_jacobi_term_fault_fails_both_pairs(self, monkeypatch):
        # Jacobi's 5q^3 read as 6q^3 moves every direct route, and the
        # additivity check's own copy of Jacobi's series sees it too
        real = forms._sparse_power

        def corrupted(terms, e, nterms):
            if terms[:2] == [(1, -3), (3, 5)]:
                terms = [(1, -3), (3, 6)] + terms[2:]
            return real(terms, e, nterms)

        monkeypatch.setattr(forms, "_sparse_power", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert {"fiber-dual-route", "section-dual-route",
                "eta-power-additivity"} <= set(failed_checks(text))

    def test_shared_recurrence_fault_fails_its_oracles(self, monkeypatch):
        # a recurrence that reads every base exponent doubled makes
        # prod (1 - q^(2n))^e from either eta base: both routes of the
        # fibre pair move alike and agree, and squaring still holds, so
        # only the oracles outside the recurrence can see it; the theta
        # powers move too, against E4 and the closed section route
        real = forms._sparse_power
        monkeypatch.setattr(
            forms, "_sparse_power",
            lambda terms, e, nterms: real([(2 * k, a) for k, a in terms], e,
                                          nterms))
        for prec in (2, 6):
            results = checks.run_checks(prec)
            assert [(r.name, r.detail) for r in results if not r.passed] == [
                ("theta-e8-equals-e4", "n=1: Theta_E8 144 vs E4 240"),
                ("eta-power-additivity",
                 "n=1: Jacobi's series to the 8th -24 vs eta^24/q 0"),
                ("section-dual-route", "n=1: closed 240 vs convolution 144")]
        # with the Jacobi oracle passed, the Eisenstein one still fails
        monkeypatch.setattr(checks, "_jacobi_cube",
                            lambda n: forms.eta_power(3, n))
        res = checks.check_pairs("eta-power-additivity",
                                 checks._eta_additivity, 6)
        assert (res.passed, res.detail) == \
            (False, "n=2: (E4^3 - E6^2) q/Delta -41472 vs 1728 q 0")

    def test_nl_vanishing_reads_e10(self, monkeypatch):
        # an E10 coefficient at q^-1 lies below the support of a modular
        # form; the check must see it, not answer zero for a negative
        # discriminant before the coefficient is read
        real = forms.e10_coefficient
        monkeypatch.setattr(forms, "e10_coefficient",
                            lambda k: 1 if k == -1 else real(k))
        res = checks.check_pairs("nl-vanishing", checks._nl_vanishing)
        assert (res.passed, res.detail) == (
            False, "n=0: NL(0;-3,1) (discriminant -2) -4 vs E10 below q^0 0")

    def test_row_off_mod_m_fails_slice_partition(self, monkeypatch):
        # a row one too high with the discriminant moved to match passes
        # the discriminant pair, and the 1 mod m pair sees it from m = 2
        for module, attr, shift in ((invariants, "fiber_row", 1),
                                    (geometry, "nl_discriminant", 2)):
            real = getattr(module, attr)
            monkeypatch.setattr(module, attr, lambda *args, real=real,
                                shift=shift: real(*args) + shift)
        res = checks.check_pairs("slice-partition", checks._slice_partition, 6)
        assert (res.passed, res.detail) == (
            False, "n=0: fiber_row(2, n) mod 2 0 vs 1 mod 2 1")

    def test_silent_zero_fails_precision_honesty(self, monkeypatch):
        # a read past the bound that answers 0 instead of raising
        monkeypatch.setattr(QSeries, "coeff_at", lambda self, e:
                            self.coeffs[e] if e < len(self.coeffs) else 0)
        res = checks.check_pairs("precision-honesty",
                                 checks._precision_honesty)
        assert (res.passed, res.detail) == (
            False, "n=5: E4 to q^5 read at q^n int vs its bound "
                   "PrecisionError")

    def test_pairing_fault_names_the_determinant(self, monkeypatch):
        monkeypatch.setattr(geometry, "PAIRING",
                            ((-1, -2, 1), (-1, 1, 0), (1, 0, 1)))
        res = checks.check_pairs("pairing-determinant",
                                 checks._pairing_determinant)
        assert (res.passed, res.detail) == (
            False, "n=0: the determinant of PAIRING -4 vs the paper -1")

    @pytest.mark.parametrize("misread, detail", [
        (lambda a, b: (a, b[:8] + (0,)),
         "n=0: pushforward of Gamma19Class(a=0, b=(0, 0, 0, 0, 0, 0, 0, 1, "
         "-1)) C+E vs the zero class 0"),
        (lambda a, b: (a, (0,) + b[1:]),
         "n=0: pushforward of Gamma19Class(a=0, b=(1, 0, 0, 0, 0, 0, 0, 0, "
         "0)) 0 vs the section class C"),
        (lambda a, b: (min(a, 2), b),
         "n=0: pushforward of Gamma19Class(a=3, b=(-1, -1, -1, -1, -1, -1, "
         "-1, -1, -1)) -3C-2E vs the fibre class E")],
        ids=["C8", "C0", "3H"])
    def test_pushforward_fault_names_the_class(self, misread, detail,
                                               monkeypatch):
        # a pushforward that misreads its class: forgetting C8 lets the
        # complement class C7 - C8 survive, forgetting C0 sends the
        # section's class to 0, and reading H at most twice moves only
        # the fibre class 3H - sum C_i
        real = geometry.pushforward
        monkeypatch.setattr(geometry, "pushforward", lambda gamma: real(
            geometry.Gamma19Class(*misread(*gamma))))
        res = checks.check_pairs("pushforward-kernel",
                                 checks._pushforward_kernel)
        assert (res.passed, res.detail) == (False, detail)

    @pytest.mark.parametrize("index, detail", [
        (0, "n=0: the leading minors of the complement's Gram matrix -32 vs "
            "-E8 in this basis -8"),
        (7, "n=7: the leading minors of the complement's Gram matrix 4 vs "
            "-E8 in this basis 1")], ids=["first", "last"])
    def test_index_two_sublattice_fails_pushforward_kernel(self, index,
                                                           detail,
                                                           monkeypatch):
        # a doubled spanning vector still maps to zero, so every
        # pushforward pair passes, but it spans a sublattice of index 2,
        # not -E8: the Gram determinant reads 4, and the leading minors
        # from the doubled vector's on are 4 times -E8's
        real = checks.Gamma19Class
        made = []

        def doubling(a, b):
            made.append(None)
            if len(made) == index + 1:
                a, b = 2 * a, [2 * x for x in b]
            return real(a, b)

        monkeypatch.setattr(checks, "Gamma19Class", doubling)
        res = checks.check_pairs("pushforward-kernel",
                                 checks._pushforward_kernel)
        assert (res.passed, res.detail) == (False, detail)

    @pytest.mark.parametrize("value", [True, 1.0, Fraction(1)],
                             ids=["bool", "float", "Fraction"])
    def test_integrality_fail_names_route_row_and_type(self, value):
        # each value equals the row 1 it replaces, so only its type shows
        fibre = invariants.gv_table("fiber", "closed", 10)
        closed = invariants.gv_table("section", "closed", 6)
        assert closed[0] == value
        res = checks.check_pairs("gv-integrality", checks._integrality,
                                 fibre, fibre, closed, [value, *closed[1:]])
        assert (res.passed, res.detail) == (
            False, f"n=0: section convolution row type "
                   f"{type(value).__name__} vs exactly int")

    def test_euler_fault_names_the_data(self, monkeypatch):
        # one cusp short at L.L = 8 moves e(Delta) and e(X), and with
        # e(X) the Hodge consistency
        monkeypatch.setattr(geometry, "euler_characteristic",
                            lambda lsq: geometry.EulerData(lsq, 1056, 191,
                                                           -674, -483))
        res = checks.check_pairs("euler-hodge", checks._euler_hodge)
        assert (res.passed, res.detail) == (
            False, "n=0: EulerData at L.L = 8, hodge_consistency() "
                   "(8, 1056, 191, -674, -483, False) vs the paper "
                   "(8, 1056, 192, -672, -480, True)")

    def test_dual_route_fail_names_first_row(self):
        # the detail names the first class that differs, and a route that
        # returns fewer rows than its partner fails too
        fibre = invariants.gv_table("fiber", "closed", 10)
        bumped = list(fibre)
        bumped[invariants.fiber_row(2, 3)] += 1
        res = checks.check_pairs("multifiber-dual-route-m2",
                                 checks._multifiber_routes, 2, 6, fibre,
                                 bumped)
        v = classes("closed", 2, 6)[3]
        assert (res.passed, res.detail) == \
            (False, f"n=3: slice {v} vs NL sum {v + 1}")
        closed = invariants.gv_table("section", "closed", 6)
        res = checks.check_pairs("section-dual-route", checks._section_routes,
                                 closed, closed[:-1])
        assert (res.passed, res.detail) == \
            (False, "6 rows from closed vs 5 from convolution")

    def test_first_mismatch_passes_equal_pairs(self):
        # a list and a tuple with equal entries agree too
        res = checks.check_pairs("x", lambda: [("a", [1, 2], "b", [1, 2]),
                                               ("c", (), "d", ()),
                                               ("e", [4, 5], "f", (4, 5))])
        assert res == ("x", True, "")

    def test_first_mismatch_names_first_n_and_both_values(self):
        res = checks.check_pairs("x", lambda: [("a", [1, 2], "b", [1, 2]),
                                               ("c", [5, 6, 7, 8], "d",
                                                [5, 6, -7, 9]),
                                               ("e", [0], "f", [1])])
        assert res == ("x", False, "n=2: c 7 vs d -7")

    def test_first_mismatch_names_both_lengths_of_a_prefix(self):
        res = checks.check_pairs("x", lambda: [("a", [1, 2, 3], "b", [1, 2])])
        assert res == ("x", False, "3 rows from a vs 2 from b")
        res = checks.check_pairs("x", lambda: [("a", (), "b", (0,))])
        assert res == ("x", False, "0 rows from a vs 1 from b")

    def test_first_mismatch_builds_no_pair_after_a_fail(self):
        def pairs():
            yield ("a", [1], "b", [2])
            raise AssertionError("the pair after a FAIL was built")

        assert checks.check_pairs("x", pairs) == \
            ("x", False, "n=0: a 1 vs b 2")

    def test_a_raise_between_pairs_fails_with_the_exception(self):
        # pairs that passed before the raise do not make it a PASS
        def pairs():
            yield ("a", [1], "b", [1])
            raise ValueError("inexact step")

        assert checks.check_pairs("x", pairs) == \
            ("x", False, "ValueError: inexact step")

    @pytest.mark.parametrize("prec", [6, 22])
    def test_no_pair_compares_a_value_with_itself(self, monkeypatch, prec):
        # a pair whose two sides are one object can never FAIL; the
        # verdict function is looked up when the suite runs, so the
        # watcher sees every check's pairs
        real = checks.check_pairs
        same = []

        def watched(name, pairs_of, *args):
            def seen(*args):
                for pair in pairs_of(*args):
                    if pair[1] is pair[3]:
                        same.append((name, pair[0]))
                    yield pair
            return real(name, seen, *args)

        monkeypatch.setattr(checks, "check_pairs", watched)
        assert all(r.passed for r in checks.run_checks(prec))
        assert same == []

    def test_theta_fault_names_its_coefficient(self, monkeypatch):
        # Theta_E8 read as one more than 240 sigma_3(5) = 30240 at q^5
        real = forms.theta_e8

        def bumped(nterms):
            cs = list(real(nterms).coeffs)
            cs[5] += 1
            return QSeries(cs, nterms)

        monkeypatch.setattr(forms, "theta_e8", bumped)
        failed = {r.name: r.detail for r in checks.run_checks(6)
                  if not r.passed}
        assert failed["theta-e8-equals-e4"] == \
            "n=5: Theta_E8 30241 vs E4 30240"

    @pytest.mark.parametrize("method", ["closed", "direct"])
    def test_e10_fault_names_its_stream(self, method, monkeypatch):
        # the FAIL names the E10 stream, the closed sieve or the direct
        # E4 * E6, and the row where it leaves the divisor sums
        first, second = invariants.ROUTES["fiber"][method]

        def bumped(u):
            cs = list(second(u).coeffs)
            cs[7] += 1
            return QSeries(cs, u)

        monkeypatch.setitem(invariants.ROUTES["fiber"], method,
                            (first, bumped))
        v = forms.e10_coefficient(7)  # -264 sigma_9(7)
        failed = {r.name: r.detail for r in checks.run_checks(6)
                  if not r.passed}
        assert failed["e10-sigma9"] == \
            f"n=7: {method} E10 {v + 1} vs divisor sum {v}"

    def test_short_fibre_rows_fail(self):
        # a class past the last fibre row fails, whether one route or
        # both stop early, and never passes on the rows that are there
        fibre = invariants.gv_table("fiber", "closed", 10)
        for rows in ((fibre, fibre[:8]), (fibre[:8], fibre[:8])):
            res = checks.check_pairs("multifiber-dual-route-m2",
                                     checks._multifiber_routes, 2, 6, *rows)
            assert (res.passed, res.detail) == \
                (False, "IndexError: list index out of range")

    @pytest.mark.parametrize("prec, fibre_rows", [(2, 8), (22, 42)],
                             ids=["2", "22"])
    def test_each_route_is_built_once(self, prec, fibre_rows, monkeypatch):
        # one fibre pair, up to the last row any check reads, and one
        # section pair of prec rows serve every check that reads routes,
        # gv-integrality included: fiber_row(3, 5) = 7 at --prec 2, and
        # fiber_row(2, 22) = 41 at --prec 22
        calls = []
        real = invariants.gv_table

        def counted(target, method, nrows):
            calls.append((target, method, nrows))
            return real(target, method, nrows)

        monkeypatch.setattr(invariants, "gv_table", counted)
        assert all(r.passed for r in checks.run_checks(prec))
        assert sorted(calls) == [
            ("fiber", "closed", fibre_rows), ("fiber", "direct", fibre_rows),
            ("section", "closed", prec), ("section", "direct", prec)]

    def test_raising_route_fails_the_checks_that_read_it(self,
                                                         monkeypatch):
        def raising(nterms):
            raise ArithmeticError("route refused")

        # the table entry, read when the route runs
        monkeypatch.setitem(invariants.ROUTES["fiber"], "direct",
                            (raising, raising))
        results = checks.run_checks(6)
        assert len(results) == 15
        failed = {r.name: r.detail for r in results if not r.passed}
        # e10-sigma9 reads the second generator of every fibre route
        assert set(failed) == {"e10-sigma9", "fiber-dual-route",
                               "multifiber-dual-route-m2",
                               "multifiber-dual-route-m3", "gv-integrality"}
        assert set(failed.values()) == {"ArithmeticError: route refused"}

    @pytest.mark.parametrize("target, method, index, failed", [
        ("fiber", "closed", 1, {"e10-sigma9", "fiber-dual-route",
                                "multifiber-dual-route-m2",
                                "multifiber-dual-route-m3"}),
        ("section", "direct", 0, {"theta-e8-equals-e4",
                                  "section-dual-route"})],
        ids=["closed-fibre-e10", "direct-section-theta"])
    def test_oracles_follow_the_route_table(self, target, method, index,
                                            failed, monkeypatch):
        # a generator bumped in the table only, with forms untouched,
        # moves its route and the oracle that pins it: both read the table
        generators = list(invariants.ROUTES[target][method])
        real = generators[index]

        def bumped(u):
            f = real(u)
            cs = list(f.coeffs)
            cs[2] += 1
            return QSeries(cs, f.prec)

        generators[index] = bumped
        monkeypatch.setitem(invariants.ROUTES[target], method,
                            tuple(generators))
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert set(failed_checks(text)) == failed

    def test_ring_laws_multiplies_the_closed_fibre_generators(self,
                                                              monkeypatch):
        # the full-size product is the table's closed fibre product, both
        # generators built at the top row count they are given
        calls = []

        def recorder(name, generator):
            def recorded(u):
                calls.append((name, u))
                return generator(u)
            return recorded

        first, second = invariants.ROUTES["fiber"]["closed"]
        monkeypatch.setitem(invariants.ROUTES["fiber"], "closed",
                            (recorder("first", first),
                             recorder("second", second)))
        top = 41  # the top row of check --prec 22
        assert checks.check_pairs("ring-laws", checks._ring_laws, top).passed
        assert calls == [("first", top), ("second", top)]

    def test_fraction_yau_zaslow_fails_integrality(self, monkeypatch):
        # gv-integrality builds no Yau-Zaslow table of its own: r_h of the
        # right value but not int, put into the Jacobi eta^-24 of the NL
        # sum, is refused by the series, so every check that reads the
        # direct fibre rows fails, gv-integrality with them, from one
        # build of the table
        real, e10 = invariants.ROUTES["fiber"]["direct"]
        calls = []

        def fractions(u):
            calls.append(u)
            return QSeries(map(Fraction, real(u).coeffs), u)

        monkeypatch.setitem(invariants.ROUTES["fiber"], "direct",
                            (fractions, e10))
        results = checks.run_checks(6)
        failed = {r.name: r.detail for r in results if not r.passed}
        assert failed == dict.fromkeys(
            ["fiber-dual-route", "multifiber-dual-route-m2",
             "multifiber-dual-route-m3", "gv-integrality"],
            "TypeError: QSeries coefficients must be ints")
        assert len(calls) == 1

    def test_ring_laws_compare_with_schoolbook(self, monkeypatch):
        # a kernel that doubles every product is still commutative,
        # associative and distributive; only the schoolbook product,
        # which never calls the kernel, can see it
        real = series.int_product
        monkeypatch.setattr(series, "int_product",
                            lambda f, g, n: [2 * v for v in real(f, g, n)])
        res = checks.check_pairs("ring-laws", checks._ring_laws, 8)
        assert not res.passed
        assert res.detail == "n=0: Jacobi's series squared 2 vs schoolbook 1"

    def test_packed_kernel_fault_fails_ring_laws(self, monkeypatch):
        # every sample product is short enough for the row loop, so only
        # ring-laws' one long product keeps the packed path under the
        # schoolbook oracle, even at the lowest --prec
        real = series._pack
        monkeypatch.setattr(series, "_pack",
                            lambda cs, width: real([cs[0] + 1, *cs[1:]],
                                                   width))
        code, text = run(["check", "--prec", "2"])
        assert code == 2
        assert "ring-laws" in failed_checks(text)

    def test_row_loop_fault_fails_ring_laws(self, monkeypatch):
        # short products that skip the last nonzero term of f, as a row
        # loop stopping one row early would; the sample products are all
        # short, so the schoolbook comparison sees it
        real = series.int_product

        def drop_last_row(f, g, n):
            f = list(f[:n])
            if n <= series._SCHOOLBOOK_TERMS and any(f):
                f[max(i for i, a in enumerate(f) if a)] = 0
            return real(f, g, n)

        monkeypatch.setattr(series, "int_product", drop_last_row)
        res = checks.check_pairs("ring-laws", checks._ring_laws, 8)
        assert not res.passed
        # f0 = 1 + 24q + 324q^2 + 3200q^3 loses its 3200q^3
        assert res.detail == "n=3: product f0*f0 18752 vs schoolbook 21952"

    def test_distributivity_fault_fails_ring_laws(self, monkeypatch):
        # a kernel that halves a factor whose terms are all even, as if it
        # took out a common 2 and never put it back: no sample and no
        # first product of samples is all even, so the schoolbook and
        # commutativity comparisons pass, and the first all-even factor
        # is the sum f + f of the distributivity law
        real = series.int_product

        def halving(f, g, n):
            if any(g) and all(c % 2 == 0 for c in g):
                g = [c // 2 for c in g]
            return real(f, g, n)

        monkeypatch.setattr(series, "int_product", halving)
        res = checks.check_pairs("ring-laws", checks._ring_laws, 8)
        assert (res.passed, res.detail) == (
            False, "n=0: distributivity f0*(f0 + f0) 1 vs f0*f0 + f0*f0 2")

    def test_each_distributivity_sum_is_asked_once(self):
        # fi*(fk + fj) would compare the same two tuples as fi*(fj + fk),
        # so each sum is asked once, in sample order: 126 pairs, not 216
        n = len(checks._sample_series())
        assert [a for a, *_ in checks._ring_laws(8)
                if a.startswith("distributivity")] == [
            f"distributivity f{i}*(f{j} + f{k})"
            for i in range(n) for j in range(n) for k in range(j, n)]

    def test_full_size_kernel_fault_fails_ring_laws(self, monkeypatch):
        # a wrong top slot in packs of more than 80 terms: the 17-term
        # samples never see it, and the product of the closed fibre
        # operands at the run's largest row count does, by its value at a
        # point; each operand is padded to the 2 rows - 1 terms of the
        # product, 79 at 40 rows, and --prec 22 builds rows up to 41
        real = series._pack

        def top_slot(cs, width):
            if len(cs) > 80:
                cs = [*cs[:-1], cs[-1] + 1]
            return real(cs, width)

        monkeypatch.setattr(series, "_pack", top_slot)
        assert checks.check_pairs("ring-laws", checks._ring_laws, 40).passed
        code, text = run(["check", "--prec", "22"])
        assert code == 2
        assert re.search(r"^FAIL\tring-laws\tn=0: the 41 x 41-term product "
                         r"at a point mod 2\^127 - 1 \d+ vs the product of "
                         r"values \d+$", text, re.MULTILINE)

    def test_oracles_never_call_the_series_arithmetic(self, monkeypatch):
        # the schoolbook product and the term-by-term sum are computed
        # with the kernel and the series product raising, and equal what
        # the working product and a plain int sum per exponent make
        fs = checks._sample_series()
        pairs = [(f, g) for f in fs for g in fs]

        def int_sum(f, g):
            hi = min(f.prec, g.prec)
            return QSeries([f.coeff_at(e) + g.coeff_at(e)
                            for e in range(hi)], hi)

        expected = [(f * g, int_sum(f, g)) for f, g in pairs]

        def broken(*args):
            raise AssertionError("an oracle called the series arithmetic")

        monkeypatch.setattr(series, "int_product", broken)
        monkeypatch.setattr(QSeries, "__mul__", broken)
        assert [(checks._schoolbook(f, g), checks._term_sum(f, g))
                for f, g in pairs] == expected

    @pytest.mark.parametrize("attr, shift, detail", [
        ("fiber_row", 1,
         "n=0: 2 fiber_row(1, n) 2 vs the h = 0 NL discriminant of 1F+nE 0"),
        ("first_row", 1, "n=0: first_row(1) 1 vs the rows k < 0 of 1F+nE 0"),
        ("first_row", -1,
         "n=0: first_row(1) -1 vs the rows k < 0 of 1F+nE 0")],
        ids=["fiber_row-1", "first_row-1", "first_row--1"])
    def test_row_index_fault_fails_slice_partition(self, attr, shift, detail,
                                                   monkeypatch):
        # both fibre routes read the one row index, so a wrong index
        # moves them alike and every dual-route check still passes; only
        # slice-partition, which pins the index itself, may fail, and its
        # detail names m, n and the row k
        real = getattr(invariants, attr)
        monkeypatch.setattr(invariants, attr,
                            lambda *args: real(*args) + shift)
        code, text = run(["check", "--prec", "22"])
        assert code == 2
        assert failed_checks(text) == ["slice-partition"]
        assert f"FAIL\tslice-partition\t{detail}\n" in text

    def test_corrupted_e4_detected(self, monkeypatch):
        real = forms.eisenstein

        def corrupted(k, nterms):
            f = real(k, nterms)
            if k != 4 or nterms < 2:
                return f
            cs = list(f.coeffs)
            cs[1] -= 1
            return QSeries(cs, f.prec)

        monkeypatch.setattr(forms, "eisenstein", corrupted)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert "theta-e8-equals-e4" in failed_checks(text)


    def test_raising_generator_is_a_fail_line(self, monkeypatch, capsys):
        # a generator may raise, as the power recurrence does on an
        # inexact step; each check it ends must be a FAIL, not a traceback
        def raising(e, nterms):
            raise ArithmeticError(f"power {e}: coefficient 3 is not an "
                                  "integer")

        monkeypatch.setattr(forms, "eta_power_jacobi", raising)
        code, text = run(["check", "--prec", "6"])
        assert code == 2
        assert capsys.readouterr().err == ""
        fails = [line.split("\t") for line in text.splitlines()
                 if line.startswith("FAIL")]
        assert [name for _, name, _ in fails] == [
            "eta-power-additivity", "fiber-dual-route", "section-dual-route",
            "multifiber-dual-route-m2", "multifiber-dual-route-m3",
            "gv-integrality"]
        assert all(detail.startswith("ArithmeticError: power ")
                   for _, _, detail in fails)
        assert text.endswith(f"{len(fails)} check(s) failed\n")


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


# The argv forms that the argparse parser, which this one replaced, took
# and refused, with the exit code and stdout each gave there.
E4_3 = "0\t1\n1\t240\n2\t2160\n"
E4_2_JSON = ('{"variable": "q", "exp_den": 1, "offset": 0, "prec": 2, '
             '"coeffs": [{"num": "1", "den": "1"}, {"num": "240", '
             '"den": "1"}]}\n')
INV_SQRT_DELTA_3_JSON = (
    '{"variable": "q", "exp_den": 2, "offset": -1, "prec": 5, "coeffs": '
    '[{"num": "1", "den": "1"}, {"num": "0", "den": "1"}, {"num": "12", '
    '"den": "1"}, {"num": "0", "den": "1"}, {"num": "90", "den": "1"}, '
    '{"num": "0", "den": "1"}]}\n')
FIBER_3 = "0\tF\t-2\n1\tF+E\t480\n2\tF+2E\t282888\n"
ACCEPTED = [
    # options before or after the positional
    (["series", "--prec", "3", "e4"], 0, E4_3),
    (["series", "e4", "--prec", "3"], 0, E4_3),
    (["gv", "--method", "direct", "--prec", "3", "fiber"], 0, FIBER_3),
    (["gv", "--prec", "3", "fiber", "--method", "direct"], 0, FIBER_3),
    # --opt value and --opt=value
    (["series", "e4", "--prec=3"], 0, E4_3),
    (["gv", "fiber", "--prec=3", "--method=direct"], 0, FIBER_3),
    (["nl", "--h=0", "--d1=0", "--d2=0"], 0, "1056\n"),
    # a unique prefix, and an exact flag that is also a prefix
    (["series", "e4", "--pre", "3"], 0, E4_3),
    (["series", "e4", "--p=3"], 0, E4_3),
    (["gv", "fiber", "--me", "direct", "--prec", "3"], 0, FIBER_3),
    (["gv", "fiber", "--meth=direct", "--pr", "3"], 0, FIBER_3),
    (["gv", "multifiber", "--m", "2", "--prec", "2"], 0,
     "2\t2F+2E\t480\n3\t2F+3E\t17058560\n"),
    (["nl", "--d1", "0", "--d2", "1", "--h", "5"], 0,
     "0 (discriminant negative)\n"),
    (["euler", "--l", "1"], 0,
     "deg K_Delta\t132\ncusps\t24\ne(Delta)\t-84\ne(X)\t-60\n"),
    (["series", "e4", "--prec", "2", "--js"], 0, E4_2_JSON),
    # signed ints, and anything else int() takes
    (["nl", "--h", "1", "--d1", "-1", "--d2", "1"], 0, "-4\n"),
    (["nl", "--h", "0", "--d1=-12", "--d2", "+1"], 0,
     "0 (discriminant negative)\n"),
    (["series", "e4", "--prec", "+3"], 0, E4_3),
    (["series", "e4", "--prec", " 3 "], 0, E4_3),
    (["series", "e4", "--prec", "0_3"], 0, E4_3),
    (["euler", "--lsq", "-1"], 2, ""),
    # a repeated option: the last one wins
    (["series", "e4", "--prec", "9", "--prec", "3"], 0, E4_3),
    (["gv", "fiber", "--method", "direct", "--method", "closed",
      "--prec", "2"], 0, "0\tF\t-2\n1\tF+E\t480\n"),
    # --json anywhere
    (["series", "--json", "e4", "--prec", "2"], 0, E4_2_JSON),
    (["series", "--prec", "2", "--json", "e4"], 0, E4_2_JSON),
    (["series", "e4", "--json", "--prec", "2"], 0, E4_2_JSON),
    (["series", "--json", "e4", "--json", "--prec", "2"], 0, E4_2_JSON),
    # parsed, then refused by the command
    (["series", "e4", "--prec", "0"], 1, ""),
    (["euler", "--lsq", "0"], 2, ""),
]
REJECTED = [
    # no command, or an unknown one (commands take no prefix)
    [], ["frobnicate"], ["ser", "e4"], ["--prec", "3", "series", "e4"],
    # a bad choice
    ["series", "zeta"], ["gv", "fibre"], ["gv", "fiber", "--method", "fast"],
    # a missing positional or required option
    ["series"], ["gv", "--prec", "3"], ["nl", "--h", "1"],
    # a value that is not an int
    ["series", "e4", "--prec", "x"], ["series", "e4", "--prec="],
    ["nl", "--h", "0", "--d1", "1.5", "--d2", "0"],
    ["nl", "--h", "0", "--d1", "-1_0", "--d2", "0"],
    # an option with no value: at the end, or before another option
    ["series", "e4", "--prec"], ["gv", "fiber", "--method"],
    ["series", "e4", "--prec", "--json"], ["nl", "--h"],
    # an unknown or ambiguous option, or a value given to a flag
    ["series", "e4", "--m", "2"], ["euler", "-x"], ["euler", "-"], ["--"],
    ["nl", "--d", "1", "--h", "0", "--d2", "0"],
    ["series", "e4", "--json=1"], ["series", "e4", "-h=1"],
    ["euler", "--help=1"],
    # an extra positional
    ["series", "e4", "e6"], ["euler", "8"], ["series", "zeta", "-h"],
]


def run_exit(argv):
    """main(argv) as a process ends: (status, stdout, stderr, raised)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code, raised = main(argv, out=out), False
        except SystemExit as exc:
            code, raised = exc.code, True
    return code, out.getvalue(), err.getvalue(), raised


class TestEntryPoint:
    """`python -m ellcy` ends as main does, through atexit and the flush.

    One argv per way out of main: a return of 0 and of 2, a usage error
    of the command (1), and SystemExit from the parser's help (0) and
    from its usage error (1).
    """

    ARGVS = [["euler"], ["gv", "-h"], ["gv", "bogus"],
             ["gv", "fiber", "--m", "2"],
             ["nl", "--h", "-1", "--d1", "0", "--d2", "0"]]
    CODES = [0, 0, 1, 1, 2]
    # stdout block-buffered, as in a shell, so the last flush writes it
    ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    ENV["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(ellcy.__file__)))
    LARGE = ["series", "inv-delta", "--prec", "3000"]  # 553,423 bytes

    def run(self, *args, **kwargs):
        kwargs.setdefault("capture_output", "stdout" not in kwargs)
        return subprocess.run([sys.executable, *args], env=self.ENV,
                              timeout=120, **kwargs)

    @pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "-S"])
    @pytest.mark.parametrize("argv, code", zip(ARGVS, CODES),
                             ids=[" ".join(a) for a in ARGVS])
    def test_fresh_process_matches_main(self, argv, code, flags):
        proc = self.run(*flags, "-m", "ellcy", *argv)
        status, out, err, _ = run_exit(argv)
        assert status == code
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (status, out.encode(), err.encode())

    def test_main_never_ends_the_process(self, monkeypatch):
        def refused(*args):
            raise AssertionError("main reached the process exit")
        monkeypatch.setattr(cli.os, "_exit", refused)
        monkeypatch.setattr(cli.atexit, "_run_exitfuncs", refused)
        assert [run_exit(argv)[0] for argv in self.ARGVS] == self.CODES

    SCRIPT = """
import atexit, sys
atexit.register(print, "atexit callback")
sys.argv = ["ellcy"] + sys.argv[1:]
from ellcy import cli
cli.entry_point()
"""

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_atexit_callback_runs_once_after_output(self, argv):
        proc = self.run("-S", "-c", self.SCRIPT, *argv)
        status, out, err, _ = run_exit(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (status, (out + "atexit callback\n").encode(), err.encode())

    def test_large_output_to_a_file_is_main_output(self, tmp_path):
        path = tmp_path / "out.txt"
        with open(path, "wb") as f:
            proc = self.run("-S", "-m", "ellcy", *self.LARGE, stdout=f,
                            stderr=subprocess.PIPE)
        _, out, _, _ = run_exit(self.LARGE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(out) == 553423 and path.read_bytes() == out.encode()

    def test_profiler_still_reports(self):
        proc = self.run("-S", "-m", "cProfile", "-m", "ellcy", "euler")
        _, out, _, _ = run_exit(["euler"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().startswith(out)
        assert "function calls" in proc.stdout.decode()

    # output that fits stdout's buffer fails in the last flush; the large
    # series fails in one of main's writes
    @pytest.mark.parametrize("argv", [["euler"], ["gv", "-h"], LARGE],
                             ids=" ".join)
    def test_closed_stdout_ends_1_silently(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.run("-m", "ellcy", *argv, stdout=write,
                            stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a full device")
    def test_full_stdout_is_reported_with_no_traceback(self):
        with open("/dev/full", "wb") as full:
            proc = self.run("-S", "-m", "ellcy", "euler", stdout=full,
                            stderr=subprocess.PIPE)
        assert proc.returncode != 0
        assert b"No space left on device" in proc.stderr
        assert b"Traceback" not in proc.stderr


class TestArgvForms:
    @pytest.mark.parametrize("argv, code, text", ACCEPTED,
                             ids=[" ".join(a) for a, _, _ in ACCEPTED])
    def test_accepted(self, argv, code, text):
        assert run_exit(argv)[:2] == (code, text)

    @pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
    def test_rejected(self, argv):
        # usage on stderr, then "ellcy[ CMD]: error: ...", and SystemExit(1)
        code, text, err, raised = run_exit(argv)
        assert (code, text, raised) == (1, "", True)
        lines = err.splitlines()
        prog, sep, _ = lines[-1].partition(": error: ")
        assert lines[0].startswith("usage: ellcy") and sep
        assert prog in ("ellcy", *(f"ellcy {c}" for c in cli._COMMANDS))

    def test_parser_lines_all_run(self):
        # the tables above and the help forms run every line of the parser
        def lines(code):
            found = {line for _, _, line in code.co_lines() if line}
            for const in code.co_consts:
                if isinstance(const, type(code)):
                    found |= lines(const)
            return found

        parser = (cli.parse_args, cli._help, cli._fail)
        want = set().union(*(lines(f.__code__) for f in parser))
        seen = set()

        def trace(frame, event, arg):
            if frame.f_code.co_filename == cli.__file__:
                seen.add(frame.f_lineno)
                return trace
            return None

        argvs = [a for a, _, _ in ACCEPTED] + REJECTED + HELP_FORMS
        sys.settrace(trace)
        try:
            for argv in argvs:
                with contextlib.suppress(SystemExit), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.parse_args(argv, io.StringIO())
        finally:
            sys.settrace(None)
        assert sorted(want - seen) == []


# help at the top level and after a command, by -h, --help or a prefix of
# it, before any positional is checked and whatever follows
HELP_FORMS = [["-h"], ["--help"], ["--he"], ["-h", "frob"],
              ["series", "-h"], ["series", "e4", "--h"], ["nl", "--he"],
              ["gv", "fiber", "--prec", "3", "-h"], ["series", "-h", "zeta"]]


class TestHelp:
    @pytest.mark.parametrize("argv", HELP_FORMS, ids=" ".join)
    def test_help_forms(self, argv, capsys):
        # help goes to stdout, from the same table as the parser
        with pytest.raises(SystemExit) as exc:
            main(argv)
        cmd = argv[0] if argv[0] in cli._COMMANDS else None
        assert exc.value.code == 0
        assert capsys.readouterr() == (cli._help(cmd), "")

    @pytest.mark.parametrize("cmd", [None, *cli._COMMANDS])
    def test_help_shows_the_table(self, cmd):
        code, text, _, _ = run_exit(["-h"] if cmd is None else [cmd, "-h"])
        assert code == 0
        _, about, positional, options = \
            cli._COMMANDS[cmd] if cmd else cli._TOP
        words = [about, *positional[1]] if positional else [about]
        words += [entry[1] for entry in cli._COMMANDS.values() if not cmd]
        for flag, (kind, default, about) in options.items():
            words += [flag, about]
            if kind is not bool:
                words.append("required" if default is cli._REQUIRED
                             else f"default: {default}")
            if kind not in (int, bool):
                words += kind
        assert [w for w in words if w not in text] == []


def assert_exit_contract(argv):
    """main(argv) ends in exit 0, 1 or 2 and raises nothing but SystemExit.

    the parser's usage errors leave through SystemExit; any other
    exception fails the calling test.  Returns the exit code.
    """
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv, out=io.StringIO())
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    return code


# small values, and values on both sides of nl's bound
_NL_ARGS = (st.integers(-60, 60) | st.integers(NL_BOUND - 1, NL_BOUND + 1)
            | st.integers(-NL_BOUND - 1, -NL_BOUND + 1))


class TestExitContract:
    """Integer arguments on both sides of every bound, run in process.

    The draws are derandomized so that the run time is fixed: nl costs
    O(sqrt(d2^2 + d1 d2)), about 0.15 s at its bound.  A series command
    at the term bound takes seconds, so the term and check bounds are
    tested at the bound and one past it, with a stub route or stub suite
    where the real one would be slow.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(["fiber", "section", "multifiber"]),
           st.sampled_from(["closed", "direct"]), st.integers(-3, 30),
           st.none() | st.integers(-3, 6))
    def test_gv(self, target, method, prec, m):
        argv = ["gv", target, "--method", method, "--prec", str(prec)]
        code = assert_exit_contract(argv if m is None
                                    else argv + ["--m", str(m)])
        if m is not None and target != "multifiber":
            assert code == 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_NL_ARGS, _NL_ARGS, _NL_ARGS)
    def test_nl(self, h, d1, d2):
        code = assert_exit_contract(["nl", "--h", str(h), "--d1", str(d1),
                                     "--d2", str(d2)])
        assert (code == 1) == (max(h, abs(d1), abs(d2)) > NL_BOUND)

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(st.integers(-3, 12))
    def test_euler(self, lsq):
        assert_exit_contract(["euler", "--lsq", str(lsq)])

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.integers(-2, 5))
    def test_check(self, prec):
        assert_exit_contract(["check", "--prec", str(prec)])

    # one step past each bound, m(n_max - m) + 2 = 2999 + 2 for the
    # multifibre case with n_max = m + 1; and an --lsq of 4299 nines,
    # whose e(X) would pass Python's 4300-digit int-to-str limit
    @pytest.mark.parametrize("argv", [
        ["series", "inv-delta", "--prec", str(TERMS_BOUND + 1)],
        ["series", "theta-e8", "--json", "--prec", str(TERMS_BOUND + 1)],
        ["gv", "section", "--prec", str(TERMS_BOUND + 1)],
        ["gv", "fiber", "--method", "direct", "--prec", str(TERMS_BOUND + 1)],
        ["gv", "multifiber", "--m", str(TERMS_BOUND - 1), "--prec", "2"],
        ["gv", "multifiber", "--m", str(TERMS_BOUND + 1), "--prec", "1",
         "--method", "direct"],
        ["check", "--prec", str(CHECK_BOUND + 1)],
        ["euler", "--lsq", str(LSQ_BOUND + 1)],
        ["euler", "--lsq", "9" * 4299],
    ])
    def test_above_bound_is_usage_error(self, argv, monkeypatch, capsys):
        # the bound is checked before any series is built or any
        # arithmetic is done
        def poisoned(*args):
            raise AssertionError("a series was built past a bound")

        # every public generator, so a new or renamed one is poisoned too
        for name, fn in list(vars(forms).items()):
            if (not name.startswith("_") and callable(fn)
                    and getattr(fn, "__module__", None) == forms.__name__
                    and not isinstance(fn, type)):
                monkeypatch.setattr(forms, name, poisoned)
        monkeypatch.setattr(geometry, "euler_characteristic", poisoned)
        assert run(argv) == (1, "")
        bound = {"check": CHECK_BOUND, "euler": LSQ_BOUND}.get(argv[0],
                                                               TERMS_BOUND)
        assert f"must be at most {bound}\n" in capsys.readouterr().err

    # each test id names the route function of the method before the
    # route table, so the ids stay stable
    @pytest.mark.parametrize("method", ["closed", "direct"],
                             ids=["closed-f_multifiber_slice",
                                  "direct-f_multifiber_direct"])
    def test_at_bound_reaches_the_route(self, method, monkeypatch):
        # fiber_row(1499, n_max) + 1 = TERMS_BOUND rows at --prec 3, and
        # --m at its bound with one class, two rows; a stub route ends each
        # run cheaply
        seen, routes = [], []

        def stub(target, route_method, nrows):
            routes.append((target, route_method))
            seen.append(nrows)
            raise ValueError("stub route")

        monkeypatch.setattr(invariants, "gv_table", stub)
        for m, prec in ((1499, 3), (TERMS_BOUND, 1)):
            assert run(["gv", "multifiber", "--m", str(m), "--prec",
                        str(prec), "--method", method]) == (2, "")
        assert seen == [TERMS_BOUND, 2]
        assert routes == [("fiber", method)] * 2

    def test_arithmetic_error_is_domain_error(self, monkeypatch, capsys):
        # the power recurrence raises ArithmeticError on an inexact step;
        # a route that raises it ends in exit 2 and one error line
        def raising(e, nterms):
            raise ArithmeticError(f"power {e}: coefficient 3 is not an "
                                  "integer")

        monkeypatch.setattr(forms, "eta_power_jacobi", raising)
        assert run(["gv", "section", "--method", "direct", "--prec", "6"]) \
            == (2, "")
        assert capsys.readouterr().err == \
            "ellcy: error: power -12: coefficient 3 is not an integer\n"

    def test_check_at_bound_passes(self):
        code, text = run(["check", "--prec", str(CHECK_BOUND)])
        assert code == 0
        lines = text.splitlines()
        assert sum(line.startswith("PASS\t") for line in lines) == 15
        assert lines[-1] == "all 15 checks passed"

    def test_at_bound_runs(self, monkeypatch):
        code, text = run(["series", "e4", "--prec", str(TERMS_BOUND)])
        assert code == 0
        assert len(text.splitlines()) == TERMS_BOUND
        monkeypatch.setattr(checks, "run_checks", lambda prec: [])
        assert run(["check", "--prec", str(CHECK_BOUND)]) == \
            (0, "all 0 checks passed\n")
