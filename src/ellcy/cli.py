"""Command-line front end.

Subcommands: `series` (named q-expansions), `gv` (invariant tables by
either route), `nl` (a single Noether-Lefschetz number), `euler`
(Euler-characteristic bookkeeping) and `check` (the full consistency
suite).  Exit codes: 0 success, 1 usage error, 2 domain or consistency
failure.  All numeric output is exact; rationals serialize in JSON as
decimal-string numerator/denominator pairs so arbitrary magnitudes
survive any consumer.
"""

from __future__ import annotations

import argparse
import sys
from math import gcd

from . import forms, geometry, invariants
from .series import QSeries

USAGE_ERROR = 1
DOMAIN_ERROR = 2

# largest h, |d1| and |d2| that nl accepts (h < 0 is a domain error): the
# half-discriminant stays below about 2e12, so sigma_9 by trial division
# takes about 0.15 s on a 2-core VM
NL_BOUND = 10 ** 6

# most series terms that series and gv build, and largest --m: at the bound
# gv fiber --method direct, the slowest, takes about 2.0 s on a 2-core VM
TERMS_BOUND = 3000
# largest check --prec: at the bound the suite takes about 0.5 s
CHECK_BOUND = 300

_SERIES = {
    "delta": forms.delta,
    "inv-delta": forms.inverse_delta,
    "e4": lambda prec: forms.eisenstein(4, prec),
    "e6": lambda prec: forms.eisenstein(6, prec),
    "e10": lambda prec: forms.eisenstein(10, prec),
    "theta-e8": forms.theta_e8,
    "inv-sqrt-delta": forms.inverse_sqrt_delta,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def series_to_doc(f: QSeries, variable: str = "q") -> dict:
    """Lossless JSON document for a series."""
    return {
        "variable": variable,
        "exp_den": f.exp_den,
        "offset": f.offset,
        "prec": f.prec,
        "coeffs": [{"num": str(c.numerator), "den": str(c.denominator)}
                   for c in f.coeffs],
    }


def _fmt_ratio(num: int, den: int) -> str:
    """num/den (den > 0) as `Fraction` prints it: "n" or "n/d", reduced."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _print_series(f: QSeries, as_json: bool, out) -> None:
    if as_json:
        import json  # only this output needs it; kept off the start-up path
        # dumps runs the C encoder; dump to a stream writes chunk by chunk
        out.write(json.dumps(series_to_doc(f)) + "\n")
        return
    for i, c in enumerate(f.coeffs, f.offset):
        if f.exp_den == 1 or c != 0:
            out.write(f"{_fmt_ratio(i, f.exp_den)}\t{c}\n")


def _check_prec(prec: int) -> None:
    if prec < 1:
        raise _UsageError("--prec must be at least 1")
    if prec > TERMS_BOUND:
        raise _UsageError(f"--prec must be at most {TERMS_BOUND}")


def cmd_series(args, out) -> int:
    _check_prec(args.prec)
    f = _SERIES[args.name](args.prec)
    _print_series(f, args.json, out)
    return 0


def cmd_gv(args, out) -> int:
    _check_prec(args.prec)
    prec = args.prec
    if args.target == "section":
        route = (invariants.f_section_closed if args.method == "closed"
                 else invariants.f_section_convolution)
        values = route(prec)
        rows = [(n, geometry.CurveClass(c=1, e=n)) for n in range(prec)]
    else:  # multifiber; fiber is its m = 1 case
        m = 1 if args.target == "fiber" else args.m
        if args.target == "multifiber" and (m is None or m < 2):
            raise _UsageError("multifiber requires --m with m >= 2")
        first = invariants.first_row(m)
        nmax = first + prec - 1
        # the slice builds m(n_max - m) + 2 terms, and both routes return
        # their rows from n = 0, so n_max + 1 > m entries
        if max(m, m * (nmax - m) + 2) > TERMS_BOUND:
            raise _UsageError(f"--m and m * (n_max - m) + 2 must be at most "
                              f"{TERMS_BOUND}")
        route = (invariants.f_multifiber_slice if args.method == "closed"
                 else invariants.f_multifiber_direct)
        values = route(m, nmax)
        rows = [(n, geometry.CurveClass(e=n, f=m))
                for n in range(first, nmax + 1)]
    for n, beta in rows:
        out.write(f"{n}\t{beta.label()}\t{values[n]}\n")
    return 0


def cmd_nl(args, out) -> int:
    if max(args.h, abs(args.d1), abs(args.d2)) > NL_BOUND:
        raise _UsageError(f"--h, |--d1| and |--d2| must be at most "
                          f"{NL_BOUND}")
    disc = geometry.nl_discriminant(args.h, args.d1, args.d2)
    value = invariants.nl_number(args.h, args.d1, args.d2)
    if disc < 0:
        out.write(f"{value} (discriminant negative)\n")
    else:
        out.write(f"{value}\n")
    return 0


def cmd_euler(args, out) -> int:
    data = geometry.euler_characteristic(args.lsq)
    out.write(f"deg K_Delta\t{data.deg_K_delta}\n")
    out.write(f"cusps\t{data.cusps}\n")
    out.write(f"e(Delta)\t{data.e_delta}\n")
    out.write(f"e(X)\t{data.e_X}\n")
    if args.lsq == 8:
        verdict = "consistent" if geometry.hodge_consistency() else "INCONSISTENT"
        out.write(f"hodge 2({geometry.H11}-{geometry.H21}) = "
                  f"{2 * (geometry.H11 - geometry.H21)}\t{verdict}\n")
    return 0


def cmd_check(args, out) -> int:
    if args.prec < 2:
        raise _UsageError("--prec must be at least 2")
    if args.prec > CHECK_BOUND:
        raise _UsageError(f"--prec must be at most {CHECK_BOUND}")
    from . import checks  # its Fraction oracles stay off the other commands
    results = checks.run_checks(args.prec)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status}\t{res.name}"
        if res.detail:
            line += f"\t{res.detail}"
        out.write(line + "\n")
        if not res.passed:
            failures += 1
    if failures:
        out.write(f"{failures} check(s) failed\n")
        return DOMAIN_ERROR
    out.write(f"all {len(results)} checks passed\n")
    return 0


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ellcy",
                     description="Exact curve-count generating functions for "
                                 "the elliptic Calabi-Yau threefold over the "
                                 "degree-8 del Pezzo surface.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a named q-expansion")
    p.add_argument("name", choices=sorted(_SERIES))
    p.add_argument("--prec", type=int, default=32,
                   help="number of terms from the leading exponent")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON series document")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("gv", help="print a table of genus-0 GV invariants")
    p.add_argument("target", choices=["fiber", "section", "multifiber"])
    p.add_argument("--m", type=int, default=None,
                   help="fibre multiplicity (multifiber only)")
    p.add_argument("--prec", type=int, default=16, help="number of entries")
    p.add_argument("--method", choices=["closed", "direct"], default="closed")
    p.set_defaults(func=cmd_gv)

    p = sub.add_parser("nl", help="print one Noether-Lefschetz number")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.set_defaults(func=cmd_nl)

    p = sub.add_parser("euler", help="Euler characteristic bookkeeping")
    p.add_argument("--lsq", type=int, default=8,
                   help="self-intersection of the polarizing bundle")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("check", help="run the full consistency suite")
    p.add_argument("--prec", type=int, default=16,
                   help="term count for the series comparisons")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except _UsageError as exc:
        print(f"ellcy: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"ellcy: error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


def entry_point() -> None:
    raise SystemExit(main())
