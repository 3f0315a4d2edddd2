"""Command-line front end.

Subcommands: `series` (named q-expansions), `gv` (invariant tables by
either route), `nl` (a single Noether-Lefschetz number), `euler`
(Euler-characteristic bookkeeping) and `check` (the full consistency
suite).  Exit codes: 0 success, 1 usage error or a stdout whose reader
closed early, 2 domain or consistency failure.  `entry_point` ends the
process with no interpreter teardown.  All numeric output is exact; JSON
coefficients are decimal strings so arbitrary magnitudes survive any
consumer.
"""

import atexit
import os
import sys

from . import forms, geometry, invariants
from .series import QSeries

USAGE_ERROR = 1
DOMAIN_ERROR = 2

# largest h, |d1| and |d2| that nl accepts (h < 0 is a domain error): the
# half-discriminant stays below about 2e12, so sigma_9 by trial division
# takes about 0.15 s on a 2-core VM
NL_BOUND = 10 ** 6
# largest euler --lsq: its numbers stay far below int-to-str's 4300 digits
LSQ_BOUND = 10 ** 6

# most series terms that series and gv build, and largest --m: at the bound
# gv fiber and multifiber, the slowest, take about 0.7-1.2 s on a 2-core VM
TERMS_BOUND = 3000
# largest check --prec: at the bound check takes about 0.14-0.24 s on a
# 2-core VM
CHECK_BOUND = 300

# Each name: (generator, exp_den, first exponent), the one place a printed
# shift is stated.  The generator's term q^i is printed at
# q^((first + exp_den * i)/exp_den), so inv-sqrt-delta, q^(1/2)/sqrt(Delta)
# on the integer grid, is printed times q^(-1/2) on the half grid.
_SERIES = {
    "delta": (lambda prec: forms.eta_power(24, prec), 1, 1),
    "inv-delta": (lambda prec: forms.eta_power(-24, prec), 1, -1),
    "e4": (lambda prec: forms.eisenstein(4, prec), 1, 0),
    "e6": (lambda prec: forms.eisenstein(6, prec), 1, 0),
    "e10": (lambda prec: forms.eisenstein(10, prec), 1, 0),
    "theta-e8": (lambda prec: forms.theta_e8(prec), 1, 0),
    "inv-sqrt-delta": (lambda prec: forms.eta_power(-12, prec), 2, -1),
}


def series_to_doc(f: QSeries, den: int, first: int) -> str:
    """Lossless JSON document for f's term q^i at q^((first + den i)/den).

    The text is what `json.dumps` writes for the document, written here
    so that `series --json` never imports `json`.  Every coefficient is
    an int, a decimal string under "num"; its "den" is always "1" and
    stays so that the document keeps its numerator/denominator format.
    Exponents are "offset" + j over "exp_den": den, and with den > 1 a
    known zero fills each slot between two terms of f.
    """
    gap = ', {"num": "0", "den": "1"}' * (den - 1)
    slots = ", ".join(f'{{"num": "{c}", "den": "1"}}{gap}' for c in f.coeffs)
    return (f'{{"variable": "q", "exp_den": {den}, "offset": {first}, '
            f'"prec": {first + den * f.prec}, "coeffs": [{slots}]}}')


def _check_prec(prec: int, least: int, most: int) -> None:
    if prec < least:
        raise _UsageError(f"--prec must be at least {least}")
    if prec > most:
        raise _UsageError(f"--prec must be at most {most}")


def cmd_series(args, out) -> int:
    _check_prec(args.prec, 1, TERMS_BOUND)
    generator, den, first = _SERIES[args.name]
    f = generator(args.prec)
    if args.json:
        out.write(series_to_doc(f, den, first) + "\n")
        return 0
    for e, c in zip(range(first, first + den * f.prec, den), f.coeffs):
        out.write(f"{e}/{den}\t{c}\n" if den > 1 else f"{e}\t{c}\n")
    return 0


def cmd_gv(args, out) -> int:
    if args.m is not None and args.target != "multifiber":
        raise _UsageError("--m applies to multifiber only")
    _check_prec(args.prec, 1, TERMS_BOUND)
    prec = args.prec
    if args.target == "section":
        ns = range(prec)
        values = invariants.gv_table("section", args.method, prec)
        classes = [geometry.CurveClass(c=1, e=n) for n in ns]
    else:  # multifiber; fiber is its m = 1 case
        m = 1 if args.target == "fiber" else args.m
        if args.target == "multifiber" and (m is None or m < 2):
            raise _UsageError("multifiber requires --m with m >= 2")
        ns = range(invariants.first_row(m), invariants.first_row(m) + prec)
        # n_max + 1 > m classes, read off fiber_row(m, n_max) + 1 rows
        nrows = invariants.fiber_row(m, ns[-1]) + 1
        if max(m, nrows) > TERMS_BOUND:
            raise _UsageError(f"--m and m * (n_max - m) + 2 must be at most "
                              f"{TERMS_BOUND}")
        rows = invariants.gv_table("fiber", args.method, nrows)
        values = invariants.fiber_classes(rows, m, ns)
        classes = [geometry.CurveClass(e=n, f=m) for n in ns]
    for n, beta, value in zip(ns, classes, values):
        out.write(f"{n}\t{beta.label()}\t{value}\n")
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
    if args.lsq > LSQ_BOUND:
        raise _UsageError(f"--lsq must be at most {LSQ_BOUND}")
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
    _check_prec(args.prec, 2, CHECK_BOUND)
    from . import checks  # the suite's code stays off the other commands
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


_REQUIRED = object()  # the default of an option that must be given
# Each command: (function, help, positional, options).  The positional is
# (name, choices) or None.  An option maps its flag, "--" and the attribute
# it sets, to (kind, default, help); the kind is int, bool (a flag, which
# takes no value) or a tuple of string choices.
_COMMANDS = {
    "series": (cmd_series, "print a named q-expansion",
               ("name", tuple(sorted(_SERIES))),
               {"--prec": (int, 32, "terms from the leading exponent"),
                "--json": (bool, False, "emit a JSON series document")}),
    "gv": (cmd_gv, "print a table of genus-0 GV invariants",
           ("target", ("fiber", "section", "multifiber")),
           {"--m": (int, None, "fibre multiplicity (multifiber only)"),
            "--prec": (int, 16, "number of entries"),
            "--method": (tuple(invariants.ROUTES["fiber"]), "closed",
                         "which route")}),
    "nl": (cmd_nl, "print one Noether-Lefschetz number", None,
           {"--h": (int, _REQUIRED, "h of the index (h; d1, d2)"),
            "--d1": (int, _REQUIRED, "d1 of the index"),
            "--d2": (int, _REQUIRED, "d2 of the index")}),
    "euler": (cmd_euler, "Euler characteristic bookkeeping", None,
              {"--lsq": (int, 8, "self-intersection of the polarization, "
                                 "at most 10^6")}),
    "check": (cmd_check, "run the full consistency suite", None,
              {"--prec": (int, 16, "terms of the series comparisons")}),
}
# the top level in the same shape: its positional is the command
_TOP = (None, "Exact curve-count generating functions for the elliptic "
              "Calabi-Yau threefold over the degree-8 del Pezzo surface.",
        ("command", tuple(_COMMANDS)), {})


class _Args:
    """The parsed command line: one attribute per positional and option."""


def _help(cmd: str | None) -> str:
    """Help for the top level (cmd None) or a command; line 1 is usage."""
    _, about, positional, options = _COMMANDS[cmd] if cmd else _TOP
    usage = f"usage: ellcy{f' {cmd}' if cmd else ''} [-h]"
    rows = [(name, entry[1]) for name, entry in _COMMANDS.items() if not cmd]
    rows.append(("-h, --help", "show this help and exit"))
    for flag, (kind, default, text) in options.items():
        word = flag if kind is bool else f"{flag} " + (
            flag[2:].upper() if kind is int else "{" + ",".join(kind) + "}")
        usage += f" {word}" if default is _REQUIRED else f" [{word}]"
        note = "required" if default is _REQUIRED else f"default: {default}"
        rows.append((word, text if kind is bool else f"{text} ({note})"))
    if positional:
        usage += " {" + ",".join(positional[1]) + ("}" if cmd else "} ...")
    width = max(len(left) for left, _ in rows)
    return "\n".join([usage, "", about, ""] + [
        f"  {left:{width}}  {right}" for left, right in rows]) + "\n"


def _fail(cmd: str | None, message: str):
    """A usage error: usage and message to stderr, and exit status 1."""
    prog = f"ellcy {cmd}" if cmd else "ellcy"
    usage = _help(cmd).splitlines()[0]
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(USAGE_ERROR)


def parse_args(argv: list[str], out) -> _Args:
    """argv read against the table, in the forms the README's CLI lists."""
    args, cmd, (_, _, positional, options) = _Args(), None, _TOP
    for token in (tokens := iter(argv)):
        if not token.startswith("-"):
            if positional is None:
                _fail(cmd, f"unrecognized arguments: {token}")
            (name, kind), text, positional = positional, token, None
        else:
            name, eq, text = token.partition("=")
            names = ("-h", "--help", *options)
            found = [name] if name in names else [  # or a unique prefix
                f for f in names if f.startswith(name) and len(name) > 2]
            if len(found) != 1:
                _fail(cmd, f"option {name} matches {len(found)} of "
                           f"{', '.join(names)}")
            name = found[0]
            kind = options[name][0] if name in options else None  # help
            if eq and kind in (bool, None):
                _fail(cmd, f"argument {name}: ignored explicit argument "
                           f"{text!r}")
            if kind is None:  # help at once, whatever follows
                out.write(_help(cmd))
                raise SystemExit(0)
            if kind is not bool and not eq:
                text = next(tokens, "-")  # "-": no value is left
                if text.startswith("-") and not text[1:].isdecimal():
                    _fail(cmd, f"argument {name}: expected one argument")
        value = True if kind is bool else text
        if kind is int:
            try:
                value = int(text)
            except ValueError:
                _fail(cmd, f"argument {name}: invalid int value: {text!r}")
        elif kind is not bool and text not in kind:
            _fail(cmd, f"argument {name}: invalid choice: {text!r} (choose "
                       f"from {', '.join(kind)})")
        setattr(args, name.lstrip("-"), value)
        if cmd is None:  # the rest of argv belongs to the command
            cmd = value
            args.func, _, positional, options = _COMMANDS[cmd]
            for flag, (_, default, _) in options.items():
                setattr(args, flag[2:], default)
    missing = [positional[0]] if positional else []
    missing += [f for f in options if getattr(args, f[2:]) is _REQUIRED]
    if missing:
        _fail(cmd, f"missing required arguments: {', '.join(missing)}")
    return args


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = parse_args(sys.argv[1:] if argv is None else argv, out)
    try:
        return args.func(args, out)
    except _UsageError as exc:
        print(f"ellcy: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"ellcy: error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


def entry_point() -> None:
    """The process entry: main, atexit's callbacks, the flush, os._exit.

    main's code, or its SystemExit's, is the exit status; os._exit skips
    the interpreter's teardown of every module and object.  A reader that
    closed stdout early (BrokenPipeError from main or a flush) gives
    status 1 and nothing on stderr.  Other exceptions propagate.  Under a
    profiler or tracer, which reports at the interpreter's exit, SystemExit
    ends the process.  main never does: the tests call it in process.
    """
    if sys.getprofile() or sys.gettrace():
        raise SystemExit(main())
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    except BrokenPipeError:
        code = USAGE_ERROR
    atexit._run_exitfuncs()
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except BrokenPipeError:
            code = USAGE_ERROR
        except OSError:  # the interpreter's last flush reports it
            raise SystemExit(code)
    os._exit(code)
