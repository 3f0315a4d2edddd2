"""Every function in src/ellcy is reached by importing and running the CLI.

The guard imports a fresh copy of the package and runs one fixed argv per
subcommand, series name, gv target and route of ``invariants.ROUTES``,
one with an abbreviated option, plus one usage error and one domain
error, all in process under ``sys.setprofile``, and asserts that the
code object of every function defined in ``src/ellcy/*.py`` was
entered, at import or by a command.  A second pass runs every argv but
``check`` and asserts the same of every function in ``series.py``: the
suite has its own oracles, so no series operation is there only for it.
A third test reads the sources and asserts that the product kernel
``int_product`` has one caller, ``QSeries.__mul__``, and no importer,
a fourth that a check verdict, a ``CheckResult``, is built only in
``checks.check_pairs``, and a fifth that each check's name is written
once in ``checks.py``, in ``run_checks``' table.  A last test pins what
the tracer in ``perfbench/trace_child.py`` relies on: ``check_pairs`` is
the one ``check_*`` name of ``checks``, so wrapping it gives one span per
check, named after its result.

Code objects are compared, not lines, so functions behind ``lru_cache``
or ``classmethod`` count through the code they wrap, and code nested in
a function (lambdas, generator expressions) is checked too, as are the
functions held in module-level dicts and tuples, such as the generators
of ``invariants.ROUTES``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import pkgutil
import sys
import types

import ellcy
from ellcy import invariants

PACKAGE_DIR = os.path.dirname(os.path.abspath(ellcy.__file__))

# Functions that no command reaches on purpose, each with its reason.
ALLOWED_UNREACHED = {
    "series.QSeries.__repr__": "protocol: readable series in a debugger",
    "series.QSeries.__eq__": "protocol: tests compare series by value",
    "invariants.gv_to_gw_genus0": "the paper's GV to GW multiple-cover "
                                  "formula on fibre rows, in the README",
    "cli.entry_point": "the console script; main is run directly here",
}

# the gv targets that print the rows of each target of invariants.ROUTES
GV_TARGETS = {"section": [["section"]],
              "fiber": [["fiber"], ["multifiber", "--m", "2"]]}
ARGVS = (
    [["series", name, "--prec", "3"]
     for name in ("delta", "inv-delta", "inv-sqrt-delta", "e4", "e6",
                  "e10", "theta-e8")]
    + [["series", name, "--prec", "3", "--json"]
       for name in ("e4", "inv-sqrt-delta")]
    # E4 times eta^-12 at 17 terms, one past the row loop, through the
    # packed kernel
    + [["gv", "section", "--prec", "17"]]
    # every route of the table, through each gv target that prints it
    + [["gv", *target, "--method", method, "--prec", "3"]
       for table_target, methods in invariants.ROUTES.items()
       for target in GV_TARGETS[table_target]
       for method in methods]
    + [["gv", "multifiber", "--m", "3", "--prec", "1"]]
    + [["nl", "--h", "0", "--d1", "0", "--d2", "0"],
       ["euler"],
       ["euler", "--l", "8"],
       ["check", "--prec", "2"]]
)
USAGE_ERROR_ARGV = ["series", "zeta"]
DOMAIN_ERROR_ARGV = ["euler", "--lsq", "0"]


@contextlib.contextmanager
def _fresh_package():
    """Import ellcy afresh, and put the caller's ellcy modules back after.

    A fresh import runs the module-level code (constants validated at
    import) and starts every lru_cache empty.
    """
    def ours(name: str) -> bool:
        return name == "ellcy" or name.startswith("ellcy.")

    saved = {k: v for k, v in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    try:
        yield
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def _package_modules() -> list[types.ModuleType]:
    # __main__ runs the CLI on import and defines no function
    return [importlib.import_module(f"ellcy.{info.name}")
            for info in pkgutil.iter_modules([PACKAGE_DIR])
            if info.name != "__main__"]


def _functions(value):
    """Plain functions behind a module or class attribute."""
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    value = getattr(value, "__wrapped__", value)  # lru_cache
    if isinstance(value, types.FunctionType):
        yield value
    elif isinstance(value, (dict, tuple)):  # tables such as ROUTES
        for v in value.values() if isinstance(value, dict) else value:
            yield from _functions(v)
    elif isinstance(value, type):
        for v in vars(value).values():
            yield from _functions(v)


def _package_code(modules) -> dict[types.CodeType, str]:
    """Each code object defined in the modules, named module.qualname."""
    names: dict[types.CodeType, str] = {}

    def add(code: types.CodeType, name: str) -> None:
        if os.path.dirname(code.co_filename) != PACKAGE_DIR or code in names:
            return
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, f"{name}.{const.co_name}")

    for module in modules:
        for value in vars(module).values():
            for fn in _functions(value):
                mod = fn.__module__.rsplit(".", 1)[-1]
                add(fn.__code__, f"{mod}.{fn.__qualname__}")
    return names


def _run(main, argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv, out=io.StringIO())
        except SystemExit as exc:
            return exc.code


def _traced_run(argvs):
    """Run each argv on a fresh package under a profiler.

    Returns the code objects entered, the package's code objects by name,
    each argv's exit code, and the codes of the usage-error and
    domain-error argvs.
    """
    entered: set[types.CodeType] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    with _fresh_package():
        sys.setprofile(profile)
        try:
            modules = _package_modules()
            main = sys.modules["ellcy.cli"].main
            codes = [_run(main, argv) for argv in argvs]
            errors = (_run(main, USAGE_ERROR_ARGV),
                      _run(main, DOMAIN_ERROR_ARGV))
        finally:
            sys.setprofile(previous)
    return entered, _package_code(modules), codes, errors


def _allowed(name: str, allow_list) -> bool:
    return any(name == a or name.startswith(a + ".") for a in allow_list)


def test_every_function_is_reached():
    entered, names, codes, errors = _traced_run(ARGVS)
    assert codes == [0] * len(ARGVS)
    assert errors == (1, 2)
    unreached = sorted(f"{name} (line {code.co_firstlineno})"
                       for code, name in names.items()
                       if code not in entered
                       and not _allowed(name, ALLOWED_UNREACHED))
    assert unreached == []
    reached_allowed = sorted(name for code, name in names.items()
                             if code in entered and name in ALLOWED_UNREACHED)
    assert reached_allowed == []
    assert set(ALLOWED_UNREACHED) <= set(names.values())


# Functions in series.py that the commands other than `check` need not
# reach, each with its reason
SERIES_ALLOWED_UNREACHED = {
    "series.QSeries.__eq__": ALLOWED_UNREACHED["series.QSeries.__eq__"],
    "series.QSeries.__repr__": ALLOWED_UNREACHED["series.QSeries.__repr__"],
}


def test_series_code_serves_the_commands():
    # the check suite states its identities with its own oracles, so no
    # series operation may live only for `check`
    argvs = [argv for argv in ARGVS if argv[0] != "check"]
    entered, names, codes, errors = _traced_run(argvs)
    assert codes == [0] * len(argvs)
    assert errors == (1, 2)
    unreached = sorted(f"{name} (line {code.co_firstlineno})"
                       for code, name in names.items()
                       if name.startswith("series.") and code not in entered
                       and not _allowed(name, SERIES_ALLOWED_UNREACHED))
    assert unreached == []
    assert set(SERIES_ALLOWED_UNREACHED) <= set(names.values())


def _uses(tree: ast.AST, target: str, scope: str = ""):
    """(scope, kind) of each call and import of the name target in a tree."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            fn = node.func
            if getattr(fn, "id", getattr(fn, "attr", None)) == target:
                yield scope, "call"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.rsplit(".", 1)[-1] == target
                   for alias in node.names):
                yield scope, "import"
        yield from _uses(node, target, inner)


def _package_uses(target: str) -> list[tuple[str, str, str]]:
    """(file, scope, kind) of each use of target in src/ellcy/*.py."""
    uses = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                tree = ast.parse(fh.read(), name)
            uses += [(name, *use) for use in _uses(tree, target)]
    return uses


def test_series_product_is_the_one_kernel_caller():
    # a check or a fault placed in QSeries.__mul__ then sees every
    # product, the routes' own and ring-laws' full-size one included
    assert _package_uses("int_product") == [
        ("series.py", "QSeries.__mul__", "call")]


def test_check_verdicts_have_one_shape():
    # every PASS and FAIL of the suite, a check that raised included, is
    # made by check_pairs, so no check words its own
    assert sorted(set(_package_uses("CheckResult"))) == [
        ("checks.py", "check_pairs", "call")]


CHECK_NAMES = ["ring-laws", "slice-partition", "precision-honesty",
               "pairing-determinant", "pushforward-kernel", "nl-vanishing",
               "theta-e8-equals-e4", "e10-sigma9", "eta-power-additivity",
               "fiber-dual-route", "section-dual-route",
               "multifiber-dual-route-m2", "multifiber-dual-route-m3",
               "gv-integrality", "euler-hodge"]


def test_each_check_is_named_once():
    # a check's functions name nothing; run_checks' table is the one
    # place that writes each name, as a whole string literal
    with open(os.path.join(PACKAGE_DIR, "checks.py")) as fh:
        tree = ast.parse(fh.read())
    run_checks, = (node for node in tree.body
                   if getattr(node, "name", None) == "run_checks")
    literals, in_table = ([node.value for node in ast.walk(root)
                           if isinstance(node, ast.Constant)
                           and node.value in CHECK_NAMES]
                          for root in (tree, run_checks))
    assert sorted(literals) == sorted(in_table) == sorted(CHECK_NAMES)


def test_the_tracer_sees_every_check(monkeypatch):
    # perfbench/trace_child.py wraps every attribute of checks named
    # check_* and names each span after the result's name; a second
    # check_* name would be called with no result name to read, and a
    # rename of check_pairs would leave the checks' spans unrecorded
    from ellcy import checks
    from ellcy.series import QSeries
    names = [name for name in dir(checks) if name.startswith("check_")]
    assert names == ["check_pairs"]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "trace_child.py")
    spec = importlib.util.spec_from_file_location("trace_child", path)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    tracer = trace_child.Tracer(QSeries)
    for name in names:
        monkeypatch.setattr(checks, name, tracer.wrap(
            "checks.?", getattr(checks, name), key_args=False))
    results = checks.run_checks(6)
    assert [r.name for r in results] == CHECK_NAMES
    assert [span[0] for span in tracer.spans] == [
        f"checks.{name}" for name in CHECK_NAMES]
