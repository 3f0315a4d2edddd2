"""Every name an annotation uses in src/ellcy is bound in its module.

With ``from __future__ import annotations`` an annotation is never
evaluated at import, so a name it uses but the module never binds (say,
a class imported only inside a function body) goes unnoticed until a
type checker or ``typing.get_type_hints`` reads it.  The guard parses
each ``src/ellcy/*.py`` with ``ast`` and checks every annotation name
against the module's top-level bindings and the builtins.  An import
under ``if TYPE_CHECKING:`` binds at the top level, so it counts.
"""

from __future__ import annotations

import ast
import builtins
import os
import subprocess
import sys

import pytest

import ellcy

PACKAGE_DIR = os.path.dirname(os.path.abspath(ellcy.__file__))
SOURCES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at the top level, inside top-level if blocks too."""
    bound = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
    return bound


def annotation_names(tree: ast.Module) -> set[str]:
    """Every name used in an annotation, string annotations parsed."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            annotations += [arg.annotation for arg in
                            a.posonlyargs + a.args + a.kwonlyargs
                            + [a.vararg, a.kwarg] if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    stack = [a for a in annotations if a is not None]
    while stack:
        for node in ast.walk(stack.pop()):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                stack.append(ast.parse(node.value, mode="eval").body)
    return names


@pytest.mark.parametrize("source", SOURCES)
def test_annotation_names_are_bound(source):
    with open(os.path.join(PACKAGE_DIR, source)) as fh:
        tree = ast.parse(fh.read(), source)
    unbound = annotation_names(tree) - module_bindings(tree) - set(
        dir(builtins))
    assert not unbound, f"{source} annotates with unbound {sorted(unbound)}"


def test_annotation_imports_load_nothing():
    # the TYPE_CHECKING imports stay unevaluated: importing every module
    # but __main__ in a fresh interpreter without site loads neither
    # fractions nor typing
    script = ("import sys, ellcy\n"
              + "".join(f"import ellcy.{s[:-3]}\n" for s in SOURCES
                        if not s.startswith("__"))
              + "print(sorted({'fractions', 'typing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_series_hints_resolve_at_run_time():
    # typing.get_type_hints resolves every annotation of every function
    # and method with no localns, but for invariants: its Fraction is
    # bound only for type checkers, so gv_to_gw_genus0 needs one
    import typing
    from collections.abc import Iterable
    from fractions import Fraction

    from ellcy import checks, cli, forms, geometry, invariants, series
    assert typing.get_type_hints(series.QSeries.__init__) == \
        {"coeffs": Iterable[int], "offset": int, "prec": int}
    assert typing.get_type_hints(series.QSeries.coeff_at) == \
        {"e": int, "return": int}
    for module in (series, forms, geometry, invariants, checks, cli):
        localns = {"Fraction": Fraction} if module is invariants else None
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type)
                             and v.__module__ == module.__name__]
        for owner in owners:
            for fn in vars(owner).values():
                fn = getattr(fn, "__func__", fn)  # classmethods
                if callable(fn) and not isinstance(fn, type):
                    typing.get_type_hints(fn, localns=localns)
