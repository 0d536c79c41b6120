"""No conducta module imports a private (underscore) name from another.

A private name is free to change with its own module; a second module that
imports it would silently depend on it.  Shared helpers are public names.
"""

import ast
from pathlib import Path

import conducta

PACKAGE = Path(conducta.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """``module.name`` for every underscore name that ``source`` imports from a conducta module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "conducta":
            continue
        found.extend(f"{'.' * node.level}{module}.{alias.name}" for alias in node.names if alias.name.startswith("_"))
    return found


def test_no_module_imports_a_private_name_from_another():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "from ._util import helper\n"
        "from .cell_solver import _distinct, traceless_hessian\n"
        "from conducta.bmo import _centered\n"
        "from numpy.fft import _pocketfft\n"
    )
    assert private_imports(source) == [".cell_solver._distinct", "conducta.bmo._centered"]
