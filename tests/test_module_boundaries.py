"""No conducta module imports a private (underscore) name from another, the
closed forms stay grid-free, and ``spectral`` is the one spectral kernel.

A private name is free to change with its own module; a second module that
imports it would silently depend on it.  Shared helpers are public names.
``phases`` and ``bounds`` hold every closed form of the phase set; they import
only the standard library, ``conducta.phases`` and ``conducta.errors``, so no
numpy array or voxel grid can reach them.  Only ``spectral`` builds
wavenumbers (``fftfreq``) or runs an inverse transform; every other module
inverts through ``spectral.irfftn_into``.
"""

import ast
import sys
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


GRID_FREE = ("phases.py", "bounds.py")  # the closed forms of the phase set
GRID_FREE_IMPORTS = {"conducta.phases", "conducta.errors"}


def non_stdlib_imports(source: str) -> list[str]:
    """Every module ``source`` imports that is neither standard library nor conducta.phases / conducta.errors."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        elif isinstance(node, ast.ImportFrom):  # relative: a conducta module, or ``from . import name``
            modules = [f"conducta.{node.module}"] if node.module else [f"conducta.{a.name}" for a in node.names]
        else:
            continue
        found.extend(
            m for m in modules if m not in GRID_FREE_IMPORTS and m.split(".")[0] not in sys.stdlib_module_names
        )
    return found


def test_closed_forms_import_no_grid():
    offenders = {name: non_stdlib_imports((PACKAGE / name).read_text(encoding="utf-8")) for name in GRID_FREE}
    assert offenders == {name: [] for name in GRID_FREE}


def test_non_stdlib_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "from dataclasses import dataclass\n"
        "from .phases import PhaseSet\n"
        "from .errors import ConfigError\n"
        "from .microstructure import VoxelGrid\n"
        "from . import cell_solver\n"
        "from conducta.bmo import bmo_norm\n"
        "import scipy.special\n"
    )
    assert non_stdlib_imports(source) == [
        "numpy", "conducta.microstructure", "conducta.cell_solver", "conducta.bmo", "scipy.special"
    ]


KERNEL = "spectral.py"  # the one module that builds wavenumbers and inverts transforms
KERNEL_NAMES = {"fftfreq", "rfftfreq", "ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn"}


def kernel_names(source: str) -> list[str]:
    """Every use of a wavenumber or inverse-transform name in ``source``: attribute, bare name or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        found.extend(name for name in names if name in KERNEL_NAMES)
    return found


def test_only_the_spectral_kernel_builds_wavenumbers_or_inverts():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != KERNEL and (names := kernel_names(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
    assert sorted(set(kernel_names((PACKAGE / KERNEL).read_text(encoding="utf-8")))) == ["fftfreq", "ifft", "irfft"]


def test_kernel_names_are_found():
    source = (
        '"""irfftn in a docstring is no use."""\n'
        "import numpy.fft.irfftn\n"
        "from numpy.fft import fftfreq, rfftn\n"
        "from .spectral import irfftn_into\n"
        "x = np.fft.ifft(a)\n"
        "y = irfft(b, out=c)\n"
        "z = np.fft.rfftn(d), np.fft.ifftn(e)\n"
    )
    assert kernel_names(source) == ["irfftn", "fftfreq", "ifft", "irfft", "ifftn"]
