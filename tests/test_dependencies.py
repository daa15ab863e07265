"""The package imports only numpy, scipy.special and the standard library, and no module of
it imports another's underscore names.

The project runs offline on Python and its two numeric dependencies (pyproject.toml). A
module's underscore names are its own, so another reaches it only through public names. The
checks read the source files only, so they also see the imports made inside functions, which
importing the package does not run.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gamiscreen"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(source: str):
    """The module named by each absolute import of `source`; relative ones are the package's."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def allowed(module: str) -> bool:
    top = module.partition(".")[0]
    return top == "numpy" or module == "scipy.special" or top in sys.stdlib_module_names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_scipy_special_and_the_stdlib(path):
    imports = absolute_imports(path.read_text(encoding="utf-8"))
    assert [m for m in imports if not allowed(m)] == []


def test_other_imports_are_refused():
    source = ("import pandas\nfrom scipy import stats\n"
              "def f():\n    from scipy.optimize import minimize\n    import numpy.linalg\n")
    assert [m for m in absolute_imports(source) if not allowed(m)] == [
        "pandas", "scipy", "scipy.optimize"]


def private_imports(source: str):
    """Each underscore name that `source` imports from the package: by a relative import, or by
    one from `gamiscreen` or a module of it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "gamiscreen"):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_underscore_names(path):
    assert list(private_imports(path.read_text(encoding="utf-8"))) == []


def test_underscore_imports_from_the_package_are_refused():
    source = ("from __future__ import annotations\nfrom numpy import _core\n"
              "from .evaluation import _roc, roc_auc\nfrom . import _hidden, logit\n"
              "def f():\n    from gamiscreen.pipeline import _stage\n"
              "    from gamiscreen import _version\n")
    assert list(private_imports(source)) == ["_roc", "_hidden", "_stage", "_version"]
