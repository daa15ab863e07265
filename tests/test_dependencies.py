"""The package imports only numpy, scipy.special and the standard library.

The project runs offline on Python and its two numeric dependencies (pyproject.toml). The
check reads the source files only, so it also sees the imports made inside functions, which
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
