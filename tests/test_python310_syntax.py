"""Every Python file of the project parses as Python 3.10, the oldest version it supports.

The check reads the files only; it does not catch a standard-library call that behaves
differently on 3.10 (such as an argument that gained a default later).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)  # pyproject.toml: requires-python = ">=3.10"
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_pyproject_names_the_oldest_version():
    assert f'requires-python = ">={OLDEST[0]}.{OLDEST[1]}"' in (
        ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_the_oldest_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
