"""Every module parses as the oldest Python that ``pyproject.toml`` allows.

The suite may run on a newer interpreter only, so syntax added after the
floor (``except*``, a ``type`` alias, a ``match`` below 3.10) would slip
through; ``ast.parse`` with ``feature_version`` refuses it.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankaudit"
MODULES = sorted(PACKAGE.rglob("*.py"))


def python_floor() -> tuple[int, int]:
    tomllib = pytest.importorskip("tomllib")
    requires = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", requires.strip()).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=[path.relative_to(PACKAGE).as_posix() for path in MODULES])
def test_module_parses_at_the_python_floor(path) -> None:
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=python_floor())


def test_the_floor_check_refuses_newer_syntax() -> None:
    floor = python_floor()
    if floor >= (3, 11):
        pytest.skip("exception groups are within the floor")
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
