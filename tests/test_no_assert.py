"""Checks in the package are explicit raises, never ``assert``: an
assert statement is stripped under ``python -O`` and its check vanishes."""

import ast
from pathlib import Path

import pytest

import eleech

SOURCES = sorted(Path(eleech.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
