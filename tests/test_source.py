"""Checks on the package source itself."""

import ast
from pathlib import Path

import braidmscp

SOURCES = sorted(Path(braidmscp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"braid.py", "normal_form.py", "solver.py"}


def test_no_assert_statements():
    """Contract checks must raise errors: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"
