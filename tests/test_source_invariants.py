"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lincat"


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so an invariant must raise a typed error
    found = []
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_export_resolves():
    # a name removed from the package must also leave `__all__`
    import lincat

    assert len(set(lincat.__all__)) == len(lincat.__all__)
    assert [name for name in lincat.__all__ if not hasattr(lincat, name)] == []
