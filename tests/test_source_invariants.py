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


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """The names a module imports and never reads, with their line numbers."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # forward references in quoted annotations
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # the package's __init__ imports names only to export them
    found = []
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert found == []
