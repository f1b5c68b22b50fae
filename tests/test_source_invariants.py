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


def names_read(tree: ast.Module) -> set[str]:
    """The names a module reads, forward references in quoted annotations included."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            read.add(node.value)
    return read


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
    read = names_read(tree)
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


# top-level definitions that stay although the package neither exports nor
# reads them, each with its reason
UNREAD_ALLOWED = {
    "rref": "the benchmark's tracer, perfbench/tracing.py, wraps exact_linalg.rref by name",
}


def test_every_top_level_definition_is_exported_or_read():
    # a function or class that the package does not export and no library
    # module reads is dead code, such as a helper left behind by a deleted path
    import lincat

    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        read |= names_read(tree)
    unread = {name for name in defined if name not in lincat.__all__ and name not in read}
    assert sorted(f"{defined[name]}:{name}" for name in unread - UNREAD_ALLOWED.keys()) == []
    # an allowed name that is gone or read again leaves the allowlist
    assert sorted(UNREAD_ALLOWED.keys() - unread) == []
