"""Checks on the library source itself, and on the example of its README."""

import ast
import contextlib
import io
from pathlib import Path
import re

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lincat"


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


# methods and properties of src classes that no library module reads, each
# with its reason
MEMBERS_WITHOUT_READER = {
    "Connection.apply": "README's lincat.connection paragraph keeps it as the connection itself, and "
                        "tests/test_connection.py checks the curvature against applying it twice",
    "ProjectiveModule.free": "README's lincat.module_algebra paragraph keeps it as the constructor of the free "
                             "module that every projective is a summand of",
    "DGCategory.form": "the m2_envelope workload of perfbench builds its forms with it",
    "DGCategory.gr_comp": "the benchmark's tracer, perfbench/tracing.py, counts the products through it",
}


def test_every_method_and_property_has_a_reader():
    # a method or property that no library module reads as an attribute is
    # dead code; dunder methods are read by Python itself
    members: set[str] = set()
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members |= {
                    f"{node.name}.{member.name}" for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                }
    unread = {member for member in members if member.split(".")[1] not in read}
    assert sorted(unread - MEMBERS_WITHOUT_READER.keys()) == []
    # an allowed member that is gone or read again leaves the allowlist
    assert sorted(MEMBERS_WITHOUT_READER.keys() - unread) == []


# exported names that no library module reads, each with its reason: the
# library is the pipeline from a category to a character class, and an
# export that only tests read belongs in tests/
PUBLIC_WITHOUT_READER = {
    "direct_sum": "the two_points_characters workload of perfbench builds its modules with it",
    "compress": "the character is natural under compression to a sub-idempotent",
    "conjugate": "the character is natural under a change of frame",
    "direct_sum_connection": "the character is additive over direct sums of connections",
}


def test_every_public_name_has_a_reader():
    # a name in `lincat.__all__` is read by a library module other than
    # the package's __init__, or stays for the reason it is listed with
    import lincat

    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            read |= names_read(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    unread = {name for name in lincat.__all__ if name not in read}
    assert sorted(unread - PUBLIC_WITHOUT_READER.keys()) == []
    # an allowed name that gains a reader or leaves `__all__` leaves the allowlist
    assert sorted(PUBLIC_WITHOUT_READER.keys() - unread) == []


# the functions of src that read an attribute named `terms`, each with its
# reason: `Form.terms` makes one `Fraction` per coefficient, so only the
# places where coefficients leave the engine, rendering and export, read it
TERMS_READERS = {
    "dg.py:render_form": "renders a form in the labels of its basis",
    "workspace.py:_form_doc": "exports a form as address terms with rational coefficients",
    "cli.py:cmd_chern": "reads CocycleCertificate.terms, the commutators a certificate cites, not a form's terms",
}


def terms_readers(tree: ast.Module, module: str) -> set[str]:
    """The "module:function" names of the innermost functions that read an attribute named `terms`."""
    found = set()

    def walk(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "terms" and isinstance(child.ctx, ast.Load):
                found.add(f"{module}:{function}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, child.name if is_function else function)

    walk(tree, None)
    return found


def test_form_terms_are_read_only_where_coefficients_leave_the_engine():
    # sums, products, d, traces and the ambient rows work on a form's
    # numerators; a hot path that reads its `Fraction` terms again fails here
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        readers |= terms_readers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name)
    assert sorted(readers - TERMS_READERS.keys()) == []
    # an allowed reader that is gone leaves the allowlist
    assert sorted(TERMS_READERS.keys() - readers) == []


def test_readme_library_overview_example_prints_its_comments():
    # the `python` block under "Library overview" runs, and each print
    # writes the line that its trailing comment shows
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library overview", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.*)$", code, re.M)]
    assert expected == ["(Fraction(1, 1),)", "x: c.dc.dc"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
