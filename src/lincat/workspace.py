"""Workspace documents: a JSON surface for every object the engine handles.

A workspace bundles one base category, one graded extension (universal,
trivial, or explicit tables), and named modules, connections, and
endomorphisms over it.  Parsing is strict: unknown labels, malformed
scalars, shape mismatches, products or differentials given twice, and
non-idempotent module matrices all raise `WorkspaceError` with a message
naming the offending entry.  Structure constants and explicit tables go
to the engine as sparse maps of their nonzero terms, the format the
`Category` and `DGCategory` constructors take, with no dense detour.

Serialization is canonical.  `serialize_workspace` builds the document
from the parsed objects when it is asked for, with every coefficient
normalized, so serializing, re-parsing, and serializing again is
byte-stable; reports built on top of workspaces inherit that
determinism.  The parser keeps no copy of the document.

Form literals come in two shapes, usable anywhere a form is expected:

* word terms     {"coeff": "1", "word": ["a0", "a1", ..., "ak"]}
  meaning coeff . a0 . d(a1) ... d(ak), built from arrow labels with
  the graded category's own composition and differential;
* address terms  {"coeff": "1", "degree": n, "dom": "x", "cod": "y",
  "basis": "<basis label>"} referring to one basis element of the named
  graded hom space.

An entry is a list of such terms; the empty list is the zero form.
The explicit tables of the `tables` model address their basis elements
the same way.  An address term is read in one place, `_Parser.address`,
and written in one, `_address_doc`.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Any

from .category import Category, ObjectId, build_category
from .connection import Connection, canonical_connection
from .dg import DGCategory, Form, trivial_dg, universal_dg
from .errors import CategoryAxiomError, LincatError, ScalarTypeError, WorkspaceError
from .exact_linalg import format_scalar, fraction_terms, scalar
from .form_matrix import FormMatrix
from .module_algebra import ProjectiveModule

FORMAT_NAME = "lincat-workspace"
FORMAT_VERSION = 1


@dataclass
class Workspace:
    """Parsed workspace: the category, its graded extension and the named objects over it."""

    name: str
    category: Category
    dg: DGCategory
    model: str
    modules: dict[str, ProjectiveModule]
    connections: dict[str, Connection]
    connection_kinds: dict[str, str]
    endomorphisms: dict[str, tuple[str, FormMatrix]]


# ---------------------------------------------------------------------------
# parsing helpers


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WorkspaceError(message)


def _get(doc, key: str, where: str):
    if not isinstance(doc, Mapping):
        raise WorkspaceError(f"{where}: expected an object with key {key!r}")
    if key not in doc:
        raise WorkspaceError(f"{where}: missing required key {key!r}")
    return doc[key]


def _list(value, message: str) -> Sequence:
    """The value, if it is a list; a string is refused, not read as the list of its characters."""
    _require(isinstance(value, Sequence) and not isinstance(value, str), message)
    return value


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkspaceError(f"{where}: expected an integer, got {value!r}")
    return value


def _place(degree: int, dom: ObjectId, cod: ObjectId) -> str:
    return f"in degree {degree} at ({cod.label},{dom.label})"


def _coefficient_terms(
    terms, space: tuple[int, ObjectId, ObjectId], resolve, where: str
) -> Iterator[tuple[Fraction, Any]]:
    """Each term of a form literal, resolved, with its rational coefficient (1 when it names none).

    A term is an object; `resolve` maps it to (degree, dom, cod, value),
    and a term whose (degree, dom, cod) is not `space` is refused.
    """
    degree, dom, cod = space
    for t in _list(terms, f"{where}: expected a list of terms"):
        _require(isinstance(t, Mapping), f"{where}: each term must be an object")
        try:
            coeff = scalar(t.get("coeff", "1"), f"{where}: coefficient")
        except ScalarTypeError as exc:
            raise WorkspaceError(str(exc)) from exc
        n, t_dom, t_cod, value = resolve(t)
        _require(
            (n, t_dom, t_cod) == space,
            f"{where}: term has degree {n} from {t_dom.label} to {t_cod.label}, "
            f"expected degree {degree} from {dom.label} to {cod.label}",
        )
        yield coeff, value


class _Parser:
    def __init__(self, doc: Mapping):
        _require(isinstance(doc, Mapping), "workspace document must be a JSON object")
        _require(doc.get("format") == FORMAT_NAME, f"unknown document format, expected {FORMAT_NAME!r}")
        _require(doc.get("version") == FORMAT_VERSION, f"unsupported document version, expected {FORMAT_VERSION}")
        self.name = str(_get(doc, "name", "workspace"))
        self.doc = doc
        self.arrow_home: dict[str, tuple[int, int, int]] = {}

    # -- category ---------------------------------------------------------

    def parse_category(self) -> Category:
        cdoc = _get(self.doc, "category", "workspace")
        labels = [str(s) for s in _list(_get(cdoc, "objects", "category"), "category: objects must be a list")]
        _require(len(labels) > 0, "category: needs at least one object")

        arrows: dict[tuple[str, str], list[str]] = {}
        for a in _list(_get(cdoc, "arrows", "category"), "category: arrows must be a list"):
            label = str(_get(a, "label", "arrow"))
            dom = str(_get(a, "dom", f"arrow {label!r}"))
            cod = str(_get(a, "cod", f"arrow {label!r}"))
            _require(dom in labels, f"arrow {label!r}: unknown object {dom!r}")
            _require(cod in labels, f"arrow {label!r}: unknown object {cod!r}")
            arrows.setdefault((cod, dom), []).append(label)

        products: dict[tuple[str, str], Mapping[str, object]] = {}
        for p in _list(cdoc.get("products", []), "category: products must be a list"):
            left = str(_get(p, "left", "product"))
            right = str(_get(p, "right", "product"))
            result = _get(p, "result", f"product ({left}, {right})")
            _require(isinstance(result, Mapping), f"product ({left}, {right}): result must be an object")
            _require((left, right) not in products, f"product ({left}, {right}) given twice")
            products[(left, right)] = result

        identities = _get(cdoc, "identities", "category")
        _require(isinstance(identities, Mapping), "category: identities must be an object")

        try:
            cat = build_category(labels, arrows, products, identities)
        except LincatError as exc:
            raise WorkspaceError(f"category: {exc}") from exc

        for (x, y), names in cat.hom_basis.items():
            for k, a in enumerate(names):
                self.arrow_home[a] = (x, y, k)
        return cat

    # -- graded extension ---------------------------------------------------

    def parse_forms(self, cat: Category) -> tuple[DGCategory, str]:
        fdoc = _get(self.doc, "forms", "workspace")
        model = str(_get(fdoc, "model", "forms"))
        if model == "tables":
            return self.parse_tables(cat, fdoc), model
        _require(model in ("universal", "trivial"), f"forms: unknown model {model!r}")
        # a trivial model's truncation defaults to 1
        given = _get(fdoc, "truncation", "forms") if model == "universal" else fdoc.get("truncation", 1)
        truncation = _int(given, "forms truncation")
        try:
            return (universal_dg if model == "universal" else trivial_dg)(cat, truncation), model
        except CategoryAxiomError as exc:
            # universal_dg checks the category first, and the category keeps the verdict
            exc.workspace = self.name
            raise
        except LincatError as exc:
            raise WorkspaceError(f"forms: {exc}") from exc

    def parse_tables(self, cat: Category, fdoc: Mapping) -> DGCategory:
        truncation = _int(_get(fdoc, "truncation", "forms"), "forms truncation")
        _require(truncation >= 1, "forms: truncation must be at least 1")

        gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
        for s in _list(fdoc.get("spaces", []), "forms: spaces must be a list"):
            degree = _int(_get(s, "degree", "form space"), "form space degree")
            _require(1 <= degree <= truncation, f"form space: degree {degree} outside 1..{truncation}")
            cod = self._object(cat, str(_get(s, "cod", "form space")))
            dom = self._object(cat, str(_get(s, "dom", "form space")))
            where = f"form space degree {degree} at ({cod.label},{dom.label})"
            basis = tuple(str(b) for b in _list(_get(s, "basis", "form space"), f"{where}: basis must be a list"))
            key = (cod.index, dom.index)
            level = gr_basis.setdefault(degree, {})
            _require(key not in level, f"{where} given twice")
            _require(len(set(basis)) == len(basis), f"form space degree {degree}: duplicate basis labels")
            level[key] = basis

        def expand(terms, degree: int, dom: ObjectId, cod: ObjectId, where: str) -> dict[int, Fraction]:
            out: dict[int, Fraction] = {}
            for coeff, k in _coefficient_terms(terms, (degree, dom, cod),
                                               lambda t: self.address(cat, gr_basis, t, where), where):
                out[k] = out.get(k, 0) + coeff
            return out

        def named(ref: Mapping, n: int, dom: ObjectId, cod: ObjectId) -> str:
            return f"{ref['basis']} {_place(n, dom, cod)}"

        gr_comp: dict[tuple[int, int], dict[tuple[int, int, int], dict]] = {}
        for p in _list(fdoc.get("products", []), "forms: products must be a list"):
            left, right = _get(p, "left", "form product"), _get(p, "right", "form product")
            lp, ly, lx, li = self.address(cat, gr_basis, left, "form product left factor")
            rp, rz, ry, rj = self.address(cat, gr_basis, right, "form product right factor")
            _require(ly == ry, "form product: factors are not composable")
            _require(lp + rp <= truncation, "form product: total degree exceeds the truncation")
            _require(lp + rp > 0, "form product: degree-0 products belong in the category block")
            block = gr_comp.setdefault((lp, rp), {}).setdefault((lx.index, ly.index, rz.index), {})
            _require((li, rj) not in block,
                     f"form product ({named(left, lp, ly, lx)}, {named(right, rp, rz, ry)}) given twice")
            block[(li, rj)] = expand(_get(p, "result", "form product"), lp + rp, rz, lx, "form product result")

        diff: dict[int, dict[tuple[int, int], dict]] = {}
        for dspec in _list(fdoc.get("differentials", []), "forms: differentials must be a list"):
            source = _get(dspec, "of", "differential")
            n, y, x, k = self.address(cat, gr_basis, source, "differential source")
            _require(n < truncation, "differential: source degree must lie below the truncation")
            columns = diff.setdefault(n, {}).setdefault((x.index, y.index), {})
            _require(k not in columns, f"differential of {named(source, n, y, x)} given twice")
            columns[k] = expand(_get(dspec, "result", "differential"), n + 1, y, x, "differential result")

        try:
            return DGCategory(cat, truncation, gr_basis, gr_comp, diff)
        except LincatError as exc:
            raise WorkspaceError(f"forms: {exc}") from exc

    # -- forms from literals -------------------------------------------------

    @staticmethod
    def _object(cat: Category, label: str) -> ObjectId:
        try:
            return cat.object_by_label(label)
        except LincatError as exc:
            raise WorkspaceError(f"unknown object {label!r}") from exc

    def word_form(self, dg: DGCategory, word: Sequence, where: str) -> Form:
        _require(len(_list(word, f"{where}: word must be a list")) >= 1, f"{where}: empty word")
        names = [str(a) for a in word]
        for a in names:
            _require(a in self.arrow_home, f"{where}: unknown arrow {a!r} in word")

        def arrow_form(a: str) -> Form:
            x, y, k = self.arrow_home[a]
            return dg.basis_form(0, dg.base.objects[y], dg.base.objects[x], k)

        form = arrow_form(names[0])
        for a in names[1:]:
            try:
                form = dg.compose(form, dg.d(arrow_form(a)))
            except LincatError as exc:
                raise WorkspaceError(f"{where}: word does not compose ({exc})") from exc
        return form

    def address(self, cat: Category, gr_basis: Mapping, ref, where: str) -> tuple[int, ObjectId, ObjectId, int]:
        """The degree, domain, codomain and basis index of an address term.

        They come in the order `DGCategory.basis_form` takes.  Degree 0
        is read in the hom spaces of `cat`, and a degree n above it in
        ``gr_basis[n][(cod, dom)]``: the tables' own bases while they are
        parsed, `DGCategory.gr_basis` once the graded category is built.
        """
        degree = _int(_get(ref, "degree", where), where)
        cod = self._object(cat, str(_get(ref, "cod", where)))
        dom = self._object(cat, str(_get(ref, "dom", where)))
        label = str(_get(ref, "basis", where))
        key = (cod.index, dom.index)
        names = cat.basis_labels(*key) if degree == 0 else gr_basis.get(degree, {}).get(key, ())
        _require(label in names, f"{where}: no basis element {label!r} {_place(degree, dom, cod)}")
        return degree, dom, cod, names.index(label)

    def parse_form(self, dg: DGCategory, terms, degree: int, dom: ObjectId, cod: ObjectId, where: str) -> Form:
        def resolve(t: Mapping) -> tuple[int, ObjectId, ObjectId, Form]:
            f = self.word_form(dg, t["word"], where) if "word" in t else (
                dg.basis_form(*self.address(dg.base, dg.gr_basis, t, where)))
            return f.degree, f.dom, f.cod, f

        total = dg.zero_form(degree, dom, cod)
        for coeff, f in _coefficient_terms(terms, (degree, dom, cod), resolve, where):
            total = total + f.scale(coeff)
        return total

    def parse_matrix(
        self,
        dg: DGCategory,
        degree: int,
        row_family: tuple[ObjectId, ...],
        col_family: tuple[ObjectId, ...],
        entries,
        where: str,
    ) -> FormMatrix:
        _require(len(_list(entries, f"{where}: matrix must be a list of rows")) == len(row_family),
                 f"{where}: expected {len(row_family)} rows")
        rows = []
        for i, row in enumerate(entries):
            shape = f"{where}: row {i} must have {len(col_family)} entries"
            _require(len(_list(row, shape)) == len(col_family), shape)
            rows.append(tuple(
                self.parse_form(dg, row[j], degree, col_family[j], row_family[i], f"{where}[{i}][{j}]")
                for j in range(len(col_family))
            ))
        return FormMatrix(degree, row_family, col_family, tuple(rows))

    # -- named objects ---------------------------------------------------------

    def parse_modules(self, dg: DGCategory) -> dict[str, ProjectiveModule]:
        out: dict[str, ProjectiveModule] = {}
        for m in _list(self.doc.get("modules", []), "workspace: modules must be a list"):
            name = str(_get(m, "name", "module"))
            _require(name not in out, f"module {name!r} given twice")
            labels = _list(_get(m, "family", f"module {name!r}"), f"module {name!r}: family must be a list")
            family = tuple(self._object(dg.base, str(lbl)) for lbl in labels)
            _require(len(family) >= 1, f"module {name!r}: empty family")
            e = self.parse_matrix(dg, 0, family, family,
                                  _get(m, "idempotent", f"module {name!r}"), f"module {name!r} idempotent")
            try:
                out[name] = ProjectiveModule(dg, name, e)
            except LincatError as exc:
                raise WorkspaceError(str(exc)) from exc
        return out

    def parse_connections(self, dg: DGCategory, modules: Mapping[str, ProjectiveModule]):
        conns: dict[str, Connection] = {}
        kinds: dict[str, str] = {}
        for c in _list(self.doc.get("connections", []), "workspace: connections must be a list"):
            name = str(_get(c, "name", "connection"))
            _require(name not in conns, f"connection {name!r} given twice")
            module_name = str(_get(c, "module", f"connection {name!r}"))
            _require(module_name in modules, f"connection {name!r}: unknown module {module_name!r}")
            module = modules[module_name]
            gauge = _get(c, "gauge", f"connection {name!r}")
            try:
                if gauge == "canonical":
                    conns[name] = canonical_connection(module)
                    kinds[name] = "canonical"
                else:
                    matrix = self.parse_matrix(dg, 1, module.family, module.family,
                                               gauge, f"connection {name!r} gauge")
                    conns[name] = Connection(module, matrix)
                    kinds[name] = "matrix"
            except WorkspaceError:
                raise
            except LincatError as exc:
                raise WorkspaceError(f"connection {name!r}: {exc}") from exc
        return conns, kinds

    def parse_endomorphisms(self, dg: DGCategory, modules: Mapping[str, ProjectiveModule]):
        out: dict[str, tuple[str, FormMatrix]] = {}
        for u in _list(self.doc.get("endomorphisms", []), "workspace: endomorphisms must be a list"):
            name = str(_get(u, "name", "endomorphism"))
            _require(name not in out, f"endomorphism {name!r} given twice")
            module_name = str(_get(u, "module", f"endomorphism {name!r}"))
            _require(module_name in modules, f"endomorphism {name!r}: unknown module {module_name!r}")
            module = modules[module_name]
            matrix = self.parse_matrix(dg, 0, module.family, module.family,
                                       _get(u, "matrix", f"endomorphism {name!r}"), f"endomorphism {name!r}")
            out[name] = (module_name, matrix)
        return out


# ---------------------------------------------------------------------------
# canonical document


def _address_doc(dg: DGCategory, n: int, x: int, y: int, k: int) -> dict:
    """The address term of basis element k of the degree-n space at (x, y), as `_Parser.address` reads it."""
    objects = dg.base.objects
    return {"degree": n, "cod": objects[x].label, "dom": objects[y].label, "basis": dg.space_labels(n, x, y)[k]}


def _term_docs(dg: DGCategory, n: int, x: int, y: int, terms) -> list[dict]:
    """The address terms, with coefficients, of the (index, coefficient) terms of a form at degree n and (x, y)."""
    return [{"coeff": format_scalar(s), **_address_doc(dg, n, x, y, k)} for k, s in terms]


def _form_doc(dg: DGCategory, f: Form) -> list[dict]:
    return _term_docs(dg, f.degree, f.cod.index, f.dom.index, f.terms)


def _matrix_doc(dg: DGCategory, m: FormMatrix) -> list[list[list[dict]]]:
    return [[_form_doc(dg, f) for f in row] for row in m.entries]


def _category_doc(cat: Category) -> dict:
    nobj = len(cat.objects)
    arrows = []
    for x in range(nobj):
        for y in range(nobj):
            for a in cat.basis_labels(x, y):
                arrows.append({"label": a, "dom": cat.objects[y].label, "cod": cat.objects[x].label})
    products = []
    for (x, y, z), (den, rows) in cat.integral_comp.items():
        targets = cat.basis_labels(x, z)
        for left, row in zip(cat.basis_labels(x, y), rows):
            for right, entry in zip(cat.basis_labels(y, z), row):
                if entry:
                    products.append({
                        "left": left,
                        "right": right,
                        "result": {targets[k]: format_scalar(s) for k, s in fraction_terms(den, entry)},
                    })
    identities = {}
    for x in range(nobj):
        names = cat.basis_labels(x, x)
        identities[cat.objects[x].label] = {
            names[k]: format_scalar(s) for k, s in fraction_terms(*cat.identity[x])
        }
    return {
        "objects": [o.label for o in cat.objects],
        "arrows": arrows,
        "products": products,
        "identities": identities,
    }


def _forms_doc(dg: DGCategory, model: str) -> dict:
    if model in ("universal", "trivial"):
        return {"model": model, "truncation": dg.truncation}
    cat = dg.base
    spaces = [
        {"degree": n, "cod": cat.objects[x].label, "dom": cat.objects[y].label, "basis": list(labels)}
        for n, level in sorted(dg.gr_basis.items())
        for (x, y), labels in sorted(level.items())
    ]

    # both written from the integer stores, in the order of their keys
    products = [
        {
            "left": _address_doc(dg, p, x, y, i),
            "right": _address_doc(dg, q, y, z, j),
            "result": _term_docs(dg, p + q, x, z, fraction_terms(den, entry)),
        }
        for (p, q, x, y, z), (den, rows) in dg.stored_products()
        for i, row in enumerate(rows)
        for j, entry in enumerate(row)
        if entry
    ]
    differentials = [
        {"of": _address_doc(dg, n, x, y, k), "result": _term_docs(dg, n + 1, x, y, fraction_terms(den, entry))}
        for (n, x, y), (den, columns) in dg.stored_differentials()
        for k, entry in enumerate(columns)
        if entry
    ]
    return {
        "model": "tables",
        "truncation": dg.truncation,
        "spaces": spaces,
        "products": products,
        "differentials": differentials,
    }


def _document(ws: Workspace) -> dict:
    """The canonical document of a workspace, built from its parsed objects."""
    dg = ws.dg
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": ws.name,
        "category": _category_doc(ws.category),
        "forms": _forms_doc(dg, ws.model),
    }
    if ws.modules:
        doc["modules"] = [
            {
                "name": name,
                "family": [o.label for o in m.family],
                "idempotent": _matrix_doc(dg, m.idempotent),
            }
            for name, m in ws.modules.items()
        ]
    if ws.connections:
        doc["connections"] = [
            {
                "name": name,
                "module": conn.module.name,
                "gauge": "canonical" if ws.connection_kinds[name] == "canonical" else _matrix_doc(dg, conn.gauge),
            }
            for name, conn in ws.connections.items()
        ]
    if ws.endomorphisms:
        doc["endomorphisms"] = [
            {"name": name, "module": module_name, "matrix": _matrix_doc(dg, matrix)}
            for name, (module_name, matrix) in ws.endomorphisms.items()
        ]
    return doc


# ---------------------------------------------------------------------------
# public API


def workspace_from_dict(doc: Mapping) -> Workspace:
    parser = _Parser(doc)
    cat = parser.parse_category()
    dg, model = parser.parse_forms(cat)
    modules = parser.parse_modules(dg)
    connections, kinds = parser.parse_connections(dg, modules)
    return Workspace(
        name=parser.name,
        category=cat,
        dg=dg,
        model=model,
        modules=modules,
        connections=connections,
        connection_kinds=kinds,
        endomorphisms=parser.parse_endomorphisms(dg, modules),
    )


def parse_workspace(text: str) -> Workspace:
    try:
        # JSON numbers with a fraction or an exponent are kept as their
        # text, so a coefficient 0.1 is read exactly as 1/10
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:
        # the one other ValueError of `json.loads`: an integer literal with
        # more digits than Python's limit on integer strings
        raise WorkspaceError(f"a JSON integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise WorkspaceError("cannot parse JSON nested this deeply") from exc
    return workspace_from_dict(doc)


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise WorkspaceError(f"cannot read workspace file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"workspace file is not UTF-8: {exc}") from exc
    return parse_workspace(text)


def serialize_workspace(ws: Workspace) -> str:
    return json.dumps(_document(ws), sort_keys=True, indent=2) + "\n"


def fixture_names() -> list[str]:
    root = resources.files("lincat").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> Workspace:
    # only a bundled name: a name is never read as a path, so "../x" reaches no other file
    names = fixture_names()
    if name not in names:
        raise WorkspaceError(f"no fixture named {name!r}; available: {', '.join(names)}")
    text = resources.files("lincat").joinpath("fixtures").joinpath(f"{name}.json").read_text(encoding="utf-8")
    return parse_workspace(text)
