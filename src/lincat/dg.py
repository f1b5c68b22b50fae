"""Differential graded structure on top of a finite linear category.

A `DGCategory` extends a base category with graded hom spaces up to a
truncation degree N, a graded composition, and a differential with
d.d = 0 and the graded Leibniz rule.  Degrees above N are zero spaces;
this is a quotient of the untruncated object by the ideal of forms of
degree > N, so every identity checked here survives truncation verbatim.

Two constructions are provided: `trivial_dg` (no forms above degree 0)
and `universal_dg`, the universal differential envelope, whose tables
the chain model of `lincat.envelope` computes.  `validate_dg` checks
the unit, d.d = 0, Leibniz and associativity laws of any of them.

Tables are sparse from end to end, because nearly all entries of the
dense tensors are zero: products come in as ``{(i, j): {k: s}}`` blocks
and differentials as ``{j: {i: s}}`` columns, and both are stored as
tuples of their nonzero (index, coefficient) terms.  A table key that
the constructor's loops never read (out of range, or with entries at a
zero space) raises `DimensionError` rather than being ignored.  For the
product kernel of `lincat.form_matrix` and the law checks of
`lincat.laws`, `integral_products` also keeps each product block over
one denominator, as integer numerators.

A `Form` holds the same sorted, nonzero terms as the tables, and a
degree-0 form is a morphism of the base category: `trivial_dg(c)` has
no other forms, so it is the category c itself.  Dense coordinates
enter a form only through `DGCategory.form`.  Matrices of forms and
their products live in `lincat.form_matrix`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .category import (
    Category,
    ObjectId,
    ProductRows,
    Violation,
    product_rows,
    refuse_unread,
    validate_category,
)
from .envelope import universal_tables
from .errors import CategoryAxiomError, CompositionError, DimensionError
from .exact_linalg import (
    ONE,
    Echelon,
    SparseRow,
    Terms,
    add_terms,
    checked_terms,
    contract_into,
    cut_rows,
    integral_terms,
    scalar,
    sparse,
    terms_of,
    vec,
)
from .laws import law_violations, laws_hold_on, unit_violations

# ---------------------------------------------------------------------------
# forms


@dataclass(frozen=True)
class Form:
    """A homogeneous form of the given degree, from `dom` to `cod`.

    `terms` are the nonzero (index, coefficient) pairs of the form in the
    basis of its space, strictly increasing in index, so equal forms
    have equal terms.  They are trusted, not checked: forms are built by
    `DGCategory` (`form`, `basis_form`, `compose`, `d`), by `terms_of`
    and by `ProductAccumulator`, which all keep them sorted and nonzero.
    """

    degree: int
    dom: ObjectId
    cod: ObjectId
    terms: Terms

    def __add__(self, other: "Form") -> "Form":
        if (self.degree, self.dom, self.cod) != (other.degree, other.dom, other.cod):
            raise CompositionError("cannot add forms of different degree or endpoints")
        return Form(self.degree, self.dom, self.cod, add_terms(self.terms, other.terms))

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, s) -> "Form":
        s = scalar(s)
        terms = tuple((k, s * c) for k, c in self.terms) if s else ()
        return Form(self.degree, self.dom, self.cod, terms)

    def is_zero(self) -> bool:
        return not self.terms


class DGCategory:
    """Graded hom spaces, graded composition and differential tables.

    Degree 0 always delegates to the base category.  `gr_basis` holds
    the labels of the degree-n bases for n >= 1, `gr_comp` the products
    of basis forms for mixed degrees, and `diff` the differential; what
    the tables leave out is zero.

    The tables come in sparse.  ``gr_comp[(p, q)][(x, y, z)]`` is a
    block ``{(i, j): {k: s}}``: the product of basis form i of degree p
    at (x, y) with basis form j of degree q at (y, z) has coefficient s
    at basis form k of degree p + q at (x, z).  ``diff[n][(x, y)]`` is
    ``{j: {i: s}}``: d of basis form j of degree n has coefficient s at
    basis form i of degree n + 1.  Every index is checked against the
    dimensions, and the tables are stored as nonzero (index, coefficient)
    terms sorted by index: ``gr_comp[(p, q)][(x, y, z)][i][j]`` holds the
    terms of that product and ``diff[n][(x, y)][j]`` those of d of basis
    form j, both empty where the input gave nothing.  A key these loops
    do not read is refused by `refuse_unread`: a degree outside the
    truncation, an object index out of range, or entries at a zero space.
    """

    def __init__(
        self,
        base: Category,
        truncation: int,
        gr_basis: Mapping[int, Mapping[tuple[int, int], Sequence[str]]],
        gr_comp: Mapping[tuple[int, int], Mapping[tuple[int, int, int], Mapping[tuple[int, int], Mapping]]],
        diff: Mapping[int, Mapping[tuple[int, int], Mapping[int, Mapping]]],
    ):
        if truncation < 1:
            raise DimensionError("truncation degree must be at least 1")
        self.base = base
        self.truncation = truncation
        nobj = len(base.objects)

        degrees = range(1, truncation + 1)
        refuse_unread(gr_basis, degrees, (), f"form bases at truncation {truncation}")
        self.gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
        for n in degrees:
            level = {}
            for (x, y), labels in gr_basis.get(n, {}).items():
                if not (0 <= x < nobj and 0 <= y < nobj):
                    raise DimensionError(f"degree-{n} basis endpoint out of range: {(x, y)}")
                if labels:
                    level[(x, y)] = tuple(str(s) for s in labels)
            self.gr_basis[n] = level

        pairs = set(itertools.product(range(nobj), repeat=2))
        triples = set(itertools.product(range(nobj), repeat=3))
        self.gr_comp: dict[tuple[int, int], dict[tuple[int, int, int], ProductRows]] = {}
        for p in range(0, truncation + 1):
            for q in range(0, truncation + 1 - p):
                if p == 0 and q == 0:
                    continue
                given = gr_comp.get((p, q), {})
                table = {}
                for x in range(nobj):
                    for y in range(nobj):
                        dp = self.dim(p, x, y)
                        if dp == 0:
                            continue
                        for z in range(nobj):
                            dq = self.dim(q, y, z)
                            if dq:
                                table[(x, y, z)] = product_rows(
                                    given.get((x, y, z), {}), dp, dq, self.dim(p + q, x, z),
                                    f"composition ({p},{q}) at {(x, y, z)}",
                                )
                refuse_unread(given, table, triples, f"composition ({p},{q})")
                self.gr_comp[(p, q)] = table
        refuse_unread(gr_comp, self.gr_comp, (), f"composition at truncation {truncation}")

        # d out of degree n at (x, y), one tuple of terms per basis form;
        # out of the top degree every column is empty
        self.diff: dict[int, dict[tuple[int, int], tuple[Terms, ...]]] = {}
        for n in range(0, truncation + 1):
            given = diff.get(n, {})
            level = {}
            for x in range(nobj):
                for y in range(nobj):
                    dn = self.dim(n, x, y)
                    if dn == 0:
                        continue
                    where = f"differential at degree {n}, {(x, y)}"
                    columns = given.get((x, y), {})
                    for j in columns:
                        if not 0 <= j < dn:
                            raise DimensionError(f"{where}: source {j} out of range for dimension {dn}")
                    dn1 = self.dim(n + 1, x, y)
                    level[(x, y)] = tuple(checked_terms(columns.get(j, {}), dn1, f"{where}, column {j}")
                                          for j in range(dn))
            refuse_unread(given, level, pairs, f"differential at degree {n}")
            self.diff[n] = level
        refuse_unread(diff, self.diff, (), f"differential at truncation {truncation}")

        self._derham = None  # memo slot used by the quotient-complex builder
        self._integral: dict[tuple[int, int, int, int, int], tuple[int, tuple]] = {}

    # -- dimensions and bases --------------------------------------------

    def dim(self, n: int, x: int, y: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        if n == 0:
            return self.base.dim(x, y)
        return len(self.gr_basis.get(n, {}).get((x, y), ()))

    def space_labels(self, n: int, x: int, y: int) -> tuple[str, ...]:
        if n == 0:
            return self.base.basis_labels(x, y)
        return self.gr_basis.get(n, {}).get((x, y), ())

    def hom_pairs(self, n: int) -> list[tuple[int, int]]:
        nobj = len(self.base.objects)
        return [(x, y) for x in range(nobj) for y in range(nobj) if self.dim(n, x, y) > 0]

    def zero_form(self, n: int, dom: ObjectId, cod: ObjectId) -> Form:
        return Form(n, dom, cod, ())

    def form(self, n: int, dom: ObjectId, cod: ObjectId, coords) -> Form:
        """The form with the given dense coordinates; their zeros are dropped."""
        v = vec(coords)
        if len(v) != self.dim(n, cod.index, dom.index):
            raise DimensionError(
                f"degree-{n} form {dom.label}->{cod.label}: expected {self.dim(n, cod.index, dom.index)} coordinates"
            )
        return Form(n, dom, cod, tuple(sparse(v).items()))

    def basis_form(self, n: int, dom: ObjectId, cod: ObjectId, k: int) -> Form:
        d = self.dim(n, cod.index, dom.index)
        if not (0 <= k < d):
            raise DimensionError(f"basis index {k} out of range for dimension {d}")
        return Form(n, dom, cod, ((k, ONE),))

    def identity_form(self, x: ObjectId) -> Form:
        return Form(0, x, x, self.base.identity[x.index])

    # -- composition and differential ------------------------------------

    def compose(self, f: Form, g: Form) -> Form:
        if f.dom != g.cod:
            raise CompositionError(
                f"cannot compose: left factor starts at {f.dom.label}, right factor ends at {g.cod.label}"
            )
        p, q = f.degree, g.degree
        block = self.basis_products(p, q, f.cod.index, f.dom.index, g.dom.index)
        out: SparseRow = {}
        for i, a in f.terms:
            contract_into(out, g.terms, block[i], a)
        return Form(p + q, g.dom, f.cod, terms_of(out))

    def basis_products(self, p: int, q: int, x: int, y: int, z: int):
        """Products of the basis forms of degree p at (x, y) with those of degree q at (y, z).

        Entry [i][j] is the tuple of nonzero (k, s) pairs of the product
        of basis forms i and j, a degree p + q form at (x, z); every entry
        is empty when p + q lies above the truncation.  Degree 0 products
        come from the base category.
        """
        block = (self.gr_comp.get((p, q), {}) if p or q else self.base.comp).get((x, y, z))
        return (((),) * self.dim(q, y, z),) * self.dim(p, x, y) if block is None else block

    def integral_products(self, p: int, q: int, x: int, y: int, z: int) -> tuple[int, tuple]:
        """`basis_products` over one denominator, as (D, rows).

        D is the lcm of the block's denominators, and entry [i][j] of
        rows holds the (k, n) pairs with n = D * s, over the terms (k, s)
        of the product of basis forms i and j.  Each block is built on
        first use and kept; the tables themselves are not changed.
        """
        key = (p, q, x, y, z)
        view = self._integral.get(key)
        if view is None:
            block = self.basis_products(p, q, x, y, z)
            den, flat = integral_terms(terms for row in block for terms in row)
            width = self.dim(q, y, z)
            # a row of no products is still a row
            rows = cut_rows(flat, width) if width else [()] * len(block)
            view = self._integral[key] = (den, tuple(map(tuple, rows)))
        return view

    def d(self, f: Form) -> Form:
        n = f.degree
        columns = self.diff.get(n, {}).get((f.cod.index, f.dom.index), ())
        return Form(n + 1, f.dom, f.cod, terms_of(contract_into({}, f.terms, columns)))


def validate_dg(w: DGCategory) -> list[Violation]:
    """Unit, d.d = 0, Leibniz and associativity failures, as data.

    Degree 0 alone is the base category, whose unit and associativity
    laws belong to `validate_category`, so they are not reported twice;
    d.d = 0 and Leibniz start at degree 0.  The unit laws are checked on
    every basis form of positive degree.

    The other laws are certified on a generating set.  Let G be a set of
    forms whose left-normed words (..(g1.g2)...).gk, taken with the
    stored product, span every basis form; `_generators` builds one.
    The forms x with (x.y).z = x.(y.z) for all y, z make a subspace
    closed under products, so associativity on the triples (g, y, z),
    g in G, gives it on all triples.  Given associativity, the forms
    that satisfy the Leibniz rule with every y are closed under products
    too, so Leibniz on the pairs (g, y) gives it everywhere; then d.d is
    a derivation, and d.d = 0 on G gives it everywhere.  No product is
    sampled: y and z run over every basis form, and in the worst case G
    is the whole basis.  Only when a check on G fails does the same
    check run with every basis form on the left, so the failures are
    reported on basis forms, sorted by law, degrees, objects and basis
    indices.

    The unit check and the one check of the other laws, on G and on the
    basis, are those of `lincat.laws`; `_generators` is here, because G
    is made of forms.
    """
    violations = unit_violations(w)
    if not laws_hold_on(w, _generators(w)):
        violations += law_violations(w)
    return violations


def _generators(w: DGCategory) -> list[Form]:
    """A set G of forms whose left-normed words span every basis form.

    The words are kept per (degree, x, y) as a reduced echelon basis,
    grown by `Echelon.add` and closed under right multiplication by G
    with the stored products.  G is built degree by degree: first the
    words of degree n that lower words and generators reach, then d(g)
    of each degree-(n-1) generator g that they do not reach, then each
    basis form, in basis order, that the words still do not reach.
    Every step follows the tables in a fixed order, so G is a function
    of the tables alone, and the words span every basis form by
    construction.
    """
    N, objs, dim = w.truncation, w.base.objects, w.dim
    nobj = len(objs)
    words: dict[tuple[int, int, int], Echelon] = {}
    spanning: dict[tuple[int, int, int], list[SparseRow]] = {}  # the words added to it
    gens: list[Form] = []
    by_source: dict[tuple[int, int], list[tuple[int, Form]]] = {}  # (degree, x) -> generators at (x, .)
    rows_of: dict[tuple[int, int, int], list] = {}  # (generator, n, x) -> g's products by row
    pending: list[Form] = []  # d of the generators of the degree below
    fresh: deque = deque()  # words not yet multiplied by the degree-0 generators

    def times(n: int, x: int, y: int, v: SparseRow, gid: int, g: Form) -> SparseRow:
        """The word v of degree n at (x, y) times the generator g at (y, z)."""
        key = (gid, n, x)
        rows = rows_of.get(key)
        if rows is None:
            products = w.basis_products(n, g.degree, x, y, g.dom.index)
            rows = rows_of[key] = [contract_into({}, g.terms, row).items() for row in products]
        return contract_into({}, v.items(), rows)

    def add(n: int, x: int, y: int, v: SparseRow) -> bool:
        basis = words.get((n, x, y))
        if basis is None:
            basis = words[(n, x, y)] = Echelon()
        if basis.add(v) is None:
            return False
        spanning.setdefault((n, x, y), []).append(v)
        fresh.append((n, x, y, v))
        return True

    def close() -> None:
        while fresh:
            n, x, y, v = fresh.popleft()
            for gid, g in by_source.get((0, y), ()):
                add(n, x, g.dom.index, times(n, x, y, v, gid, g))

    def join(g: Form) -> None:
        """Make g, already added as a word, a generator: the degree-0 words times g."""
        n, x, y = g.degree, g.cod.index, g.dom.index
        gid = len(gens)
        gens.append(g)
        by_source.setdefault((n, x), []).append((gid, g))
        for x0 in range(nobj):
            for u in list(spanning.get((0, x0, x), ())):
                add(n, x0, y, times(0, x0, x, u, gid, g))
        close()
        if n < N:
            dg = w.d(g)
            if dg.terms:
                pending.append(dg)

    for n in range(N + 1):
        for k in range(1, n):
            for x in range(nobj):
                for y in range(nobj):
                    for v in spanning.get((k, x, y), ()):
                        for gid, g in by_source.get((n - k, y), ()):
                            add(n, x, g.dom.index, times(k, x, y, v, gid, g))
        close()
        differentials, pending = pending, []
        for g in differentials:
            if add(n, g.cod.index, g.dom.index, dict(g.terms)):
                join(g)
        for x in range(nobj):
            for y in range(nobj):
                for k in range(dim(n, x, y)):
                    if (n, x, y) not in words or not words[(n, x, y)].spans_unit(k):
                        add(n, x, y, {k: ONE})
                        join(Form(n, objs[y], objs[x], ((k, ONE),)))
    return gens


def trivial_dg(c: Category, truncation: int = 1) -> DGCategory:
    """The extension of `c` with no forms in positive degrees."""
    return DGCategory(c, truncation, {}, {}, {})


def universal_dg(c: Category, truncation: int) -> DGCategory:
    """Universal differential envelope of `c`, truncated above `truncation`.

    The tables come from the chain model of `lincat.envelope`: degree 0
    is the category itself, and every degree n >= 1 is the reduced
    echelon span of the products omega.db, over the degree-(n-1) basis
    forms omega and the basis arrows b.  The tables are derived with
    the category's unit and associativity laws, so a category that fails
    `validate_category` raises `CategoryAxiomError` first, before any
    other check and before any chain is built.
    """
    violations = validate_category(c)
    if violations:
        raise CategoryAxiomError(
            f"category fails {len(violations)} identity check(s); no universal envelope is built", violations
        )
    if truncation < 1:
        raise DimensionError("truncation degree must be at least 1")
    return DGCategory(c, truncation, *universal_tables(c, truncation))


# ---------------------------------------------------------------------------
# rendering


def render_form(w: DGCategory, f: Form) -> str:
    return render_terms(w.space_labels(f.degree, f.cod.index, f.dom.index), f.terms)


def render_terms(labels: Sequence[str], terms: Terms) -> str:
    """A vector given by its terms, written in the basis with the given labels."""
    pieces = []
    for k, s in terms:
        label = labels[k]
        if s == 1:
            pieces.append(("+", label))
        elif s == -1:
            pieces.append(("-", label))
        else:
            pieces.append(("+", f"({s}){label}") if s > 0 else ("-", f"({-s}){label}"))
    if not pieces:
        return "0"
    sign0, head = pieces[0]
    text = ("-" if sign0 == "-" else "") + head
    for sign, piece in pieces[1:]:
        text += f" {sign} {piece}"
    return text
