"""Differential graded structure on top of a finite linear category.

A `DGCategory` extends a base category with graded hom spaces up to a
truncation degree N, a graded composition, and a differential with
d.d = 0 and the graded Leibniz rule.  Degrees above N are zero spaces;
this is a quotient of the untruncated object by the ideal of forms of
degree > N, so every identity checked here survives truncation verbatim.

Two constructions are provided: `trivial_dg` (no forms above degree 0)
and `universal_dg`, which realizes the universal differential envelope
concretely inside "chain" spaces.  The degree-n chain space for the
endpoint pair (x, y) is the direct sum, over the length-n interior
object paths whose steps are all nonzero hom spaces, of tensor products
of the n+1 hom spaces strung along the path; degree 0 is the hom space
itself.  Inside it:

* the product is the middle merge: compose the arrows that meet;
* the differential is the alternating sum of identity insertions, which
  on degree 0 reduces to d(f) = 1.f - f.1;
* one span rule gives every basis: degree 0 has the unit rows, and
  degree n >= 1 is the span of the products omega.db, over the
  degree-(n-1) basis rows omega and the basis arrows b.  So degree 1 is
  span{a.db}, the kernel of the composition map, and degree n is the
  degree-(n-1) forms times dC.

Each basis is the reduced echelon basis of its span in a fixed column
order, which is unique for the span, so composition tensors and
differentials are reproducible.

Tables are sparse from end to end, because nearly all entries of the
dense tensors are zero: products come in as ``{(i, j): {k: s}}`` blocks
and differentials as ``{j: {i: s}}`` columns, and both are stored as
tuples of their nonzero (index, coefficient) terms.  The chain vectors
of the universal builder are sparse maps for the same reason, and their
spans go to the elimination kernel `echelon` as they are.  A table key
that the constructor's loops never read (out of range, or with entries
at a zero space) raises `DimensionError` rather than being ignored.

A `Form` holds the same sorted, nonzero terms as the tables, and a
degree-0 form is a morphism of the base category: `trivial_dg(c)` has
no other forms, so it is the category c itself.  Dense coordinates
enter a form only through `DGCategory.form`.

Products of form matrices have one kernel, `ProductAccumulator`: it
contracts the stored products of basis forms over the terms of both
factors into one sparse accumulator per entry, and builds a single
`Form` per entry at the end.  `FormMatrix.mul`, the polynomial products
of `tforms` and the curvature of a connection all use it, so a sum of
products builds no intermediate forms.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .category import (
    Category,
    ObjectId,
    ProductRows,
    Violation,
    contract,
    product_rows,
    refuse_unread,
)
from .errors import CompositionError, DimensionError, LincatError
from .exact_linalg import (
    ONE,
    ZERO,
    Echelon,
    SparseRow,
    Terms,
    add_terms,
    checked_terms,
    echelon,
    scalar,
    sparse,
    terms_of,
    vec,
)

# ---------------------------------------------------------------------------
# forms


@dataclass(frozen=True)
class Form:
    """A homogeneous form of the given degree, from `dom` to `cod`.

    `terms` are the nonzero (index, coefficient) pairs of the form in the
    basis of its space, strictly increasing in index, so equal forms
    have equal terms.
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
        x, y, z = f.cod.index, f.dom.index, g.dom.index
        return Form(p + q, g.dom, f.cod, contract(self.basis_products(p, q, x, y, z), f.terms, g.terms))

    def basis_products(self, p: int, q: int, x: int, y: int, z: int):
        """Products of the basis forms of degree p at (x, y) with those of degree q at (y, z).

        Entry [i][j] is the tuple of nonzero (k, s) pairs of the product
        of basis forms i and j, a degree p + q form at (x, z); every entry
        is empty when p + q lies above the truncation.  Degree 0 products
        come from the base category.
        """
        block = (self.gr_comp.get((p, q), {}) if p or q else self.base.comp).get((x, y, z))
        return (((),) * self.dim(q, y, z),) * self.dim(p, x, y) if block is None else block

    def d(self, f: Form) -> Form:
        n = f.degree
        columns = self.diff.get(n, {}).get((f.cod.index, f.dom.index), ())
        out: dict[int, Fraction] = {}
        for j, a in f.terms:
            for i, s in columns[j]:
                out[i] = out.get(i, ZERO) + a * s
        return Form(n + 1, f.dom, f.cod, terms_of(out))


def _contract(out: SparseRow, coefficients: Terms, vectors) -> SparseRow:
    """Add s * vectors[a] to the sparse vector `out`, over (a, s) in `coefficients`."""
    for a, s in coefficients:
        for c, t in vectors[a]:
            out[c] = out.get(c, ZERO) + s * t
    return out


def _nonzero(v: SparseRow) -> SparseRow:
    """The entries of a sum that did not cancel; sums equal as they stand need no filter."""
    return {k: s for k, s in v.items() if s}


def _transpose(b, rows: int, cols: int):
    return tuple(zip(*b)) if rows else ((),) * cols


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
    is the whole basis.  Only when a check on G fails are all basis
    pairs and triples enumerated, so the failures are reported on basis
    forms, exactly as that enumeration finds them.

    Products and differentials of basis forms are read straight from the
    stored terms and contracted into sparse sums, which is the arithmetic
    `compose` and `d` would do, without building a form per factor.
    """
    violations = _unit_violations(w)
    if not _laws_hold_on(w, _generators(w)):
        violations += _law_violations(w)
    return violations


def _basis_name(w: DGCategory, n: int, x: int, y: int, k: int) -> str:
    labels = w.space_labels(n, x, y)
    return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"


def _unit_violations(w: DGCategory) -> list[Violation]:
    """Unit-law failures on every basis form of positive degree."""
    violations: list[Violation] = []
    dim, block = w.dim, w.basis_products
    for n in range(1, w.truncation + 1):
        for (x, y) in w.hom_pairs(n):
            ox, oy = w.base.objects[x], w.base.objects[y]
            one_x, one_y = w.base.identity[x], w.base.identity[y]
            dn = dim(n, x, y)
            left, right = _transpose(block(0, n, x, x, y), dim(0, x, x), dn), block(n, 0, x, y, y)
            for k in range(dn):
                b = {k: ONE}
                if _nonzero(_contract({}, one_x, left[k])) != b:
                    violations.append(Violation("dg-identity-left", f"1_{ox.label} . {_basis_name(w, n, x, y, k)}"))
                if _nonzero(_contract({}, one_y, right[k])) != b:
                    violations.append(Violation("dg-identity-right", f"{_basis_name(w, n, x, y, k)} . 1_{oy.label}"))
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
            rows = rows_of[key] = [_contract({}, g.terms, row).items() for row in products]
        return _contract({}, v.items(), rows)

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


def _laws_hold_on(w: DGCategory, gens: Sequence[Form]) -> bool:
    """d.d = 0 on each g in `gens`, Leibniz on (g, y) and associativity on (g, y, z).

    y and z run over every basis form.  For each g, the products of g
    with the basis forms of one block are summed once, so a pair or a
    triple costs what it costs on basis forms.  Associativity includes
    the degree-0 triples, which the lemma needs though `validate_category`
    reports them.
    """
    N, nobj = w.truncation, len(w.base.objects)
    dim, block, diff = w.dim, w.basis_products, w.diff
    transposed: dict[tuple[int, int, int, int, int], tuple] = {}

    def columns(p: int, q: int, x: int, y: int, z: int):
        key = (p, q, x, y, z)
        t = transposed.get(key)
        if t is None:
            t = transposed[key] = _transpose(block(p, q, x, y, z), dim(p, x, y), dim(q, y, z))
        return t

    for g in gens:
        p, x, y, gt = g.degree, g.cod.index, g.dom.index, g.terms
        rows: dict[tuple[int, int], tuple] = {}

        def row(q: int, z: int):
            """g times each basis form of degree q at (y, z), as terms."""
            r = rows.get((q, z))
            if r is None:
                r = rows[(q, z)] = tuple(_nonzero(_contract({}, gt, col)).items() for col in columns(p, q, x, y, z))
            return r

        if p < N:
            dg = tuple(_contract({}, gt, diff[p][(x, y)]).items())
            if any(_contract({}, dg, diff[p + 1].get((x, y), ())).values()):
                return False
        # d(g.b) = dg.b + (-1)^p g.db
        for q in range(0, N - p):
            for z in range(nobj):
                if dim(q, y, z) == 0:
                    continue
                gb, gdb, dgb = row(q, z), row(q + 1, z), columns(p + 1, q, x, y, z)
                d_gb, d_b = diff[p + q].get((x, z), ()), diff[q][(y, z)]
                if p % 2:
                    d_b = tuple(tuple((b, -s) for b, s in col) for col in d_b)
                for j in range(dim(q, y, z)):
                    lhs = _contract({}, gb[j], d_gb)
                    rhs = _contract(_contract({}, dg, dgb[j]), d_b[j], gdb)
                    if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                        return False
        # (g.b).c = g.(b.c)
        for q in range(0, N - p + 1):
            for r in range(0, N - p - q + 1):
                for z in range(nobj):
                    if dim(q, y, z) == 0:
                        continue
                    gb = row(q, z)
                    for u in range(nobj):
                        if dim(r, z, u) == 0:
                            continue
                        bc, g_bc, gb_c = block(q, r, y, z, u), row(q + r, u), columns(p + q, r, x, z, u)
                        for j in range(dim(q, y, z)):
                            for k in range(dim(r, z, u)):
                                lhs = _contract({}, gb[j], gb_c[k])
                                rhs = _contract({}, bc[j][k], g_bc)
                                if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                                    return False
    return True


def _law_violations(w: DGCategory) -> list[Violation]:
    """d.d = 0, Leibniz and associativity failures on every basis form, pair and triple.

    The enumeration that reports which basis forms fail; `validate_dg`
    runs it only once a check on its generating set has failed.
    """
    violations: list[Violation] = []
    N = w.truncation
    nobj = len(w.base.objects)
    dim, block, diff = w.dim, w.basis_products, w.diff

    def name(n: int, x: int, y: int, k: int) -> str:
        return _basis_name(w, n, x, y, k)

    for n in range(0, N):
        for (x, y) in w.hom_pairs(n):
            d_n1 = diff[n + 1].get((x, y), ())
            if any(any(_contract({}, col, d_n1).values()) for col in diff[n][(x, y)]):
                violations.append(Violation("dg-d-squared", f"degree {n} at ({w.base.objects[x].label},{w.base.objects[y].label})"))

    # d(f.g) = df.g + (-1)^p f.dg on basis forms f of degree p, g of degree q
    for p in range(0, N):
        for q in range(0, N - p):
            for x in range(nobj):
                for y in range(nobj):
                    if dim(p, x, y) == 0:
                        continue
                    d_f = diff[p][(x, y)]
                    for z in range(nobj):
                        if dim(q, y, z) == 0:
                            continue
                        fg, fdg = block(p, q, x, y, z), block(p, q + 1, x, y, z)
                        dfg = _transpose(block(p + 1, q, x, y, z), dim(p + 1, x, y), dim(q, y, z))
                        d_fg, d_g = diff[p + q].get((x, z), ()), diff[q][(y, z)]
                        if p % 2:
                            d_g = tuple(tuple((b, -s) for b, s in col) for col in d_g)
                        for i in range(dim(p, x, y)):
                            for j in range(dim(q, y, z)):
                                lhs = _contract({}, fg[i][j], d_fg)
                                rhs = _contract(_contract({}, d_f[i], dfg[j]), d_g[j], fdg[i])
                                if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                                    violations.append(
                                        Violation("dg-leibniz", f"{name(p, x, y, i)} . {name(q, y, z, j)}")
                                    )

    # (f.g).h = f.(g.h) on basis forms of degrees p, q, r
    for p in range(0, N + 1):
        for q in range(0, N - p + 1):
            for r in range(0, N - p - q + 1):
                if p == q == r == 0:
                    continue
                for x in range(nobj):
                    for y in range(nobj):
                        if dim(p, x, y) == 0:
                            continue
                        for z in range(nobj):
                            if dim(q, y, z) == 0:
                                continue
                            fg = block(p, q, x, y, z)
                            for u in range(nobj):
                                if dim(r, z, u) == 0:
                                    continue
                                gh, f_gh = block(q, r, y, z, u), block(p, q + r, x, y, u)
                                fg_h = _transpose(block(p + q, r, x, z, u), dim(p + q, x, z), dim(r, z, u))
                                for i in range(dim(p, x, y)):
                                    for j in range(dim(q, y, z)):
                                        for k in range(dim(r, z, u)):
                                            lhs = _contract({}, fg[i][j], fg_h[k])
                                            rhs = _contract({}, gh[j][k], f_gh[i])
                                            if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                                                violations.append(
                                                    Violation(
                                                        "dg-associativity",
                                                        f"{name(p, x, y, i)} . {name(q, y, z, j)} . {name(r, z, u, k)}",
                                                    )
                                                )
    return violations


def trivial_dg(c: Category, truncation: int = 1) -> DGCategory:
    """The extension of `c` with no forms in positive degrees."""
    return DGCategory(c, truncation, {}, {}, {})


# ---------------------------------------------------------------------------
# universal envelope, chain model


class _ChainSpace:
    """Flat enumeration of the degree-n chains for one endpoint pair.

    A chain is (interior objects, arrow basis indices): n interior
    objects and n+1 arrows strung from x to y through them.  The
    interiors are the given walks through nonzero hom spaces; flat order
    is theirs (lexicographic), then row-major in the arrow indices, which
    makes every reduced basis deterministic.  In degree 0 the chains are
    ((), (k,)), so chain k is basis arrow k.
    """

    def __init__(self, c: Category, x: int, y: int, interiors: list[tuple[int, ...]]):
        self.x, self.y = x, y
        self.elems: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for interior in interiors:
            steps = itertools.pairwise((x,) + interior + (y,))
            self.elems += ((interior, arrows) for arrows in itertools.product(*(range(c.dim(a, b)) for a, b in steps)))
        self.pos = {e: k for k, e in enumerate(self.elems)}

    @property
    def dim(self) -> int:
        return len(self.elems)


class _Subspace:
    """A subspace of a chain space with a reduced-echelon basis.

    Reduction runs in a preferred column order (chains free of identity
    arrows in differential slots first), so pivots land on clean
    monomials whenever possible; rows are stored back in the natural
    chain order, as sparse maps.  Each basis row is addressed by its
    pivot chain.
    """

    def __init__(self, space: _ChainSpace, spanning, order: tuple[int, ...]):
        position = [0] * space.dim
        for pos, j in enumerate(order):
            position[j] = pos
        rows, pivots = echelon(({position[j]: s for j, s in r.items()} for r in spanning), space.dim)
        self.rows: tuple[SparseRow, ...] = tuple({order[k]: s for k, s in r.items()} for r in rows)
        self.pivots = tuple(order[k] for k in pivots)
        self._index = {p: i for i, p in enumerate(self.pivots)}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates(self, v: SparseRow) -> SparseRow:
        """Nonzero coordinates in the reduced basis; the vector must lie in the span.

        `v` holds nonzero entries only.  The coordinates are read off at
        the pivots and substituted back over the whole chain space.
        """
        index = self._index
        coords = {index[j]: s for j, s in v.items() if j in index}
        check: SparseRow = {}
        for i, s in coords.items():
            for j, y in self.rows[i].items():
                check[j] = check.get(j, ZERO) + s * y
        if {j: x for j, x in check.items() if x} != v:
            raise LincatError("universal builder: vector left the expected span")
        return coords


def universal_dg(c: Category, truncation: int) -> DGCategory:
    """Universal differential envelope of `c`, truncated above `truncation`.

    Degree 0 is the chain space of the arrows themselves, with the unit
    rows as basis.  Every degree n >= 1 is the reduced echelon span of
    the products omega.db, over the degree-(n-1) basis rows omega and
    the basis arrows b.  Products and differentials of basis forms are
    read off as the sparse coordinates of chain vectors in the reduced
    bases (each re-checked by substitution) and handed to `DGCategory`
    in its sparse input format.
    """
    if truncation < 1:
        raise DimensionError("truncation degree must be at least 1")
    N = truncation
    nobj = len(c.objects)
    objects = range(nobj)

    # chains by a walk: the degree-n interiors from x to y extend the
    # degree-(n-1) interiors from each z to y by one nonzero hom (x, z)
    spaces: dict[tuple[int, int, int], _ChainSpace] = {}
    for y in objects:
        tails = {x: [()] for x in objects if c.dim(x, y)}
        for n in range(N + 1):
            for x in objects:
                spaces[(n, x, y)] = _ChainSpace(c, x, y, tails.get(x, []))
            tails = {x: [(z,) + t for z in objects if c.dim(x, z) for t in tails.get(z, ())] for x in objects}

    def is_identity_arrow(x: int, k: int) -> bool:
        return c.identity[x] == ((k, ONE),)

    def chain_order(space: _ChainSpace) -> tuple[int, ...]:
        # identity arrows in differential slots make a chain a poor pivot
        def badness(elem) -> int:
            interior, arrows = elem
            path = (space.x,) + interior + (space.y,)
            return sum(
                1 for i in range(1, len(arrows))
                if path[i] == path[i + 1] and is_identity_arrow(path[i], arrows[i])
            )
        return tuple(sorted(range(space.dim), key=lambda k: (badness(space.elems[k]), k)))

    def merge_vectors(p: int, q: int, x: int, y: int, z: int, u: SparseRow, v: SparseRow) -> SparseRow:
        """Chain-level product of a degree-p (x,y) vector and a degree-q (y,z) vector."""
        u_elems, v_elems = spaces[(p, x, y)].elems, spaces[(q, y, z)].elems
        out_pos = spaces[(p + q, x, z)].pos
        out: SparseRow = {}
        for ui, uc in u.items():
            u_int, u_arr = u_elems[ui]
            u_last_src = u_int[-1] if u_int else x
            for vi, vc in v.items():
                v_int, v_arr = v_elems[vi]
                v_first_tgt = v_int[0] if v_int else z
                interior = u_int + v_int
                for k, s in c.compose_basis(u_last_src, y, v_first_tgt, u_arr[-1], v_arr[0]):
                    key = out_pos[(interior, u_arr[:-1] + (k,) + v_arr[1:])]
                    out[key] = out.get(key, ZERO) + uc * vc * s
        return {k: s for k, s in out.items() if s}

    # the differential: alternating identity insertion on chain terms
    def d_of_chain_vector(n: int, x: int, y: int, v: SparseRow) -> SparseRow:
        src_elems, out_pos = spaces[(n, x, y)].elems, spaces[(n + 1, x, y)].pos
        out: SparseRow = {}
        for idx, s in v.items():
            interior, arrows = src_elems[idx]
            path = (x,) + interior + (y,)
            for ins in range(0, n + 2):
                sign = Fraction(-1 if ins % 2 else 1)
                obj = path[ins]
                new_interior = (path[:ins + 1] + (obj,) + path[ins + 1:])[1:n + 2]
                for k, idcoef in c.identity[obj]:
                    key = out_pos[(new_interior, arrows[:ins] + (k,) + arrows[ins:])]
                    out[key] = out.get(key, ZERO) + s * sign * idcoef
        return {k: s for k, s in out.items() if s}

    # one span rule: the unit rows in degree 0, the span of omega.db above
    sub: dict[tuple[int, int, int], _Subspace] = {}
    for x in objects:
        for y in objects:
            space = spaces[(0, x, y)]
            sub[(0, x, y)] = _Subspace(space, [{k: ONE} for k in range(space.dim)], chain_order(space))
    d_arrow = {(z, y): [d_of_chain_vector(0, z, y, {b: ONE}) for b in range(c.dim(z, y))]
               for z in objects for y in objects}
    for n in range(1, N + 1):
        for x in objects:
            for y in objects:
                span = (merge_vectors(n - 1, 1, x, z, y, omega, db)
                        for z in objects for omega in sub[(n - 1, x, z)].rows for db in d_arrow[(z, y)])
                sub[(n, x, y)] = _Subspace(spaces[(n, x, y)], span, chain_order(spaces[(n, x, y)]))

    # consistency check against the path count: the first step of a path
    # spans its hom space, every later step the hom space without its identity
    expected = {(x, y): c.dim(x, y) for x in objects for y in objects}
    for n in range(1, N + 1):
        expected = {(x, y): sum(expected[(x, z)] * (c.dim(z, y) - (z == y)) for z in objects)
                    for x in objects for y in objects}
        for (x, y), count in expected.items():
            built = sub[(n, x, y)].dim
            if built != count:
                raise LincatError(
                    f"universal builder: degree-{n} space at ({c.objects[x].label},"
                    f"{c.objects[y].label}) has dimension {built}, the path-count formula gives {count}"
                )

    # labels: each basis row is named by its pivot chain, rendered as a
    # product a0.da1...dan with an identity head elided
    def render_chain(x: int, y: int, elem: tuple[tuple[int, ...], tuple[int, ...]]) -> str:
        interior, arrows = elem
        path = (x,) + interior + (y,)
        head_label = c.basis_labels(path[0], path[1])[arrows[0]]
        head_is_unit = path[0] == path[1] and is_identity_arrow(path[0], arrows[0])
        pieces = [] if head_is_unit else [head_label]
        for i in range(1, len(arrows)):
            pieces.append("d" + c.basis_labels(path[i], path[i + 1])[arrows[i]])
        return ".".join(pieces) if pieces else head_label

    gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
    for n in range(1, N + 1):
        level = {}
        for x in objects:
            for y in objects:
                s = sub[(n, x, y)]
                if s.dim:
                    names = tuple(render_chain(x, y, spaces[(n, x, y)].elems[p]) for p in s.pivots)
                    if len(set(names)) != len(names):
                        raise LincatError(
                            f"degree-{n} basis labels collide at ({c.objects[x].label},"
                            f"{c.objects[y].label}); rename arrows that start with 'd'"
                        )
                    level[(x, y)] = names
        gr_basis[n] = level

    # composition tensors
    gr_comp: dict[tuple[int, int], dict[tuple[int, int, int], dict[tuple[int, int], SparseRow]]] = {}
    for p in range(0, N + 1):
        for q in range(0, N + 1 - p):
            if p == 0 and q == 0:
                continue
            table: dict[tuple[int, int, int], dict[tuple[int, int], SparseRow]] = {}
            for x in objects:
                for y in objects:
                    left = sub[(p, x, y)].rows
                    if not left:
                        continue
                    for z in objects:
                        right = sub[(q, y, z)].rows
                        if not right:
                            continue
                        target = sub[(p + q, x, z)]
                        block = table[(x, y, z)] = {}
                        for i, uvec in enumerate(left):
                            for j, vvec in enumerate(right):
                                coords = target.coordinates(merge_vectors(p, q, x, y, z, uvec, vvec))
                                if coords:
                                    block[(i, j)] = coords
            gr_comp[(p, q)] = table

    diff: dict[int, dict[tuple[int, int], dict[int, SparseRow]]] = {}
    for n in range(0, N):
        level = diff[n] = {}
        for x in objects:
            for y in objects:
                target = sub[(n + 1, x, y)]
                columns = level[(x, y)] = {}
                for j, vv in enumerate(sub[(n, x, y)].rows):
                    coords = target.coordinates(d_of_chain_vector(n, x, y, vv))
                    if coords:
                        columns[j] = coords

    return DGCategory(c, N, gr_basis, gr_comp, diff)


# ---------------------------------------------------------------------------
# matrices of forms


@dataclass(frozen=True)
class FormMatrix:
    """Rectangular matrix of homogeneous forms between two index families.

    Entry (i, j) is a form from the j-th column object to the i-th row
    object, so matrices act on columns by composition, exactly like
    matrices over a ring act on column vectors.
    """

    degree: int
    row_family: tuple[ObjectId, ...]
    col_family: tuple[ObjectId, ...]
    entries: tuple[tuple[Form, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.row_family):
            raise DimensionError("form matrix: wrong number of rows")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_family):
                raise DimensionError("form matrix: ragged row")
            for j, f in enumerate(row):
                if f.degree != self.degree:
                    raise DimensionError(f"form matrix entry ({i},{j}): degree {f.degree} != {self.degree}")
                if f.cod != self.row_family[i] or f.dom != self.col_family[j]:
                    raise DimensionError(f"form matrix entry ({i},{j}): endpoints do not match the families")

    @classmethod
    def zero(cls, w: DGCategory, row_family, col_family, degree: int) -> "FormMatrix":
        rf, cf = tuple(row_family), tuple(col_family)
        return cls(degree, rf, cf, tuple(
            tuple(w.zero_form(degree, d_, c_) for d_ in cf) for c_ in rf
        ))

    @classmethod
    def identity(cls, w: DGCategory, family) -> "FormMatrix":
        fam = tuple(family)
        rows = []
        for i, oi in enumerate(fam):
            row = []
            for j, oj in enumerate(fam):
                row.append(w.identity_form(oi) if i == j else w.zero_form(0, oj, oi))
            rows.append(tuple(row))
        return cls(0, fam, fam, tuple(rows))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_family), len(self.col_family))

    def entry(self, i: int, j: int) -> Form:
        return self.entries[i][j]

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        if (self.degree, self.row_family, self.col_family) != (other.degree, other.row_family, other.col_family):
            raise DimensionError("form matrix addition: shape or degree mismatch")
        return FormMatrix(self.degree, self.row_family, self.col_family, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
        ))

    def __neg__(self) -> "FormMatrix":
        return self.scale(-1)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self + (-other)

    def scale(self, s) -> "FormMatrix":
        return FormMatrix(self.degree, self.row_family, self.col_family, tuple(
            tuple(f.scale(s) for f in row) for row in self.entries
        ))

    def mul(self, w: DGCategory, other: "FormMatrix") -> "FormMatrix":
        acc = ProductAccumulator(w, self.degree + other.degree, self.row_family, other.col_family)
        acc.add(self, other)
        return acc.matrix()

    def power(self, w: DGCategory, k: int) -> "FormMatrix":
        if self.row_family != self.col_family:
            raise DimensionError("only square form matrices have powers")
        if k < 0:
            raise DimensionError("negative matrix power")
        if k == 0:
            return FormMatrix.identity(w, self.row_family)
        acc = self
        for _ in range(k - 1):
            acc = acc.mul(w, self)
        return acc

    def d(self, w: DGCategory) -> "FormMatrix":
        return FormMatrix(self.degree + 1, self.row_family, self.col_family, tuple(
            tuple(w.d(f) for f in row) for row in self.entries
        ))

    def diagonal_trace(self, w: DGCategory) -> tuple[Form, ...]:
        """Sum of diagonal entries grouped per object, in object order."""
        if self.row_family != self.col_family:
            raise DimensionError("trace needs a square form matrix")
        comps = [w.zero_form(self.degree, o, o) for o in w.base.objects]
        for i, oi in enumerate(self.row_family):
            comps[oi.index] = comps[oi.index] + self.entries[i][i]
        return tuple(comps)

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)


class ProductAccumulator:
    """A sum of products of form matrices, kept as a sparse map per entry.

    `add(a, b, sign)` adds sign * a.b: it walks the terms of both
    factors and contracts the stored products of basis forms straight
    into the entries of the result.  `matrix()` then builds one `Form`
    per entry, so a product or a sum of products costs no intermediate
    form.  The arithmetic per entry is that of summing
    `DGCategory.compose` over the inner index, done once.
    """

    def __init__(self, w: DGCategory, degree: int, row_family, col_family):
        self.w = w
        self.degree = degree
        self.row_family = tuple(row_family)
        self.col_family = tuple(col_family)
        self.sums: list[list[dict[int, Fraction]]] = [[{} for _ in self.col_family] for _ in self.row_family]

    def add(self, a: FormMatrix, b: FormMatrix, sign: int = 1) -> None:
        if a.col_family != b.row_family:
            raise DimensionError("form matrix product: inner families differ")
        if (a.degree + b.degree, a.row_family, b.col_family) != (self.degree, self.row_family, self.col_family):
            raise DimensionError("form matrix product: factors do not match the accumulated sum")
        block, p, q = self.w.basis_products, a.degree, b.degree
        cols = [oj.index for oj in b.col_family]
        for oi, a_row, out_row in zip(a.row_family, a.entries, self.sums):
            x = oi.index
            for ok, f, b_row in zip(a.col_family, a_row, b.entries):
                f_terms = f.terms
                if not f_terms:
                    continue
                if sign != 1:
                    f_terms = [(i, sign * s) for i, s in f_terms]
                y = ok.index
                for z, g, out in zip(cols, b_row, out_row):
                    g_terms = g.terms
                    if not g_terms:
                        continue
                    products = block(p, q, x, y, z)
                    for i, s in f_terms:
                        row = products[i]
                        for j, t in g_terms:
                            st = s * t
                            for k, c in row[j]:
                                out[k] = out.get(k, ZERO) + st * c

    def matrix(self) -> FormMatrix:
        deg, rf, cf = self.degree, self.row_family, self.col_family
        return FormMatrix(deg, rf, cf, tuple(
            tuple(Form(deg, oj, oi, terms_of(out)) for oj, out in zip(cf, row)) for oi, row in zip(rf, self.sums)
        ))


def block_diag(w: DGCategory, a: FormMatrix, b: FormMatrix) -> FormMatrix:
    if a.degree != b.degree:
        raise DimensionError("block diagonal: degree mismatch")
    rf = a.row_family + b.row_family
    cf = a.col_family + b.col_family
    rows = []
    for i, oi in enumerate(rf):
        row = []
        for j, oj in enumerate(cf):
            if i < len(a.row_family) and j < len(a.col_family):
                row.append(a.entries[i][j])
            elif i >= len(a.row_family) and j >= len(a.col_family):
                row.append(b.entries[i - len(a.row_family)][j - len(a.col_family)])
            else:
                row.append(w.zero_form(a.degree, oj, oi))
        rows.append(tuple(row))
    return FormMatrix(a.degree, rf, cf, tuple(rows))


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
