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
and differentials as ``{j: {i: s}}`` columns.  Every table has one
store, whichever constructor builds the envelope: each block over one
denominator, as the integer numerators of its nonzero terms.  The
products are read through `integral_products`, the category's own
blocks included, and the differential through `integral_diff`.  Every
kernel reads these stores: `compose` and `d`, the law kernel of
`lincat.laws` and the quotient complex sum their integers, and only the
workspace export, through `stored_products` and `stored_differentials`,
turns them into `Fraction`s.  `gr_comp`, the products as `Fraction`
terms, is a view derived on first read that no library code reads.  A
table key that the constructor's loops never read (out of range, or
with entries at a zero space) raises `DimensionError` rather than being
ignored.

A `Form` holds integer numerators over one denominator, in lowest
terms, as the tables do, so its sums, products and differentials are
`int` arithmetic; its `Fraction` terms are derived for rendering and
export.  A degree-0 form is a morphism of the base category:
`trivial_dg(c)` has no other forms, so it is the category c itself.
Dense coordinates enter a form only through `DGCategory.form`.
Matrices of forms and their products live in `lincat.form_matrix`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

from .category import Category, ObjectId, Violation, checked_blocks, refuse_unread, validate_category
from .envelope import universal_tables
from .errors import CategoryAxiomError, CompositionError, DimensionError
from .exact_linalg import (
    Echelon,
    IntRow,
    IntTerms,
    NumeratorRow,
    Terms,
    checked_terms,
    contract_into,
    fraction_terms,
    integral_terms,
    lowest_terms,
    over_lcm,
    scalar,
)
from .laws import law_violations, laws_hold_on

# ---------------------------------------------------------------------------
# forms


@dataclass(frozen=True)
class Form:
    """A homogeneous form of the given degree, from `dom` to `cod`.

    The coefficient at basis form k is n / den over the (k, n) in `nums`,
    the nonzero numerators by increasing k.  den > 0 has no factor common
    to all of them, and zero is (1, ()), so equal forms have equal fields
    and hash alike.  The fields are trusted, not checked: every form is
    built in lowest terms (`lowest_terms`).  `terms`, the coefficients as
    `Fraction`s, is derived on each read, for rendering and export.
    """

    degree: int
    dom: ObjectId
    cod: ObjectId
    den: int
    nums: IntTerms

    @property
    def terms(self) -> Terms:
        """The nonzero (index, coefficient) pairs, strictly increasing in index, as `Fraction`s."""
        return fraction_terms(self.den, self.nums)

    def __add__(self, other: "Form") -> "Form":
        if (self.degree, self.dom, self.cod) != (other.degree, other.dom, other.cod):
            raise CompositionError("cannot add forms of different degree or endpoints")
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = lcm(self.den, other.den)
        out = {k: n * (den // self.den) for k, n in self.nums}
        m = den // other.den
        for k, n in other.nums:
            out[k] = out.get(k, 0) + m * n
        return Form(self.degree, self.dom, self.cod, *lowest_terms(den, out.items()))

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, s) -> "Form":
        s = scalar(s)
        pairs = ((k, s.numerator * n) for k, n in self.nums)
        return Form(self.degree, self.dom, self.cod, *lowest_terms(self.den * s.denominator, pairs))

    def is_zero(self) -> bool:
        return not self.nums


def stacked(forms: Sequence[Form], offs: Iterable[int]) -> NumeratorRow:
    """The coordinates of the forms, each shifted by its offset, as one `NumeratorRow` over the lcm of their denominators."""
    den = lcm(*[f.den for f in forms])
    return den, {off + k: n * (den // f.den) for off, f in zip(offs, forms) for k, n in f.nums}


def _check_truncation(truncation: int) -> None:
    """Refuse, with `DimensionError`, a truncation degree that is no int, or is below 1."""
    if type(truncation) is not int:
        raise DimensionError(f"truncation degree must be an int, got {truncation!r}")
    if truncation < 1:
        raise DimensionError("truncation degree must be at least 1")


class _Built(tuple):
    """(product blocks, differential blocks) of `universal_tables`, already stored; only `universal_dg` makes one."""


class DGCategory:
    """Graded hom spaces, graded composition and differential tables.

    Degree 0 always delegates to the base category.  `gr_basis` holds
    the labels of the degree-n bases for n >= 1; the products of basis
    forms for mixed degrees and the differential are read through
    `integral_products` and `integral_diff`.  What the tables leave out
    is zero.

    The tables come in sparse.  The input ``gr_comp[(p, q)][(x, y, z)]``
    is a block ``{(i, j): {k: s}}``: the product of basis form i of
    degree p at (x, y) with basis form j of degree q at (y, z) has
    coefficient s at basis form k of degree p + q at (x, z).  The input
    ``diff[n][(x, y)]`` is ``{j: {i: s}}``: d of basis form j of degree n
    has coefficient s at basis form i of degree n + 1.  Every index is
    checked against the dimensions.  Each product block is checked and
    stored by `checked_blocks`, as the category's are
    (`Category.integral_comp`), and each differential block, d out of
    degree n < N at (x, y), as (D, columns), column j holding (i, D * s)
    over the terms (i, s) of d of basis form j; D is the lcm of the
    block's denominators.  Entries are empty where the input gave
    nothing.  ``gr_comp[(p, q)][(x, y, z)][i][j]``, a view derived on
    first read, holds the sorted nonzero terms of a product.  The loops
    walk, in increasing order, the degrees that hold forms (0 and each n
    with a basis) and the in-range degrees and degree pairs the tables
    name: the work follows the forms, not the truncation.  A key they do
    not read is refused by `refuse_unread`: a degree outside the
    truncation, an object index out of range, or entries at a zero space.

    Only `universal_dg` skips the checks, handing over its builder's
    integer product and differential blocks in a private `_Built`; a
    test holds that path to the checked one.  The two paths store the
    same.
    """

    def __init__(
        self,
        base: Category,
        truncation: int,
        gr_basis: Mapping[int, Mapping[tuple[int, int], Sequence[str]]],
        gr_comp: Mapping[tuple[int, int], Mapping[tuple[int, int, int], Mapping[tuple[int, int], Mapping]]],
        diff: Mapping[int, Mapping[tuple[int, int], Mapping[int, Mapping]]],
    ):
        _check_truncation(truncation)
        self.base = base
        self.truncation = truncation
        nobj = len(base.objects)
        self._derham = None  # memo slot used by the quotient-complex builder
        self._generating_set = None  # memo slot of `certified_generators`

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

        if type(gr_comp) is _Built:
            self._integral, self._diff = gr_comp
            return
        in_range = range(truncation + 1)
        forms = [0, *(n for n, level in self.gr_basis.items() if level)]
        named = {tuple(map(int, key)) for key in gr_comp if isinstance(key, tuple) and len(key) == 2
                 and all(n in in_range for n in key) and 0 < sum(key) <= truncation}
        degree_pairs = named | {(p, q) for p in forms for q in forms if 0 < p + q <= truncation}
        # the one product store, that `universal_dg` hands over too: every
        # block of `integral_products` by (p, q, x, y, z), the category's included
        self._integral = {(0, 0, *key): block for key, block in base.integral_comp.items()}
        for p, q in sorted(degree_pairs):
            blocks = checked_blocks(gr_comp.get((p, q), {}), nobj,
                                    lambda x, y, z: (self.dim(p, x, y), self.dim(q, y, z), self.dim(p + q, x, z)),
                                    f"composition ({p},{q})", f"composition ({p},{q}) at {{}}")
            self._integral.update(((p, q, *key), block) for key, block in blocks.items())
        refuse_unread(gr_comp, degree_pairs, (), f"composition at truncation {truncation}")

        # the differential store of `integral_diff`: d out of degree n at
        # (x, y) over one denominator, by (n, x, y); the columns out of the
        # top degree are checked, and all empty, so they are not stored
        pairs = list(itertools.product(range(nobj), repeat=2))
        self._diff: dict[tuple[int, int, int], tuple[int, tuple]] = {}
        for n in sorted({*forms, *(int(n) for n in diff if n in in_range)}):
            given = diff.get(n, {})
            read = set()
            for x, y in pairs:
                dn = self.dim(n, x, y)
                if dn == 0:
                    continue
                where = f"differential at degree {n}, {(x, y)}"
                columns = given.get((x, y), {})
                for j in columns:
                    if not 0 <= j < dn:
                        raise DimensionError(f"{where}: source {j} out of range for dimension {dn}")
                dn1 = self.dim(n + 1, x, y)
                checked = [checked_terms(columns.get(j, {}), dn1, f"{where}, column {j}") for j in range(dn)]
                read.add((x, y))
                if n < truncation:
                    den, flat = integral_terms(checked)
                    self._diff[(n, x, y)] = den, tuple(flat)
            refuse_unread(given, read, pairs, f"differential at degree {n}")
        refuse_unread(diff, in_range, (), f"differential at truncation {truncation}")

    # -- dimensions and bases --------------------------------------------

    def dim(self, n: int, x: int, y: int) -> int:
        return self.base.dim(x, y) if n == 0 else len(self.gr_basis.get(n, {}).get((x, y), ()))

    def space_labels(self, n: int, x: int, y: int) -> tuple[str, ...]:
        if n == 0:
            return self.base.basis_labels(x, y)
        return self.gr_basis.get(n, {}).get((x, y), ())

    def zero_form(self, n: int, dom: ObjectId, cod: ObjectId) -> Form:
        return Form(n, dom, cod, 1, ())

    def form(self, n: int, dom: ObjectId, cod: ObjectId, coords) -> Form:
        """The form with the given dense coordinates, ints and `Fraction`s as they are, others by `scalar`."""
        v = [s if type(s) is int or type(s) is Fraction else scalar(s, f"entry {k}") for k, s in enumerate(coords)]
        if len(v) != self.dim(n, cod.index, dom.index):
            raise DimensionError(
                f"degree-{n} form {dom.label}->{cod.label}: expected {self.dim(n, cod.index, dom.index)} coordinates"
            )
        terms = [(k, s) for k, s in enumerate(v) if s]
        # integer coordinates, the common case, are their own numerators over 1
        return Form(n, dom, cod, *((1, tuple(terms)) if all(type(s) is int for _, s in terms) else over_lcm(terms)))

    def basis_form(self, n: int, dom: ObjectId, cod: ObjectId, k: int) -> Form:
        d = self.dim(n, cod.index, dom.index)
        # a `Form`'s fields are trusted, so an index that is no int is refused here
        if type(k) is not int or not 0 <= k < d:
            raise DimensionError(f"basis index {k!r} out of range for dimension {d}")
        return Form(n, dom, cod, 1, ((k, 1),))

    def identity_form(self, x: ObjectId) -> Form:
        return Form(0, x, x, *self.base.identity[x.index])

    # -- composition and differential ------------------------------------

    def compose(self, f: Form, g: Form) -> Form:
        if f.dom != g.cod:
            raise CompositionError(
                f"cannot compose: left factor starts at {f.dom.label}, right factor ends at {g.cod.label}"
            )
        p, q = f.degree, g.degree
        den, block = self.integral_products(p, q, f.cod.index, f.dom.index, g.dom.index)
        out: IntRow = {}
        for i, a in f.nums:
            contract_into(out, g.nums, block[i], a)
        return Form(p + q, g.dom, f.cod, *lowest_terms(den * f.den * g.den, out.items()))

    @cached_property
    def gr_comp(self) -> dict[tuple[int, int], dict[tuple[int, int, int], tuple]]:
        """The products of positive total degree as `Fraction` terms, derived from the integer blocks on first read.

        A read-only view, which no library code reads:
        ``gr_comp[(p, q)][(x, y, z)][i][j]`` holds the terms of the
        product of basis forms i and j.  It holds the degree pairs and
        blocks of `stored_products`, in its order, and no other key.
        """
        out: dict[tuple[int, int], dict[tuple[int, int, int], tuple]] = {}
        for (p, q, x, y, z), (den, rows) in self.stored_products():
            out.setdefault((p, q), {})[(x, y, z)] = tuple(tuple(fraction_terms(den, t) for t in row) for row in rows)
        return out

    def stored_products(self) -> list[tuple[tuple[int, int, int, int, int], tuple[int, tuple]]]:
        """The blocks `integral_products` reads at positive total degree, ((p, q, x, y, z), (D, rows)) by sorted key."""
        return [(key, block) for key, block in sorted(self._integral.items()) if key[0] or key[1]]

    def stored_differentials(self) -> list[tuple[tuple[int, int, int], tuple[int, tuple]]]:
        """The blocks `integral_diff` reads, ((n, x, y), (D, columns)) by sorted key; one not listed is empty."""
        return sorted(self._diff.items())

    def integral_products(self, p: int, q: int, x: int, y: int, z: int) -> tuple[int, tuple]:
        """The products of the basis forms of degree p at (x, y) with those of degree q at (y, z), as (D, rows).

        Entry [i][j] of rows holds (k, D * s) over the terms (k, s) of the
        product of basis forms i and j, D the lcm of the block's
        denominators.  The block is the stored one; it is empty when
        p + q lies above the truncation or either space is zero.
        """
        block = self._integral.get((p, q, x, y, z))
        if block is None:
            return 1, (((),) * self.dim(q, y, z),) * self.dim(p, x, y)
        return block

    def integral_diff(self, n: int, x: int, y: int) -> tuple[int, tuple]:
        """d of the basis forms of degree n at (x, y), as (D, columns).

        Column j holds (i, D * s) over the terms (i, s) of d of basis form
        j, D the lcm of the block's denominators.  The block is the stored
        one; its columns are empty out of the top degree, and there are
        none at a zero space.
        """
        block = self._diff.get((n, x, y))
        if block is None:
            return 1, ((),) * self.dim(n, x, y)
        return block

    def d(self, f: Form) -> Form:
        n = f.degree
        den, columns = self.integral_diff(n, f.cod.index, f.dom.index)
        return Form(n + 1, f.dom, f.cod, *lowest_terms(den * f.den, contract_into({}, f.nums, columns).items()))


def validate_dg(w: DGCategory) -> list[Violation]:
    """Unit, d.d = 0, Leibniz and associativity failures, as data.

    Degree 0 alone is the base category, whose unit and associativity
    laws belong to `validate_category`, so they are not reported twice;
    d.d = 0 and Leibniz start at degree 0.

    Every law is certified on a generating set.  Let G be a set of forms
    whose left-normed words (..(g1.g2)...).gk, taken with the stored
    product, span every basis form; `_generators` builds one, and drops
    from its degree-0 forms those that the words of the others reach:
    the lemma below holds for any such G, so a smaller G is checked as
    strongly, with fewer forms on the left.  The forms x with
    (x.y).z = x.(y.z) for all y, z make a subspace closed under
    products, so associativity on the triples (g, y, z), g in G, gives
    it on all triples.  Then the unit laws on G give them on every word:
    1.(v.g) = (1.v).g = v.g and (v.g).1 = v.(g.1) = v.g, by induction
    on the length of v, and by linearity on every form.  Given
    associativity, the forms that satisfy the Leibniz rule with every y
    are closed under products too, so Leibniz on the pairs (g, y) gives
    it everywhere; then d.d is a derivation, and d.d = 0 on G gives it
    everywhere.  An identity 1_x in G is held to the unit law on all of
    its object instead, 1_x.v = v for every basis form v with codomain
    x, and d(1_x) = 0, which give every law above with 1_x on the left:
    (1.y).z = y.z = 1.(y.z) and d(1.y) = dy = d1.y + 1.dy.  No product
    is sampled: y and z run over every basis form, and in the worst
    case G is the whole basis.  Only when a check on G fails does the
    same check run with every basis form on the left, so the failures
    are reported on basis forms, sorted by law, degrees, objects and
    basis indices.

    The one check of every law, on G and on the basis, is that of
    `lincat.laws`; `_generators` is here, because G is made of forms.
    G and the verdict of the check on it are built once per envelope
    and kept (`certified_generators`), so the quotient complex of
    `lincat.derham`, which builds its commutators from G once the laws
    hold there, reads them instead of building them again.
    """
    return [] if certified_generators(w)[1] else law_violations(w)


def certified_generators(w: DGCategory) -> tuple[list[Form], bool]:
    """(G, whether every law holds on G), built on first use and kept on `w`.

    G is `_generators(w)` and the verdict `laws_hold_on(w, G)`; the
    tables of `w` are not to be modified once either has been read.
    """
    if w._generating_set is None:
        gens = _generators(w)
        w._generating_set = gens, laws_hold_on(w, gens)
    return w._generating_set


def _generators(w: DGCategory) -> list[Form]:
    """A set G of forms whose left-normed words span every basis form.

    The words are kept per (degree, x, y) as a reduced echelon basis,
    grown by `Echelon.add` and closed under right multiplication by G
    with the stored products, over the integer blocks of
    `integral_products`: a word is kept as numerators, up to a scale that
    does not matter to a span.  G is built degree by degree: first the
    words of degree n that lower words and generators reach, then d(g)
    of each degree-(n-1) generator g that they do not reach, then each
    basis form, in basis order, that the words still do not reach.
    After degree 0, its generators are thinned by reverse deletion: last
    first, each one that the others' words still reach goes, and the
    words are then made again from those left (`pruned`); on M2,
    e11 = e12.e21 goes.  d(g) of a generator that went is not added.
    Every step follows the tables in a fixed order, so G is a function
    of the tables alone, and the words span every basis form by
    construction.  Products of lower words walk the sorted keys of the
    kept words, so only the degrees that hold forms are multiplied, and
    a space that already holds dim(n, x, y) kept words is full: no word
    is multiplied into it or added to its echelon basis, which would
    reject it anyway.
    """
    N, objs = w.truncation, w.base.objects
    nobj = len(objs)
    sizes = {(n, x, y): w.dim(n, x, y) for n in range(N + 1) for x in range(nobj) for y in range(nobj)}
    words: dict[tuple[int, int, int], Echelon] = {}
    spanning: dict[tuple[int, int, int], list[IntRow]] = {}  # the words added to it, as built: a zero changes no span
    gens: list[Form] = []
    by_source: dict[tuple[int, int], list[tuple[int, Form]]] = {}  # (degree, x) -> generators at (x, .)
    rows_of: dict[tuple[int, int, int], list] = {}  # (generator, n, x) -> g's products by row
    pending: list[Form] = []  # d of the generators of the degree below
    fresh: deque = deque()  # words not yet multiplied by the degree-0 generators

    def full(n: int, x: int, y: int) -> bool:
        return len(spanning.get((n, x, y), ())) == sizes.get((n, x, y), 0)

    def multiply(n: int, x: int, y: int, v: IntRow, gid: int, g: Form) -> None:
        """Add the word v of degree n at (x, y) times the generator g at (y, z), unless the words fill its space."""
        m, z = n + g.degree, g.dom.index
        if full(m, x, z):
            return
        key = (gid, n, x)
        rows = rows_of.get(key)
        if rows is None:
            _, products = w.integral_products(n, g.degree, x, y, z)
            rows = rows_of[key] = [contract_into({}, g.nums, row).items() for row in products]
        add(m, x, z, contract_into({}, v.items(), rows))

    def add(n: int, x: int, y: int, v: IntRow) -> bool:
        basis = words.get((n, x, y))
        if basis is None:
            basis = words[(n, x, y)] = Echelon()
        if basis.add((1, v)) is None:
            return False
        spanning.setdefault((n, x, y), []).append(v)
        fresh.append((n, x, y, v))
        return True

    def close() -> None:
        while fresh:
            n, x, y, v = fresh.popleft()
            for gid, g in by_source.get((0, y), ()):
                multiply(n, x, y, v, gid, g)

    def join(g: Form) -> None:
        """Make g, already added as a word, a generator: the degree-0 words times g."""
        n, x, y = g.degree, g.cod.index, g.dom.index
        gid = len(gens)
        gens.append(g)
        by_source.setdefault((n, x), []).append((gid, g))
        for x0 in range(nobj):
            for u in list(spanning.get((0, x0, x), ())):
                multiply(0, x0, x, u, gid, g)
        close()
        if n < N:
            dg = w.d(g)
            if dg.nums:
                pending.append(dg)

    def pruned() -> None:
        """Drop, last first, each degree-0 generator that the words of the others reach; start over from the rest.

        g is tried only where two others, neither an identity, have a
        product with a term at g, so nothing is tried where nothing can go.
        """
        one = w.base.identity
        plain = [g for g in gens if g.dom is not g.cod or (g.den, g.nums) != one[g.cod.index]]
        if len(plain) < 2:
            return

        def restart(zero: list[Form]) -> bool:
            """Start over from the words of the degree-0 generators `zero`, in order; whether they fill degree 0."""
            for table in (words, spanning, gens, by_source, rows_of, pending):
                table.clear()
            for g in zero:
                add(0, g.cod.index, g.dom.index, dict(g.nums))
                join(g)
            return all(full(0, x, y) for x in range(nobj) for y in range(nobj))

        zero = list(gens)
        hits = []  # (a, b, c): the generator c is a term of a.b
        for a in plain:
            for b in plain:
                if a is not b and a.dom is b.cod:
                    _, block = w.integral_products(0, 0, a.cod.index, a.dom.index, b.dom.index)
                    terms = {k for k, _ in block[a.nums[0][0]][b.nums[0][0]]}
                    hits += [(a, b, c) for c in zero if c.dom is b.dom and c.cod is a.cod and c.nums[0][0] in terms
                             and c is not a and c is not b]
        kept = held = zero  # the generators left, and those whose words are held now
        for g in reversed(zero):
            if any(c is g and a in kept and b in kept for a, b, c in hits):
                held = [h for h in kept if h is not g]
                if restart(held):
                    kept = held
        if held is not kept:
            restart(kept)

    for n in range(N + 1):
        for k, x, y in sorted(key for key in spanning if 0 < key[0] < n):
            for v in spanning[(k, x, y)]:
                for gid, g in by_source.get((n - k, y), ()):
                    multiply(k, x, y, v, gid, g)
        close()
        differentials, pending = pending, []
        for g in differentials:
            if not full(n, g.cod.index, g.dom.index) and add(n, g.cod.index, g.dom.index, dict(g.nums)):
                join(g)
        for x in range(nobj):
            for y in range(nobj):
                for k in range(sizes[(n, x, y)]):
                    if (n, x, y) not in words or not words[(n, x, y)].spans_unit(k):
                        add(n, x, y, {k: 1})
                        join(Form(n, objs[y], objs[x], 1, ((k, 1),)))
        if n == 0 and len(gens) > 2:
            pruned()
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
    _check_truncation(truncation)
    gr_basis, *stored = universal_tables(c, truncation)
    return DGCategory(c, truncation, gr_basis, _Built(stored), {})


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
