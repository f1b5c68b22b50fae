"""Differential graded structure on top of a finite linear category.

A `DGCategory` extends a base category with graded hom spaces up to a
truncation degree N, a graded composition, and a differential with
d.d = 0 and the graded Leibniz rule.  Degrees above N are zero spaces;
this is a quotient of the untruncated object by the ideal of forms of
degree > N, so every identity checked here survives truncation verbatim.

Two constructions are provided: `trivial_dg` (no forms above degree 0)
and `universal_dg`, which realizes the universal differential envelope
concretely inside "chain" spaces.  The degree-n chain space for the
endpoint pair (x, y) is the direct sum, over all length-n interior
object paths, of tensor products of n+1 hom spaces strung along the
path.  Inside it:

* degree 1 is the kernel of the composition map, with its basis chosen
  by row reduction in lexicographic path order;
* higher degrees are spanned by middle-merge products of lower ones;
* the differential is the alternating sum of identity insertions, which
  on degree 0 reduces to d(f) = 1.f - f.1.

All bases are deterministic, so composition tensors and differentials
are reproducible.

Tables are sparse from end to end, because nearly all entries of the
dense tensors are zero: products come in as ``{(i, j): {k: s}}`` blocks
and differentials as ``{j: {i: s}}`` columns, and both are stored as
tuples of their nonzero (index, coefficient) terms.  The chain vectors
of the universal builder are sparse maps for the same reason, and their
spans go to the elimination kernel `echelon` as they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .category import Category, Morphism, ObjectId, ProductRows, Violation, contract, product_rows
from .errors import CompositionError, DimensionError, LincatError
from .exact_linalg import (
    ONE,
    ZERO,
    MatrixQ,
    SparseRow,
    Terms,
    Vector,
    checked_terms,
    echelon,
    is_zero_vector,
    kernel_basis,
    sparse,
    unit_vector,
    vec,
    vec_add,
    vec_scale,
    zero_vector,
)

# ---------------------------------------------------------------------------
# forms


@dataclass(frozen=True)
class Form:
    """A homogeneous form of the given degree, from `dom` to `cod`."""

    degree: int
    dom: ObjectId
    cod: ObjectId
    coords: Vector

    def __add__(self, other: "Form") -> "Form":
        if (self.degree, self.dom, self.cod) != (other.degree, other.dom, other.cod):
            raise CompositionError("cannot add forms of different degree or endpoints")
        return Form(self.degree, self.dom, self.cod, vec_add(self.coords, other.coords))

    def __neg__(self) -> "Form":
        return self.scale(-1)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, s) -> "Form":
        return Form(self.degree, self.dom, self.cod, vec_scale(Fraction(s), self.coords))

    def is_zero(self) -> bool:
        return is_zero_vector(self.coords)


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
    form j, both empty where the input gave nothing.
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

        self.gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
        for n in range(1, truncation + 1):
            level = {}
            for (x, y), labels in gr_basis.get(n, {}).items():
                if not (0 <= x < nobj and 0 <= y < nobj):
                    raise DimensionError(f"degree-{n} basis endpoint out of range: {(x, y)}")
                if labels:
                    level[(x, y)] = tuple(str(s) for s in labels)
            self.gr_basis[n] = level

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
                self.gr_comp[(p, q)] = table

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
            self.diff[n] = level

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
        return Form(n, dom, cod, zero_vector(self.dim(n, cod.index, dom.index)))

    def form(self, n: int, dom: ObjectId, cod: ObjectId, coords) -> Form:
        v = vec(coords)
        if len(v) != self.dim(n, cod.index, dom.index):
            raise DimensionError(
                f"degree-{n} form {dom.label}->{cod.label}: expected {self.dim(n, cod.index, dom.index)} coordinates"
            )
        return Form(n, dom, cod, v)

    def basis_form(self, n: int, dom: ObjectId, cod: ObjectId, k: int) -> Form:
        d = self.dim(n, cod.index, dom.index)
        if not (0 <= k < d):
            raise DimensionError(f"basis index {k} out of range for dimension {d}")
        return Form(n, dom, cod, unit_vector(d, k))

    def identity_form(self, x: ObjectId) -> Form:
        return Form(0, x, x, self.base.identity[x.index])

    def form_from_morphism(self, f: Morphism) -> Form:
        return Form(0, f.dom, f.cod, f.coords)

    def morphism_from_form(self, f: Form) -> Morphism:
        if f.degree != 0:
            raise CompositionError("only degree-0 forms are morphisms of the base category")
        return Morphism(f.dom, f.cod, f.coords)

    # -- composition and differential ------------------------------------

    def compose(self, f: Form, g: Form) -> Form:
        if f.dom != g.cod:
            raise CompositionError(
                f"cannot compose: left factor starts at {f.dom.label}, right factor ends at {g.cod.label}"
            )
        p, q = f.degree, g.degree
        x, y, z = f.cod.index, f.dom.index, g.dom.index
        products = self.basis_products(p, q, x, y, z)
        return Form(p + q, g.dom, f.cod, contract(products, f.coords, g.coords, self.dim(p + q, x, z)))

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
        x, y = f.cod.index, f.dom.index
        out = [ZERO] * self.dim(n + 1, x, y)
        for a, column in zip(f.coords, self.diff.get(n, {}).get((x, y), ())):
            if a:
                for i, s in column:
                    out[i] += a * s
        return Form(n + 1, f.dom, f.cod, tuple(out))


def _contract(out: list, coefficients: Terms, vectors) -> list:
    """Add s * vectors[a] to the dense vector `out`, over (a, s) in `coefficients`."""
    for a, s in coefficients:
        for c, t in vectors[a]:
            out[c] += s * t
    return out


def validate_dg(w: DGCategory) -> list[Violation]:
    """Unit, d.d = 0, Leibniz and associativity failures, as data.

    Every check runs on every basis form, pair and triple.  Products and
    differentials of basis forms are read straight from the stored terms
    and contracted there, which is the arithmetic `compose` and `d`
    would do on basis forms, without building a form per factor.
    """
    violations: list[Violation] = []
    N = w.truncation
    nobj = len(w.base.objects)
    dim, block, diff = w.dim, w.basis_products, w.diff

    def name(n: int, x: int, y: int, k: int) -> str:
        labels = w.space_labels(n, x, y)
        return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"

    def transpose(b, rows: int, cols: int):
        return tuple(zip(*b)) if rows else ((),) * cols

    for n in range(0, N + 1):
        for (x, y) in w.hom_pairs(n):
            ox, oy = w.base.objects[x], w.base.objects[y]
            one_x, one_y = tuple(sparse(w.base.identity[x]).items()), tuple(sparse(w.base.identity[y]).items())
            dn = dim(n, x, y)
            left, right = transpose(block(0, n, x, x, y), dim(0, x, x), dn), block(n, 0, x, y, y)
            for k in range(dn):
                b = list(unit_vector(dn, k))
                if _contract([ZERO] * dn, one_x, left[k]) != b:
                    violations.append(Violation("dg-identity-left", f"1_{ox.label} . {name(n, x, y, k)}"))
                if _contract([ZERO] * dn, one_y, right[k]) != b:
                    violations.append(Violation("dg-identity-right", f"{name(n, x, y, k)} . 1_{oy.label}"))

    for n in range(0, N):
        for (x, y) in w.hom_pairs(n):
            d_n1, dn2 = diff[n + 1].get((x, y), ()), dim(n + 2, x, y)
            if any(any(_contract([ZERO] * dn2, col, d_n1)) for col in diff[n][(x, y)]):
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
                        dfg = transpose(block(p + 1, q, x, y, z), dim(p + 1, x, y), dim(q, y, z))
                        d_fg, d_g = diff[p + q].get((x, z), ()), diff[q][(y, z)]
                        if p % 2:
                            d_g = tuple(tuple((b, -s) for b, s in col) for col in d_g)
                        dn = dim(p + q + 1, x, z)
                        for i in range(dim(p, x, y)):
                            for j in range(dim(q, y, z)):
                                lhs = _contract([ZERO] * dn, fg[i][j], d_fg)
                                rhs = _contract(_contract([ZERO] * dn, d_f[i], dfg[j]), d_g[j], fdg[i])
                                if lhs != rhs:
                                    violations.append(
                                        Violation("dg-leibniz", f"{name(p, x, y, i)} . {name(q, y, z, j)}")
                                    )

    # (f.g).h = f.(g.h) on basis forms of degrees p, q, r
    for p in range(0, N + 1):
        for q in range(0, N - p + 1):
            for r in range(0, N - p - q + 1):
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
                                fg_h = transpose(block(p + q, r, x, z, u), dim(p + q, x, z), dim(r, z, u))
                                dn = dim(p + q + r, x, u)
                                for i in range(dim(p, x, y)):
                                    for j in range(dim(q, y, z)):
                                        for k in range(dim(r, z, u)):
                                            lhs = _contract([ZERO] * dn, fg[i][j], fg_h[k])
                                            rhs = _contract([ZERO] * dn, gh[j][k], f_gh[i])
                                            if lhs != rhs:
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
    """Flat enumeration of degree-n chains for one endpoint pair.

    A chain is (interior objects, arrow basis indices): n interior
    objects and n+1 arrows strung from x to y through them.  Flat order
    is lexicographic in the interior path, then row-major in the arrow
    indices, which makes every reduced basis deterministic.
    """

    def __init__(self, c: Category, n: int, x: int, y: int):
        self.n, self.x, self.y = n, x, y
        self.elems: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        nobj = len(c.objects)
        for interior in itertools.product(range(nobj), repeat=n):
            path = (x,) + interior + (y,)
            dims = [c.dim(path[i], path[i + 1]) for i in range(n + 1)]
            if any(d == 0 for d in dims):
                continue
            for arrows in itertools.product(*(range(d) for d in dims)):
                self.elems.append((interior, arrows))
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

    def __init__(self, space: _ChainSpace, spanning: list[SparseRow], order: tuple[int, ...]):
        self.space = space
        position = [0] * space.dim
        for pos, j in enumerate(order):
            position[j] = pos
        rows, pivots = echelon(({position[j]: s for j, s in r.items()} for r in spanning), space.dim)
        self.rows: tuple[SparseRow, ...] = tuple({order[k]: s for k, s in r.items()} for r in rows)
        self.pivots = tuple(order[k] for k in pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates(self, v: SparseRow) -> SparseRow:
        """Nonzero coordinates in the reduced basis; the vector must lie in the span.

        `v` holds nonzero entries only.  The coordinates are read off at
        the pivots and substituted back over the whole chain space.
        """
        coords = {i: v[p] for i, p in enumerate(self.pivots) if p in v}
        check: SparseRow = {}
        for i, s in coords.items():
            for j, y in self.rows[i].items():
                check[j] = check.get(j, ZERO) + s * y
        if {j: x for j, x in check.items() if x} != v:
            raise LincatError("universal builder: vector left the expected span")
        return coords


def _reduced_dim(c: Category, z: int, w_: int) -> int:
    return c.dim(z, w_) - (1 if z == w_ else 0)


def _expected_dim(c: Category, n: int, x: int, y: int) -> int:
    """Closed-form dimension of the degree-n envelope space.

    Counts paths weighted by the hom dimension for the first step and
    the identity-reduced dimensions afterwards; used as a consistency
    check on the constructive computation.
    """
    nobj = len(c.objects)
    total = 0
    for interior in itertools.product(range(nobj), repeat=n):
        path = (x,) + interior + (y,)
        prod = c.dim(path[0], path[1])
        for i in range(1, n + 1):
            prod *= _reduced_dim(c, path[i], path[i + 1])
        total += prod
    return total


def universal_dg(c: Category, truncation: int) -> DGCategory:
    """Universal differential envelope of `c`, truncated above `truncation`.

    Products and differentials of basis forms are read off as the sparse
    coordinates of chain vectors in the reduced bases (each re-checked by
    substitution) and handed to `DGCategory` in its sparse input format.
    """
    if truncation < 1:
        raise DimensionError("truncation degree must be at least 1")
    N = truncation
    nobj = len(c.objects)

    spaces: dict[tuple[int, int, int], _ChainSpace] = {}
    for n in range(1, N + 1):
        for x in range(nobj):
            for y in range(nobj):
                spaces[(n, x, y)] = _ChainSpace(c, n, x, y)

    def is_identity_arrow(x: int, k: int) -> bool:
        return c.identity[x] == unit_vector(c.dim(x, x), k)

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

    sub: dict[tuple[int, int, int], _Subspace] = {}

    # degree 1: kernel of the composition map, reduced deterministically
    for x in range(nobj):
        for y in range(nobj):
            space = spaces[(1, x, y)]
            if space.dim == 0:
                sub[(1, x, y)] = _Subspace(space, [], ())
                continue
            mu = [[ZERO] * space.dim for _ in range(c.dim(x, y))]
            for j, ((z,), arrows) in enumerate(space.elems):
                for k, s in c.compose_basis(x, z, y, arrows[0], arrows[1]):
                    mu[k][j] = s
            kernel = kernel_basis(MatrixQ.from_rows(mu, cols=space.dim))
            sub[(1, x, y)] = _Subspace(space, [sparse(k) for k in kernel], chain_order(space))

    def merge_vectors(p: int, q: int, x: int, y: int, z: int, u: SparseRow, v: SparseRow) -> SparseRow:
        """Chain-level product of a degree-p (x,y) vector and a degree-q (y,z) vector.

        A degree-0 factor is indexed by arrow basis index instead of by chain.
        """
        sp_u = spaces[(p, x, y)] if p >= 1 else None
        sp_v = spaces[(q, y, z)] if q >= 1 else None
        out_pos = spaces[(p + q, x, z)].pos
        out: SparseRow = {}
        for ui, uc in u.items():
            if p >= 1:
                u_int, u_arr = sp_u.elems[ui]
                u_last_src = u_int[-1] if u_int else x
            else:
                u_int, u_arr = (), (ui,)
                u_last_src = x
            for vi, vc in v.items():
                if q >= 1:
                    v_int, v_arr = sp_v.elems[vi]
                    v_first_tgt = v_int[0] if v_int else z
                else:
                    v_int, v_arr = (), (vi,)
                    v_first_tgt = z
                interior = u_int + v_int
                for k, s in c.compose_basis(u_last_src, y, v_first_tgt, u_arr[-1], v_arr[0]):
                    key = out_pos[(interior, u_arr[:-1] + (k,) + v_arr[1:])]
                    out[key] = out.get(key, ZERO) + uc * vc * s
        return {k: s for k, s in out.items() if s}

    # higher degrees: spans of products with degree 1
    for n in range(2, N + 1):
        for x in range(nobj):
            for y in range(nobj):
                space = spaces[(n, x, y)]
                prods: list[SparseRow] = []
                for z in range(nobj):
                    left = sub[(n - 1, x, z)]
                    right = sub[(1, z, y)]
                    for urow in left.rows:
                        for vrow in right.rows:
                            prods.append(merge_vectors(n - 1, 1, x, z, y, urow, vrow))
                sub[(n, x, y)] = _Subspace(space, prods, chain_order(space))

    for n in range(1, N + 1):
        for x in range(nobj):
            for y in range(nobj):
                built, expected = sub[(n, x, y)].dim, _expected_dim(c, n, x, y)
                if built != expected:
                    raise LincatError(
                        f"universal builder: degree-{n} space at ({c.objects[x].label},"
                        f"{c.objects[y].label}) has dimension {built}, the path-count formula gives {expected}"
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
        for x in range(nobj):
            for y in range(nobj):
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
            for x in range(nobj):
                for y in range(nobj):
                    dp = c.dim(x, y) if p == 0 else sub[(p, x, y)].dim
                    if dp == 0:
                        continue
                    for z in range(nobj):
                        dq = c.dim(y, z) if q == 0 else sub[(q, y, z)].dim
                        if dq == 0:
                            continue
                        target = sub[(p + q, x, z)]
                        block = table[(x, y, z)] = {}
                        for i in range(dp):
                            uvec = {i: ONE} if p == 0 else sub[(p, x, y)].rows[i]
                            for j in range(dq):
                                vvec = {j: ONE} if q == 0 else sub[(q, y, z)].rows[j]
                                coords = target.coordinates(merge_vectors(p, q, x, y, z, uvec, vvec))
                                if coords:
                                    block[(i, j)] = coords
            gr_comp[(p, q)] = table

    # differential: alternating identity insertion on chain terms
    def d_of_chain_vector(n: int, x: int, y: int, v: SparseRow) -> SparseRow:
        out_pos = spaces[(n + 1, x, y)].pos
        out: SparseRow = {}
        src_elems = spaces[(n, x, y)].elems if n >= 1 else [((), (k,)) for k in range(c.dim(x, y))]
        for idx, s in v.items():
            interior, arrows = src_elems[idx]
            path = (x,) + interior + (y,)
            for ins in range(0, n + 2):
                sign = Fraction(-1 if ins % 2 else 1)
                obj = path[ins]
                idc = c.identity[obj]
                new_path = path[:ins + 1] + (obj,) + path[ins + 1:]
                new_interior = new_path[1:n + 2]
                for k, idcoef in enumerate(idc):
                    if not idcoef:
                        continue
                    key = out_pos[(new_interior, arrows[:ins] + (k,) + arrows[ins:])]
                    out[key] = out.get(key, ZERO) + s * sign * idcoef
        return {k: s for k, s in out.items() if s}

    diff: dict[int, dict[tuple[int, int], dict[int, SparseRow]]] = {}
    for n in range(0, N):
        level = diff[n] = {}
        for x in range(nobj):
            for y in range(nobj):
                dn = c.dim(x, y) if n == 0 else sub[(n, x, y)].dim
                target = sub[(n + 1, x, y)]
                columns = level[(x, y)] = {}
                for j in range(dn):
                    vv = {j: ONE} if n == 0 else sub[(n, x, y)].rows[j]
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
        if self.col_family != other.row_family:
            raise DimensionError("form matrix product: inner families differ")
        deg = self.degree + other.degree
        rows = []
        for i, oi in enumerate(self.row_family):
            row = []
            for j, oj in enumerate(other.col_family):
                acc = w.zero_form(deg, oj, oi)
                for k in range(len(self.col_family)):
                    acc = acc + w.compose(self.entries[i][k], other.entries[k][j])
                row.append(acc)
            rows.append(tuple(row))
        return FormMatrix(deg, self.row_family, other.col_family, tuple(rows))

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
    labels = w.space_labels(f.degree, f.cod.index, f.dom.index)
    terms = []
    for s, label in zip(f.coords, labels):
        if s == 0:
            continue
        if s == 1:
            terms.append(("+", label))
        elif s == -1:
            terms.append(("-", label))
        else:
            terms.append(("+", f"({s}){label}") if s > 0 else ("-", f"({-s}){label}"))
    if not terms:
        return "0"
    sign0, head = terms[0]
    text = ("-" if sign0 == "-" else "") + head
    for sign, piece in terms[1:]:
        text += f" {sign} {piece}"
    return text
