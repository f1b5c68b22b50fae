"""The laws of a graded category, checked on the stored products of basis forms.

`validate_dg` in `lincat.dg` runs these checks.  `unit_violations`
checks the unit laws on every basis form of positive degree.  d.d = 0,
Leibniz and associativity are written once, in `_failures`, with one
form on the left and every basis form on the right; `laws_hold_on` runs
it on a generating set, and `law_violations` runs it with every basis
form on the left and names what fails.  All of them read the products
and differentials of basis forms straight from the stored terms of a
`DGCategory` and contract them into sparse sums (`contract_into`),
which is the arithmetic `compose` and `d` would do, without building a
form per factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .category import Violation
from .exact_linalg import ONE, ZERO, SparseRow, Terms

if TYPE_CHECKING:
    from .dg import DGCategory, Form

# the laws of `_failures`, in the order `law_violations` reports them
_LAWS = ("dg-d-squared", "dg-leibniz", "dg-associativity")


def contract_into(out: SparseRow, coefficients: Terms, vectors) -> SparseRow:
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


def _basis_name(w: DGCategory, n: int, x: int, y: int, k: int) -> str:
    labels = w.space_labels(n, x, y)
    return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"


def unit_violations(w: DGCategory) -> list[Violation]:
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
                if _nonzero(contract_into({}, one_x, left[k])) != b:
                    violations.append(Violation("dg-identity-left", f"1_{ox.label} . {_basis_name(w, n, x, y, k)}"))
                if _nonzero(contract_into({}, one_y, right[k])) != b:
                    violations.append(Violation("dg-identity-right", f"{_basis_name(w, n, x, y, k)} . 1_{oy.label}"))
    return violations


def _columns(w: DGCategory):
    """The product blocks of `w` transposed, column j holding the products with basis form j.

    Each block is transposed once and then shared by every left factor.
    """
    dim, block = w.dim, w.basis_products
    transposed: dict[tuple[int, int, int, int, int], tuple] = {}

    def columns(p: int, q: int, x: int, y: int, z: int):
        key = (p, q, x, y, z)
        t = transposed.get(key)
        if t is None:
            t = transposed[key] = _transpose(block(p, q, x, y, z), dim(p, x, y), dim(q, y, z))
        return t

    return columns


def _failures(w: DGCategory, p: int, x: int, y: int, terms: Terms, columns) -> Iterator[tuple]:
    """d.d = 0 on g, Leibniz on (g, b) and associativity on (g, b, c), where they fail.

    g is the form of degree p at (x, y) with the given terms; b and c run
    over every basis form.  Each failure is yielded as (law, degrees,
    objects, indices): the degrees of the factors, the objects they pass
    through, and the indices of the basis forms on the right.  The
    products of g with the basis forms of one block are summed once, so
    a pair or a triple costs what it costs on basis forms.
    Associativity includes the degree-0 triples.
    """
    N, nobj = w.truncation, len(w.base.objects)
    dim, block, diff = w.dim, w.basis_products, w.diff
    rows: dict[tuple[int, int], tuple] = {}

    def row(q: int, z: int):
        """g times each basis form of degree q at (y, z), as terms."""
        r = rows.get((q, z))
        if r is None:
            r = rows[(q, z)] = tuple(_nonzero(contract_into({}, terms, col)).items() for col in columns(p, q, x, y, z))
        return r

    if p < N:
        dg = tuple(contract_into({}, terms, diff[p][(x, y)]).items())
        if any(contract_into({}, dg, diff[p + 1].get((x, y), ())).values()):
            yield _LAWS[0], (p,), (x, y), ()
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
                lhs = contract_into({}, gb[j], d_gb)
                rhs = contract_into(contract_into({}, dg, dgb[j]), d_b[j], gdb)
                if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                    yield _LAWS[1], (p, q), (x, y, z), (j,)
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
                            lhs = contract_into({}, gb[j], gb_c[k])
                            rhs = contract_into({}, bc[j][k], g_bc)
                            if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                                yield _LAWS[2], (p, q, r), (x, y, z, u), (j, k)


def laws_hold_on(w: DGCategory, gens: Sequence[Form]) -> bool:
    """Whether `_failures` finds nothing with any g in `gens` on the left.

    Stops at the first failure.  Associativity includes the degree-0
    triples, which the lemma of `validate_dg` needs though
    `validate_category` reports them.
    """
    columns = _columns(w)
    for g in gens:
        for _ in _failures(w, g.degree, g.cod.index, g.dom.index, g.terms, columns):
            return False
    return True


def law_violations(w: DGCategory) -> list[Violation]:
    """d.d = 0, Leibniz and associativity failures on every basis form, pair and triple.

    `_failures` runs with each basis form on the left.  d.d = 0 is
    reported once per space, and the degree-0 triples are left to
    `validate_category`.  The failures are sorted by law, then degrees,
    objects and basis indices, in that order.  `validate_dg` runs this
    only once a check on its generating set has failed.
    """
    columns = _columns(w)
    found: set[tuple] = set()
    for p in range(w.truncation + 1):
        for (x, y) in w.hom_pairs(p):
            for i in range(w.dim(p, x, y)):
                for law, degrees, objects, indices in _failures(w, p, x, y, ((i, ONE),), columns):
                    if law == _LAWS[0]:
                        found.add((0, degrees, objects, ()))  # named by its space, so found once per space
                    elif law == _LAWS[1] or any(degrees):  # degree-0 triples are `validate_category`'s
                        found.add((_LAWS.index(law), degrees, objects, (i,) + indices))
    violations: list[Violation] = []
    for law, degrees, objects, indices in sorted(found):
        if law == 0:
            x, y = (w.base.objects[o].label for o in objects)
            where = f"degree {degrees[0]} at ({x},{y})"
        else:
            where = " . ".join(_basis_name(w, n, objects[f], objects[f + 1], k)
                               for f, (n, k) in enumerate(zip(degrees, indices)))
        violations.append(Violation(_LAWS[law], where))
    return violations
