"""The laws of a graded category, checked on the stored products of basis forms.

`validate_dg` in `lincat.dg` runs these checks.  `unit_violations`
checks the unit laws on every basis form of positive degree,
`laws_hold_on` certifies d.d = 0, Leibniz and associativity on a
generating set, and `law_violations` is the enumeration over every
basis form, pair and triple that reports which of them fail.  All of
them read the products and differentials of basis forms straight from
the stored terms of a `DGCategory` and contract them into sparse sums
(`contract_into`), which is the arithmetic `compose` and `d` would do,
without building a form per factor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .category import Violation
from .exact_linalg import ONE, ZERO, SparseRow, Terms

if TYPE_CHECKING:
    from .dg import DGCategory, Form


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


def laws_hold_on(w: DGCategory, gens: Sequence[Form]) -> bool:
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
                r = rows[(q, z)] = tuple(_nonzero(contract_into({}, gt, col)).items() for col in columns(p, q, x, y, z))
            return r

        if p < N:
            dg = tuple(contract_into({}, gt, diff[p][(x, y)]).items())
            if any(contract_into({}, dg, diff[p + 1].get((x, y), ())).values()):
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
                    lhs = contract_into({}, gb[j], d_gb)
                    rhs = contract_into(contract_into({}, dg, dgb[j]), d_b[j], gdb)
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
                                lhs = contract_into({}, gb[j], gb_c[k])
                                rhs = contract_into({}, bc[j][k], g_bc)
                                if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                                    return False
    return True


def law_violations(w: DGCategory) -> list[Violation]:
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
            if any(any(contract_into({}, col, d_n1).values()) for col in diff[n][(x, y)]):
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
                                lhs = contract_into({}, fg[i][j], d_fg)
                                rhs = contract_into(contract_into({}, d_f[i], dfg[j]), d_g[j], fdg[i])
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
                                            lhs = contract_into({}, fg[i][j], fg_h[k])
                                            rhs = contract_into({}, gh[j][k], f_gh[i])
                                            if lhs != rhs and _nonzero(lhs) != _nonzero(rhs):
                                                violations.append(
                                                    Violation(
                                                        "dg-associativity",
                                                        f"{name(p, x, y, i)} . {name(q, y, z, j)} . {name(r, z, u, k)}",
                                                    )
                                                )
    return violations
