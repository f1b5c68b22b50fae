"""The d.d = 0, Leibniz and associativity failures by direct enumeration, as an oracle.

`law_violations` loops over every basis form, pair and triple of a
graded category and reports which of them break a law, in loop order.
It reads the tables through the accessors of `DGCategory` alone and
shares no code with `lincat.laws`, which writes the same laws once with
one form on the left; the two must report the same list.
"""

from lincat.category import Violation


def _contract(coefficients, vectors):
    """The sum of s * vectors[a] over (a, s) in `coefficients`, as a dict."""
    out = {}
    for a, s in coefficients:
        for c, t in vectors[a]:
            out[c] = out.get(c, 0) + s * t
    return {c: s for c, s in out.items() if s}


def _columns(block, rows, cols):
    """Column j of a product block: the products of every left basis form with form j."""
    return tuple(zip(*block)) if rows else ((),) * cols


def law_violations(w):
    """d.d = 0, Leibniz and associativity failures on every basis form, pair and triple.

    d.d = 0 is reported once per space.  Associativity leaves out the
    triples of degree 0, whose failures `validate_category` reports.
    """
    violations = []
    N = w.truncation
    nobj = len(w.base.objects)
    dim, block, diff = w.dim, w.basis_products, w.diff

    def name(n, x, y, k):
        labels = w.space_labels(n, x, y)
        return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"

    for n in range(0, N):
        for (x, y) in w.hom_pairs(n):
            d_n1 = diff[n + 1].get((x, y), ())
            if any(_contract(col, d_n1) for col in diff[n][(x, y)]):
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
                        dfg = _columns(block(p + 1, q, x, y, z), dim(p + 1, x, y), dim(q, y, z))
                        d_fg, d_g = diff[p + q].get((x, z), ()), diff[q][(y, z)]
                        sign = -1 if p % 2 else 1
                        for i in range(dim(p, x, y)):
                            for j in range(dim(q, y, z)):
                                lhs = _contract(fg[i][j], d_fg)
                                rhs = _contract(d_f[i], dfg[j])
                                for c, s in _contract(d_g[j], fdg[i]).items():
                                    rhs[c] = rhs.get(c, 0) + sign * s
                                if lhs != {c: s for c, s in rhs.items() if s}:
                                    violations.append(Violation("dg-leibniz", f"{name(p, x, y, i)} . {name(q, y, z, j)}"))

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
                                fg_h = _columns(block(p + q, r, x, z, u), dim(p + q, x, z), dim(r, z, u))
                                for i in range(dim(p, x, y)):
                                    for j in range(dim(q, y, z)):
                                        for k in range(dim(r, z, u)):
                                            if _contract(fg[i][j], fg_h[k]) != _contract(gh[j][k], f_gh[i]):
                                                violations.append(Violation(
                                                    "dg-associativity",
                                                    f"{name(p, x, y, i)} . {name(q, y, z, j)} . {name(r, z, u, k)}",
                                                ))
    return violations
