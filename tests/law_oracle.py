"""The laws of a graded category by direct enumeration in `Fraction`s, as an oracle.

`law_violations` loops over every basis form, pair and triple of a
graded category and reports which of them break d.d = 0, Leibniz or
associativity, in loop order; `unit_violations` does the same for the
unit laws on every basis form of positive degree, and
`category_violations` for the unit and associativity laws of a category
on its basis arrows.  `law_defects` computes what the unit laws, d.d = 0,
Leibniz and associativity leave over with one given form on the left.
They read the stored tables of `DGCategory` and `Category` alone, in
`Fraction`s (`basis_products`, `comp_terms`, `diff_terms`,
`identity_terms`), and share no code with `lincat.laws`, which writes the
laws once with one form on the left, over integer numerators, and runs
them for `validate_dg` and `validate_category`; the two must agree.
"""

import itertools
from fractions import Fraction

from lincat.category import Violation


def _contract(coefficients, vectors):
    """The sum of s * vectors[a] over (a, s) in `coefficients`, as a dict."""
    out = {}
    for a, s in coefficients:
        for c, t in vectors[a]:
            out[c] = out.get(c, 0) + s * t
    return {c: s for c, s in out.items() if s}


def hom_pairs(w, n):
    """The (x, y) whose degree-n form space is nonzero, in object order."""
    nobj = len(w.base.objects)
    return [(x, y) for x in range(nobj) for y in range(nobj) if w.dim(n, x, y) > 0]


def _fractions(den, pairs):
    """(k, n) pairs over a denominator as terms of `Fraction`s."""
    return tuple((k, Fraction(n, den)) for k, n in pairs)


def comp_terms(c):
    """The products of basis arrows of a category in `Fraction`s, read from its integer store.

    Entry [(x, y, z)][i][j] holds the terms of b_i . b_j, for every
    (x, y, z) whose two factors' hom spaces are nonzero, in the order of
    the store.
    """
    return {key: tuple(tuple(_fractions(den, terms) for terms in row) for row in rows)
            for key, (den, rows) in c.integral_comp.items()}


def identity_terms(c):
    """The identity of each object of a category in `Fraction`s, read from its numerators: x -> its terms."""
    return {x: _fractions(den, nums) for x, (den, nums) in c.identity.items()}


def compose_basis(c, x, y, z, i, j):
    """The terms of b_i . b_j, for b_i at (x, y) and b_j at (y, z), in `Fraction`s."""
    block = c.integral_comp.get((x, y, z))
    return () if block is None else _fractions(block[0], block[1][i][j])


def diff_terms(w):
    """The differential of a graded category in `Fraction`s, read from its integer store.

    Entry [n][(x, y)][j] holds the terms of d of basis form j of degree
    n, for every degree n up to the truncation and every (x, y) whose
    degree-n space is nonzero, in object order; out of the top degree
    every column is empty.
    """
    out = {}
    for n in range(w.truncation + 1):
        out[n] = {}
        for x, y in hom_pairs(w, n):
            den, columns = w.integral_diff(n, x, y)
            out[n][(x, y)] = tuple(_fractions(den, column) for column in columns)
    return out


def basis_products(w, p, q, x, y, z):
    """The stored product block of the basis forms of degree p at (x, y) and q at (y, z), in `Fraction`s.

    Entry [i][j] holds the terms of the product of basis forms i and j;
    every entry is empty where the tables store no block.
    """
    if p or q:
        block = w.gr_comp.get((p, q), {}).get((x, y, z))
    else:
        block = w.base.integral_comp.get((x, y, z))
        block = None if block is None else tuple(tuple(_fractions(block[0], terms) for terms in row)
                                                 for row in block[1])
    return (((),) * w.dim(q, y, z),) * w.dim(p, x, y) if block is None else block


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
    dim, diff = w.dim, diff_terms(w)

    def name(n, x, y, k):
        labels = w.space_labels(n, x, y)
        return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"

    for n in range(0, N):
        for (x, y) in hom_pairs(w, n):
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
                        fg, fdg = basis_products(w, p, q, x, y, z), basis_products(w, p, q + 1, x, y, z)
                        dfg = _columns(basis_products(w, p + 1, q, x, y, z), dim(p + 1, x, y), dim(q, y, z))
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
                            fg = basis_products(w, p, q, x, y, z)
                            for u in range(nobj):
                                if dim(r, z, u) == 0:
                                    continue
                                gh, f_gh = basis_products(w, q, r, y, z, u), basis_products(w, p, q + r, x, y, u)
                                fg_h = _columns(basis_products(w, p + q, r, x, z, u), dim(p + q, x, z), dim(r, z, u))
                                for i in range(dim(p, x, y)):
                                    for j in range(dim(q, y, z)):
                                        for k in range(dim(r, z, u)):
                                            if _contract(fg[i][j], fg_h[k]) != _contract(gh[j][k], f_gh[i]):
                                                violations.append(Violation(
                                                    "dg-associativity",
                                                    f"{name(p, x, y, i)} . {name(q, y, z, j)} . {name(r, z, u, k)}",
                                                ))
    return violations


def unit_violations(w):
    """Unit-law failures on every basis form of positive degree, in loop order."""
    violations = []
    identity = identity_terms(w.base)
    for n in range(1, w.truncation + 1):
        for (x, y) in hom_pairs(w, n):
            ox, oy = w.base.objects[x], w.base.objects[y]
            left, right = basis_products(w, 0, n, x, x, y), basis_products(w, n, 0, x, y, y)
            for k in range(w.dim(n, x, y)):
                labels = w.space_labels(n, x, y)
                if _contract(identity[x], [row[k] for row in left]) != {k: 1}:
                    violations.append(Violation("dg-identity-left", f"1_{ox.label} . {labels[k]}"))
                if _contract(identity[y], right[k]) != {k: 1}:
                    violations.append(Violation("dg-identity-right", f"{labels[k]} . 1_{oy.label}"))
    return violations


def category_violations(c):
    """Unit and associativity failures on every basis arrow, pair and triple of a category, in loop order."""
    violations = []
    n = len(c.objects)
    comp, identity = comp_terms(c), identity_terms(c)

    def product(x, y, z, u, v):
        """u.v for u at (x, y) and v at (y, z), both given as (k, s) pairs."""
        out = {}
        block = comp.get((x, y, z))
        if block is not None:
            for i, s in u:
                for k, t in _contract(v, block[i]).items():
                    out[k] = out.get(k, 0) + s * t
        return {k: s for k, s in out.items() if s}

    for x in range(n):
        for y in range(n):
            for k in range(c.dim(x, y)):
                label = c.basis_labels(x, y)[k]
                if product(x, x, y, identity[x], [(k, 1)]) != {k: 1}:
                    violations.append(Violation("identity-left", f"1_{c.objects[x].label} . {label}"))
                if product(x, y, y, [(k, 1)], identity[y]) != {k: 1}:
                    violations.append(Violation("identity-right", f"{label} . 1_{c.objects[y].label}"))

    for x, y, z, u in itertools.product(range(n), repeat=4):
        for i in range(c.dim(x, y)):
            for j in range(c.dim(y, z)):
                for k in range(c.dim(z, u)):
                    left = product(x, z, u, comp[(x, y, z)][i][j], [(k, 1)])
                    right = product(x, y, u, [(i, 1)], comp[(y, z, u)][j][k])
                    if left != right:
                        names = (c.basis_labels(x, y)[i], c.basis_labels(y, z)[j], c.basis_labels(z, u)[k])
                        violations.append(Violation("associativity", " . ".join(names)))
    return violations


def _product(w, f, g):
    """f.g for forms written (degree, x, y, {k: s}), f at (x, y) and g at (y, z)."""
    p, x, y, a = f
    q, _, z, b = g
    out = {}
    if p + q <= w.truncation:
        block = basis_products(w, p, q, x, y, z)
        for i, s in a.items():
            for j, t in b.items():
                for k, u in block[i][j]:
                    out[k] = out.get(k, 0) + s * t * u
    return p + q, x, z, {k: s for k, s in out.items() if s}


def _d(w, f):
    p, x, y, a = f
    out = {}
    if p < w.truncation:
        den, columns = w.integral_diff(p, x, y)
        columns = [_fractions(den, column) for column in columns]
        for j, s in a.items():
            for i, t in columns[j]:
                out[i] = out.get(i, 0) + s * t
    return p + 1, x, y, {i: s for i, s in out.items() if s}


def _plus(a, b, sign=1):
    """a + sign * b, for {k: s} coefficients."""
    out = dict(a)
    for k, s in b.items():
        out[k] = out.get(k, 0) + sign * s
    return {k: s for k, s in out.items() if s}


def law_defects(w, p, x, y, coefficients):
    """What the unit laws and d.d = 0 on g, Leibniz on (g, b) and associativity on (g, b, c) leave over.

    g is the form of degree p at (x, y) with the given {k: s}
    coefficients; the unit laws are 1_x.g = g and g.1_y = g, and b and c
    run over every basis form, the degree-0 triples included.  The
    defects are linear in g: the nonzero coefficients of lhs - rhs, keyed
    by the law, the basis forms on the right and the coefficient's index.
    The laws hold with g on the left exactly when there are none.
    """
    N, nobj = w.truncation, len(w.base.objects)
    g = (p, x, y, {k: s for k, s in coefficients.items() if s})
    defects = {}

    def basis(lo, hi, y0):
        for q in range(lo, hi + 1):
            for z in range(nobj):
                for j in range(w.dim(q, y0, z)):
                    yield q, y0, z, {j: 1}

    def record(key, difference):
        defects.update(((key, k), s) for k, s in difference.items())

    identity = identity_terms(w.base)
    for law, product in (("dg-identity-left", _product(w, (0, x, x, dict(identity[x])), g)),
                         ("dg-identity-right", _product(w, g, (0, y, y, dict(identity[y]))))):
        record((law,), _plus(product[3], g[3], -1))
    dg = _d(w, g)
    if p < N:
        record(("dg-d-squared",), _d(w, dg)[3])
    sign = -1 if p % 2 else 1
    for b in basis(0, N - p - 1, y):
        rhs = _plus(_product(w, dg, b)[3], _product(w, g, _d(w, b))[3], sign)
        record(("dg-leibniz", b[:3], *b[3]), _plus(_d(w, _product(w, g, b))[3], rhs, -1))
    for b in basis(0, N - p, y):
        gb = _product(w, g, b)
        for c in basis(0, N - p - b[0], b[2]):
            record(("dg-associativity", b[:3], *b[3], c[:3], *c[3]),
                   _plus(_product(w, gb, c)[3], _product(w, g, _product(w, b, c))[3], -1))
    return defects
