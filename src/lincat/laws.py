"""The laws of a graded category, checked on the stored products of basis forms.

Every law is written once, in `_failures`, with one form g on the left
and every basis form on the right: the unit laws 1.g = g and g.1 = g,
d.d = 0, Leibniz and associativity.  `laws_hold_on` runs it on a
generating set, and `_report` runs it with every basis form on the left
and names what fails.  An identity 1_x in the generating set takes the
whole-object unit law instead (`_unit_holds`): 1_x.v = v for every
basis form v with codomain x, and d(1_x) = 0, which imply every law
`_failures` checks on 1_x, in linear rather than quadratic time.  Two
reports share `_report`: `law_violations`, its failures that involve d
or a form of positive degree, which `validate_dg` in `lincat.dg`
returns once the check on its generating set has failed, and
`validate_category` in `lincat.category`, the report on
`trivial_dg(c)`, where d = 0 and no form lies above degree 0, so only
the unit and associativity laws of the category can fail.  All of
them read the products and differentials of basis forms straight from
the tables of a `DGCategory` and contract them into sparse sums with
`lincat.exact_linalg.contract_into`, the contraction that `compose` and
`d` run too, without building a form per factor.  Associativity sums
each block of triples (g, b, c) in one `contract_block`, which skips a
triple where g.b and b.c have no terms: both sides are 0 there.

The checks sum integer numerators, with no `Fraction` arithmetic.
Each product block comes over one denominator from
`DGCategory.integral_products`, and each block of the differential from
`DGCategory.integral_diff`, as every envelope stores them, and each
identity over one denominator, as the category stores it.  A left
factor comes as the numerators of a form, whose denominator drops out:
both sides of every law are linear in it.  The two sides of
a law are summed from different blocks, so each is cross-multiplied by
the denominators of the other before they are compared; where every
denominator is 1, as in most tables, nothing is scaled.  A law holds
when the difference of its two sides has no nonzero numerator.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, Iterator, Sequence

from .category import Violation
from .exact_linalg import contract_block, contract_into

if TYPE_CHECKING:
    from .dg import DGCategory, Form

# the laws of `_failures`, by index, named as `validate_category` reports
# them; a failure of d.d = 0 or Leibniz, or one that involves a form of
# positive degree, is named with the prefix "dg-"
_LAWS = ("identity-left", "identity-right", "d-squared", "leibniz", "associativity")
# the place of each law in a sorted report: the unit laws share theirs, so
# the left unit of a basis form comes just before its right unit
_PLACE = (0, 0, 1, 2, 3)


def _transpose(b, rows: int, cols: int):
    return tuple(zip(*b)) if rows else ((),) * cols


def _basis_name(w: DGCategory, n: int, x: int, y: int, k: int) -> str:
    labels = w.space_labels(n, x, y)
    return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"


def _columns(w: DGCategory):
    """The integral product blocks of `w` transposed: (D, columns), column j the products with basis form j.

    Each block is transposed once and then shared by every left factor.
    """
    dim, block = w.dim, w.integral_products
    transposed: dict[tuple[int, int, int, int, int], tuple[int, tuple]] = {}

    def columns(p: int, q: int, x: int, y: int, z: int) -> tuple[int, tuple]:
        key = (p, q, x, y, z)
        t = transposed.get(key)
        if t is None:
            den, rows = block(p, q, x, y, z)
            t = transposed[key] = den, _transpose(rows, dim(p, x, y), dim(q, y, z))
        return t

    return columns


def _dims(w: DGCategory) -> tuple:
    """The dimensions of `w`, read once: entry [n][x][y] is w.dim(n, x, y), and None for a degree with no forms."""
    nobj = len(w.base.objects)
    dims = (tuple(tuple(w.dim(n, x, y) for y in range(nobj)) for x in range(nobj))
            for n in range(w.truncation + 1))
    return tuple(d if any(map(any, d)) else None for d in dims)


def _failures(w: DGCategory, p: int, x: int, y: int, g, columns, dims) -> Iterator[tuple]:
    """The unit laws and d.d = 0 on g, Leibniz on (g, b) and associativity on (g, b, c), where they fail.

    g is the form of degree p at (x, y) with the given integer
    numerators; b and c run over every basis form.  `columns` is a
    `_columns` of `w` and `dims` its `_dims`; d is read from
    `DGCategory.integral_diff`.  The loops skip a degree with no forms, and a law whose
    two sides lie in a zero space, where it holds.  Each failure is
    yielded as (law, degrees, objects, indices): the index of the law in
    `_LAWS`, the degrees of the factors, the objects they pass through,
    and the indices of the basis forms on the right.  The products of g
    with the basis forms of one block are summed once, so a pair or a
    triple costs what it costs on basis forms, and the triples of one
    block are one `contract_block`.  Associativity includes the degree-0
    triples.
    """
    N, nobj, block, diff = w.truncation, len(w.base.objects), w.integral_products, w.integral_diff
    rows: dict[tuple[int, int], tuple[int, tuple]] = {}

    def row(q: int, z: int) -> tuple[int, tuple]:
        """g times each basis form of degree q at (y, z): (D, sums), D the denominator of the block."""
        r = rows.get((q, z))
        if r is None:
            den, cols = columns(p, q, x, y, z)
            r = rows[(q, z)] = den, tuple(tuple((k, n) for k, n in contract_into({}, g, col).items() if n)
                                          for col in cols)
        return r

    # 1.g - g and g.1 - g, over the denominators of the unit and of the block
    (one_den, one), (den, one_g) = w.base.identity[x], columns(0, p, x, x, y)
    out = {k: -one_den * den * n for k, n in g}
    for j, n in g:
        contract_into(out, one, one_g[j], n)
    if any(out.values()):
        yield 0, (p,), (x, y), ()
    (one_den, one), (den, g_one) = w.base.identity[y], row(0, y)
    if any(contract_into({k: -one_den * den * n for k, n in g}, one, g_one).values()):
        yield 1, (p,), (x, y), ()
    d_den, d_p = diff(p, x, y)
    dg = tuple(contract_into({}, g, d_p).items())  # over d_den; empty out of the top degree
    if p < N and any(contract_into({}, dg, diff(p + 1, x, y)[1]).values()):
        yield 2, (p,), (x, y), ()
    # d(g.b) - dg.b - (-1)^p g.db = 0, in degree p + q + 1
    sign = 1 if p % 2 else -1
    for q in range(0, N - p):
        dims_q, dims_out = dims[q], dims[p + q + 1]
        if dims_q is None or dims_out is None:
            continue
        for z in range(nobj):
            dq = dims_q[y][z]
            if dq == 0 or dims_out[x][z] == 0:
                continue
            (gb_den, gb), (gdb_den, gdb), (dgb_den, dgb) = row(q, z), row(q + 1, z), columns(p + 1, q, x, y, z)
            (d_gb_den, d_gbz), (d_b_den, d_bz) = diff(p + q, x, z), diff(q, y, z)
            lhs, rhs_dg, rhs_db = gb_den * d_gb_den, d_den * dgb_den, gdb_den * d_b_den
            common = lcm(lhs, rhs_dg, rhs_db)
            m, m_dg, m_db = common // lhs, -(common // rhs_dg), sign * (common // rhs_db)
            for j in range(dq):
                out = contract_into(contract_into({}, gb[j], d_gbz, m), dg, dgb[j], m_dg)
                if any(contract_into(out, d_bz[j], gdb, m_db).values()):
                    yield 3, (p, q), (x, y, z), (j,)
    # (g.b).c - g.(b.c) = 0, in degree p + q + r
    for q in range(0, N - p + 1):
        dims_q = dims[q]
        if dims_q is None:
            continue
        for r in range(0, N - p - q + 1):
            dims_r, dims_out = dims[r], dims[p + q + r]
            if dims_r is None or dims_out is None:
                continue
            for z in range(nobj):
                dq = dims_q[y][z]
                if dq == 0:
                    continue
                gb_den, gb = row(q, z)
                for u in range(nobj):
                    dr = dims_r[z][u]
                    if dr == 0 or dims_out[x][u] == 0:
                        continue
                    (bc_den, bc), (g_bc_den, g_bc), (gb_c_den, gb_c) = (
                        block(q, r, y, z, u), row(q + r, u), columns(p + q, r, x, z, u))
                    lhs, rhs = gb_den * gb_c_den, bc_den * g_bc_den
                    common = lcm(lhs, rhs)
                    m, m_rhs = common // lhs, -(common // rhs)
                    lefts = gb if m == 1 else [[(a, s * m) for a, s in gb_j] for gb_j in gb]
                    for j, k in contract_block(lefts, gb_c, bc, g_bc, m_rhs):
                        yield 4, (p, q, r), (x, y, z, u), (j, k)


def _unit_holds(w: DGCategory, x: int, columns, dims) -> bool:
    """Whether 1_x.v = v for every basis form v with codomain x, and d(1_x) = 0.

    These imply every law of `_failures` on g = 1_x: (1.b).c = b.c =
    1.(b.c), and d(1.b) = db = d1.b + 1.db, each side a form with
    codomain x, and 1.1 = 1 is the case v in degree 0.  The check is
    linear in the basis forms, where `_failures` on 1_x is quadratic.
    """
    one_den, one = w.base.identity[x]
    if any(contract_into({}, one, w.integral_diff(0, x, x)[1]).values()):
        return False
    for q, dims_q in enumerate(dims):
        for z, dq in enumerate(dims_q[x] if dims_q else ()):
            if dq:
                den, cols = columns(0, q, x, x, z)
                if any(any(contract_into({j: -one_den * den}, one, cols[j]).values()) for j in range(dq)):
                    return False
    return True


def laws_hold_on(w: DGCategory, gens: Sequence[Form]) -> bool:
    """Whether `_failures` finds nothing with any g in `gens` on the left.

    Stops at the first failure.  The unit laws and associativity include
    degree 0, which the lemma of `validate_dg` needs though
    `validate_category` reports its failures.  A g that is the identity
    1_x of an object is checked by `_unit_holds` instead, the stronger
    unit law on every basis form with codomain x, so for an identity
    form `laws_hold_on(w, [g])` can be False where `_failures` finds
    nothing.
    """
    columns, dims = _columns(w), _dims(w)
    for g in gens:
        if g == w.identity_form(g.cod):
            if not _unit_holds(w, g.cod.index, columns, dims):
                return False
        # the laws are linear in g, so its denominator drops out
        elif next(_failures(w, g.degree, g.cod.index, g.dom.index, g.nums, columns, dims), None) is not None:
            return False
    return True


def _report(w: DGCategory) -> list[Violation]:
    """Every failure of `_failures` with each basis form on the left, named and sorted.

    d.d = 0 is reported once per space.  A unit or associativity failure
    whose forms all have degree 0 is the category's, named
    "identity-left", "identity-right" or "associativity"; every other
    failure gets the prefix "dg-".  The failures are sorted by law (the
    unit laws first, the left unit of a basis form before its right),
    then degrees, objects and basis indices, in that order.
    """
    columns, dims = _columns(w), _dims(w)
    found: set[tuple] = set()
    for p, dims_p in enumerate(dims):
        for x, dims_x in enumerate(dims_p or ()):
            for y, d in enumerate(dims_x):
                for i in range(d):
                    for law, degrees, objects, indices in _failures(w, p, x, y, ((i, 1),), columns, dims):
                        # d.d = 0 is named by its space, so it is found once per space
                        indices = () if law == 2 else (i,) + indices
                        found.add((_PLACE[law], degrees, objects, indices, law))
    violations: list[Violation] = []
    for _, degrees, objects, indices, law in sorted(found):
        x, y = (w.base.objects[o].label for o in objects[:2])
        where = " . ".join(_basis_name(w, n, objects[f], objects[f + 1], k)
                           for f, (n, k) in enumerate(zip(degrees, indices)))
        if law == 0:
            where = f"1_{x} . {where}"
        elif law == 1:
            where = f"{where} . 1_{y}"
        elif law == 2:
            where = f"degree {degrees[0]} at ({x},{y})"
        category_law = law in (0, 1, 4) and not any(degrees)
        violations.append(Violation(_LAWS[law] if category_law else f"dg-{_LAWS[law]}", where))
    return violations


def law_violations(w: DGCategory) -> list[Violation]:
    """The failures of `_report` that involve d or a form of positive degree.

    These are the failures that `validate_dg` reports; it runs this
    only once a check on its generating set has failed.  The failures of
    the base category, the unit and associativity laws in degree 0, are
    left to `validate_category`.
    """
    return [v for v in _report(w) if v.kind.startswith("dg-")]
