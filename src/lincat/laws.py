"""The laws of a graded category, checked on the stored products of basis forms.

`validate_dg` in `lincat.dg` runs these checks.  `unit_violations`
checks the unit laws on every basis form of positive degree.  d.d = 0,
Leibniz and associativity are written once, in `_failures`, with one
form on the left and every basis form on the right; `laws_hold_on` runs
it on a generating set, and `law_violations` runs it with every basis
form on the left and names what fails.  All of them read the products
and differentials of basis forms straight from the stored terms of a
`DGCategory` and contract them into sparse sums with
`lincat.exact_linalg.contract_into`, the contraction that `compose` and
`d` run too, without building a form per factor.

The checks sum integer numerators, with no `Fraction` arithmetic.
Each product block comes over one denominator from
`DGCategory.integral_products`, and each degree of the differential
goes over one denominator through `integral_terms` (`_differentials`).
A left factor goes over the lcm of its own denominators (`over_lcm`),
which then drops out: both sides of every law are linear in it.  The
two sides of a law are summed from different blocks, so each is
cross-multiplied by the denominators of the other before they are
compared; where every denominator is 1, as in most tables, nothing is
scaled.  A law holds when the difference of its two sides has no
nonzero numerator.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, Iterator, Sequence

from .category import Violation
from .exact_linalg import contract_into, integral_terms, over_lcm

if TYPE_CHECKING:
    from .dg import DGCategory, Form

# the laws of `_failures`, in the order `law_violations` reports them
_LAWS = ("dg-d-squared", "dg-leibniz", "dg-associativity")


def _transpose(b, rows: int, cols: int):
    return tuple(zip(*b)) if rows else ((),) * cols


def _basis_name(w: DGCategory, n: int, x: int, y: int, k: int) -> str:
    labels = w.space_labels(n, x, y)
    return labels[k] if k < len(labels) else f"deg{n}[{x},{y}]#{k}"


def unit_violations(w: DGCategory) -> list[Violation]:
    """Unit-law failures on every basis form of positive degree."""
    violations: list[Violation] = []
    dim, block = w.dim, w.integral_products
    for n in range(1, w.truncation + 1):
        for (x, y) in w.hom_pairs(n):
            ox, oy = w.base.objects[x], w.base.objects[y]
            dn = dim(n, x, y)
            (den_x, one_x), (den_y, one_y) = (over_lcm(w.base.identity[o]) for o in (x, y))
            left_den, left = block(0, n, x, x, y)
            right_den, right = block(n, 0, x, y, y)
            left = _transpose(left, dim(0, x, x), dn)
            for k in range(dn):
                # 1.b - b and b.1 - b, over the denominators of the unit and of the block
                if any(contract_into({k: -den_x * left_den}, one_x, left[k]).values()):
                    violations.append(Violation("dg-identity-left", f"1_{ox.label} . {_basis_name(w, n, x, y, k)}"))
                if any(contract_into({k: -den_y * right_den}, one_y, right[k]).values()):
                    violations.append(Violation("dg-identity-right", f"{_basis_name(w, n, x, y, k)} . 1_{oy.label}"))
    return violations


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


def _differentials(w: DGCategory) -> dict[int, tuple[int, dict]]:
    """The differential of `w`, each degree n over one denominator: n -> (D, {(x, y): columns})."""
    out = {}
    for n, level in w.diff.items():
        den, flat = integral_terms(column for columns in level.values() for column in columns)
        it = iter(flat)
        out[n] = den, {xy: tuple(next(it) for _ in columns) for xy, columns in level.items()}
    return out


def _failures(w: DGCategory, p: int, x: int, y: int, g, columns, diff) -> Iterator[tuple]:
    """d.d = 0 on g, Leibniz on (g, b) and associativity on (g, b, c), where they fail.

    g is the form of degree p at (x, y) with the given integer
    numerators; b and c run over every basis form.  `columns` is a
    `_columns` of `w` and `diff` its `_differentials`.  Each failure is
    yielded as (law, degrees, objects, indices): the degrees of the
    factors, the objects they pass through, and the indices of the basis
    forms on the right.  The products of g with the basis forms of one
    block are summed once, so a pair or a triple costs what it costs on
    basis forms.  Associativity includes the degree-0 triples.
    """
    N, nobj = w.truncation, len(w.base.objects)
    dim, block = w.dim, w.integral_products
    rows: dict[tuple[int, int], tuple[int, tuple]] = {}

    def row(q: int, z: int) -> tuple[int, tuple]:
        """g times each basis form of degree q at (y, z): (D, sums), D the denominator of the block."""
        r = rows.get((q, z))
        if r is None:
            den, cols = columns(p, q, x, y, z)
            r = rows[(q, z)] = den, tuple(tuple((k, n) for k, n in contract_into({}, g, col).items() if n)
                                          for col in cols)
        return r

    d_den, d_p = diff[p]
    dg = tuple(contract_into({}, g, d_p[(x, y)]).items())  # over d_den; empty out of the top degree
    if p < N and any(contract_into({}, dg, diff[p + 1][1].get((x, y), ())).values()):
        yield _LAWS[0], (p,), (x, y), ()
    # d(g.b) - dg.b - (-1)^p g.db = 0
    sign = 1 if p % 2 else -1
    for q in range(0, N - p):
        (d_gb_den, d_gb), (d_b_den, d_b) = diff[p + q], diff[q]
        for z in range(nobj):
            if dim(q, y, z) == 0:
                continue
            (gb_den, gb), (gdb_den, gdb), (dgb_den, dgb) = row(q, z), row(q + 1, z), columns(p + 1, q, x, y, z)
            lhs, rhs_dg, rhs_db = gb_den * d_gb_den, d_den * dgb_den, gdb_den * d_b_den
            common = lcm(lhs, rhs_dg, rhs_db)
            m, m_dg, m_db = common // lhs, -(common // rhs_dg), sign * (common // rhs_db)
            d_gbz, d_bz = d_gb.get((x, z), ()), d_b[(y, z)]
            for j in range(dim(q, y, z)):
                out = contract_into(contract_into({}, gb[j], d_gbz, m), dg, dgb[j], m_dg)
                if any(contract_into(out, d_bz[j], gdb, m_db).values()):
                    yield _LAWS[1], (p, q), (x, y, z), (j,)
    # (g.b).c - g.(b.c) = 0
    for q in range(0, N - p + 1):
        for r in range(0, N - p - q + 1):
            for z in range(nobj):
                if dim(q, y, z) == 0:
                    continue
                gb_den, gb = row(q, z)
                for u in range(nobj):
                    if dim(r, z, u) == 0:
                        continue
                    (bc_den, bc), (g_bc_den, g_bc), (gb_c_den, gb_c) = (
                        block(q, r, y, z, u), row(q + r, u), columns(p + q, r, x, z, u))
                    lhs, rhs = gb_den * gb_c_den, bc_den * g_bc_den
                    common = lcm(lhs, rhs)
                    m, m_rhs = common // lhs, -(common // rhs)
                    for j in range(dim(q, y, z)):
                        for k in range(dim(r, z, u)):
                            out = contract_into({}, gb[j], gb_c[k], m)
                            if any(contract_into(out, bc[j][k], g_bc, m_rhs).values()):
                                yield _LAWS[2], (p, q, r), (x, y, z, u), (j, k)


def laws_hold_on(w: DGCategory, gens: Sequence[Form]) -> bool:
    """Whether `_failures` finds nothing with any g in `gens` on the left.

    Stops at the first failure.  Associativity includes the degree-0
    triples, which the lemma of `validate_dg` needs though
    `validate_category` reports them.
    """
    columns, diff = _columns(w), _differentials(w)
    for g in gens:
        _, numerators = over_lcm(g.terms)  # g over the lcm of its denominators
        for _ in _failures(w, g.degree, g.cod.index, g.dom.index, numerators, columns, diff):
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
    columns, diff = _columns(w), _differentials(w)
    found: set[tuple] = set()
    for p in range(w.truncation + 1):
        for (x, y) in w.hom_pairs(p):
            for i in range(w.dim(p, x, y)):
                for law, degrees, objects, indices in _failures(w, p, x, y, ((i, 1),), columns, diff):
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
