"""Cross-checks of the quotient complex that only the tests use.

`commutators_labeled` writes the commutator spanning set of
`lincat.derham` out one commutator at a time, with `DGCategory.compose`,
and `commutator_spanning_labeled` all of it densely; `pivot_solve`
solves against such columns with the free variables of a dense solve
zero, reading them only until the target lies in their span;
`tilde_commutator_ranks` multiplies out the bracket span of the
stratified extension literally, with the product of `lincat.tforms`, to
compare its rank with the one the quotient complex predicts; `pm_shift`
multiplies a polynomial matrix by a power of t for its monomials.
"""

from fractions import Fraction
from typing import Iterable, Iterator, Optional

from lincat.derham import get_complex
from lincat.dg import DGCategory
from lincat.errors import DimensionError
from lincat.exact_linalg import ONE, ZERO, Vector, build_quotient
from lincat.form_matrix import FormMatrix
from lincat.tforms import PolyMatrix, TildeMatrix, pm_const, poly_matrix, tilde_matrix, tm_mul

from conftest import as_numerators


def pm_shift(a: PolyMatrix, k: int = 1) -> PolyMatrix:
    """a times t^k."""
    zero = a.coeffs[0].scale(0)
    return poly_matrix((zero,) * k + a.coeffs)


def commutators_labeled(w: DGCategory, n: int) -> Iterator[tuple[dict[int, Fraction], str]]:
    """Every commutator of basis forms of degree n, as its sparse entries {coordinate: s}, with its label.

    The commutators and labels of the full span of `lincat.derham`, in its
    order, written out one pair u, v of opposed basis forms at a time, and
    only when read, with `DGCategory.compose`: u.v at the codomain x of u,
    minus (-1)^(pq) v.u at its domain y.
    """
    objs = w.base.objects
    dims = [w.dim(n, x, x) for x in range(len(objs))]
    for p in range(n + 1):
        q = n - p
        sign = -1 if (p * q) % 2 else 1
        for x, ox in enumerate(objs):
            for y, oy in enumerate(objs):
                for i, label_u in enumerate(w.space_labels(p, x, y)):
                    u = w.basis_form(p, oy, ox, i)
                    for j, label_v in enumerate(w.space_labels(q, y, x)):
                        v = w.basis_form(q, ox, oy, j)
                        vec: dict[int, Fraction] = {}
                        for k, s in w.compose(u, v).terms:
                            vec[sum(dims[:x]) + k] = vec.get(sum(dims[:x]) + k, ZERO) + s
                        for k, s in w.compose(v, u).terms:
                            vec[sum(dims[:y]) + k] = vec.get(sum(dims[:y]) + k, ZERO) - sign * s
                        yield vec, f"[{label_u}, {label_v}]@({ox.label},{oy.label})"


def commutator_spanning_labeled(w: DGCategory, n: int) -> list[tuple[Vector, str]]:
    """Every commutator of `commutators_labeled`, dense, with its label."""
    width = sum(w.dim(n, x, x) for x in range(len(w.base.objects)))
    return [(tuple(vec.get(k, ZERO) for k in range(width)), label) for vec, label in commutators_labeled(w, n)]


def pivot_solve(columns: Iterable[dict[int, Fraction]], target: dict[int, Fraction]) -> Optional[dict[int, Fraction]]:
    """The solution x of sum_j x_j columns[j] = target that is zero off the pivot columns, or None.

    A column is a pivot column when no earlier column spans it, and the
    solution of a dense solve with its free variables zero lives on the
    pivot columns, which are independent: so it is the one combination of
    them that gives the target, and the columns are read, by elimination
    over sparse `Fraction` vectors, only until the target lies in their
    span.  x comes back as {j: x_j} over its nonzero entries.
    """
    rank_of: dict[int, int] = {}  # pivot coordinate -> the order in which its vector came
    # vectors 1 at their pivot and 0 at every earlier pivot, each with its
    # combination of columns, so a vector is cleared in that order
    basis: list[tuple[int, dict, dict]] = []

    def cleared(v: dict, combination: dict) -> dict:
        while ranks := [rank_of[i] for i, s in v.items() if s and i in rank_of]:
            p, u, c = basis[min(ranks)]
            s = v[p]
            for i, t in u.items():
                v[i] = v.get(i, ZERO) - s * t
            for j, t in c.items():
                combination[j] = combination.get(j, ZERO) - s * t
        return {i: s for i, s in v.items() if s}

    # the residual is the target plus sum_j m_j columns[j]
    m: dict = {}
    residual = cleared(dict(target), m)
    for j, column in enumerate(columns):
        if not residual:
            break
        combination = {j: ONE}
        v = cleared(dict(column), combination)
        if v:
            p = min(v)
            rank_of[p] = len(basis)
            basis.append((p, {i: s / v[p] for i, s in v.items()}, {k: s / v[p] for k, s in combination.items()}))
            residual = cleared(residual, m)
    return None if residual else {j: -s for j, s in m.items() if s}


def tilde_commutator_ranks(w: DGCategory, n: int, t_bound: int) -> tuple[int, int]:
    """(literal, predicted) rank of the degree-n stratified bracket span.

    The literal side multiplies out extended monomials u t^a (.e), as
    1 x 1 matrices over the extension, with the actual composition
    `tm_mul` and embeds the graded commutators in the stratified
    diagonal space.  The predicted side counts one copy of each plain
    commutator subspace per stratum: (t_bound + 1) times the commutator
    dimensions in degrees n and n - 1, read from `get_complex(w)`.
    """
    rh = get_complex(w)
    D = t_bound
    nobj = len(w.base.objects)
    amb_n, amb_n1 = rh.ambient_dim(n), rh.ambient_dim(n - 1)
    strat_dim = (D + 1) * (amb_n + amb_n1)

    def embed(out: dict, g: TildeMatrix, x: int, sign: Fraction) -> None:
        """Add sign times g, a 1 x 1 matrix at object x, in stratified coordinates.

        Under degree 0 the e-part has degree -1, which has no offsets, so it is skipped.
        """
        parts = [(g.part0, 0, amb_n, rh.component_offsets[n][x])]
        if n >= 1:
            parts.append((g.part1, (D + 1) * amb_n, amb_n1, rh.component_offsets[n - 1][x]))
        for part, base, width, off in parts:
            for i, m in enumerate(part.coeffs):
                f = m.entries[0][0]
                if f.is_zero():
                    continue
                if i > D:
                    raise DimensionError("bracket exceeded the stratification bound")
                start = base + i * width + off
                for k, s in f.terms:
                    out[start + k] = out.get(start + k, ZERO) + sign * s

    def monomials(p: int, x: int, y: int, a: int) -> list[TildeMatrix]:
        """Extended monomials of total degree p from object y to object x, times t^a."""
        ox, oy = w.base.objects[x], w.base.objects[y]

        def basis_poly(degree: int, i: int) -> PolyMatrix:
            f = w.basis_form(degree, oy, ox, i)
            return pm_shift(pm_const(FormMatrix(degree, (ox,), (oy,), ((f,),))), a)

        out = [tilde_matrix(w, basis_poly(p, i)) for i in range(w.dim(p, x, y))]
        if p >= 1:
            zero = pm_const(FormMatrix.zero(w, (ox,), (oy,), p))
            out += [TildeMatrix(zero, basis_poly(p - 1, i)) for i in range(w.dim(p - 1, x, y))]
        return out

    spanning: list[dict] = []
    for p in range(0, n + 1):
        q = n - p
        sign = Fraction(-1 if (p * q) % 2 else 1)
        for x in range(nobj):
            for y in range(nobj):
                for a in range(0, D + 1):
                    for u in monomials(p, x, y, a):
                        for v in monomials(q, y, x, 0):
                            if not all(m.is_zero() for m in u.part1.coeffs) and not all(m.is_zero() for m in v.part1.coeffs):
                                continue  # both infinitesimal: product vanishes
                            row: dict = {}
                            embed(row, tm_mul(w, u, v), x, ONE)
                            embed(row, tm_mul(w, v, u), y, -sign)
                            spanning.append(row)

    literal = len(build_quotient(strat_dim, list(map(as_numerators, spanning))).pivots)
    predicted = (D + 1) * (
        rh.quotients[n].subspace_dim + (rh.quotients[n - 1].subspace_dim if n >= 1 else 0)
    )
    return literal, predicted
