"""Form matrices over Q[t] and Q[t]e, e^2 = 0.

`PolyMatrix` is a form matrix with coefficients in Q[t], and
`TildeMatrix` a pair (a0, a1) standing for a0 + a1.e.  They support the
interpolation argument behind homotopy invariance: a one-parameter
family of connection data becomes a single matrix over the extended
coefficients, specializes at t = 0 and t = 1, and its e-component
integrates to an explicit primitive.  A single form over the extension
is a 1 x 1 matrix.

Sign conventions, fixed here once and exercised by the tests:

* composition   (a0 + a1.e)(b0 + b1.e) = a0.b0 + (a0.b1 + (-1)^m a1.b0).e
  where m is the total degree of the right factor;
* differential  D(a0 + a1.e) = d(a0) + (d(a1) + (-1)^(n+1) a0').e
  on total degree n, where a0' is the derivative in t.

With these choices D squares to zero and is a graded derivation for the
composition above, and the integration operator on diagonal classes
satisfies an exact homotopy identity (see the quotient-complex module).

Products accumulate once per entry: a polynomial product keeps one
`ProductAccumulator` of `lincat.form_matrix` per power of t, and the
e-part of a product adds a0.b1 and (-1)^m a1.b0 into the same
accumulators.  They sum the integer numerators of the forms over one
denominator per entry, so the coefficient of each power of t is put in
lowest terms once, when its matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .category import ObjectId
from .dg import DGCategory, Form
from .errors import DimensionError
from .form_matrix import FormMatrix, ProductAccumulator


@dataclass(frozen=True)
class PolyMatrix:
    """A form matrix with coefficients in Q[t]; `coeffs[i]` multiplies t^i."""

    degree: int
    row_family: tuple[ObjectId, ...]
    col_family: tuple[ObjectId, ...]
    coeffs: tuple[FormMatrix, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DimensionError("polynomial matrix needs at least one coefficient")
        for m in self.coeffs:
            if (m.degree, m.row_family, m.col_family) != (self.degree, self.row_family, self.col_family):
                raise DimensionError("polynomial matrix: inconsistent coefficient type")

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.coeffs)


def poly_matrix(coeffs: Sequence[FormMatrix]) -> PolyMatrix:
    cs = list(coeffs)
    if not cs:
        raise DimensionError("polynomial matrix needs at least one coefficient")
    while len(cs) > 1 and cs[-1].is_zero():
        cs.pop()
    head = cs[0]
    return PolyMatrix(head.degree, head.row_family, head.col_family, tuple(cs))


def pm_const(m: FormMatrix) -> PolyMatrix:
    return poly_matrix([m])


def pm_add(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if (a.degree, a.row_family, a.col_family) != (b.degree, b.row_family, b.col_family):
        raise DimensionError("polynomial matrix addition: type mismatch")
    zero = a.coeffs[0].scale(0)
    n = max(len(a.coeffs), len(b.coeffs))
    pa = a.coeffs + (zero,) * (n - len(a.coeffs))
    pb = b.coeffs + (zero,) * (n - len(b.coeffs))
    return poly_matrix([x + y for x, y in zip(pa, pb)])


def pm_scale(a: PolyMatrix, s) -> PolyMatrix:
    return poly_matrix([m.scale(s) for m in a.coeffs])


def pm_mul(w: DGCategory, a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.col_family != b.row_family:
        raise DimensionError("polynomial matrix product: inner families differ")
    return _pm_products(w, a.degree + b.degree, a.row_family, b.col_family, [(a, b, 1)])


def _pm_products(w: DGCategory, degree: int, row_family, col_family, products) -> PolyMatrix:
    """The sum of sign * a.b over the (a, b, sign) in `products`.

    One accumulator per power of t collects every coefficient product,
    and each power becomes a matrix once at the end.
    """
    n = max((len(a.coeffs) + len(b.coeffs) - 1 for a, b, _ in products), default=1)
    acc = [ProductAccumulator(w, degree, row_family, col_family) for _ in range(n)]
    for a, b, sign in products:
        for i, ma in enumerate(a.coeffs):
            for j, mb in enumerate(b.coeffs):
                acc[i + j].add(ma, mb, sign)
    return poly_matrix([m.matrix() for m in acc])


def pm_d(w: DGCategory, a: PolyMatrix) -> PolyMatrix:
    return poly_matrix([m.d(w) for m in a.coeffs])


def pm_t_derivative(a: PolyMatrix) -> PolyMatrix:
    if len(a.coeffs) == 1:
        return poly_matrix([a.coeffs[0].scale(0)])
    return poly_matrix([a.coeffs[i].scale(i) for i in range(1, len(a.coeffs))])


def pm_diagonal_trace(w: DGCategory, a: PolyMatrix) -> tuple[tuple[Form, ...], ...]:
    """Per t-power, the object-indexed diagonal trace components."""
    return tuple(m.diagonal_trace(w) for m in a.coeffs)


@dataclass(frozen=True)
class TildeMatrix:
    """part0 + part1.e; the e-part sits one degree lower, same families."""

    part0: PolyMatrix
    part1: Optional[PolyMatrix]

    def __post_init__(self):
        if self.part0.degree == 0:
            if self.part1 is not None:
                raise DimensionError("degree-0 extended matrix cannot carry an e-component")
        else:
            if self.part1 is None:
                raise DimensionError("positive-degree extended matrix needs an explicit e-component")
            if self.part1.degree != self.part0.degree - 1:
                raise DimensionError("e-component must sit one degree lower")
            if (self.part1.row_family, self.part1.col_family) != (self.part0.row_family, self.part0.col_family):
                raise DimensionError("e-component families differ from the main component")

    @property
    def degree(self) -> int:
        return self.part0.degree


def tilde_matrix(w: DGCategory, part0: PolyMatrix, part1: Optional[PolyMatrix] = None) -> TildeMatrix:
    if part0.degree >= 1 and part1 is None:
        part1 = pm_const(FormMatrix.zero(w, part0.row_family, part0.col_family, part0.degree - 1))
    return TildeMatrix(part0, part1)


def tm_add(a: TildeMatrix, b: TildeMatrix) -> TildeMatrix:
    p1 = None
    if a.part1 is not None:
        p1 = pm_add(a.part1, b.part1)
    return TildeMatrix(pm_add(a.part0, b.part0), p1)


def tm_mul(w: DGCategory, a: TildeMatrix, b: TildeMatrix) -> TildeMatrix:
    part0 = pm_mul(w, a.part0, b.part0)
    n = a.degree + b.degree
    if n == 0:
        return TildeMatrix(part0, None)
    products = []
    if b.part1 is not None:
        products.append((a.part0, b.part1, 1))
    if a.part1 is not None:
        products.append((a.part1, b.part0, -1 if b.degree % 2 else 1))
    return TildeMatrix(part0, _pm_products(w, n - 1, a.part0.row_family, b.part0.col_family, products))


def tm_power(w: DGCategory, a: TildeMatrix, k: int) -> TildeMatrix:
    if a.part0.row_family != a.part0.col_family:
        raise DimensionError("only square extended matrices have powers")
    if k < 1:
        raise DimensionError("extended matrix power needs a positive exponent")
    acc = a
    for _ in range(k - 1):
        acc = tm_mul(w, acc, a)
    return acc


def tm_partial(w: DGCategory, a: TildeMatrix) -> TildeMatrix:
    n = a.degree
    part0 = pm_d(w, a.part0)
    sign = 1 if (n + 1) % 2 == 0 else -1
    part1 = pm_scale(pm_t_derivative(a.part0), sign)
    if a.part1 is not None:
        part1 = pm_add(part1, pm_d(w, a.part1))
    return TildeMatrix(part0, part1)
