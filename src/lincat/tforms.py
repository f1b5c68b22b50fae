"""Form matrices and trace classes over Q[t] and Q[t]e, e^2 = 0.

`PolyMatrix` is a form matrix with coefficients in Q[t], and
`TildeMatrix` a pair (a0, a1) standing for a0 + a1.e.  They support the
interpolation argument behind homotopy invariance: a one-parameter
family of connection data becomes a single matrix over the extended
coefficients, specializes at t = 0 and t = 1, and its e-component
integrates to an explicit primitive.  A single form over the extension
is a 1 x 1 matrix.  `TildeCochain` is the same pair one level down, a
class of the quotient complex per power of t in each part, and
`trace_cochain` takes an extended matrix to the cochain of its trace.

Every extended matrix and cochain carries its e-part a1, one degree
below a0.  Under degree 0 that is the zero matrix of degree -1, where
no forms live, and the empty classes of degree -1, where the complex is
zero, so sums, products, D and the integral take one path in every
degree.

Sign conventions, fixed here once and exercised by the tests, on total
degree n, with a0' the derivative in t:

* composition   (a0 + a1.e)(b0 + b1.e) = a0.b0 + (a0.b1 + (-1)^m a1.b0).e
  where m is the total degree of the right factor;
* differential  D(a0 + a1.e) = d(a0) + (d(a1) + (-1)^(n+1) a0').e;
* integral      k(a0 + a1.e) = (-1)^n times the integral of a1 over t
  in [0, 1], a class one degree lower.

With these choices D squares to zero and is a graded derivation for the
composition above, and on classes k(D a) + d(k(a)) = a0(1) - a0(0)
holds exactly (`TildeCochain.homotopy_defect`), so k of a closed
cochain is a primitive of the difference of its two ends.

Products accumulate once per entry: a polynomial product keeps one
`ProductAccumulator` of `lincat.form_matrix` per power of t, summing
integer numerators over one denominator per entry, and the e-part adds
a0.b1 and (-1)^m a1.b0 into the same accumulators; each coefficient is
put in lowest terms once.  A trace reads only the diagonal, so the last
product of `trace_cochain_of_power` contracts no entry off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .category import ObjectId
from .derham import DeRhamComplex
from .dg import DGCategory
from .errors import DimensionError
from .exact_linalg import Vector, is_zero_vector, scalar, vec_add, vec_scale, vec_sub, zero_vector
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


def _accumulated(products, accumulator, *args) -> list[ProductAccumulator]:
    """The sum of sign * a.b over the (a, b, sign) in `products`, in one `accumulator(*args)` per power of t."""
    acc = [accumulator(*args) for _ in range(max(len(a.coeffs) + len(b.coeffs) - 1 for a, b, _ in products))]
    for a, b, sign in products:
        for i, ma in enumerate(a.coeffs):
            for j, mb in enumerate(b.coeffs):
                acc[i + j].add(ma, mb, sign)
    return acc


def _pm_products(w: DGCategory, degree: int, row_family, col_family, products) -> PolyMatrix:
    """The sum of sign * a.b over the (a, b, sign) in `products`.

    One accumulator per power of t collects every coefficient product,
    and each power becomes a matrix once at the end.
    """
    return poly_matrix([m.matrix() for m in _accumulated(products, ProductAccumulator, w, degree, row_family, col_family)])


def pm_d(w: DGCategory, a: PolyMatrix) -> PolyMatrix:
    return poly_matrix([m.d(w) for m in a.coeffs])


def pm_t_derivative(a: PolyMatrix) -> PolyMatrix:
    if len(a.coeffs) == 1:
        return poly_matrix([a.coeffs[0].scale(0)])
    return poly_matrix([a.coeffs[i].scale(i) for i in range(1, len(a.coeffs))])


@dataclass(frozen=True)
class TildeMatrix:
    """part0 + part1.e; the e-part sits one degree lower, same families.

    Under degree 0 the e-part is the zero matrix of degree -1.
    """

    part0: PolyMatrix
    part1: PolyMatrix

    def __post_init__(self):
        if self.part1.degree != self.part0.degree - 1:
            raise DimensionError("e-component must sit one degree lower")
        if (self.part1.row_family, self.part1.col_family) != (self.part0.row_family, self.part0.col_family):
            raise DimensionError("e-component families differ from the main component")

    @property
    def degree(self) -> int:
        return self.part0.degree


def tilde_matrix(w: DGCategory, part0: PolyMatrix) -> TildeMatrix:
    """part0 + 0.e, the e-part the zero matrix one degree lower."""
    return TildeMatrix(part0, pm_const(FormMatrix.zero(w, part0.row_family, part0.col_family, part0.degree - 1)))


def tm_add(a: TildeMatrix, b: TildeMatrix) -> TildeMatrix:
    return TildeMatrix(pm_add(a.part0, b.part0), pm_add(a.part1, b.part1))


def _e_products(a: TildeMatrix, b: TildeMatrix) -> list[tuple[PolyMatrix, PolyMatrix, int]]:
    """The products that sum to the e-part of a.b."""
    return [(a.part0, b.part1, 1), (a.part1, b.part0, -1 if b.degree % 2 else 1)]


def tm_mul(w: DGCategory, a: TildeMatrix, b: TildeMatrix) -> TildeMatrix:
    return TildeMatrix(pm_mul(w, a.part0, b.part0),
                       _pm_products(w, a.degree + b.degree - 1, a.part0.row_family, b.part0.col_family,
                                    _e_products(a, b)))


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
    sign = 1 if a.degree % 2 else -1
    return TildeMatrix(pm_d(w, a.part0), pm_add(pm_scale(pm_t_derivative(a.part0), sign), pm_d(w, a.part1)))


@dataclass(frozen=True)
class TildeCochain:
    """A cochain of the extended quotient complex: part0 + part1.e, classes per power of t.

    `part0[i]` is the class of degree `degree` multiplying t^i, and
    `part1[i]` the class one degree lower multiplying t^i.e; both parts
    hold the same number of classes.  Under degree 0 each `part1[i]` is
    the empty class of degree -1.  The classes are those `rh` hands out,
    tuples of `Fraction`s.
    """

    rh: DeRhamComplex = field(repr=False)
    degree: int
    part0: tuple[Vector, ...]
    part1: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.part0) != len(self.part1):
            raise DimensionError(f"degree-{self.degree} cochain: part 0 has {len(self.part0)} classes, "
                                 f"part 1 has {len(self.part1)}")
        for part, classes in enumerate((self.part0, self.part1)):
            dim = self.rh.dim(self.degree - part)
            for i, v in enumerate(classes):
                if len(v) != dim:
                    raise DimensionError(
                        f"degree-{self.degree} cochain, part {part}, stratum t^{i}: "
                        f"expected {dim} class coordinates, got {len(v)}"
                    )

    def is_zero(self) -> bool:
        return all(is_zero_vector(v) for v in self.part0 + self.part1)

    def delta(self) -> TildeCochain:
        """D on classes: d on every class, and (-1)^(n+1) times the t-derivative of part 0 into part 1."""
        n, rh = self.degree, self.rh
        sign = Fraction(1 if n % 2 else -1)
        tdot = [vec_scale(Fraction(i), v) for i, v in enumerate(self.part0)][1:] + [zero_vector(rh.dim(n))]
        part1 = tuple(vec_add(vec_scale(sign, u), rh.d_class(n - 1, v)) for u, v in zip(tdot, self.part1))
        return TildeCochain(rh, n + 1, tuple(rh.d_class(n, v) for v in self.part0), part1)

    def ev_at(self, t) -> Vector:
        """Part 0 evaluated at the parameter value t, a class of degree `degree`."""
        t = scalar(t)
        out = zero_vector(self.rh.dim(self.degree))
        power = Fraction(1)
        for v in self.part0:
            out = vec_add(out, vec_scale(power, v))
            power *= t
        return out

    def integral_k(self) -> Vector:
        """(-1)^n times the integral of part 1 over [0, 1], a class of degree n - 1."""
        n = self.degree
        out = zero_vector(self.rh.dim(n - 1))
        for i, v in enumerate(self.part1):
            out = vec_add(out, vec_scale(Fraction(1, i + 1), v))
        return vec_scale(Fraction(1 if n % 2 == 0 else -1), out)

    def homotopy_defect(self) -> Vector:
        """k(D a) + d(k(a)) - a0(1) + a0(0), zero by the exact identity."""
        out = vec_add(self.delta().integral_k(), self.rh.d_class(self.degree - 1, self.integral_k()))
        return vec_add(vec_sub(out, self.ev_at(1)), self.ev_at(0))


def trace_cochain(w: DGCategory, rh: DeRhamComplex, gamma: TildeMatrix) -> TildeCochain:
    """The cochain of the diagonal trace of an extended square matrix.

    Each part takes the class of the diagonal trace of each t-coefficient
    up to the last nonzero trace, the shorter part padded with zero classes.
    """
    return _cochain_of(rh, gamma.degree, [[m.diagonal_trace(w) for m in p.coeffs] for p in (gamma.part0, gamma.part1)])


def trace_cochain_of_power(w: DGCategory, rh: DeRhamComplex, a: TildeMatrix, q: int) -> TildeCochain:
    """`trace_cochain(w, rh, tm_power(w, a, q))`, the last product contracted on its diagonal only."""
    if q < 2:
        return trace_cochain(w, rh, tm_power(w, a, q))
    head = tm_power(w, a, q - 1)
    n, fam = head.degree + a.degree, a.part0.row_family
    parts = ((n, [(head.part0, a.part0, 1)]), (n - 1, _e_products(head, a)))
    return _cochain_of(rh, n, [[m.traces() for m in _accumulated(ps, ProductAccumulator.of_diagonal, w, d, fam)]
                               for d, ps in parts])


def _cochain_of(rh: DeRhamComplex, n: int, traces: list) -> TildeCochain:
    """The cochain of per-object traces, per part and power of t, up to the last nonzero one in either part."""
    length = 1 + max((i for ts in traces for i, t in enumerate(ts) if any(f.nums for f in t)), default=0)
    part0, part1 = (tuple(rh.class_of_trace(m, ts[i]) if i < len(ts) else zero_vector(rh.dim(m)) for i in range(length))
                    for m, ts in zip((n, n - 1), traces))
    return TildeCochain(rh, n, part0, part1)
