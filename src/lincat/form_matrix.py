"""Matrices of forms and their one product kernel.

A `FormMatrix` is a rectangular matrix of homogeneous forms of one
degree between two families of objects; it acts on columns by
composition, like a matrix over a ring on column vectors.

Products of form matrices have one kernel, `ProductAccumulator`: it
contracts the stored products of basis forms over the terms of both
factors into one sparse sum per entry, and builds a single `Form` per
entry at the end.  `FormMatrix.mul`, the polynomial products of
`tforms` and the curvature of a connection all use it, so a sum of
products builds no intermediate forms.

The kernel is fraction-free in the manner of Bareiss: the sums hold
Python ints over one common denominator per entry, and `matrix()`
divides each entry once, by the gcd of its denominator and numerators,
into a `Form` in lowest terms.  The stored products come from
`DGCategory.integral_products`, one denominator per block, and each
factor form brings its own numerators and denominator, so nothing is
converted on the way in or out.  Tables and forms with integral
coefficients, the common case, keep every denominator at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .category import ObjectId
from .dg import DGCategory, Form
from .errors import DimensionError
from .exact_linalg import lowest_terms


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
        degree, rf, cf = self.degree, self.row_family, self.col_family
        if len(self.entries) != len(rf):
            raise DimensionError("form matrix: wrong number of rows")
        for i, (row, cod) in enumerate(zip(self.entries, rf)):
            if len(row) != len(cf):
                raise DimensionError("form matrix: ragged row")
            for j, (f, dom) in enumerate(zip(row, cf)):
                if f.degree != degree:
                    raise DimensionError(f"form matrix entry ({i},{j}): degree {f.degree} != {degree}")
                # the families' own objects are the common case: `is` settles
                # them without the dataclass comparison
                if (f.cod is not cod and f.cod != cod) or (f.dom is not dom and f.dom != dom):
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

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "FormMatrix":
        """The matrix of the given rows and columns, in the given order."""
        return FormMatrix(self.degree, tuple(self.row_family[i] for i in rows),
                          tuple(self.col_family[j] for j in cols),
                          tuple(tuple(self.entries[i][j] for j in cols) for i in rows))

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
        acc = ProductAccumulator(w, self.degree + other.degree, self.row_family, other.col_family)
        acc.add(self, other)
        return acc.matrix()

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


class ProductAccumulator:
    """A sum of products of form matrices, kept as integer sums per entry.

    Entry (r, c) of the sum is ``sums[r][c][k] / dens[r][c]`` at basis
    form k.  `add(a, b, sign)` adds sign * a.b: it walks the integer
    numerators of both factors and contracts the stored products of
    basis forms, also over one denominator, straight into the entries
    of the result.  When a pair of factor forms brings a denominator
    the entry does not hold, the entry is rescaled to the lcm of both.
    `matrix()` then builds one `Form` per entry, in lowest terms, so a
    product or a sum of products costs no intermediate form and no
    rational arithmetic.  Each entry equals the sum of
    `DGCategory.compose` over the inner index.
    """

    def __init__(self, w: DGCategory, degree: int, row_family, col_family):
        self.w = w
        self.degree = degree
        self.row_family = tuple(row_family)
        self.col_family = tuple(col_family)
        self.sums: list[list[dict[int, int]]] = [[{} for _ in self.col_family] for _ in self.row_family]
        self.dens: list[list[int]] = [[1] * len(self.col_family) for _ in self.row_family]

    def add(self, a: FormMatrix, b: FormMatrix, sign: int = 1) -> None:
        if a.col_family != b.row_family:
            raise DimensionError("form matrix product: inner families differ")
        if (a.degree + b.degree, a.row_family, b.col_family) != (self.degree, self.row_family, self.col_family):
            raise DimensionError("form matrix product: factors do not match the accumulated sum")
        integral, p, q = self.w.integral_products, a.degree, b.degree
        cols = [oj.index for oj in b.col_family]
        for oi, a_row, out_row, den_row in zip(a.row_family, a.entries, self.sums, self.dens):
            x = oi.index
            for ok, f, b_row in zip(a.col_family, a_row, b.entries):
                if not f.nums:
                    continue
                f_nums = f.nums if sign == 1 else [(i, sign * n) for i, n in f.nums]
                y = ok.index
                for c, (z, g) in enumerate(zip(cols, b_row)):
                    g_nums = g.nums
                    if not g_nums:
                        continue
                    block_den, products = integral(p, q, x, y, z)
                    out, den, pair_nums = out_row[c], den_row[c], f_nums
                    pair_den = f.den * g.den * block_den
                    if pair_den != den:
                        common = lcm(den, pair_den)
                        if common != den:
                            m = common // den
                            for k in out:
                                out[k] *= m
                            den_row[c] = common
                        m = common // pair_den
                        if m != 1:
                            pair_nums = [(i, m * n) for i, n in f_nums]
                    for i, s in pair_nums:
                        row = products[i]
                        for j, t in g_nums:
                            st = s * t
                            for k, n in row[j]:
                                out[k] = out.get(k, 0) + st * n

    def matrix(self) -> FormMatrix:
        deg, rf, cf = self.degree, self.row_family, self.col_family
        return FormMatrix(deg, rf, cf, tuple(
            tuple(Form(deg, oj, oi, *lowest_terms(den, out.items())) for oj, out, den in zip(cf, row, dens))
            for oi, row, dens in zip(rf, self.sums, self.dens)
        ))


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
