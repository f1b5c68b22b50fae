"""Exact linear algebra over the rationals.

Everything in the package ultimately reduces to row reduction of
matrices with `fractions.Fraction` entries.  Pivoting is deterministic
(first nonzero entry in column order, no magnitude heuristics), so every
derived basis is reproducible byte for byte.

Vectors are plain tuples of Fractions; matrices are immutable tuples of
row tuples wrapped in :class:`MatrixQ`.  Those dense types are what every
function takes and returns.  Inside, the work runs on sparse rows: maps
from column index to the nonzero entries of a row (`SparseRow`), because
the matrices the package reduces are mostly zero and exact arithmetic on
a zero still costs a `Fraction` operation.  Row reduction, the
elimination basis of a quotient and matrix application visit nonzeros
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionError

Scalar = Fraction
Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def sparse(v: Sequence[Fraction]) -> SparseRow:
    """The nonzero entries of a dense vector, by index."""
    # `x is not ZERO` settles the common zero, the shared constant, without
    # calling into Fraction
    return {j: x for j, x in enumerate(v) if x is not ZERO and x}


def densify(row: SparseRow, n: int) -> Vector:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if i == k else ZERO for i in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(s: Fraction, a: Vector) -> Vector:
    return tuple(s * x for x in a)


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class MatrixQ:
    """Immutable dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionError(f"ragged row: expected {self.cols} columns, got {len(r)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "MatrixQ":
        entries = tuple(vec(r) for r in rows)
        if entries:
            width = len(entries[0])
        else:
            if cols is None:
                raise DimensionError("empty matrix needs an explicit column count")
            width = cols
        return cls(len(entries), width, entries)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, tuple(unit_vector(n, i) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "MatrixQ":
        return cls(rows, cols, tuple(zero_vector(cols) for _ in range(rows)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "MatrixQ":
        return MatrixQ(self.cols, self.rows, tuple(self.column(j) for j in range(self.cols)))

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ under addition")
        return MatrixQ(self.rows, self.cols,
                       tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ under subtraction")
        return MatrixQ(self.rows, self.cols,
                       tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, s) -> "MatrixQ":
        s = Fraction(s)
        return MatrixQ(self.rows, self.cols, tuple(vec_scale(s, r) for r in self.entries))

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            row = [ZERO] * other.cols
            for k, a in enumerate(ri):
                if a == 0:
                    continue
                rk = other.entries[k]
                for j, b in enumerate(rk):
                    if b != 0:
                        row[j] += a * b
            out.append(tuple(row))
        return MatrixQ(self.rows, other.cols, tuple(out))

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionError(f"vector length {len(v)} does not match {self.cols} columns")
        support = [(j, x) for j, x in enumerate(v) if x]
        out = [ZERO] * self.rows
        for i, ri in enumerate(self.entries):
            acc = ZERO
            for j, x in support:
                a = ri[j]
                if a:
                    acc += a * x
            out[i] = acc
        return tuple(out)

    def is_zero(self) -> bool:
        return all(is_zero_vector(r) for r in self.entries)


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form: the nonzero rows, sparse, and their pivots.

    `rows[i]` has a 1 in column `pivots[i]`; the rows are read-only.
    `matrix` is the dense form, padded with zero rows to the input shape.
    """

    shape: tuple[int, int]
    rows: tuple[SparseRow, ...]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @cached_property
    def matrix(self) -> MatrixQ:
        nrows, ncols = self.shape
        dense = tuple(densify(r, ncols) for r in self.rows)
        return MatrixQ(nrows, ncols, dense + (zero_vector(ncols),) * (nrows - len(dense)))


def rref(m: MatrixQ) -> RrefResult:
    """Reduced row echelon form with deterministic pivoting.

    Scans columns left to right and picks the first row with a nonzero
    entry; no magnitude-based pivot choice is ever made, so the result
    is a function of the exact input alone.  Rows are sparse maps during
    the elimination, so each row operation touches the nonzeros of the
    pivot row only.
    """
    work = [row for row in map(sparse, m.entries) if row]
    nrows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if c in work[i]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        if pv != 1:
            work[r] = {j: x / pv for j, x in work[r].items()}
        pivot_items = list(work[r].items())
        for i in range(nrows):
            row = work[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, y in pivot_items:
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                else:
                    x -= f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
    return RrefResult((m.rows, m.cols), tuple(work[:r]), tuple(pivots))


def rank(m: MatrixQ) -> int:
    return rref(m).rank


def row_space_basis(rows: Sequence[Vector], width: int) -> tuple[Vector, ...]:
    """Canonical (reduced echelon) basis of the span of the given rows."""
    if not rows:
        return ()
    res = rref(MatrixQ.from_rows(rows, cols=width))
    return tuple(densify(r, res.shape[1]) for r in res.rows)


def kernel_basis(m: MatrixQ) -> tuple[Vector, ...]:
    """Basis of the right null space, one vector per free column.

    The free-column construction on the reduced echelon form yields a
    deterministic basis: for each non-pivot column c the vector has 1 in
    position c and the negated pivot-row entries above.
    """
    res = rref(m)
    pivot_set = set(res.pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for c in free_cols:
        v = [ZERO] * m.cols
        v[c] = ONE
        for row, p in zip(res.rows, res.pivots):
            x = row.get(c)
            if x is not None:
                v[p] = -x
        basis.append(tuple(v))
    return tuple(basis)


def solve_in_span(m: MatrixQ, b: Vector) -> Optional[Vector]:
    """One exact solution x of m @ x = b, or None when b is outside the span.

    Free variables are set to zero, so the returned solution is again a
    deterministic function of the input.
    """
    if len(b) != m.rows:
        raise DimensionError(f"rhs length {len(b)} does not match {m.rows} rows")
    aug = MatrixQ(m.rows, m.cols + 1,
                  tuple(row + (bb,) for row, bb in zip(m.entries, b)))
    res = rref(aug)
    if m.cols in res.pivots:
        return None
    x = [ZERO] * m.cols
    for row, p in zip(res.rows, res.pivots):
        x[p] = row.get(m.cols, ZERO)
    return tuple(x)


@dataclass(frozen=True)
class QuotientSpace:
    """Ambient space modulo the span of a set of vectors.

    The subspace basis is kept in reduced echelon form, as sparse rows.
    Coset coordinates of an ambient vector are read off from the
    non-pivot columns after eliminating the pivot entries, which vanishes
    exactly on the subspace; `lift` is a section of that map.
    """

    ambient_dim: int
    rows: tuple[SparseRow, ...]
    pivots: tuple[int, ...]
    free_columns: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    @property
    def subspace_dim(self) -> int:
        return len(self.rows)

    @cached_property
    def subspace_basis(self) -> tuple[Vector, ...]:
        return tuple(densify(r, self.ambient_dim) for r in self.rows)

    def reduce(self, v: Vector) -> Vector:
        """Canonical coset representative (pivot coordinates eliminated)."""
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} does not match ambient {self.ambient_dim}")
        out = list(v)
        # rows vanish at every pivot but their own, so each pivot entry of
        # v is eliminated by its own row alone
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                for j, y in row.items():
                    out[j] -= f * y
        return tuple(out)

    def coset_coordinates(self, v: Vector) -> Vector:
        red = self.reduce(v)
        return tuple(red[c] for c in self.free_columns)

    def lift(self, coords: Vector) -> Vector:
        if len(coords) != self.dim:
            raise DimensionError(f"expected {self.dim} coset coordinates, got {len(coords)}")
        out = [ZERO] * self.ambient_dim
        for c, x in zip(self.free_columns, coords):
            out[c] = x
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        """Whether v lies in the subspace (has zero coset class)."""
        return is_zero_vector(self.reduce(v))


def build_quotient(ambient_dim: int, spanning: Sequence[Vector]) -> QuotientSpace:
    spanning = list(spanning)
    if spanning:
        res = rref(MatrixQ.from_rows(spanning, cols=ambient_dim))
        rows, pivots = res.rows, res.pivots
    else:
        rows, pivots = (), ()
    pivot_set = set(pivots)
    free_cols = tuple(c for c in range(ambient_dim) if c not in pivot_set)
    return QuotientSpace(ambient_dim, rows, pivots, free_cols)


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {text!r}") from exc


def format_scalar(x: Fraction) -> str:
    return str(x)
