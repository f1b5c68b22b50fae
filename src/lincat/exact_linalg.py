"""Exact linear algebra over the rationals.

Everything in the package ultimately reduces to row reduction of
matrices with `fractions.Fraction` entries, always to the reduced row
echelon form, which is unique for a row space: no pivot is chosen by
magnitude or by the order of the work, so every derived basis is
reproducible byte for byte.

Dense vectors are plain tuples of Fractions; matrices are immutable
tuples of row tuples wrapped in :class:`MatrixQ`, whose entries must be
Fractions (anything else is refused with `ScalarTypeError`, so no float
or int ever enters exact arithmetic unnoticed).  Sparse vectors come in
two shapes, because the spaces of the package are mostly zero and exact
arithmetic on a zero still costs a `Fraction` operation:

* `Terms`, the immutable shape: a tuple of the nonzero (index,
  coefficient) pairs, strictly increasing in index.  Structure
  constants, differentials and forms are stored this way, so two equal
  vectors have equal terms; `checked_terms` builds them from a map of
  input scalars, `terms_of` from a sum accumulated in a sparse row, and
  `add_terms` adds two of them.
* `SparseRow`, the mutable shape: a map from column index to entry,
  which elimination and the product sums update in place.  Elimination
  keeps only nonzero entries; a sum may leave cancelled zeros, which
  `terms_of` drops.

All elimination goes through one kernel, `echelon`, which takes sparse
rows and a column count.  Sparse rows enter it directly through
`build_quotient` (which also accepts dense vectors) and `solve_rows` (a
linear system given by its sparse rows), and `QuotientSpace.reduce_sparse`
reduces a sparse vector modulo a quotient without densifying it.
Callers that already hold sparse rows (the envelope's chain subspaces,
the stratified bracket span) call `echelon` itself.  `rref`,
`kernel_basis`, `solve_in_span` and `row_space_basis` are the dense
front doors: they hand the kernel the nonzeros of a dense input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DimensionError, ScalarTypeError

Scalar = Fraction
Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]
# the nonzero (index, coefficient) pairs of a vector, by increasing index
Terms = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def checked_terms(entries: Mapping[int, object], dim: int, where: str) -> Terms:
    """The terms of a sparse vector of length `dim`, given as index -> scalar.

    Scalars are converted as by `vec`, zeros are dropped and the terms
    are sorted by index; an index outside 0..dim-1 raises
    `DimensionError` naming `where`.
    """
    for k in entries:
        if type(k) is not int or not 0 <= k < dim:
            raise DimensionError(f"{where}: index {k!r} out of range for dimension {dim}")
    terms = ((k, s if type(s) is Fraction else Fraction(s)) for k, s in sorted(entries.items()))
    return tuple((k, s) for k, s in terms if s)


def terms_of(row: SparseRow) -> Terms:
    """The terms of a sparse row whose entries may have cancelled to zero."""
    return tuple((k, s) for k, s in sorted(row.items()) if s)


def add_terms(a: Terms, b: Terms) -> Terms:
    """The terms of the sum of two vectors given by their terms."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for k, s in b:
        out[k] = out.get(k, ZERO) + s
    return terms_of(out)


def sparse(v: Sequence[Fraction]) -> SparseRow:
    """The nonzero entries of a dense vector, by index."""
    # `x is not ZERO` settles the common zero, the shared constant, without
    # calling into Fraction
    return {j: x for j, x in enumerate(v) if x is not ZERO and x}


def densify(row: SparseRow | Terms, n: int) -> Vector:
    """The dense vector of length n with the entries of a sparse row or of terms."""
    out = [ZERO] * n
    for j, x in row.items() if isinstance(row, dict) else row:
        out[j] = x
    return tuple(out)


def offsets(dims: Iterable[int]) -> tuple[int, ...]:
    """Start index of each block when blocks of the given sizes are stacked."""
    out, total = [], 0
    for d in dims:
        out.append(total)
        total += d
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


def _all_fractions(values: Iterable) -> bool:
    # map runs isinstance without a Python frame per entry
    return all(map(isinstance, values, repeat(Fraction)))


@dataclass(frozen=True)
class MatrixQ:
    """Immutable dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionError(f"expected {self.rows} rows, got {len(self.entries)}")
        for i, r in enumerate(self.entries):
            if len(r) != self.cols:
                raise DimensionError(f"ragged row: expected {self.cols} columns, got {len(r)}")
            if not _all_fractions(r):
                j, x = next((j, x) for j, x in enumerate(r) if not isinstance(x, Fraction))
                raise ScalarTypeError(
                    f"matrix entry ({i}, {j}) is {x!r} of type {type(x).__name__}, not a Fraction"
                )

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


def add_scaled(row: SparseRow, f: Fraction, other: SparseRow) -> None:
    """row += f * other, in place, dropping the entries that cancel; f != 0."""
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            row[j] = f * y
        else:
            x += f * y
            if x:
                row[j] = x
            else:
                del row[j]


def echelon(rows: Iterable[SparseRow], ncols: int) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """Reduced row echelon basis of the span of sparse rows, and its pivots.

    This is the one elimination kernel of the package.  The rows are
    `ncols` wide and are left unmodified.  They are taken one at a time:
    each is reduced by the basis found so far, and a nonzero remainder
    joins the basis with its first column as pivot, scaled to 1 there,
    after which that column is cleared from the older basis rows.  So the
    basis is in reduced echelon form after every row.  That form is
    unique for a row space, so the result is a function of the span
    alone, and every derived basis is reproducible byte for byte.
    """
    basis: dict[int, SparseRow] = {}  # pivot column -> row, 0 at every other pivot
    for given in rows:
        if not given:
            continue
        if min(given) < 0 or max(given) >= ncols:
            raise DimensionError(f"sparse row has a column outside 0..{ncols - 1}")
        if not _all_fractions(given.values()):
            raise ScalarTypeError("sparse row entries must be Fractions")
        row = {j: x for j, x in given.items() if x}
        # basis rows vanish at every pivot but their own, so one pass over
        # the pivots in the row's support clears them all
        for c in [c for c in row if c in basis]:
            add_scaled(row, -row[c], basis[c])
        if not row:
            continue
        p = min(row)
        pv = row[p]
        if pv != 1:
            row = {j: x / pv for j, x in row.items()}
        for other in basis.values():
            f = other.get(p)
            if f is not None:
                add_scaled(other, -f, row)
        basis[p] = row
    pivots = tuple(sorted(basis))
    return tuple(basis[p] for p in pivots), pivots


def rref(m: MatrixQ) -> RrefResult:
    """Reduced row echelon form of a dense matrix, by `echelon`."""
    rows, pivots = echelon(map(sparse, m.entries), m.cols)
    return RrefResult((m.rows, m.cols), rows, pivots)


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


def solve_rows(rows: Sequence[SparseRow], ncols: int, b: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution x of A x = b, A given by its sparse rows, or None.

    None means b lies outside the column span of A.  The augmented rows
    (b in column `ncols`) go straight to `echelon`; free variables are
    set to zero, so the solution is again a function of the input alone.
    """
    if len(b) != len(rows):
        raise DimensionError(f"rhs length {len(b)} does not match {len(rows)} rows")
    augmented = [{**row, ncols: bb} if bb else row for row, bb in zip(rows, b)]
    echelon_rows, pivots = echelon(augmented, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for row, p in zip(echelon_rows, pivots):
        x[p] = row.get(ncols, ZERO)
    return tuple(x)


def solve_in_span(m: MatrixQ, b: Vector) -> Optional[Vector]:
    """One exact solution x of m @ x = b, or None when b is outside the span.

    The dense front door to `solve_rows`.
    """
    if len(b) != m.rows:
        raise DimensionError(f"rhs length {len(b)} does not match {m.rows} rows")
    return solve_rows([sparse(r) for r in m.entries], m.cols, b)


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

    @cached_property
    def _row_at_pivot(self) -> dict[int, SparseRow]:
        return dict(zip(self.pivots, self.rows))

    def reduce(self, v: Vector) -> Vector:
        """Canonical coset representative (pivot coordinates eliminated)."""
        if len(v) != self.ambient_dim:
            raise DimensionError(f"vector length {len(v)} does not match ambient {self.ambient_dim}")
        return densify(self.reduce_sparse(sparse(v)), self.ambient_dim)

    def reduce_sparse(self, v: SparseRow) -> SparseRow:
        """`reduce` of a sparse vector, as a sparse vector; empty on the subspace."""
        row_at = self._row_at_pivot
        out = {j: x for j, x in v.items() if x}
        # rows vanish at every pivot but their own, so each pivot entry of
        # v is eliminated by its own row alone
        for p in [p for p in out if p in row_at]:
            add_scaled(out, -out[p], row_at[p])
        return out

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


def build_quotient(ambient_dim: int, spanning: Sequence[SparseRow | Vector]) -> QuotientSpace:
    """The quotient by the span of the given rows, sparse maps or dense vectors."""
    rows, pivots = echelon((_sparse_row(r, ambient_dim) for r in spanning), ambient_dim)
    pivot_set = set(pivots)
    free_cols = tuple(c for c in range(ambient_dim) if c not in pivot_set)
    return QuotientSpace(ambient_dim, rows, pivots, free_cols)


def _sparse_row(row: SparseRow | Vector, width: int) -> SparseRow:
    if isinstance(row, dict):
        return row
    if len(row) != width:
        raise DimensionError(f"vector length {len(row)} does not match ambient {width}")
    return sparse(vec(row))


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {text!r}") from exc


def format_scalar(x: Fraction) -> str:
    return str(x)
