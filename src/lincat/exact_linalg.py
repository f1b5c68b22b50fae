"""Exact linear algebra over the rationals.

Everything in the package ultimately reduces to row reduction of
matrices with `fractions.Fraction` entries, always to the reduced row
echelon form, which is unique for a row space: no pivot is chosen by
magnitude or by the order of the work, so every derived basis is
reproducible byte for byte.

Dense vectors are plain tuples of Fractions: classes of the quotient
complex enter and leave its methods this way.  Scalars given by a
caller go through one conversion, `scalar`, which refuses floats.
Sparse vectors come in two shapes, because the spaces of the package
are mostly zero and exact arithmetic on a zero still costs a
`Fraction` operation:

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

Integer arithmetic stands in for `Fraction`s where sums are long:
`integral_terms` puts sparse vectors over one common denominator, as
`int` numerators, and `cut_rows` cuts such a flat list back into the
rows of a block; `over_lcm` puts a single vector over the lcm of its
own denominators.  The envelope builder, the product blocks of
`DGCategory.integral_products`, the law kernel of `lincat.laws` and the
product kernel of `lincat.form_matrix` all convert this way.  One
contraction, `contract_into`, adds combinations of sparse vectors into
a sparse sum, over `Fraction`s or over numerators: products and
differentials of forms, and every law check, are made of it.

All elimination goes through one kernel, `echelon`, which takes sparse
rows and a column count and adds them one at a time to an `Echelon`;
a caller that grows a span row by row (the generating set of
`validate_dg`) holds an `Echelon` itself.  Every reduction of a vector
by a reduced echelon basis is one function, `reduce_by`: its remainder
is empty exactly when the vector lies in the span, and then the
coordinates of the vector are its entries at the pivots.  `Echelon.add`
reduces each new row this way, a `QuotientSpace` reduces a sparse
vector modulo the span (`reduce_sparse`) and reads its coset
coordinates, a dense tuple, off the free columns (`coset_coordinates`),
and the chain subspaces of the envelope and the fixed columns of a
module test membership with it.  `build_quotient` divides by the span
of sparse rows and `solve_rows` solves a linear system given by its
sparse rows; callers that already hold sparse rows (the envelope's
chain subspaces, the cohomology of the quotient complex, the fixed
columns of a module) call `echelon` itself.

There is no dense matrix type.  `rref` hands `echelon` the nonzeros of
any dense matrix given by its `rows`, `cols` and `entries`, which must
be Fractions (anything else is refused with `ScalarTypeError`, so no
float or int ever enters exact arithmetic unnoticed).  No library
module calls it; it stays because the benchmark's tracer
(`perfbench/tracing.py`) wraps `exact_linalg.rref` by name and reads
the shape of its argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DimensionError, ScalarTypeError

Scalar = Fraction
Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]
# the nonzero (index, coefficient) pairs of a vector, by increasing index
Terms = tuple[tuple[int, Fraction], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value: object, where: str = "scalar") -> Fraction:
    """The one conversion of input scalars: exact values only.

    A `Fraction` is kept, an `int` or a "p/q" string is converted
    exactly.  Anything else, a float or a bool included, raises
    `ScalarTypeError` naming `where`: a float is already rounded, so its
    `Fraction` would be exact about the wrong number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise ScalarTypeError(f"{where} is {value!r} of type {type(value).__name__}, not a Fraction, an int or a string")


def vec(values: Iterable) -> Vector:
    """A dense vector of scalars converted by `scalar`."""
    return tuple(v if type(v) is Fraction else scalar(v, f"entry {j}") for j, v in enumerate(values))


def checked_terms(entries: Mapping[int, object], dim: int, where: str) -> Terms:
    """The terms of a sparse vector of length `dim`, given as index -> scalar.

    Scalars are converted by `scalar`, zeros are dropped and the terms
    are sorted by index; an index outside 0..dim-1 raises
    `DimensionError` naming `where`.
    """
    for k in entries:
        if type(k) is not int or not 0 <= k < dim:
            raise DimensionError(f"{where}: index {k!r} out of range for dimension {dim}")
    terms = ((k, s if type(s) is Fraction else scalar(s, f"{where}, entry {k}")) for k, s in sorted(entries.items()))
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


def integral_terms(vectors: Iterable[Iterable[tuple[int, Fraction]]]) -> tuple[int, list]:
    """Sparse vectors over one denominator, as (D, [((k, n), ...)]) with n / D the coefficient at k.

    D is the lcm of the denominators of all the vectors; each vector is
    an iterable of (k, s) pairs and comes back as a tuple of pairs.
    """
    vectors = [tuple(v) for v in vectors]
    den = lcm(*{s.denominator for v in vectors for _, s in v})
    return den, [tuple((k, s.numerator * (den // s.denominator)) for k, s in v) for v in vectors]


def over_lcm(terms: Terms) -> tuple[int, Sequence[tuple[int, int]]]:
    """One sparse vector over the lcm of its denominators: (D, [(k, n)]) with n / D the coefficient at k."""
    if not terms:
        return 1, ()
    d = lcm(*[s.denominator for _, s in terms])
    if d == 1:
        return 1, [(k, s.numerator) for k, s in terms]
    return d, [(k, s.numerator * (d // s.denominator)) for k, s in terms]


def contract_into(out: SparseRow, coefficients: Terms, vectors, m: int = 1) -> SparseRow:
    """Add m * s * vectors[a] to the sparse vector `out`, over (a, s) in `coefficients`.

    The entries may be `Fraction`s or integer numerators; a sum may
    leave cancelled zeros in `out`.
    """
    for a, s in coefficients:
        if m != 1:
            s *= m
        for c, t in vectors[a]:
            out[c] = out.get(c, 0) + s * t
    return out


def cut_rows(flat: list, width: int) -> list:
    """A flat list cut into rows of the given width; no rows when it is 0."""
    return [flat[i:i + width] for i in range(0, len(flat), width)] if width else []


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


def reduce_by(v: SparseRow, rows_at: Mapping[int, SparseRow]) -> SparseRow:
    """The remainder of v, left unmodified, by a reduced echelon basis keyed by pivot column.

    Each basis row vanishes at every pivot but its own, so one pass over
    the pivots in v's support clears them all, each by its own row
    scaled by v's entry there.  So the remainder is empty exactly when v
    lies in the span, and then v's entries at the pivots are its
    coordinates.  The remainder keeps nonzero entries only.
    """
    row = {j: x for j, x in v.items() if x}
    for p in [p for p in row if p in rows_at]:
        add_scaled(row, -row[p], rows_at[p])
    return row


def echelon(rows: Iterable[SparseRow], ncols: int) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """Reduced row echelon basis of the span of sparse rows, and its pivots.

    This is the one elimination kernel of the package.  The rows are
    `ncols` wide and are left unmodified.  They are taken one at a time
    by `Echelon.add`, so the basis is in reduced echelon form after every
    row.  That form is unique for a row space, so the result is a
    function of the span alone, and every derived basis is reproducible
    byte for byte.
    """
    basis = Echelon()
    for given in rows:
        if not given:
            continue
        if min(given) < 0 or max(given) >= ncols:
            raise DimensionError(f"sparse row has a column outside 0..{ncols - 1}")
        if not _all_fractions(given.values()):
            raise ScalarTypeError("sparse row entries must be Fractions")
        basis.add(given)
    pivots = tuple(sorted(basis.rows))
    return tuple(basis.rows[p] for p in pivots), pivots


class Echelon:
    """A reduced echelon basis grown one row at a time.

    `rows` maps each pivot column to its row, which is 1 there and 0 at
    every other pivot.  `add` reduces a row by the basis (`reduce_by`),
    and a nonzero remainder joins it with its first column as pivot, scaled to 1
    there, after which that column is cleared from the older rows.  So
    the unit vector e_k lies in the span exactly when the row at pivot k
    is e_k itself (`spans_unit`).
    """

    def __init__(self) -> None:
        self.rows: dict[int, SparseRow] = {}
        # every column where some row may be nonzero: a new pivot outside
        # it needs no clearing, so adding a row to a basis of unit rows
        # does not visit them all
        self._columns: set[int] = set()

    def add(self, given: SparseRow) -> Optional[int]:
        """Add a row, left unmodified; its pivot, or None when it lies in the span."""
        basis = self.rows
        row = reduce_by(given, basis)
        if not row:
            return None
        p = min(row)
        pv = row[p]
        if pv != 1:
            row = {j: x / pv for j, x in row.items()}
        if p in self._columns:
            for other in basis.values():
                f = other.get(p)
                if f is not None:
                    add_scaled(other, -f, row)
        self._columns.update(row)
        basis[p] = row
        return p

    def spans_unit(self, k: int) -> bool:
        return self.rows.get(k) == {k: ONE}


def rref(m) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """`echelon` of the nonzeros of a dense matrix with `rows`, `cols` and Fraction `entries`."""
    return echelon(map(sparse, m.entries), m.cols)


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


@dataclass(frozen=True)
class QuotientSpace:
    """Ambient space modulo the span of a set of vectors.

    The subspace basis is kept in reduced echelon form, as sparse rows.
    A sparse vector is reduced by eliminating its pivot entries, which
    leaves entries at the free columns only and vanishes exactly on the
    subspace; its coset coordinates are the entries at the free columns.
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
    def _row_at_pivot(self) -> dict[int, SparseRow]:
        return dict(zip(self.pivots, self.rows))

    def reduce_sparse(self, v: SparseRow) -> SparseRow:
        """Canonical coset representative of a sparse vector, as a sparse vector; empty on the subspace."""
        return reduce_by(v, self._row_at_pivot)

    def coset_coordinates(self, v: SparseRow) -> Vector:
        """The coordinates of the coset of a sparse vector, a dense tuple over the free columns."""
        if v and (min(v) < 0 or max(v) >= self.ambient_dim):
            raise DimensionError(f"sparse vector has a column outside 0..{self.ambient_dim - 1}")
        red = self.reduce_sparse(v)
        return tuple(red.get(c, ZERO) for c in self.free_columns)


def build_quotient(ambient_dim: int, spanning: Sequence[SparseRow]) -> QuotientSpace:
    """The quotient by the span of the given sparse rows."""
    rows, pivots = echelon(spanning, ambient_dim)
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
