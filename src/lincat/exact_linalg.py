"""Exact linear algebra over the rationals.

Everything in the package ultimately reduces to row reduction of
matrices with `fractions.Fraction` entries, always to the reduced row
echelon form, which is unique for a row space: no pivot is chosen by
magnitude or by the order of the work, so every derived basis is
reproducible byte for byte.

Dense vectors are plain tuples of Fractions: classes of the quotient
complex enter and leave its methods this way.  Scalars given by a
caller go through one conversion, `scalar`, which refuses floats.
Sparse vectors come in three shapes, because the spaces of the package
are mostly zero:

* integer numerators over one positive denominator, the shape of the
  engine.  Forms and the identities of a category are stored as (D,
  `IntTerms`): the nonzero (index, numerator) pairs, strictly
  increasing in index, in lowest terms (`lowest_terms`), so two equal
  vectors have equal pairs.  The product and differential blocks are
  stored over one denominator per block (`integral_terms`, and
  `integral_block` with `cut_rows` for a product block).  Elimination
  takes a `NumeratorRow` (D, {column: int}), the mutable shape.
* `Terms`, the nonzero (index, `Fraction`) pairs by increasing index:
  input, checked by `checked_terms`, and the view of a form that
  rendering and export read.
* `SparseRow`, a map from column index to `Fraction`: rows, remainders
  and solutions handed back by elimination.

Two conversions join them: `over_lcm` puts `Fraction`s over the lcm of
their denominators, where scalars enter, and `fraction_terms` makes the
`Fraction` terms of integer pairs, where they leave.  One contraction,
`contract_into`, adds combinations of sparse vectors into a sparse sum:
products and differentials of forms, and every law check, are made of
it, over integers.

All elimination goes through one kernel, `echelon`, which takes sparse
rows and a column count and adds them one at a time to an `Echelon`;
a caller that grows a span row by row (the generating set of
`validate_dg`, the expressions of the envelope builder) holds an
`Echelon` itself.  The kernel runs over integer numerators: `Echelon`
keeps each basis row as `int` numerators over one positive denominator,
the numerator at its pivot equal to that denominator, with no common
factor.  A new row is put over the lcm of its denominators and reduced
by cross-multiplying, v.d - v[p].row, which is pure `int` arithmetic
while every denominator is 1, the common case; a new pivot is then
cleared only from the rows that a column index lists there.  A
finished span is a `QuotientSpace`, built from sparse rows by
`build_quotient`; it keeps the integer rows of its `Echelon` and reduces
over them a sparse vector modulo the span (`reduce_sparse`), reads its
coset coordinates, a dense tuple, off the free columns
(`coset_coordinates`), and reads the coordinates of a vector of the
span in its basis, or None outside it (`coordinates`), deciding
membership on the integer remainder.  So `Echelon` (a basis being
grown) and `QuotientSpace` (a finished one) are the two span types, and
other modules see their integer rows only through `numerator_rows`:
the envelope builder reads its chain bases and its expressions there.
The chain subspaces of the envelope, the quotient complex and the
fixed columns of a module are all `QuotientSpace`s.  `solve_rows`
solves a linear system given by its rows and reads only the solution
column of the reduced basis, and the cohomology of the quotient
complex calls `echelon` itself.

A row enters `Echelon.add`, `build_quotient`, `echelon` or `solve_rows`,
and a vector a `QuotientSpace` method, as a sparse row of `Fraction`s
or as a `NumeratorRow` (d, {column: int}), d > 0, whose scale a span
ignores: G, the [g, v] commutators, the ambient rows of the quotient
complex, the certificate's system and the envelope's chain products
come in so.  Anything else, a float, a bool or a bare dict of ints, is
refused with `ScalarTypeError`.  The ints of the kernel are never
divided with `/` (only by an exact common factor, with `//`), and
leave as `Fraction`s: every row, coset coordinate and solution handed
back holds `Fraction`s, with each pivot entry exactly 1, except
`numerator_rows`, and the coordinates and the reduction of a
`NumeratorRow`, which keep its shape.

There is no dense matrix type.  `rref` hands `echelon` the nonzeros of
any dense matrix given by its `rows`, `cols` and `entries`, which must
be Fractions.  No library module calls it; it stays because the
benchmark's tracer (`perfbench/tracing.py`) wraps `exact_linalg.rref` by
name and reads the shape of its argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import DimensionError, ScalarTypeError

Scalar = Fraction
Vector = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]
# the nonzero (index, coefficient) pairs of a vector, by increasing index
Terms = tuple[tuple[int, Fraction], ...]
# the nonzero (index, numerator) pairs of a vector over a denominator, by increasing index
IntTerms = tuple[tuple[int, int], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value: object, where: str = "scalar") -> Fraction:
    """The one conversion of input scalars: exact values only.

    A `Fraction` is kept, an `int` or a "p/q" string is converted
    exactly.  Anything else, a float, a bool or a string that is no
    rational number included, raises `ScalarTypeError` naming `where`: a
    float is already rounded, so its `Fraction` would be exact about the
    wrong number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarTypeError(f"{where} is {value!r}, not a rational scalar") from exc
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


def integral_terms(vectors: Iterable[Iterable[tuple[int, Fraction]]]) -> tuple[int, list]:
    """Sparse vectors over one denominator, as (D, [((k, n), ...)]) with n / D the coefficient at k.

    D is the lcm of the denominators of all the vectors; each vector is
    an iterable of (k, s) pairs and comes back as a tuple of pairs.
    """
    vectors = [tuple(v) for v in vectors]
    den = lcm(*{s.denominator for v in vectors for _, s in v})
    return den, [tuple((k, s.numerator * (den // s.denominator)) for k, s in v) for v in vectors]


def integral_block(rows: Iterable[Iterable[Terms]], width: int) -> tuple[int, tuple]:
    """Rows of `width` terms each over one denominator: (D, rows), entry [i][j] holding (k, D * s) over its terms (k, s)."""
    den, flat = integral_terms(terms for row in rows for terms in row)
    return den, tuple(map(tuple, cut_rows(flat, width)))


def over_lcm(terms: Collection[tuple[int, Fraction]]) -> tuple[int, IntTerms]:
    """One sparse vector over the lcm of its denominators: (D, ((k, n), ...)) with n / D the coefficient at k.

    The coefficients of the (k, coefficient) pairs are `Fraction`s or ints.
    Terms, sorted and nonzero, come out in lowest terms.
    """
    if not terms:
        return 1, ()
    d = lcm(*[s.denominator for _, s in terms])
    if d == 1:
        return 1, tuple([(k, s.numerator) for k, s in terms])
    return d, tuple([(k, s.numerator * (d // s.denominator)) for k, s in terms])


def lowest_terms(den: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, IntTerms]:
    """The integer vector with the given (k, n) pairs over a positive `den`, in lowest terms.

    That is (D, the nonzero pairs sorted by index), with den and the
    numerators divided by their gcd, and (1, ()) for zero: equal vectors
    come out equal.
    """
    nums = sorted((k, n) for k, n in pairs if n)
    if not nums:
        return 1, ()
    if den != 1 and (g := gcd(den, *[n for _, n in nums])) != 1:
        return den // g, tuple([(k, n // g) for k, n in nums])
    return den, tuple(nums)


def fraction_terms(den: int, pairs: Iterable[tuple[int, int]]) -> Terms:
    """The terms of the integer vector with the given (k, n) pairs over a positive `den`: one `Fraction` per nonzero n."""
    if den == 1:
        return tuple((k, Fraction(n)) for k, n in sorted(pairs) if n)
    return tuple((k, Fraction(n, den)) for k, n in sorted(pairs) if n)


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


# -- the elimination kernel, over integer numerators -------------------------

# a sparse row of integer numerators, by column
IntRow = dict[int, int]
# a reduced basis row as (d, numerators) with d > 0, the numerator at its
# pivot equal to d and no common factor of d and the numerators: so the row
# is the numerators divided by d, and equal rows have equal pairs
IntBasis = dict[int, tuple[int, IntRow]]
# a row as (d, numerators), d a positive int: the numerators divided by d
NumeratorRow = tuple[int, IntRow]


def _row(given: SparseRow | NumeratorRow) -> tuple[int, IntRow]:
    """A sparse row of Fractions or a `NumeratorRow` as (d, a new dict of its nonzero numerators).

    A sparse row goes over the lcm of its denominators.  An entry that is
    not a Fraction raises `ScalarTypeError`: an int or a float is refused,
    not reduced in whatever arithmetic it brings.
    """
    if type(given) is not tuple:
        # map runs isinstance without a Python frame per entry
        if not all(map(isinstance, given.values(), repeat(Fraction))):
            raise ScalarTypeError("sparse row entries must be Fractions")
        den, terms = over_lcm(given.items())
        return den, {j: n for j, n in terms if n}
    d, nums = given if len(given) == 2 else (0, None)
    if type(d) is not int or d <= 0 or type(nums) is not dict or not {int}.issuperset(map(type, nums.values())):
        raise ScalarTypeError("a numerator row is (d, {column: int}) with d a positive int")
    return d, {j: n for j, n in nums.items() if n}


def _fractions(row: NumeratorRow) -> SparseRow:
    """A `NumeratorRow` as a sparse row of `Fraction`s, its zeros dropped."""
    return dict(fraction_terms(row[0], row[1].items()))


def _primitive(den: int, nums: IntRow) -> tuple[int, IntRow]:
    """A basis row over the gcd of its denominator and numerators, a divisor of den, its pivot numerator."""
    if den != 1 and (g := gcd(den, *nums.values())) != 1:
        return den // g, {j: n // g for j, n in nums.items()}
    return den, nums


def _eliminate(v: IntRow, p: int, den: int, row: IntRow) -> int:
    """Clear column p of v, in place, by a row whose numerator there is den; the factor by which v was scaled.

    With g the gcd of den and v[p], v becomes v * den / g - v[p] / g * row,
    so the arithmetic stays in `int`s and the factor is den / g; the
    entries that cancel are dropped.
    """
    f = v[p]
    g = gcd(den, f)
    m, f = den // g, f // g
    if m != 1:
        for j in v:
            v[j] *= m
    for j, x in row.items():
        y = v.get(j)
        if y is None:
            v[j] = -f * x
        elif y := y - f * x:
            v[j] = y
        else:
            del v[j]
    return m


def _reduce(v: IntRow, basis: IntBasis) -> int:
    """Reduce numerators v in place by a reduced basis; the factor by which v was scaled.

    Each basis row vanishes at every pivot but its own, so one pass over
    the pivots in v's support clears them all (`_eliminate`).  So v ends
    up as the remainder times the returned factor, with no entry at a
    pivot, and is empty exactly when it lay in the span.
    """
    scale = 1
    for p in [p for p in v if p in basis]:
        scale *= _eliminate(v, p, *basis[p])
    return scale


def _spanned(rows: Iterable[SparseRow | NumeratorRow], ncols: int) -> "Echelon":
    """An `Echelon` grown by the given rows, which must lie in 0..ncols-1."""
    basis = Echelon()
    for given in rows:
        basis.add(given)  # which checks the row first
        columns = given[1] if type(given) is tuple else given
        if columns and (min(columns) < 0 or max(columns) >= ncols):
            raise DimensionError(f"sparse row has a column outside 0..{ncols - 1}")
    return basis


def echelon(rows: Iterable[SparseRow | NumeratorRow], ncols: int) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """Reduced row echelon basis of the span of sparse rows, and its pivots.

    This is the one elimination kernel of the package.  The rows are
    `ncols` wide, as `Echelon.add` takes them, and are left unmodified.
    They are taken one at a time by `Echelon.add`, so the basis is in
    reduced echelon form after every row.  That form is unique for a row
    space, so the result is a function of the span alone, and every
    derived basis is reproducible byte for byte.
    """
    basis = _spanned(rows, ncols)._basis
    pivots = tuple(sorted(basis))
    return tuple(_fractions(basis[p]) for p in pivots), pivots


class Echelon:
    """A reduced echelon basis grown one row at a time.

    The basis is kept over integer numerators: each row as (d,
    numerators), its pivot numerator equal to d, so the row is 1 at its
    pivot and 0 at every other pivot; the row is sign-normalised and
    divided by the gcd of d and its numerators.  `add` reduces a row by
    the basis, cross-multiplying, which is pure `int` arithmetic while
    every denominator is 1.  A nonzero remainder joins the basis with its
    first column p as pivot, and p is cleared from the older rows that
    `_users` lists there, not from every row: `_users` maps a column to
    the pivots of the rows that may be nonzero in it, a superset, since
    an entry that cancels leaves its pivot listed.

    `rows` maps each pivot to its row as `Fraction`s, 1 at the pivot, and
    `numerator_rows` to its row as kept.  The unit vector e_k lies in the
    span exactly when the row at pivot k is e_k itself (`spans_unit`).
    """

    def __init__(self) -> None:
        self._basis: IntBasis = {}
        self._users: dict[int, list[int]] = {}

    @property
    def rows(self) -> dict[int, SparseRow]:
        basis = self._basis
        return {p: _fractions(basis[p]) for p in sorted(basis)}

    @property
    def numerator_rows(self) -> dict[int, NumeratorRow]:
        """Each pivot's row as the `NumeratorRow` the basis keeps, by pivot; not to be modified, and valid until `add`."""
        return dict(sorted(self._basis.items()))

    def add(self, given: SparseRow | NumeratorRow) -> Optional[int]:
        """Add a row of `Fraction`s or a `NumeratorRow`, left unmodified; its pivot, or None if in the span."""
        basis, users = self._basis, self._users
        v = _row(given)[1]
        _reduce(v, basis)
        if not v:
            return None
        p = min(v)
        d = v[p]
        if d < 0:
            d = -d
            v = {j: -n for j, n in v.items()}
        d, v = _primitive(d, v)
        for q in users.pop(p, ()):
            dq, row = basis[q]
            if p not in row:
                continue
            new = v.keys() - row.keys()
            dq *= _eliminate(row, p, d, v)
            for j in new:
                users.setdefault(j, []).append(q)
            basis[q] = _primitive(dq, row)
        for j in v:
            if j != p:
                users.setdefault(j, []).append(p)
        basis[p] = d, v
        return p

    def spans_unit(self, k: int) -> bool:
        row = self._basis.get(k)
        return row is not None and len(row[1]) == 1


def rref(m) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """`echelon` of the nonzeros of a dense matrix with `rows`, `cols` and Fraction `entries`."""
    return echelon(map(sparse, m.entries), m.cols)


def solve_rows(rows: Sequence[SparseRow | NumeratorRow], ncols: int, b: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution x of A x = b, A given by its rows, b by `Fraction`s, or None outside A's column span.

    Each augmented row (b in column `ncols`) is put over integers by
    itself, which leaves the solutions alone, and grows an `Echelon`; only
    the column of b is read off it.  Free variables are set to zero, so
    the solution is again a function of the input alone.
    """
    if len(b) != len(rows):
        raise DimensionError(f"rhs length {len(b)} does not match {len(rows)} rows")
    augmented = []
    for row, bb in zip(rows, b):
        d, nums = _row(row)
        if bb:
            if type(bb) is not Fraction:
                raise ScalarTypeError(f"rhs entry {bb!r} of type {type(bb).__name__} is not a Fraction")
            nums = {j: n * bb.denominator for j, n in nums.items()}
            nums[ncols] = bb.numerator * d
        augmented.append((1, nums))
    basis = _spanned(augmented, ncols + 1)._basis
    if ncols in basis:
        return None
    x = [ZERO] * ncols
    for p, (d, nums) in basis.items():
        x[p] = Fraction(nums.get(ncols, 0), d)
    return tuple(x)


@dataclass(frozen=True)
class QuotientSpace:
    """Ambient space modulo the span of a set of vectors, and that span itself.

    The subspace basis is kept as `Echelon` keeps it, in reduced echelon
    form over integer numerators (`_basis`, by pivot); `rows` reads it as
    sparse rows of `Fraction`s, by increasing pivot.  A sparse vector is
    reduced by eliminating its pivot entries, over its numerators, which
    leaves entries at the free columns only and vanishes exactly on the
    subspace; its coset coordinates are the entries at the free columns,
    and a vector of the subspace has its coordinates in the basis at the
    pivots (`coordinates`).  Every entry handed back is a `Fraction`,
    except `numerator_rows`, and the coordinates and the reduction of a
    `NumeratorRow`, which keep its shape.
    """

    ambient_dim: int
    free_columns: tuple[int, ...]
    _basis: IntBasis = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.free_columns)

    @property
    def subspace_dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._basis))

    @cached_property
    def rows(self) -> tuple[SparseRow, ...]:
        return tuple(_fractions(self._basis[p]) for p in self.pivots)

    @property
    def numerator_rows(self) -> tuple[NumeratorRow, ...]:
        """The basis rows as the `NumeratorRow`s it keeps, by increasing pivot; not to be modified."""
        return tuple(self._basis[p] for p in self.pivots)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.pivots)}

    def coordinates(self, v: SparseRow | NumeratorRow) -> Optional[SparseRow | NumeratorRow]:
        """The coordinates of a vector in the reduced basis, by row, in the shape of v; None outside the span.

        v lies in the span exactly when its reduction leaves nothing of it,
        and then its coordinates are its entries at the pivots: a sparse
        row, or (D, {row: n}) for a `NumeratorRow` (D, numerators).
        """
        remainder = _row(v)[1]
        _reduce(remainder, self._basis)
        if remainder:
            return None
        position = self._position
        if type(v) is tuple:
            den, nums = v
            return den, {position[j]: n for j, n in nums.items() if n and j in position}
        return {position[j]: s for j, s in v.items() if j in position}

    def reduce_sparse(self, v: SparseRow | NumeratorRow) -> SparseRow | NumeratorRow:
        """Canonical coset representative of a vector, in the shape of v (over a multiple of D for a `NumeratorRow`)."""
        den, nums = _row(v)
        den *= _reduce(nums, self._basis)
        return (den, nums) if type(v) is tuple else _fractions((den, nums))

    def coset_coordinates(self, v: SparseRow | NumeratorRow) -> Vector:
        """The coordinates of the coset of a vector, a dense tuple of `Fraction`s over the free columns."""
        den, nums = _row(v)
        columns = v[1] if type(v) is tuple else v
        if columns and (min(columns) < 0 or max(columns) >= self.ambient_dim):
            raise DimensionError(f"sparse vector has a column outside 0..{self.ambient_dim - 1}")
        den *= _reduce(nums, self._basis)
        return tuple(Fraction(nums[c], den) if c in nums else ZERO for c in self.free_columns)


def build_quotient(ambient_dim: int, spanning: Sequence[SparseRow | NumeratorRow]) -> QuotientSpace:
    """The quotient by the span of the given rows, each a sparse row of `Fraction`s or a `NumeratorRow`."""
    basis = _spanned(spanning, ambient_dim)._basis
    free_cols = tuple(c for c in range(ambient_dim) if c not in basis)
    return QuotientSpace(ambient_dim, free_cols, basis)


def format_scalar(x: Fraction) -> str:
    return str(x)
