"""Exact linear algebra over the rationals.

Everything in the package ultimately reduces to row reduction of
matrices with `fractions.Fraction` entries, always to the reduced row
echelon form, which is unique for a row space: no pivot is chosen by
magnitude or by the order of the work, so every derived basis is
reproducible byte for byte.

Dense vectors are plain tuples of Fractions: classes of the quotient
complex enter and leave its methods this way.  Scalars given by a
caller go through one conversion, `scalar`, which refuses floats.
Sparse vectors, because the spaces of the package are mostly zero, are
integer numerators over one positive denominator:

* forms and the identities of a category are stored as (D, `IntTerms`):
  the nonzero (index, numerator) pairs, strictly increasing in index,
  in lowest terms (`lowest_terms`), so two equal vectors have equal
  pairs.  The product and differential blocks are stored over one
  denominator per block (`integral_terms`, its flat list cut into the
  rows of a product block by `cut_rows`; `over_one` for rows over
  several).
* elimination takes and gives back a `NumeratorRow` (D, {column: int}),
  the mutable shape.
* `Terms`, the nonzero (index, `Fraction`) pairs by increasing index,
  are input, checked by `checked_terms`, and the view of a form that
  rendering and export read.

Three conversions join them to the `Fraction`s of a caller: `over_lcm`
puts `Fraction`s over the lcm of their denominators, where scalars
enter (`numerator_row` for a dense vector), `densify` writes a
`NumeratorRow` out as a dense vector, and `fraction_terms` makes the
`Fraction` terms of integer pairs, where they leave.  One contraction,
`contract_into`, adds combinations of sparse vectors into a sparse sum:
products and differentials of forms and the induced differential on
classes are made of it, over integers, and so is every law check but
associativity, which runs the same sum over a whole product block in
one call (`contract_block`).

All elimination goes through one kernel, `Echelon`, which takes
`NumeratorRow`s one at a time; a caller that grows a span row by row
(the generating set of `validate_dg`, the expressions of the envelope
builder) holds an `Echelon` itself.  `Echelon` keeps each basis row as
`int` numerators over one positive denominator, the numerator at its
pivot equal to that denominator, with no common factor, so equal rows
have equal pairs.  A row is reduced in one loop, v.d - v[p].row in
`int`s, with no gcd by a row over d = 1 (`_reduce`); the same loop, by
the new row alone, clears a new pivot only from the rows that a column
index lists there, the back-substitution.  A finished span is a
`QuotientSpace`, built by `build_quotient` from `NumeratorRow`s and a
column count; it keeps the integer rows of its `Echelon`, reduces a
vector modulo the span over them (`reduce_sparse`), reads its coset
coordinates off the free columns (`coset_coordinates`), and reads the
coordinates of a vector of the span in its basis, or None outside it
(`coordinates`), deciding membership on the integer remainder.  So
`Echelon` (a basis being grown) and `QuotientSpace` (a finished one)
are the only two span types, and other modules see their rows through
`numerator_rows`.  The chain subspaces of the envelope, the quotient
complex, the span of d that its cohomology reads and the span of the
commutators a cocycle certificate reads are `QuotientSpace`s.

Every row and vector that enters the kernel is a `NumeratorRow` (d,
{column: int}) with d > 0, whose scale a span ignores, and every row,
reduction and coordinate vector it hands back is one, over a
denominator of its own.  Anything else, a dict of `Fraction`s or of
ints, a float or a bool among them, is refused with `ScalarTypeError`.
The ints of the kernel are never divided with `/`, only by an exact
common factor, with `//`.

There is no dense matrix type.  `rref` hands `build_quotient` the
nonzeros of any dense matrix given by its `rows`, `cols` and
`entries`, which must be Fractions, each row put over integers at its
door, and returns the rows and pivots of the span.  No library module
calls it; it stays because the benchmark's tracer
(`perfbench/tracing.py`) wraps `exact_linalg.rref` by name and reads
the shape of its argument.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import DimensionError, ScalarTypeError

Vector = tuple[Fraction, ...]
# the nonzero (index, coefficient) pairs of a vector, by increasing index
Terms = tuple[tuple[int, Fraction], ...]
# the nonzero (index, numerator) pairs of a vector over a denominator, by increasing index
IntTerms = tuple[tuple[int, int], ...]
# a sparse row of integer numerators, by column
IntRow = dict[int, int]
# a row as (d, numerators), d a positive int: the numerators divided by d
NumeratorRow = tuple[int, IntRow]

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = frozenset({int})  # the one type of a numerator


# the decimal exponent that ends a scalar string such as "1.5e-3": its digits
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")
# a run of digits, with the underscores Python allows between them
_DIGITS = re.compile(r"[0-9][0-9_]*")


def _shown(value: object) -> str:
    """The repr of an input scalar for a message, cut after its first 60 characters."""
    if isinstance(value, str):
        return repr(value if len(value) <= 60 else value[:60] + "...")
    return f"{value!r:.60}"


def scalar(value: object, where: str = "scalar") -> Fraction:
    """The one conversion of input scalars: exact values only.

    A `Fraction` is kept, an `int` or a "p/q" string is converted
    exactly.  Anything else, a float, a bool or a string that is no
    rational number included, raises `ScalarTypeError` naming `where`: a
    float is already rounded, so its `Fraction` would be exact about the
    wrong number.  So does a string past Python's limit on the digits of
    an integer string, `sys.get_int_max_str_digits()` (0 for none),
    before `Fraction` reads it: a decimal exponent larger in magnitude
    ("1e999999999" would build an integer of a billion digits), or a run
    of more digits, underscores not counted.  A message shows at most 60
    characters of the value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ScalarTypeError(
            f"{where} is {_shown(value)} of type {type(value).__name__}, not a Fraction, an int or a string")
    if isinstance(value, str) and (limit := sys.get_int_max_str_digits()):
        if exponent := _EXPONENT.search(value):
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(limit)) or int(digits or "0") > limit:
                raise ScalarTypeError(f"{where} is {_shown(value)}, whose decimal exponent exceeds {limit} in "
                                      "magnitude, the limit on integer digits")
        if len(value) > limit and any(len(run) - run.count("_") > limit for run in _DIGITS.findall(value)):
            raise ScalarTypeError(
                f"{where} is {_shown(value)}, with more than {limit} digits in a row, the limit on integer digits")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarTypeError(f"{where} is {_shown(value)}, not a rational scalar") from exc


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


def contract_into(out: IntRow, coefficients: Iterable[tuple[int, int]], vectors, m: int = 1) -> IntRow:
    """Add m * s * vectors[a] to the sparse vector `out`, over (a, s) in `coefficients`.

    The entries are integer numerators; a sum may leave cancelled zeros
    in `out`.
    """
    for a, s in coefficients:
        if m != 1:
            s *= m
        for c, t in vectors[a]:
            out[c] = out.get(c, 0) + s * t
    return out


def contract_block(lefts: Iterable, columns: Sequence, block: Iterable, vectors, m: int = 1) -> list:
    """The entries (j, k), by j, then k, where lefts[j].columns[k] + m * block[j][k].vectors is nonzero.

    u.A is the sum of s * A[a] over (a, s) in u, as in `contract_into`,
    for a whole block in one call; an entry where lefts[j] and block[j][k]
    both have no terms is 0 and skipped.
    """
    found = []
    for j, (left, row) in enumerate(zip(lefts, block)):
        for k, (column, entry) in enumerate(zip(columns, row)):
            if left or entry:
                out: IntRow = {}
                for a, s in left:
                    for c, t in column[a]:
                        out[c] = out.get(c, 0) + s * t
                for a, s in entry:
                    s *= m
                    for c, t in vectors[a]:
                        out[c] = out.get(c, 0) + s * t
                if out and any(out.values()):
                    found.append((j, k))
    return found


def cut_rows(flat: list, width: int) -> list:
    """A flat list cut into rows of the given width; no rows when it is 0."""
    return [flat[i:i + width] for i in range(0, len(flat), width)] if width else []


def numerator_row(v: Sequence[Fraction]) -> NumeratorRow:
    """The nonzero entries of a dense vector of Fractions as a `NumeratorRow` over the lcm of their denominators."""
    # `x is not ZERO` settles the common zero, the shared constant, without
    # calling into Fraction
    den, nums = over_lcm([(j, x) for j, x in enumerate(v) if x is not ZERO and x])
    return den, dict(nums)


def densify(row: NumeratorRow, n: int) -> Vector:
    """The dense vector of length n of a `NumeratorRow`, one `Fraction` per entry."""
    den, nums = row
    out = [ZERO] * n
    for j, x in nums.items():
        out[j] = Fraction(x, den)
    return tuple(out)


def over_one(rows: Iterable[NumeratorRow]) -> tuple[int, list[IntTerms]]:
    """`NumeratorRow`s over the lcm of their denominators, as (D, [IntTerms]): each row as its sorted (k, n) pairs."""
    rows = list(rows)
    den = lcm(*[d for d, _ in rows])
    return den, [tuple(sorted([(k, n * (den // d)) for k, n in nums.items()])) for d, nums in rows]


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


# -- the elimination kernel, over integer numerators -------------------------

# a reduced basis row as (d, numerators) with d > 0, the numerator at its
# pivot equal to d and no common factor of d and the numerators: so the row
# is the numerators divided by d, and equal rows have equal pairs
IntBasis = dict[int, tuple[int, IntRow]]


def checked_row(given: NumeratorRow) -> tuple[int, IntRow]:
    """A `NumeratorRow` as (d, a new dict of its nonzero numerators): the check at every door that takes one.

    Anything else, a dict of `Fraction`s or a float or bool entry among
    them, raises `ScalarTypeError`: it is refused, not reduced in
    whatever arithmetic it brings.  Every entry's type is checked; the
    row is then copied, and its zeros filtered only where there are any.
    """
    d, nums = given if type(given) is tuple and len(given) == 2 else (0, None)
    if type(d) is not int or d <= 0 or type(nums) is not dict or not _INT.issuperset(map(type, nums.values())):
        raise ScalarTypeError(f"a row is a numerator row (d, {{column: int}}) with d a positive int, not {given!r:.60}")
    return d, {j: n for j, n in nums.items() if n} if 0 in nums.values() else nums.copy()


def _primitive(den: int, nums: IntRow) -> tuple[int, IntRow]:
    """A basis row over the gcd of its denominator and numerators, a divisor of den, its pivot numerator."""
    if den != 1 and (g := gcd(den, *nums.values())) != 1:
        return den // g, {j: n // g for j, n in nums.items()}
    return den, nums


def _reduce(v: IntRow, basis: IntBasis) -> int:
    """Reduce numerators v in place by a reduced basis; the factor by which v was scaled.

    Each basis row vanishes at every pivot but its own, so one pass over
    the pivots p in v's support clears them all: v becomes v * den / g -
    v[p] / g * row, with g = gcd(den, v[p]) taken only when den is not 1.
    The entries that cancel are dropped, so v ends up as the remainder
    times the returned factor, with no entry at a pivot, and is empty
    exactly when it lay in the span.
    """
    scale = 1
    for p in list(v):
        if (b := basis.get(p)) is None:
            continue
        den, row = b
        f = v[p]
        if den != 1:
            g = gcd(den, f)
            m, f = den // g, f // g
            if m != 1:
                scale *= m
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
    return scale


def _in_range(nums: IntRow, n: int, what: str) -> None:
    """Refuse, with `DimensionError` saying what "... has a column", numerators with an index outside 0..n-1."""
    if nums and (min(nums) < 0 or max(nums) >= n):
        raise DimensionError(f"{what} outside 0..{n - 1}")


class Echelon:
    """A reduced echelon basis grown one row at a time.

    The basis is kept over integer numerators: each row as (d,
    numerators), its pivot numerator equal to d, so the row is 1 at its
    pivot and 0 at every other pivot; the row is sign-normalised and
    divided by the gcd of d and its numerators.  `add` reduces the copy
    of a row that `checked_row` passes in one loop (`_reduce`),
    cross-multiplying only by a row over d > 1.  A
    nonzero remainder joins the basis with its first column p as pivot,
    over a gcd only where its numerator there is not 1, and p is cleared
    from the older rows that `_users` lists there (`_reduce` by the new
    row alone), not from every row: `_users` maps a column to the pivots
    of the rows that may be nonzero in it, a superset, since an entry
    that cancels leaves its pivot listed.

    `numerator_rows` maps each pivot to its row as kept.  The unit vector
    e_k lies in the span exactly when the row at pivot k is e_k itself
    (`spans_unit`).
    """

    def __init__(self) -> None:
        self._basis: IntBasis = {}
        self._users: dict[int, list[int]] = {}

    @property
    def numerator_rows(self) -> dict[int, NumeratorRow]:
        """Each pivot's row as the `NumeratorRow` the basis keeps, by pivot; not to be modified, and valid until `add`."""
        return dict(sorted(self._basis.items()))

    def add(self, given: NumeratorRow) -> Optional[int]:
        """Add a `NumeratorRow`, left unmodified; its pivot, or None if in the span."""
        v = checked_row(given)[1]
        basis, users = self._basis, self._users
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
            dq *= _reduce(row, {p: (d, v)})
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


def rref(m) -> tuple[tuple[NumeratorRow, ...], tuple[int, ...]]:
    """The reduced rows and pivots of a dense matrix with `rows`, `cols` and Fraction `entries`, from `build_quotient`.

    Each row is put over integers here; an entry that is not a Fraction,
    an int or a float among them, raises `ScalarTypeError`.
    """
    if not all(isinstance(x, Fraction) for row in m.entries for x in row):
        raise ScalarTypeError("dense matrix entries must be Fractions")
    span = build_quotient(m.cols, [numerator_row(row) for row in m.entries])
    return span.numerator_rows, span.pivots


@dataclass(frozen=True)
class QuotientSpace:
    """Ambient space modulo the span of a set of vectors, and that span itself.

    The subspace basis is kept as `Echelon` keeps it, in reduced echelon
    form over integer numerators (`_basis`, by pivot); `numerator_rows`
    reads it by increasing pivot.  A vector, a `NumeratorRow`, is reduced
    by eliminating its pivot entries, over its numerators, which leaves
    entries at the free columns only and vanishes exactly on the
    subspace; its coset coordinates are the entries at the free columns,
    and a vector of the subspace has its coordinates in the basis at the
    pivots (`coordinates`).  Each comes back as a `NumeratorRow`; each
    door reduces through `reduce_sparse`, which refuses a column outside
    0..ambient_dim-1 with `DimensionError`.
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
    def numerator_rows(self) -> tuple[NumeratorRow, ...]:
        """The basis rows as the `NumeratorRow`s it keeps, by increasing pivot; not to be modified."""
        return tuple(self._basis[p] for p in self.pivots)

    @cached_property
    def _position(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.pivots)}

    @cached_property
    def _free_position(self) -> dict[int, int]:
        return {c: k for k, c in enumerate(self.free_columns)}

    def coordinates(self, v: NumeratorRow) -> Optional[NumeratorRow]:
        """The coordinates (D, {row: n}) of a vector (D, numerators) in the reduced basis; None outside the span.

        v lies in the span exactly when its reduction leaves nothing of it,
        and then its coordinates are its entries at the pivots.
        """
        if self.reduce_sparse(v)[1]:
            return None
        position = self._position
        return v[0], {position[j]: n for j, n in v[1].items() if n and j in position}

    def reduce_sparse(self, v: NumeratorRow) -> NumeratorRow:
        """Canonical coset representative of a vector, over a multiple of its denominator."""
        den, nums = checked_row(v)
        _in_range(nums, self.ambient_dim, "sparse vector has a column")
        den *= _reduce(nums, self._basis)
        return den, nums

    def coset_coordinates(self, v: NumeratorRow) -> NumeratorRow:
        """The coset coordinates (D', {k: n}) of a vector, n / D' its entry at `free_columns[k]`; D' a multiple of D."""
        den, nums = self.reduce_sparse(v)
        position = self._free_position
        return den, {position[c]: n for c, n in nums.items()}


def build_quotient(ambient_dim: int, spanning: Sequence[NumeratorRow]) -> QuotientSpace:
    """The quotient by the span of the given `NumeratorRow`s, which must lie in 0..ambient_dim-1."""
    echelon = Echelon()
    for given in spanning:
        echelon.add(given)  # which checks the row first
        _in_range(given[1], ambient_dim, "sparse row has a column")
    basis = echelon._basis
    free_cols = tuple(c for c in range(ambient_dim) if c not in basis)
    return QuotientSpace(ambient_dim, free_cols, basis)


def format_scalar(x: Fraction) -> str:
    return str(x)
