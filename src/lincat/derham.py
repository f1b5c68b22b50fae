"""Quotient complex of diagonal forms modulo graded commutators.

Degree n of the complex is the direct sum of the endomorphism form
spaces of all objects, divided by the span of graded commutators
u.v - (-1)^(pq) v.u taken over opposed pairs of forms (u from y to x of
degree p, v from x to y of degree q = n - p), each difference embedded
at its two base objects.

The quotient is built from fewer commutators.  In a graded associative
category, [ab, c] = [a, bc] + (-1)^(|a|(|b|+|c|)) [b, ca], so by
induction on the length of a left-normed word (..(g1.g2)...).gk the
commutator of a word with any form is a combination of the [g, v] with
g in G and v a form.  When the words of G, the generating set of
`validate_dg`, span every basis form, the commutators of degree n are
therefore spanned by the [g, v] with g in G and v a basis form of
degree n - |g| (`generator_span`, numerator rows summed over integer
blocks); truncation is a quotient by an ideal, so the identity holds
in the truncated category too.  It needs associativity, so the
quotient is built only when the laws hold on G (`certified_generators`,
which `validate_dg` shares).  Tables that fail a law there are no DG
category, and their quotient is not the complex of the paper, so
`get_complex` refuses them with `CategoryAxiomError`, naming the first
violation of `validate_category` and `validate_dg`.

The differential descends to the quotient, and that it does is checked
rather than assumed: the reduced echelon rows of each commutator
subspace span it and d is linear, so d maps commutators to commutators
exactly when it maps those rows into the next commutator subspace.
Each of them is checked, in exact arithmetic, and a failure raises
`LincatError`.

An ambient diagonal vector of degree n (the degree-n endomorphism
forms of all objects, stacked at `component_offsets[n]`) is a
`NumeratorRow` (D, {column: int}), and so is every commutator.  A trace
form enters by its numerators (`ambient_row`), d maps numerator rows to
numerator rows (`ambient_d`), and a class is read off the reduced row at
the free columns of the quotient (`class_of_trace`, and `render_class`
the other way).  d is stored once per degree in one shape, integer
columns over one denominator: on the ambient diagonal space, and,
induced, on the classes (`d_columns`), and `contract_into` applies
either.  Cohomology eliminates those columns as numerator rows through
`echelon`: the image of d is their span, its kernel is read off the
echelon form of the columns augmented by unit vectors, and a primitive
is a `solve_rows` on their transpose, built once per degree on first
use.  So is the system a cocycle certificate solves
(`commutator_system`), in the degree it asks for: the full span, one
commutator of basis forms per pair, as numerator rows, with their
integer transpose.  A certificate cites a commutator by its index in
that span, and `commutator_label` names it.  Classes enter and leave as
dense tuples of `Fraction` coordinates, converted once at that door
(`numerator_row` in, `densify` out).

Degree 0 of this complex is the plain trace quotient of the base
category, and for a one-object category it is the usual abelianization
of a differential graded algebra.  So `get_complex(trivial_dg(c))` at
degree 0 is the trace quotient of a category c; the package has no
other implementation of it.

The top truncation degree is special: its cohomology is computed for
the truncated complex (differential out of the top treated as zero) and
flagged as unreliable, since forms one degree higher were cut off.

The stratified extension at the end of the module carries classes with
polynomial coefficients plus an infinitesimal part one degree lower,
present in every degree: under degree 0 its classes are the empty
classes of degree -1, where the complex is zero.  It provides the
evaluation maps at chosen parameter values and an integration operator
whose homotopy identity against the differential is exact, which is the
engine behind the invariance certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .category import validate_category
from .dg import DGCategory, Form, certified_generators, render_terms, stacked, validate_dg
from .errors import CategoryAxiomError, DimensionError, LincatError
from .exact_linalg import (
    IntTerms,
    NumeratorRow,
    QuotientSpace,
    Vector,
    build_quotient,
    checked_row,
    contract_into,
    densify,
    echelon,
    is_zero_vector,
    numerator_row,
    offsets,
    over_one,
    scalar,
    solve_rows,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)

# ---------------------------------------------------------------------------
# the quotient complex


def generator_span(w: DGCategory, n: int, gens: Sequence[Form]) -> list[NumeratorRow]:
    """The graded commutators [g, v] of degree n, g in `gens` and v a basis form, embedded diagonally.

    For g of degree p from y to x, v runs over the basis forms of degree
    q = n - p from x to y, and g.v - (-1)^(pq) v.g has g.v at x and v.g
    at y.  Each is a `NumeratorRow` of its nonzero entries, summed over
    the blocks of `integral_products`, each block cross-multiplied by the
    other's denominator.  Every [g, v] is a combination of the
    commutators of basis forms, and when G is the generating set of
    `validate_dg` and the laws hold on it, they span all of them, by the
    identity in the module docstring.
    """
    nobj = len(w.base.objects)
    offs = offsets(w.dim(n, x, x) for x in range(nobj))
    out: list[NumeratorRow] = []
    for g in gens:
        p, x, y = g.degree, g.cod.index, g.dom.index
        q = n - p
        dq = w.dim(q, y, x)
        if dq == 0:
            continue
        sign = -1 if (p * q) % 2 else 1
        (fwd_den, fwd_block), (bwd_den, bwd_block) = (
            w.integral_products(p, q, x, y, x),  # g.v, endomorphism form at x
            w.integral_products(q, p, y, x, y))  # v.g, endomorphism form at y
        den = lcm(fwd_den, bwd_den)
        off_x, off_y = offs[x], offs[y]
        # each term of g with its numerator in g.v and in -(-1)^(pq) v.g
        terms = [(fwd_block[i], i, a * (den // fwd_den), -sign * a * (den // bwd_den)) for i, a in g.nums]
        for j in range(dq):
            row: dict[int, int] = {}
            for fwd, i, a, b in terms:
                for k, s in fwd[j]:
                    row[off_x + k] = row.get(off_x + k, 0) + a * s
                for k, s in bwd_block[j][i]:
                    row[off_y + k] = row.get(off_y + k, 0) + b * s
            out.append((g.den * den, {k: s for k, s in row.items() if s}))
    return out


def _basis_forms(w: DGCategory, n: int) -> list[Form]:
    """Every basis form of degree 0..n, by degree, endpoints (x, y) and index: the generators of the full span."""
    blocks = itertools.product(range(n + 1), enumerate(w.base.objects), enumerate(w.base.objects))
    return [Form(p, oy, ox, 1, ((i, 1),)) for p, (x, ox), (y, oy) in blocks for i in range(w.dim(p, x, y))]


def commutator_label(w: DGCategory, n: int, j: int) -> str:
    """The label [u, v]@(x,y) of commutator j of the full degree-n span, which runs over (p, x, y), then u, then v."""
    objs = w.base.objects
    rest = j
    for p, (x, ox), (y, oy) in itertools.product(range(n + 1), enumerate(objs), enumerate(objs)):
        labels_u, labels_v = w.space_labels(p, x, y), w.space_labels(n - p, y, x)
        if rest < len(labels_u) * len(labels_v):
            i, k = divmod(rest, len(labels_v))
            return f"[{labels_u[i]}, {labels_v[k]}]@({ox.label},{oy.label})"
        rest -= len(labels_u) * len(labels_v)
    raise DimensionError(f"no commutator {j} in the degree-{n} span")


class DeRhamComplex:
    """Diagonal forms modulo graded commutators, with induced differential."""

    def __init__(self, w: DGCategory):
        # the envelope memoizes its complex (`get_complex`), so the complex
        # keeps only what it reads and no reference back: each pair is
        # freed by reference counting, not by the cyclic collector
        self.truncation = N = w.truncation
        self.base = w.base
        nobj = len(w.base.objects)
        self._labels = [tuple(w.space_labels(n, x, x) for x in range(nobj)) for n in range(N + 1)]

        self.component_dims: list[tuple[int, ...]] = []
        self.component_offsets: list[tuple[int, ...]] = []
        for n in range(N + 1):
            dims = tuple(w.dim(n, x, x) for x in range(nobj))
            self.component_dims.append(dims)
            self.component_offsets.append(offsets(dims))

        gens, lawful = certified_generators(w)
        if not lawful:
            # a law that fails at degree 0 alone is one of the category's
            violations = validate_category(w.base) + validate_dg(w)
            raise CategoryAxiomError(
                f"laws fail ({len(violations)} violation(s), first {violations[0].kind} at "
                f"{violations[0].where}); no quotient complex is built", violations)
        # the commutators of each degree, spanned by [g, v] with g in G
        self.quotients: list[QuotientSpace] = [
            build_quotient(self.ambient_dim(n), generator_span(w, n, gens)) for n in range(N + 1)
        ]
        # d on the ambient diagonal space of each degree, as (D, columns):
        # column j is D times d of the j-th basis vector, zero out of the top
        self._ambient_columns: list[tuple[int, list[IntTerms]]] = [self._ambient_d_columns(w, n) for n in range(N + 1)]

        # the induced differential, as (D, columns): column k of degree n is
        # D times the class of d(e_c), e_c lifting the k-th unit class,
        # indexed by the classes of degree n + 1; out of the top degree zero
        self.d_columns: list[tuple[int, list[IntTerms]]] = []
        for n in range(N):
            qn, qn1 = self.quotients[n], self.quotients[n + 1]
            # the echelon rows span the degree-n commutators and d is linear,
            # so d preserves commutators exactly when it does on these rows
            for row in qn.numerator_rows:
                if qn1.reduce_sparse(self.ambient_d(n, row))[1]:
                    raise LincatError(
                        f"degree-{n} commutators are not closed under d; the graded tables are inconsistent"
                    )
            den, columns = self._ambient_columns[n]
            self.d_columns.append(over_one(qn1.coset_coordinates((den, dict(columns[c]))) for c in qn.free_columns))
        self.d_columns.append((1, [()] * self.dim(N)))
        # the two linear systems solved against this complex, each built on
        # first use in a degree and kept: the full commutator span of
        # `commutator_system`, with its rows, and d, by rows
        self._commutator_systems: dict[int, tuple[list[NumeratorRow], list[NumeratorRow]]] = {}
        self._d_rows: dict[int, list[NumeratorRow]] = {}

    def _ambient_d_columns(self, w: DGCategory, n: int) -> tuple[int, list[IntTerms]]:
        # the blocks of the objects in object order, over the lcm of their
        # denominators; out of the top degree every column is empty
        blocks = [w.integral_diff(n, x, x) for x in range(len(self.base.objects))]
        den = lcm(*[block_den for block_den, _ in blocks])
        columns: list[IntTerms] = []
        for x, (block_den, cols) in enumerate(blocks):
            off1 = self.component_offsets[n + 1][x] if n < self.truncation else 0
            columns.extend(tuple((off1 + i, s * (den // block_den)) for i, s in col) for col in cols)
        return den, columns

    # -- ambient diagonal vectors -----------------------------------------

    def ambient_dim(self, n: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        return sum(self.component_dims[n])

    def ambient_row(self, degree: int, forms: Sequence[Form]) -> NumeratorRow:
        """The ambient diagonal vector of one degree-n endomorphism form per object, as a `NumeratorRow`."""
        if len(forms) != len(self.base.objects):
            raise DimensionError("need one component per object")
        for x, f in enumerate(forms):
            if f.degree != degree or f.dom.index != x or f.cod.index != x:
                raise DimensionError(f"component {x} is not a degree-{degree} endomorphism form of object {x}")
        if degree < 0 or degree > self.truncation:
            # no forms live there, so every component is zero
            return 1, {}
        return stacked(forms, self.component_offsets[degree])

    def ambient_d(self, n: int, v: NumeratorRow) -> NumeratorRow:
        """Apply d componentwise to an ambient diagonal vector of degree n, a `NumeratorRow`; its zeros dropped."""
        v_den, nums = checked_row(v)
        if not nums:
            return 1, {}
        if not 0 <= n <= self.truncation or min(nums) < 0 or max(nums) >= len(self._ambient_columns[n][1]):
            raise DimensionError(f"sparse vector has a column outside the ambient space of degree {n}")
        den, columns = self._ambient_columns[n]
        out = contract_into({}, nums.items(), columns)
        return v_den * den, {i: s for i, s in out.items() if s}

    # -- classes ------------------------------------------------------------

    def dim(self, n: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        return self.quotients[n].dim

    def class_of_trace(self, degree: int, forms: Sequence[Form]) -> Vector:
        """The class of the diagonal form with one degree-n endomorphism form per object."""
        row = self.ambient_row(degree, forms)
        if degree < 0 or degree > self.truncation:
            return ()
        return densify(self.quotients[degree].coset_coordinates(row), self.dim(degree))

    def d_class(self, n: int, coords: Vector) -> Vector:
        """The induced differential on classes, degree n to n + 1."""
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        coords = vec(coords)
        if n < 0 or n > self.truncation:
            # d out of a zero space: the zero class of degree n + 1
            return zero_vector(self.dim(n + 1))
        den, nums = numerator_row(coords)
        d_den, columns = self.d_columns[n]
        return densify((den * d_den, contract_into({}, nums.items(), columns)), self.dim(n + 1))

    # -- cohomology ----------------------------------------------------------

    def image_basis(self, n: int) -> tuple[NumeratorRow, ...]:
        """Reduced echelon basis of the image of d arriving in degree n, as numerator rows."""
        if n <= 0 or n > self.truncation:
            return ()
        den, columns = self.d_columns[n - 1]
        return echelon(((den, dict(col)) for col in columns), self.dim(n))[0]

    def kernel_basis_of_d(self, n: int) -> tuple[NumeratorRow, ...]:
        """Reduced echelon basis of the kernel of d out of degree n, as numerator rows.

        An echelon row of the augmented rows [d(e_k) | e_k] has its pivot
        in the e-part exactly when its d-part is zero, so the e-parts of
        those rows lie in the kernel, and they span it.  Over the
        denominator D of the columns, the unit e_k has numerator D.
        """
        if n < 0 or n > self.truncation:
            return ()
        m = self.dim(n + 1)
        den, columns = self.d_columns[n]
        augmented = ((den, dict(col + ((m + k, den),))) for k, col in enumerate(columns))
        rows, pivots = echelon(augmented, m + self.dim(n))
        return tuple((d, {j - m: x for j, x in nums.items()}) for (d, nums), p in zip(rows, pivots) if p >= m)

    def betti(self, n: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        return len(self.kernel_basis_of_d(n)) - len(self.image_basis(n))

    def truncation_reliable(self, n: int) -> bool:
        """Top-degree kernels may shrink once higher forms are restored."""
        return n < self.truncation

    def harmonic_representatives(self, n: int) -> tuple[Vector, ...]:
        """One closed class per cohomology generator, canonically reduced."""
        if n < 0 or n > self.truncation:
            return ()
        image = self.image_basis(n)
        kernel = self.kernel_basis_of_d(n)
        quotient = build_quotient(self.dim(n), image)
        reps, _ = echelon((quotient.reduce_sparse(v) for v in kernel), self.dim(n))
        if len(reps) != len(kernel) - len(image):
            raise LincatError(f"degree-{n} representative count disagrees with the rank computation")
        return tuple(densify(r, self.dim(n)) for r in reps)

    def is_coboundary(self, n: int, coords: Vector) -> Optional[Vector]:
        """A primitive class one degree lower, or None when there is none.

        No d arrives in degree 0 or outside the complex, so there only
        the zero class has a primitive: the zero class of degree n - 1.
        """
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        coords = vec(coords)
        if n <= 0 or n > self.truncation:
            return zero_vector(self.dim(n - 1)) if is_zero_vector(coords) else None
        # the rows of d out of degree n - 1, read off its columns once
        rows = self._d_rows.get(n)
        if rows is None:
            den, columns = self.d_columns[n - 1]
            rows = self._d_rows[n] = [(den, row) for row in _transpose(columns, self.dim(n))]
        x = solve_rows(rows, self.dim(n - 1), numerator_row(coords))
        return None if x is None else densify(x, self.dim(n - 1))

    def euler_characteristics(self) -> tuple[int, int]:
        """Alternating sums of space dimensions and of cohomology ranks."""
        lhs = sum((-1) ** n * self.dim(n) for n in range(self.truncation + 1))
        rhs = sum((-1) ** n * self.betti(n) for n in range(self.truncation + 1))
        return lhs, rhs

    # -- rendering ------------------------------------------------------------

    def render_class(self, n: int, coords: Vector) -> str:
        """The canonical representative of a class, written out per object.

        The representative has the class coordinates at the free columns
        and zeros elsewhere, so each coordinate is one term of the
        component of the object whose block holds its column.
        """
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        coords = vec(coords)
        if n < 0 or n > self.truncation:
            return "0"
        entries = [(c, s) for c, s in zip(self.quotients[n].free_columns, coords) if s]
        pieces = []
        for o, labels, off, d in zip(self.base.objects, self._labels[n], self.component_offsets[n],
                                     self.component_dims[n]):
            terms = tuple((c - off, s) for c, s in entries if off <= c < off + d)
            if terms:
                pieces.append(f"{o.label}: {render_terms(labels, terms)}")
        return "; ".join(pieces) if pieces else "0"


def _transpose(columns: Sequence[Iterable[tuple[int, int]]], nrows: int) -> list[dict[int, int]]:
    """The rows of the matrix with the given sparse columns, each given by its (row, entry) pairs."""
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, x in column:
            rows[i][j] = x
    return rows


def get_complex(w: DGCategory) -> DeRhamComplex:
    """Memoized quotient complex of a graded category."""
    if w._derham is None:
        w._derham = DeRhamComplex(w)
    return w._derham


def commutator_system(w: DGCategory, n: int) -> tuple[list[NumeratorRow], list[NumeratorRow]]:
    """The full commutator span of degree n, and its numerators as a linear system, by rows.

    The span is `generator_span` over every basis form, one `NumeratorRow`
    (D_j, numerators) per pair of opposed basis forms.  Row i of the
    system is (1, {j: n}), n the numerator of commutator j at coordinate
    i.  Both are built on first use in a degree and kept on
    `get_complex(w)`; they are not to be modified.
    """
    rh = get_complex(w)
    system = rh._commutator_systems.get(n)
    if system is None:
        span = generator_span(w, n, _basis_forms(w, n))
        rows = [(1, row) for row in _transpose([nums.items() for _, nums in span], rh.ambient_dim(n))]
        system = rh._commutator_systems[n] = span, rows
    return system


# ---------------------------------------------------------------------------
# stratified classes with a polynomial parameter and an infinitesimal part


@dataclass(frozen=True)
class TildeCochain:
    """Class-level cochain: polynomial strata plus an infinitesimal part.

    `part0[i]` is the class multiplying t^i in the main component;
    `part1[i]` the class multiplying t^i.e, one degree lower.  Both run
    over 0 <= i <= t_bound of the ambient complex.  Under degree 0 each
    `part1[i]` is the empty class of degree -1.
    """

    degree: int
    part0: tuple[Vector, ...]
    part1: tuple[Vector, ...]


class TildeComplex:
    """Cochain operations for the stratified extension of a quotient complex."""

    def __init__(self, rh: DeRhamComplex, t_bound: int):
        if t_bound < 0:
            raise DimensionError("t-degree bound must be non-negative")
        self.rh = rh
        self.t_bound = t_bound

    def _pad(self, degree: int, part: int, classes: Sequence[Vector]) -> tuple[Vector, ...]:
        """The classes of part 0 or 1 of a degree-`degree` cochain, one per t^i, i = 0..t_bound."""
        D, dim = self.t_bound, self.rh.dim(degree - part)
        for i, v in enumerate(classes):
            if len(v) != dim:
                raise DimensionError(
                    f"degree-{degree} cochain, part {part}, stratum t^{i}: "
                    f"expected {dim} class coordinates, got {len(v)}"
                )
        if len(classes) > D + 1:
            for extra in classes[D + 1:]:
                if not is_zero_vector(extra):
                    raise DimensionError("polynomial degree exceeds the stratification bound")
            classes = classes[:D + 1]
        pad = [zero_vector(dim)] * (D + 1 - len(classes))
        return tuple(vec(v) for v in classes) + tuple(pad)

    def cochain(self, degree: int, part0: Sequence[Vector], part1: Sequence[Vector]) -> TildeCochain:
        return TildeCochain(degree, self._pad(degree, 0, list(part0)), self._pad(degree, 1, list(part1)))

    def cochain_from_traces(
        self,
        degree: int,
        part0_traces: Sequence[Sequence[Form]],
        part1_traces: Sequence[Sequence[Form]],
    ) -> TildeCochain:
        p0 = [self.rh.class_of_trace(degree, comps) for comps in part0_traces]
        p1 = [self.rh.class_of_trace(degree - 1, comps) for comps in part1_traces]
        return self.cochain(degree, p0, p1)

    def is_zero(self, a: TildeCochain) -> bool:
        return all(is_zero_vector(v) for v in a.part0 + a.part1)

    def delta(self, a: TildeCochain) -> TildeCochain:
        """Differential: d on strata, with the t-derivative feeding the e-part."""
        n = a.degree
        D = self.t_bound
        p0 = tuple(self.rh.d_class(n, v) for v in a.part0)
        sign = Fraction(1 if (n + 1) % 2 == 0 else -1)
        tdot = [vec_scale(Fraction(i + 1), a.part0[i + 1]) for i in range(D)] + [zero_vector(self.rh.dim(n))]
        p1 = tuple(vec_add(vec_scale(sign, u), self.rh.d_class(n - 1, v)) for u, v in zip(tdot, a.part1))
        return TildeCochain(n + 1, p0, p1)

    def ev_at(self, a: TildeCochain, t) -> Vector:
        """Evaluation of the main component at a parameter value."""
        t = scalar(t)
        out = zero_vector(self.rh.dim(a.degree))
        power = Fraction(1)
        for v in a.part0:
            out = vec_add(out, vec_scale(power, v))
            power *= t
        return out

    def integral_k(self, a: TildeCochain) -> Vector:
        """Integrate the e-part over [0, 1], with the degree sign."""
        n = a.degree
        out = zero_vector(self.rh.dim(n - 1))
        for i, v in enumerate(a.part1):
            out = vec_add(out, vec_scale(Fraction(1, i + 1), v))
        sign = Fraction(1 if n % 2 == 0 else -1)
        return vec_scale(sign, out)

    def homotopy_defect(self, a: TildeCochain) -> Vector:
        """k(delta a) + d(k(a)) - ev_1(a) + ev_0(a); zero by the exact identity."""
        n = a.degree
        out = self.integral_k(self.delta(a))
        out = vec_add(out, self.rh.d_class(n - 1, self.integral_k(a)))
        out = vec_sub(out, self.ev_at(a, 1))
        return vec_add(out, self.ev_at(a, 0))
