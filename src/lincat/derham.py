"""Quotient complex of diagonal forms modulo graded commutators.

Degree n of the complex is the direct sum of the endomorphism form
spaces of all objects, divided by the span of graded commutators
u.v - (-1)^(pq) v.u taken over opposed pairs of forms (u from y to x of
degree p, v from x to y of degree q = n - p), each difference embedded
at its two base objects.  The differential descends to the quotient,
and that it does is checked rather than assumed: the reduced echelon
rows of each commutator subspace span it and d is linear, so d maps
commutators to commutators exactly when it maps those rows into the
next commutator subspace.  Each of them is checked, in exact arithmetic,
and a failure raises `LincatError`.

An ambient diagonal vector of degree n (the degree-n endomorphism
forms of all objects, stacked at `component_offsets[n]`) is a sparse
row, and so is every commutator.  A trace form enters by its terms
(`ambient_row`), d maps sparse rows to sparse rows (`ambient_d`), and a
class is read off the reduced row at the free columns of the quotient
(`class_of_trace`, and `render_class` the other way).  d is stored once
per degree as sparse columns, on the ambient diagonal space and,
induced, on the classes (`d_columns`).  Cohomology runs on those
columns through `echelon`: the image of d is their span, its kernel is
read off the echelon form of the columns augmented by unit vectors, and
a primitive is a `solve_rows` on their transpose.  That transpose, and
the transposed commutator span that a cocycle certificate solves
against (`commutator_rows`), are built once per degree, on first use.
Classes enter and leave as dense tuples of coordinates.

Degree 0 of this complex is the plain trace quotient of the base
category, and for a one-object category it is the usual abelianization
of a differential graded algebra.  So `get_complex(trivial_dg(c))` at
degree 0 is the trace quotient of a category c; the package has no
other implementation of it.

The top truncation degree is special: its cohomology is computed for
the truncated complex (differential out of the top treated as zero) and
flagged as unreliable, since forms one degree higher were cut off.

The stratified extension at the end of the module carries classes with
polynomial coefficients plus an infinitesimal part.  It provides the
evaluation maps at chosen parameter values and an integration operator
whose homotopy identity against the differential is exact, which is the
engine behind the invariance certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dg import DGCategory, Form, render_terms
from .errors import DimensionError, LincatError
from .exact_linalg import (
    ONE,
    ZERO,
    QuotientSpace,
    SparseRow,
    Vector,
    add_scaled,
    build_quotient,
    densify,
    echelon,
    is_zero_vector,
    offsets,
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


def commutator_span(w: DGCategory, n: int) -> list[tuple[SparseRow, str]]:
    """Graded commutators of basis forms, embedded diagonally, degree n.

    Each generator u.v - (-1)^(pq) v.u, one per pair of opposed basis
    forms, comes with a printable label so a certificate can cite the
    exact commutators it combines.  The products are read straight from
    the composition tensors, and each vector keeps its nonzero entries
    only, indexed in the ambient diagonal space of degree n.
    """
    nobj = len(w.base.objects)
    offs = offsets(w.dim(n, x, x) for x in range(nobj))
    out: list[tuple[SparseRow, str]] = []
    for p in range(0, n + 1):
        q = n - p
        sign = -1 if (p * q) % 2 else 1
        for x in range(nobj):
            for y in range(nobj):
                dp, dq = w.dim(p, x, y), w.dim(q, y, x)
                if dp == 0 or dq == 0:
                    continue
                ox, oy = w.base.objects[x], w.base.objects[y]
                fwd_block = w.basis_products(p, q, x, y, x)  # u.v, endomorphism form at x
                bwd_block = w.basis_products(q, p, y, x, y)  # v.u, endomorphism form at y
                labels_u, labels_v = w.space_labels(p, x, y), w.space_labels(q, y, x)
                off_x, off_y = offs[x], offs[y]
                for i in range(dp):
                    for j in range(dq):
                        vecv: SparseRow = {}
                        for k, s in fwd_block[i][j]:
                            vecv[off_x + k] = s
                        for k, s in bwd_block[j][i]:
                            key = off_y + k
                            vecv[key] = vecv.get(key, ZERO) - sign * s
                        vecv = {k: s for k, s in vecv.items() if s}
                        label = f"[{labels_u[i]}, {labels_v[j]}]@({ox.label},{oy.label})"
                        out.append((vecv, label))
    return out


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

        # the labeled commutator span of each degree, built once: the
        # quotient and the cocycle certificates share it
        self.commutator_spans = [commutator_span(w, n) for n in range(N + 1)]
        self.quotients: list[QuotientSpace] = [
            build_quotient(self.ambient_dim(n), [v for v, _ in self.commutator_spans[n]])
            for n in range(N + 1)
        ]
        # d on the ambient diagonal space of each degree, column j holding
        # d of the j-th basis vector; out of the top degree it is zero
        self._ambient_columns: list[list[SparseRow]] = [self._ambient_d_columns(w, n) for n in range(N + 1)]

        # the induced differential, as sparse columns: column k of degree n
        # is the class of d(e_c), e_c lifting the k-th unit class, indexed
        # by the classes of degree n + 1; out of the top degree it is zero
        self.d_columns: list[list[SparseRow]] = []
        for n in range(N):
            qn, qn1 = self.quotients[n], self.quotients[n + 1]
            # the echelon rows span the degree-n commutators and d is linear,
            # so d preserves commutators exactly when it does on these rows
            for row in qn.rows:
                if qn1.reduce_sparse(self.ambient_d(n, row)):
                    raise LincatError(
                        f"degree-{n} commutators are not closed under d; the graded tables are inconsistent"
                    )
            # reduction leaves entries at free columns only
            class_index = {c: k for k, c in enumerate(qn1.free_columns)}
            self.d_columns.append([
                {class_index[c]: x for c, x in qn1.reduce_sparse(self._ambient_columns[n][c]).items()}
                for c in qn.free_columns
            ])
        self.d_columns.append([{} for _ in range(self.dim(N))])
        # the two linear systems solved against this complex, each built on
        # first use in a degree and kept: the commutator span and d, by rows
        self._commutator_rows: dict[int, list[SparseRow]] = {}
        self._d_rows: dict[int, list[SparseRow]] = {}

    def _ambient_d_columns(self, w: DGCategory, n: int) -> list[SparseRow]:
        # the blocks of the objects follow each other in object order, and
        # out of the top degree every column is empty
        columns: list[SparseRow] = []
        for x in range(len(self.base.objects)):
            off1 = self.component_offsets[n + 1][x] if n < self.truncation else 0
            columns.extend({off1 + i: s for i, s in col} for col in w.diff[n].get((x, x), ()))
        return columns

    # -- ambient diagonal vectors -----------------------------------------

    def ambient_dim(self, n: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        return sum(self.component_dims[n])

    def ambient_row(self, degree: int, forms: Sequence[Form]) -> SparseRow:
        """The ambient diagonal vector of one degree-n endomorphism form per object, as a sparse row."""
        if len(forms) != len(self.base.objects):
            raise DimensionError("need one component per object")
        for x, f in enumerate(forms):
            if f.degree != degree or f.dom.index != x or f.cod.index != x:
                raise DimensionError(f"component {x} is not a degree-{degree} endomorphism form of object {x}")
        if degree < 0 or degree > self.truncation:
            # no forms live there, so every component is zero
            return {}
        return {off + k: s for off, f in zip(self.component_offsets[degree], forms) for k, s in f.terms}

    def ambient_d(self, n: int, v: SparseRow) -> SparseRow:
        """Apply d componentwise to an ambient diagonal vector of degree n, a sparse row."""
        if not v:
            return {}
        if not 0 <= n <= self.truncation or min(v) < 0 or max(v) >= len(self._ambient_columns[n]):
            raise DimensionError(f"sparse vector has a column outside the ambient space of degree {n}")
        columns = self._ambient_columns[n]
        out: SparseRow = {}
        for j, x in v.items():
            if x:
                add_scaled(out, x, columns[j])
        return out

    def commutator_rows(self, n: int) -> list[SparseRow]:
        """The commutator span of degree n as a linear system, by rows.

        Row i holds coordinate i of every commutator of
        `commutator_spans[n]`, at the commutator's index in it.  The rows
        are built once per degree and shared; they are not to be modified.
        """
        rows = self._commutator_rows.get(n)
        if rows is None:
            rows = self._commutator_rows[n] = _transpose([v for v, _ in self.commutator_spans[n]],
                                                         self.ambient_dim(n))
        return rows

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
        return self.quotients[degree].coset_coordinates(row)

    def d_class(self, n: int, coords: Vector) -> Vector:
        """The induced differential on classes, degree n to n + 1."""
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        coords = vec(coords)
        if n < 0 or n > self.truncation:
            # d out of a zero space: the zero class of degree n + 1
            return zero_vector(self.dim(n + 1))
        out: SparseRow = {}
        for x, col in zip(coords, self.d_columns[n]):
            if x:
                add_scaled(out, x, col)
        return densify(out, self.dim(n + 1))

    # -- cohomology ----------------------------------------------------------

    def image_basis(self, n: int) -> tuple[SparseRow, ...]:
        """Reduced echelon basis of the image of d arriving in degree n, as sparse rows."""
        if n <= 0 or n > self.truncation:
            return ()
        return echelon(self.d_columns[n - 1], self.dim(n))[0]

    def kernel_basis_of_d(self, n: int) -> tuple[SparseRow, ...]:
        """Reduced echelon basis of the kernel of d out of degree n, as sparse rows.

        An echelon row of the augmented rows [d(e_k) | e_k] has its pivot
        in the e-part exactly when its d-part is zero, so the e-parts of
        those rows lie in the kernel, and they span it.
        """
        if n < 0 or n > self.truncation:
            return ()
        m = self.dim(n + 1)
        augmented = ({**col, m + k: ONE} for k, col in enumerate(self.d_columns[n]))
        rows, pivots = echelon(augmented, m + self.dim(n))
        return tuple({j - m: x for j, x in row.items()} for row, p in zip(rows, pivots) if p >= m)

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
            rows = self._d_rows[n] = _transpose(self.d_columns[n - 1], self.dim(n))
        return solve_rows(rows, self.dim(n - 1), coords)

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


def _transpose(columns: Sequence[SparseRow], nrows: int) -> list[SparseRow]:
    """The rows of the matrix with the given sparse columns."""
    rows: list[SparseRow] = [{} for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, x in column.items():
            rows[i][j] = x
    return rows


def get_complex(w: DGCategory) -> DeRhamComplex:
    """Memoized quotient complex of a graded category."""
    if w._derham is None:
        w._derham = DeRhamComplex(w)
    return w._derham


# ---------------------------------------------------------------------------
# stratified classes with a polynomial parameter and an infinitesimal part


@dataclass(frozen=True)
class TildeCochain:
    """Class-level cochain: polynomial strata plus an infinitesimal part.

    `part0[i]` is the class multiplying t^i in the main component;
    `part1[i]` the class multiplying t^i.e, one degree lower.  Both run
    over 0 <= i <= t_bound of the ambient complex.
    """

    degree: int
    part0: tuple[Vector, ...]
    part1: Optional[tuple[Vector, ...]]


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

    def cochain(self, degree: int, part0: Sequence[Vector], part1: Optional[Sequence[Vector]]) -> TildeCochain:
        p0 = self._pad(degree, 0, list(part0))
        p1 = None
        if degree >= 1:
            p1 = self._pad(degree, 1, list(part1) if part1 is not None else [])
        elif part1 is not None and any(not is_zero_vector(v) for v in part1):
            raise DimensionError("degree-0 cochain cannot carry an infinitesimal part")
        return TildeCochain(degree, p0, p1)

    def cochain_from_traces(
        self,
        degree: int,
        part0_traces: Sequence[Sequence[Form]],
        part1_traces: Optional[Sequence[Sequence[Form]]],
    ) -> TildeCochain:
        p0 = [self.rh.class_of_trace(degree, comps) for comps in part0_traces]
        p1 = None
        if part1_traces is not None:
            p1 = [self.rh.class_of_trace(degree - 1, comps) for comps in part1_traces]
        return self.cochain(degree, p0, p1)

    def is_zero(self, a: TildeCochain) -> bool:
        if any(not is_zero_vector(v) for v in a.part0):
            return False
        return a.part1 is None or all(is_zero_vector(v) for v in a.part1)

    def delta(self, a: TildeCochain) -> TildeCochain:
        """Differential: d on strata, with the t-derivative feeding the e-part."""
        n = a.degree
        D = self.t_bound
        p0 = tuple(self.rh.d_class(n, v) for v in a.part0)
        sign = Fraction(1 if (n + 1) % 2 == 0 else -1)
        tdot = [vec_scale(Fraction(i + 1), a.part0[i + 1]) for i in range(D)] + [zero_vector(self.rh.dim(n))]
        p1 = [vec_scale(sign, v) for v in tdot]
        if a.part1 is not None:
            p1 = [vec_add(u, self.rh.d_class(n - 1, v)) for u, v in zip(p1, a.part1)]
        return TildeCochain(n + 1, p0, tuple(p1))

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
        if a.part1 is None:
            return zero_vector(self.rh.dim(n - 1))
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
