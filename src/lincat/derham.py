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

The commutator rows stay sparse throughout: from the composition
tensors through the quotient, the closure check and the induced
differential, with d stored once per degree as sparse columns on the
ambient diagonal space.

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
    ZERO,
    MatrixQ,
    QuotientSpace,
    SparseRow,
    Vector,
    add_scaled,
    build_quotient,
    densify,
    is_zero_vector,
    kernel_basis,
    offsets,
    row_space_basis,
    scalar,
    solve_in_span,
    sparse,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)

# ---------------------------------------------------------------------------
# diagonal forms


@dataclass(frozen=True)
class DiagonalForm:
    """One degree-n endomorphism form per object, as raw coordinates."""

    degree: int
    components: tuple[Vector, ...]

    def __add__(self, other: "DiagonalForm") -> "DiagonalForm":
        if self.degree != other.degree or len(self.components) != len(other.components):
            raise DimensionError("diagonal form addition: type mismatch")
        return DiagonalForm(self.degree, tuple(vec_add(a, b) for a, b in zip(self.components, other.components)))

    def scale(self, s) -> "DiagonalForm":
        s = scalar(s)
        return DiagonalForm(self.degree, tuple(vec_scale(s, c) for c in self.components))

    def is_zero(self) -> bool:
        return all(is_zero_vector(c) for c in self.components)


def diagonal_form_from_forms(w: DGCategory, degree: int, forms: Sequence[Form]) -> DiagonalForm:
    """Package per-object endomorphism forms, validating their types."""
    return _diagonal_form(tuple(w.dim(degree, x, x) for x in range(len(w.base.objects))), degree, forms)


def _diagonal_form(dims: Sequence[int], degree: int, forms: Sequence[Form]) -> DiagonalForm:
    """`diagonal_form_from_forms`, given the dimension of each object's degree-n forms."""
    if len(forms) != len(dims):
        raise DimensionError("need one component per object")
    comps = []
    for x, f in enumerate(forms):
        if f.degree != degree or f.dom.index != x or f.cod.index != x:
            raise DimensionError(f"component {x} is not a degree-{degree} endomorphism form of object {x}")
        comps.append(densify(f.terms, dims[x]))
    return DiagonalForm(degree, tuple(comps))


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
        self._d_columns: list[list[SparseRow]] = [self._ambient_d_columns(w, n) for n in range(N + 1)]

        self._d_mats: list[MatrixQ] = []
        for n in range(N):
            qn, qn1 = self.quotients[n], self.quotients[n + 1]
            # the echelon rows span the degree-n commutators and d is linear,
            # so d preserves commutators exactly when it does on these rows
            for row in qn.rows:
                if qn1.reduce_sparse(self._ambient_d_sparse(n, row)):
                    raise LincatError(
                        f"degree-{n} commutators are not closed under d; the graded tables are inconsistent"
                    )
            # column k: the class of d(e_c), e_c lifting the k-th unit class
            cols = []
            for c in qn.free_columns:
                reduced = qn1.reduce_sparse(self._d_columns[n][c])
                cols.append([reduced.get(f, ZERO) for f in qn1.free_columns])
            self._d_mats.append(MatrixQ(qn1.dim, qn.dim, tuple(
                tuple(cols[j][i] for j in range(qn.dim)) for i in range(qn1.dim)
            )))

    def _ambient_d_columns(self, w: DGCategory, n: int) -> list[SparseRow]:
        # the blocks of the objects follow each other in object order, and
        # out of the top degree every column is empty
        columns: list[SparseRow] = []
        for x in range(len(self.base.objects)):
            off1 = self.component_offsets[n + 1][x] if n < self.truncation else 0
            columns.extend({off1 + i: s for i, s in col} for col in w.diff[n].get((x, x), ()))
        return columns

    def _ambient_d_sparse(self, n: int, v: SparseRow) -> SparseRow:
        out: SparseRow = {}
        for j, x in v.items():
            add_scaled(out, x, self._d_columns[n][j])
        return out

    # -- ambient bookkeeping ----------------------------------------------

    def ambient_dim(self, n: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        return sum(self.component_dims[n])

    def ambient_d(self, n: int, v: Vector) -> Vector:
        """Apply d componentwise to an ambient diagonal vector of degree n."""
        if len(v) != self.ambient_dim(n):
            raise DimensionError(f"vector length {len(v)} does not match ambient {self.ambient_dim(n)}")
        return densify(self._ambient_d_sparse(n, sparse(v)), self.ambient_dim(n + 1))

    def ambient_vector(self, df: DiagonalForm) -> Vector:
        n = df.degree
        if n < 0 or n > self.truncation:
            if all(len(c) == 0 for c in df.components):
                return ()
            raise DimensionError("diagonal form above the truncation degree must be zero")
        out: list[Fraction] = []
        for x, comp in enumerate(df.components):
            if len(comp) != self.component_dims[n][x]:
                raise DimensionError(f"component {x} has wrong length for degree {n}")
            out.extend(comp)
        return tuple(out)

    def diagonal_from_ambient(self, n: int, v: Vector) -> DiagonalForm:
        comps = []
        for x in range(len(self.base.objects)):
            off, d = self.component_offsets[n][x], self.component_dims[n][x]
            comps.append(tuple(v[off:off + d]))
        return DiagonalForm(n, tuple(comps))

    # -- classes ------------------------------------------------------------

    def dim(self, n: int) -> int:
        if n < 0 or n > self.truncation:
            return 0
        return self.quotients[n].dim

    def class_of(self, df: DiagonalForm) -> Vector:
        n = df.degree
        if n < 0 or n > self.truncation:
            return ()
        return self.quotients[n].coset_coordinates(self.ambient_vector(df))

    def class_of_trace(self, degree: int, forms: Sequence[Form]) -> Vector:
        in_range = 0 <= degree <= self.truncation
        dims = self.component_dims[degree] if in_range else (0,) * len(self.base.objects)
        return self.class_of(_diagonal_form(dims, degree, forms))

    def lift_class(self, n: int, coords: Vector) -> DiagonalForm:
        if n < 0 or n > self.truncation:
            if coords:
                raise DimensionError("no classes above the truncation degree")
            nobj = len(self.base.objects)
            return DiagonalForm(n, tuple(() for _ in range(nobj)))
        return self.diagonal_from_ambient(n, self.quotients[n].lift(coords))

    def d_matrix(self, n: int) -> MatrixQ:
        """Induced differential on classes, degree n to n + 1."""
        if n < 0 or n > self.truncation:
            return MatrixQ.zero(0, 0)
        if n == self.truncation:
            return MatrixQ.zero(0, self.dim(n))
        return self._d_mats[n]

    def d_class(self, n: int, coords: Vector) -> Vector:
        return self.d_matrix(n).apply(coords)

    # -- cohomology ----------------------------------------------------------

    def image_basis(self, n: int) -> tuple[Vector, ...]:
        """Reduced basis of the image of d arriving in degree n."""
        if n <= 0 or n > self.truncation:
            return ()
        prev = self.d_matrix(n - 1)
        cols = [prev.column(j) for j in range(prev.cols)]
        return row_space_basis(cols, self.dim(n))

    def kernel_basis_of_d(self, n: int) -> tuple[Vector, ...]:
        return kernel_basis(self.d_matrix(n))

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
        image = build_quotient(self.dim(n), self.image_basis(n))
        reduced = [image.reduce(v) for v in self.kernel_basis_of_d(n)]
        reps = row_space_basis([r for r in reduced if not is_zero_vector(r)], self.dim(n))
        if len(reps) != self.betti(n):
            raise LincatError(f"degree-{n} representative count disagrees with the rank computation")
        return reps

    def is_coboundary(self, n: int, coords: Vector) -> Optional[Vector]:
        """A primitive class one degree lower, or None when there is none.

        Degree 0 admits a primitive only for the zero class, whose
        primitive is the empty vector.
        """
        if n < 0 or n > self.truncation:
            return ()
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        if n == 0:
            return () if is_zero_vector(coords) else None
        return solve_in_span(self.d_matrix(n - 1), coords)

    def euler_characteristics(self) -> tuple[int, int]:
        """Alternating sums of space dimensions and of cohomology ranks."""
        lhs = sum((-1) ** n * self.dim(n) for n in range(self.truncation + 1))
        rhs = sum((-1) ** n * self.betti(n) for n in range(self.truncation + 1))
        return lhs, rhs

    # -- rendering ------------------------------------------------------------

    def render_class(self, n: int, coords: Vector) -> str:
        df = self.lift_class(n, coords)
        pieces = []
        for x, comp in enumerate(df.components):
            if is_zero_vector(comp):
                continue
            o = self.base.objects[x]
            pieces.append(f"{o.label}: {render_terms(self._labels[n][x], tuple(sparse(comp).items()))}")
        return "; ".join(pieces) if pieces else "0"


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

    def _pad(self, n: int, classes: Sequence[Vector]) -> tuple[Vector, ...]:
        D = self.t_bound
        if len(classes) > D + 1:
            for extra in classes[D + 1:]:
                if not is_zero_vector(extra):
                    raise DimensionError("polynomial degree exceeds the stratification bound")
            classes = classes[:D + 1]
        pad = [zero_vector(self.rh.dim(n))] * (D + 1 - len(classes))
        return tuple(classes) + tuple(pad)

    def cochain(self, degree: int, part0: Sequence[Vector], part1: Optional[Sequence[Vector]]) -> TildeCochain:
        p0 = self._pad(degree, list(part0))
        p1 = None
        if degree >= 1:
            p1 = self._pad(degree - 1, list(part1) if part1 is not None else [])
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

    def add(self, a: TildeCochain, b: TildeCochain) -> TildeCochain:
        if a.degree != b.degree:
            raise DimensionError("cochain addition: degree mismatch")
        p0 = tuple(vec_add(u, v) for u, v in zip(a.part0, b.part0))
        p1 = None
        if a.part1 is not None:
            p1 = tuple(vec_add(u, v) for u, v in zip(a.part1, b.part1))
        return TildeCochain(a.degree, p0, p1)

    def scale(self, a: TildeCochain, s) -> TildeCochain:
        s = scalar(s)
        p0 = tuple(vec_scale(s, v) for v in a.part0)
        p1 = None if a.part1 is None else tuple(vec_scale(s, v) for v in a.part1)
        return TildeCochain(a.degree, p0, p1)

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
