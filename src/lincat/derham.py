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
which `validate_dg` shares); then the rows [1_x, v] of an identity in
G are v - v = 0, so the identities are left out of the span.  Tables
that fail a law on G are no DG category, and their quotient is not
the complex of the paper, so `get_complex` refuses them with
`CategoryAxiomError`, naming the first violation of `validate_category`
and `validate_dg`.

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
either.  Cohomology reads one span per degree n (`_span`), the
`build_quotient` of the rows (d(e_k) | e_k) over the unit classes e_k,
the e-block in reverse class order.  Its rows that pivot in the
d-block give the image of d in degree n + 1, the others the kernel of
d, each pivoting at the last class of its support; a class of degree
n + 1 reduced by the span leaves minus a primitive, zero at those
pivots, as a solve in natural order sets its free variables, or an
entry in the d-block when it has none.  That span, and the system a
cocycle certificate solves (`commutator_system`: the full span, one
commutator of basis forms per pair, as numerator rows, with their
integer transpose), are built on first use in a degree and kept.  A
certificate cites a commutator by its index in the full span, and
`commutator_label` names it.  Classes enter and leave as dense tuples
of `Fraction` coordinates, converted once at that door
(`numerator_row` in, `densify` out).

Degree 0 of this complex is the plain trace quotient of the base
category, and for a one-object category it is the usual abelianization
of a differential graded algebra.  So `get_complex(trivial_dg(c))` at
degree 0 is the trace quotient of a category c; the package has no
other implementation of it.

Every method reads a degree through `_degree`, which answers each
degree outside 0..N with one zero record: no block, class or d column
at any object.  A degree in range without diagonal forms holds the
same, with no span built.  So d into degree 0 and out of the top degree
N is zero along the ordinary path, and the top cohomology is that of
the truncated complex, flagged unreliable (`truncation_reliable`): the
forms one degree higher were cut off.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .category import validate_category
from .dg import DGCategory, Form, certified_generators, render_terms, stacked, validate_dg
from .errors import CategoryAxiomError, DimensionError, LincatError
from .exact_linalg import (
    IntRow,
    IntTerms,
    NumeratorRow,
    QuotientSpace,
    Vector,
    build_quotient,
    checked_row,
    contract_into,
    densify,
    numerator_row,
    offsets,
    over_one,
    vec,
)


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


class _Degree(NamedTuple):
    """One degree: its quotient, the offsets and labels of its object blocks, and d on ambient vectors and classes."""

    quotient: QuotientSpace
    offsets: tuple[int, ...]
    labels: tuple[tuple[str, ...], ...]
    ambient_d: tuple[int, list[IntTerms]]
    d: tuple[int, list[IntTerms]]


class DeRhamComplex:
    """Diagonal forms modulo graded commutators, with induced differential."""

    def __init__(self, w: DGCategory):
        # the envelope memoizes its complex (`get_complex`), so the complex
        # keeps only what it reads and no reference back: each pair is
        # freed by reference counting, not by the cyclic collector
        self.truncation = N = w.truncation
        self.base = w.base
        nobj = len(w.base.objects)
        # a degree outside 0..N, and one without diagonal forms, is the zero
        # space, one record: no block, class or d column.  d is kept as
        # (D, columns): column j is D times d(e_j), ambient, or its class, e_j
        # lifting unit class j; out of the top degree every column is empty,
        # so every top class is closed
        self._zero = _Degree(QuotientSpace(0, (), {}), (0,) * nobj, ((),) * nobj, (1, []), (1, []))
        self._degrees: list[_Degree] = []
        for n in range(N + 1):
            labels = tuple(w.space_labels(n, x, x) for x in range(nobj))
            self._degrees.append(self._zero if not any(labels) else
                                 _Degree(self._zero.quotient, offsets(map(len, labels)), labels, (1, []), (1, [])))

        gens, lawful = certified_generators(w)
        if not lawful:
            # a law that fails at degree 0 alone is one of the category's
            violations = validate_category(w.base) + validate_dg(w)
            raise CategoryAxiomError(
                f"laws fail ({len(violations)} violation(s), first {violations[0].kind} at "
                f"{violations[0].where}); no quotient complex is built", violations)
        # the commutators of each degree, spanned by [g, v] with g in G; once
        # the laws hold, [1_x, v] = v - v = 0, so the identities in G are
        # left out
        gens = [g for g in gens if g != w.identity_form(g.cod)]
        held = [n for n, degree in enumerate(self._degrees) if degree is not self._zero]
        for n in held:
            quotient = build_quotient(self.ambient_dim(n), generator_span(w, n, gens))
            # d of the object blocks in object order, over the lcm of their
            # denominators, each shifted to its object's block of degree n + 1
            blocks = [w.integral_diff(n, x, x) for x in range(nobj)]
            den = lcm(*[block_den for block_den, _ in blocks])
            columns: list[IntTerms] = []
            for off1, (block_den, cols) in zip(self._degree(n + 1).offsets, blocks):
                columns.extend(tuple((off1 + i, s * (den // block_den)) for i, s in col) for col in cols)
            self._degrees[n] = self._degrees[n]._replace(quotient=quotient, ambient_d=(den, columns))
        for n in held:
            qn, qn1 = self._degrees[n].quotient, self._degree(n + 1).quotient
            # the echelon rows span the degree-n commutators and d is linear,
            # so d preserves commutators exactly when it does on these rows
            for row in qn.numerator_rows:
                if qn1.reduce_sparse(self.ambient_d(n, row))[1]:
                    raise LincatError(
                        f"degree-{n} commutators are not closed under d; the graded tables are inconsistent"
                    )
            den, columns = self._degrees[n].ambient_d
            d = over_one(qn1.coset_coordinates((den, dict(columns[c]))) for c in qn.free_columns)
            self._degrees[n] = self._degrees[n]._replace(d=d)
        # the quotients, induced d and offsets by degree, for readers outside the class
        self.quotients = [degree.quotient for degree in self._degrees]
        self.d_columns = [degree.d for degree in self._degrees]
        self.component_offsets = [degree.offsets for degree in self._degrees]
        # built on first use in a degree and kept: the full commutator span
        # of `commutator_system`, with its rows, and the span of d (`_span`)
        self._commutator_systems: dict[int, tuple[list[NumeratorRow], list[NumeratorRow]]] = {}
        self._spans: dict[int, QuotientSpace] = {}

    def _degree(self, n: int) -> _Degree:
        """Degree n of the complex, for any integer n: outside 0..N the one zero record."""
        return self._degrees[n] if 0 <= n <= self.truncation else self._zero

    # -- ambient diagonal vectors -----------------------------------------

    def ambient_dim(self, n: int) -> int:
        return sum(map(len, self._degree(n).labels))

    def ambient_row(self, degree: int, forms: Sequence[Form]) -> NumeratorRow:
        """The ambient diagonal vector of one degree-n endomorphism form per object, as a `NumeratorRow`."""
        if len(forms) != len(self.base.objects):
            raise DimensionError("need one component per object")
        for x, f in enumerate(forms):
            if f.degree != degree or f.dom.index != x or f.cod.index != x:
                raise DimensionError(f"component {x} is not a degree-{degree} endomorphism form of object {x}")
        return stacked(forms, self._degree(degree).offsets)

    def ambient_d(self, n: int, v: NumeratorRow) -> NumeratorRow:
        """Apply d componentwise to an ambient diagonal vector of degree n, a `NumeratorRow`; its zeros dropped."""
        v_den, nums = checked_row(v)
        if not nums:
            return 1, {}
        den, columns = self._degree(n).ambient_d
        if min(nums) < 0 or max(nums) >= len(columns):
            raise DimensionError(f"sparse vector has a column outside the ambient space of degree {n}")
        out = contract_into({}, nums.items(), columns)
        return v_den * den, {i: s for i, s in out.items() if s}

    # -- classes ------------------------------------------------------------

    def dim(self, n: int) -> int:
        return self._degree(n).quotient.dim

    def class_of_trace(self, degree: int, forms: Sequence[Form]) -> Vector:
        """The class of the diagonal form with one degree-n endomorphism form per object."""
        row = self.ambient_row(degree, forms)
        return densify(self._degree(degree).quotient.coset_coordinates(row), self.dim(degree))

    def d_class(self, n: int, coords: Vector) -> Vector:
        """The induced differential on classes, degree n to n + 1."""
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        den, nums = numerator_row(vec(coords))
        d_den, columns = self._degree(n).d
        return densify((den * d_den, contract_into({}, nums.items(), columns)), self.dim(n + 1))

    # -- cohomology ----------------------------------------------------------

    def _span(self, n: int) -> QuotientSpace:
        """Span n, of the rows (d(e_k) | e_k) over the unit classes of degree n, e_k at column dim(n+1) + dim(n) - 1 - k."""
        span = self._spans.get(n)
        if span is None:
            last = self.dim(n + 1) + self.dim(n) - 1
            den, columns = self._degree(n).d
            rows = [(den, dict(col + ((last - k, den),))) for k, col in enumerate(columns)]
            span = self._spans[n] = build_quotient(last + 1, rows)
        return span

    def image_basis(self, n: int) -> tuple[NumeratorRow, ...]:
        """Reduced echelon basis of the image of d in degree n, the d-blocks of span n - 1, as numerator rows."""
        m, span = self.dim(n), self._span(n - 1)
        return tuple((d, {j: x for j, x in nums.items() if j < m})
                     for (d, nums), p in zip(span.numerator_rows, span.pivots) if p < m)

    def kernel_basis_of_d(self, n: int) -> tuple[NumeratorRow, ...]:
        """A basis of the kernel of d out of degree n, reduced in reverse class order, as numerator rows."""
        m, span = self.dim(n + 1), self._span(n)
        last = m + self.dim(n) - 1
        return tuple((d, {last - j: x for j, x in nums.items()})
                     for (d, nums), p in zip(span.numerator_rows, span.pivots) if p >= m)

    def betti(self, n: int) -> int:
        return len(self.kernel_basis_of_d(n)) - len(self.image_basis(n))

    def truncation_reliable(self, n: int) -> bool:
        """Top-degree kernels may shrink once higher forms are restored."""
        return n < self.truncation

    def harmonic_representatives(self, n: int) -> tuple[Vector, ...]:
        """One closed class per cohomology generator, canonically reduced."""
        image = self.image_basis(n)
        kernel = self.kernel_basis_of_d(n)
        quotient = build_quotient(self.dim(n), image)
        reps = build_quotient(self.dim(n), [quotient.reduce_sparse(v) for v in kernel]).numerator_rows
        if len(reps) != len(kernel) - len(image):
            raise LincatError(f"degree-{n} representative count disagrees with the rank computation")
        return tuple(densify(r, self.dim(n)) for r in reps)

    def is_coboundary(self, n: int, coords: Vector) -> Optional[Vector]:
        """A primitive class one degree lower, or None when there is none.

        (y | 0) reduced by span n - 1 is (0 | -x) with d(x) = y, or keeps
        an entry in its d-block.  Where no d arrives, no row of span n - 1
        pivots in the d-block, so only the zero class has a primitive, the
        zero class of degree n - 1.
        """
        if len(coords) != self.dim(n):
            raise DimensionError(f"expected {self.dim(n)} class coordinates, got {len(coords)}")
        m = self.dim(n)
        den, nums = self._span(n - 1).reduce_sparse(numerator_row(vec(coords)))
        if any(j < m for j in nums):
            return None
        last = m + self.dim(n - 1) - 1
        return densify((den, {last - j: -x for j, x in nums.items()}), self.dim(n - 1))

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
        degree = self._degree(n)
        entries = [(c, s) for c, s in zip(degree.quotient.free_columns, vec(coords)) if s]
        pieces = []
        for o, labels, off in zip(self.base.objects, degree.labels, degree.offsets):
            terms = tuple((c - off, s) for c, s in entries if off <= c < off + len(labels))
            if terms:
                pieces.append(f"{o.label}: {render_terms(labels, terms)}")
        return "; ".join(pieces) if pieces else "0"


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
        rows: list[IntRow] = [{} for _ in range(rh.ambient_dim(n))]
        for j, (_, nums) in enumerate(span):
            for i, x in nums.items():
                rows[i][j] = x
        system = rh._commutator_systems[n] = span, [(1, row) for row in rows]
    return system

