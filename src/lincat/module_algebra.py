"""Finitely generated projective modules cut out by idempotent matrices.

A module is presented by a finite family of objects and an idempotent
degree-0 form matrix e over that family; the module is the image of e
acting on columns.  Generators are the columns of e, dual generators
its rows, and endomorphisms are matrices U with U = e.U.e.

The module tensored with degree-n forms is modelled by columns: at
each anchor object, the columns of degree-n forms fixed by e
(`EFixedComponent`).  Since e is idempotent, the kernel of (e - 1) is
the image of e, so the fixed columns are the span of the e-images of
the basis columns, a `QuotientSpace` that gives their reduced echelon
basis and the coordinates of a fixed column in it.
The literal model, fibers tensored with forms modulo the bimodule
relations v.f (x) w = v (x) f.w, is canonically isomorphic; it lives in
`tests/module_oracles.py`, where the tests check that the isomorphism
is bijective rather than taking the equivalence on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import ObjectId
from .dg import DGCategory, Form, stacked
from .derham import get_complex
from .errors import DimensionError, IdempotentError, ModuleError
from .exact_linalg import NumeratorRow, Vector, build_quotient, checked_row, densify, lowest_terms, offsets
from .form_matrix import FormMatrix, block_diag

# ---------------------------------------------------------------------------
# modules


class ProjectiveModule:
    """Image of an idempotent degree-0 matrix over a family of objects."""

    def __init__(self, w: DGCategory, name: str, idempotent: FormMatrix):
        if idempotent.degree != 0:
            raise DimensionError(f"module {name}: the defining matrix must have degree 0")
        if idempotent.row_family != idempotent.col_family:
            raise DimensionError(f"module {name}: the defining matrix must be square")
        square = idempotent.mul(w, idempotent)
        if square != idempotent:
            bad = next(
                (i, j)
                for i, (ra, rb) in enumerate(zip(square.entries, idempotent.entries))
                for j, (a, b) in enumerate(zip(ra, rb))
                if a != b
            )
            raise IdempotentError(
                f"module {name}: matrix is not idempotent (entry {bad} of e.e differs from e)",
                witness=bad,
            )
        self.w = w
        self.name = name
        self.idempotent = idempotent
        self.family: tuple[ObjectId, ...] = idempotent.row_family

    @classmethod
    def free(cls, w: DGCategory, name: str, family) -> "ProjectiveModule":
        return cls(w, name, FormMatrix.identity(w, tuple(family)))

    @property
    def size(self) -> int:
        return len(self.family)

    def generator(self, i: int) -> FormMatrix:
        """The i-th generator: column i of the idempotent."""
        return self.idempotent.submatrix(range(self.size), (i,))

    def dual_generator(self, i: int) -> FormMatrix:
        """The i-th coordinate functional: row i of the idempotent."""
        return self.idempotent.submatrix((i,), range(self.size))

    def involution(self) -> FormMatrix:
        """2e - 1; squares to the identity."""
        return self.idempotent.scale(2) - FormMatrix.identity(self.w, self.family)

    def normalize_endomorphism(self, u: FormMatrix) -> FormMatrix:
        if (u.row_family, u.col_family) != (self.family, self.family):
            raise DimensionError(f"module {self.name}: endomorphism families do not match")
        e = self.idempotent
        return e.mul(self.w, u).mul(self.w, e)

    def contains_column(self, u: FormMatrix) -> bool:
        """Whether the column matrix is fixed by the idempotent."""
        return self.idempotent.mul(self.w, u) == u


@dataclass(frozen=True)
class DirectSumData:
    """A biproduct: the sum module with its injections and projections."""

    module: ProjectiveModule
    inj1: FormMatrix
    inj2: FormMatrix
    proj1: FormMatrix
    proj2: FormMatrix


def direct_sum(a: ProjectiveModule, b: ProjectiveModule, name: str = "") -> DirectSumData:
    w = a.w
    if b.w is not w:
        raise DimensionError("direct sum: modules live over different graded categories")
    e = block_diag(w, a.idempotent, b.idempotent)
    total = ProjectiveModule(w, name or f"{a.name}+{b.name}", e)
    # the injections are the column blocks of e, the projections its row blocks
    every, top, bottom = range(total.size), range(a.size), range(a.size, total.size)
    return DirectSumData(
        module=total,
        inj1=e.submatrix(every, top),
        inj2=e.submatrix(every, bottom),
        proj1=e.submatrix(top, every),
        proj2=e.submatrix(bottom, every),
    )


# ---------------------------------------------------------------------------
# traces and pairings


def hs_trace(m: ProjectiveModule, u: FormMatrix) -> Vector:
    """Class of the diagonal trace of e.U.e in the degree-0 quotient."""
    w = m.w
    normalized = m.normalize_endomorphism(u)
    rh = get_complex(w)
    return rh.class_of_trace(0, normalized.diagonal_trace(w))


def rank_one(m: ProjectiveModule, column: FormMatrix, row: FormMatrix) -> FormMatrix:
    """The endomorphism column.row built from an element and a functional."""
    if column.col_family != row.row_family:
        raise DimensionError("rank-one build: the element and functional anchors differ")
    return column.mul(m.w, row)


def evaluation_pairing(m: ProjectiveModule, row: FormMatrix, column: FormMatrix) -> Vector:
    """Class of the scalar row.column at its anchor object."""
    w = m.w
    if len(row.row_family) != 1 or len(column.col_family) != 1:
        raise DimensionError("evaluation needs a single functional row and a single element column")
    product = row.mul(w, column)
    anchor = product.row_family[0]
    if product.col_family[0] != anchor:
        raise DimensionError("evaluation: row and column anchors differ")
    rh = get_complex(w)
    forms = [w.zero_form(0, o, o) for o in w.base.objects]
    forms[anchor.index] = forms[anchor.index] + product.entries[0][0]
    return rh.class_of_trace(0, forms)


# ---------------------------------------------------------------------------
# the column model of M (x) forms


class EFixedComponent:
    """Columns of degree-n forms anchored at one object and fixed by e.

    The coordinate space stacks the form coordinates of the blocks
    `hom-forms(family[i], anchor)`.  Since e is idempotent, the columns
    it fixes, the kernel of (e - 1), are exactly its image: `span`, the
    span of the e-images of the basis columns, each the `NumeratorRow`
    of its stacked coordinates.  A column enters and leaves the span in
    that shape (`ambient_of_column`, `column_of_ambient`); it is fixed
    exactly when it has coordinates in the reduced basis of `span`, whose
    row k is `basis_column(k)`.
    """

    def __init__(self, module: ProjectiveModule, degree: int, anchor: ObjectId):
        self.module = module
        self.degree = degree
        self.anchor = anchor
        w = module.w
        fam = module.family
        self.block_dims = tuple(w.dim(degree, o.index, anchor.index) for o in fam)
        self.offsets = offsets(self.block_dims)
        self.total_dim = sum(self.block_dims)

        images: list[NumeratorRow] = []
        for j, oj in enumerate(fam):
            for cidx in range(self.block_dims[j]):
                basis = w.basis_form(degree, anchor, oj, cidx)
                images.append(stacked([w.compose(row[j], basis) for row in module.idempotent.entries], self.offsets))
        self.span = build_quotient(self.total_dim, images)

    @property
    def dim(self) -> int:
        return self.span.subspace_dim

    def ambient_of_column(self, u: FormMatrix) -> NumeratorRow:
        """The stacked coordinates of a column, as a `NumeratorRow`."""
        if u.col_family != (self.anchor,) or u.row_family != self.module.family:
            raise DimensionError("column does not match this component")
        if u.degree != self.degree:
            raise DimensionError("column degree does not match this component")
        return stacked([f for (f,) in u.entries], self.offsets)

    def column_of_ambient(self, v: NumeratorRow) -> FormMatrix:
        """The column with the given stacked coordinates, a `NumeratorRow` (D, {column: int})."""
        den, nums = checked_row(v)
        if nums and (min(nums) < 0 or max(nums) >= self.total_dim):
            raise DimensionError(f"sparse row has a column outside 0..{self.total_dim - 1}")
        rows = []
        for oi, off, d in zip(self.module.family, self.offsets, self.block_dims):
            block = lowest_terms(den, [(j - off, n) for j, n in nums.items() if off <= j < off + d])
            rows.append((Form(self.degree, self.anchor, oi, *block),))
        return FormMatrix(self.degree, self.module.family, (self.anchor,), tuple(rows))

    def basis_column(self, k: int) -> FormMatrix:
        return self.column_of_ambient(self.span.numerator_rows[k])

    def coordinates(self, u: FormMatrix) -> Vector:
        """Coordinates of an e-fixed column in the reduced basis, a dense tuple of `Fraction`s."""
        coords = self.span.coordinates(self.ambient_of_column(u))
        if coords is None:
            raise ModuleError("column is not fixed by the module idempotent")
        return densify(coords, self.dim)
