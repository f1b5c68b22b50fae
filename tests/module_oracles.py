"""Cross-checks of the module layer that only the tests use.

The module tensored with degree-n forms is modelled by columns: at
each anchor object, the columns of degree-n forms fixed by e
(`EFixedComponent`).  Since e is idempotent, the kernel of (e - 1) is
the image of e, so the fixed columns are the span of the e-images of
the basis columns, a `QuotientSpace` that gives their reduced echelon
basis and the coordinates of a fixed column in it.

`LiteralTensor` is the literal model of a module tensored with forms:
fibers tensored with forms, modulo the bimodule relations
v.f (x) w = v (x) f.w.  It is canonically isomorphic to the column
model and shares no elimination with it, so equal dimensions and a
bijective `iso_matrix` check the column model independently rather
than taking the equivalence on faith.  `dense_fixed_rows` is the
column model's former construction, the dense kernel of (e - 1) in
reduced echelon form.
"""

from fractions import Fraction

from lincat.category import ObjectId
from lincat.dg import Form, stacked
from lincat.errors import DimensionError, ModuleError
from lincat.exact_linalg import (
    ZERO,
    NumeratorRow,
    QuotientSpace,
    Terms,
    Vector,
    build_quotient,
    checked_row,
    densify,
    lowest_terms,
    offsets,
)
from lincat.form_matrix import FormMatrix
from lincat.module_algebra import ProjectiveModule

from conftest import as_numerators
from test_exact_linalg import DenseMatrix, dense_kernel, dense_rref


def dense_fixed_rows(module: ProjectiveModule, degree: int, anchor: ObjectId) -> tuple[Vector, ...]:
    """The reduced echelon basis of the kernel of (e - 1) acting blockwise, densely."""
    w = module.w
    fam = module.family
    dims = [w.dim(degree, o.index, anchor.index) for o in fam]
    offs = offsets(dims)
    total = sum(dims)
    if total == 0:
        return ()
    columns = []
    for j, oj in enumerate(fam):
        for cidx in range(dims[j]):
            col = [Fraction(0)] * total
            basis = w.basis_form(degree, anchor, oj, cidx)
            for i in range(len(fam)):
                for k, s in w.compose(module.idempotent.entries[i][j], basis).terms:
                    col[offs[i] + k] += s
            col[offs[j] + cidx] -= 1
            columns.append(col)
    e_minus_1 = DenseMatrix(total, total, tuple(tuple(col[r] for col in columns) for r in range(total)))
    kernel = dense_kernel(e_minus_1)
    if not kernel:
        return ()
    rows, pivots = dense_rref(DenseMatrix(len(kernel), total, kernel))
    return tuple(rows[:len(pivots)])


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


class LiteralTensor:
    """Fibers tensored with forms, modulo the actual bimodule relations.

    An independent oracle for the column model: same dimensions, and
    `iso_matrix` carries the column basis to classes of generator (x)
    form tensors bijectively.
    """

    def __init__(self, module: ProjectiveModule, degree: int, anchor: ObjectId):
        self.module = module
        self.degree = degree
        self.anchor = anchor
        w = module.w
        nobj = len(w.base.objects)
        self.fibers = [EFixedComponent(module, 0, o) for o in w.base.objects]

        self.block_dims = tuple(
            self.fibers[z].dim * w.dim(degree, z, anchor.index) for z in range(nobj)
        )
        self.offsets = offsets(self.block_dims)
        self.total_dim = total = sum(self.block_dims)

        spanning: list[dict] = []
        for z in range(nobj):
            fib = self.fibers[z]
            if fib.dim == 0:
                continue
            oz = w.base.objects[z]
            for z2 in range(nobj):
                oz2 = w.base.objects[z2]
                fib2 = self.fibers[z2]
                for fidx in range(w.base.dim(z, z2)):
                    f = w.basis_form(0, oz2, oz, fidx)
                    for uidx in range(fib.dim):
                        moved = self._act_right(fib.basis_column(uidx), f)
                        moved_coords = fib2.coordinates(moved)
                        for widx in range(w.dim(degree, z2, anchor.index)):
                            omega = w.basis_form(degree, anchor, oz2, widx)
                            rel: dict = {}
                            # v.f (x) w at the fiber over z2
                            for k, s in enumerate(moved_coords):
                                if s != 0:
                                    pos = self._pos(z2, k, widx)
                                    rel[pos] = rel.get(pos, ZERO) + s
                            # minus v (x) f.w at the fiber over z
                            for k, s in w.compose(f, omega).terms:
                                pos = self._pos(z, uidx, k)
                                rel[pos] = rel.get(pos, ZERO) - s
                            spanning.append({k: s for k, s in rel.items() if s})
        self.quotient: QuotientSpace = build_quotient(total, [as_numerators(r) for r in spanning])

    def _pos(self, z: int, fiber_index: int, form_index: int) -> int:
        w = self.module.w
        return self.offsets[z] + fiber_index * w.dim(self.degree, z, self.anchor.index) + form_index

    def _act_right(self, column: FormMatrix, f: Form) -> FormMatrix:
        w = self.module.w
        rows = tuple((w.compose(column.entries[i][0], f),) for i in range(len(column.row_family)))
        return FormMatrix(column.degree + f.degree, column.row_family, (f.dom,), rows)

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def class_of_tensor(self, z: int, fiber_coords: Vector, form_terms: Terms) -> Vector:
        amb: dict = {}
        for k, s in enumerate(fiber_coords):
            if s == 0:
                continue
            for l, t in form_terms:
                pos = self._pos(z, k, l)
                amb[pos] = amb.get(pos, ZERO) + s * t
        return densify(self.quotient.coset_coordinates(as_numerators(amb)), self.dim)

    def iso_matrix(self, column_model: EFixedComponent) -> DenseMatrix:
        """Map the column-model basis into tensor classes: u -> sum m_i (x) u_i."""
        fam = self.module.family
        e = self.module.idempotent
        gen_coords = []
        for i, oi in enumerate(fam):
            # the generator m_i is column i of e
            gen_coords.append(self.fibers[oi.index].coordinates(e.submatrix(range(len(fam)), (i,))))
        cols = []
        for k in range(column_model.dim):
            u = column_model.basis_column(k)
            acc = [Fraction(0)] * self.dim
            for i, oi in enumerate(fam):
                ui = u.entries[i][0]
                if ui.is_zero():
                    continue
                acc = [a + b for a, b in zip(acc, self.class_of_tensor(oi.index, gen_coords[i], ui.terms))]
            cols.append(acc)
        return DenseMatrix(self.dim, column_model.dim, tuple(
            tuple(cols[j][i] for j in range(column_model.dim)) for i in range(self.dim)
        ))
