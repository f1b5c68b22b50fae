"""Cross-checks of the module layer that only the tests use.

`LiteralTensor` is the literal model of a module tensored with forms:
fibers tensored with forms, modulo the actual bimodule relations.  It
shares no elimination with `EFixedComponent`, the column model of
`lincat.module_algebra`, so equal dimensions and a bijective
`iso_matrix` check the column model independently.  `dense_fixed_rows`
is the column model's former construction, the dense kernel of (e - 1)
in reduced echelon form.
"""

from fractions import Fraction

from lincat.category import ObjectId
from lincat.dg import Form
from lincat.exact_linalg import ZERO, MatrixQ, QuotientSpace, SparseRow, Terms, Vector, build_quotient, offsets
from lincat.form_matrix import FormMatrix
from lincat.module_algebra import EFixedComponent, ProjectiveModule

from test_exact_linalg import dense_kernel, dense_rref


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
    e_minus_1 = MatrixQ(total, total, tuple(tuple(col[r] for col in columns) for r in range(total)))
    kernel = dense_kernel(e_minus_1)
    if not kernel:
        return ()
    rows, pivots = dense_rref(MatrixQ(len(kernel), total, kernel))
    return tuple(rows[:len(pivots)])


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

        spanning: list[SparseRow] = []
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
                            rel: SparseRow = {}
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
        self.quotient: QuotientSpace = build_quotient(total, spanning)

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
        amb: SparseRow = {}
        for k, s in enumerate(fiber_coords):
            if s == 0:
                continue
            for l, t in form_terms:
                pos = self._pos(z, k, l)
                amb[pos] = amb.get(pos, ZERO) + s * t
        return self.quotient.coset_coordinates(amb)

    def iso_matrix(self, column_model: EFixedComponent) -> MatrixQ:
        """Map the column-model basis into tensor classes: u -> sum m_i (x) u_i."""
        fam = self.module.family
        gen_coords = []
        for i, oi in enumerate(fam):
            gen_coords.append(self.fibers[oi.index].coordinates(self.module.generator(i)))
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
        return MatrixQ(self.dim, column_model.dim, tuple(
            tuple(cols[j][i] for j in range(column_model.dim)) for i in range(self.dim)
        ))
