"""Finitely generated projective modules cut out by idempotent matrices.

A module is presented by a finite family of objects and an idempotent
degree-0 form matrix e over that family; the module is the image of e
acting on columns.  Generators are the columns of e, dual generators
its rows, and endomorphisms are matrices U with U = e.U.e.

Two models of the module tensored with degree-n forms are implemented:

* the column model: columns of degree-n forms fixed by e, computed as
  the kernel of (e - 1) acting blockwise;
* the literal model: the direct sum of fiber (x) form tensor products
  modulo the bimodule relations v.f (x) w = v (x) f.w.

They are canonically isomorphic; the isomorphism is constructed
explicitly so tests can verify it is bijective and natural rather than
taking the equivalence on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .category import ObjectId
from .dg import DGCategory, Form, FormMatrix, block_diag
from .derham import get_complex
from .errors import DimensionError, IdempotentError, ModuleError
from .exact_linalg import (
    MatrixQ,
    QuotientSpace,
    Terms,
    Vector,
    build_quotient,
    densify,
    kernel_basis,
    offsets,
    row_space_basis,
    vec_add,
    vec_scale,
    zero_vector,
)

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
        col = tuple((row[i],) for row in self.idempotent.entries)
        return FormMatrix(0, self.family, (self.family[i],), col)

    def dual_generator(self, i: int) -> FormMatrix:
        """The i-th coordinate functional: row i of the idempotent."""
        return FormMatrix(0, (self.family[i],), self.family, (self.idempotent.entries[i],))

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
    fam, fa, fb = total.family, a.family, b.family

    def block_column(src: ProjectiveModule, top: bool) -> FormMatrix:
        rows = []
        for i, oi in enumerate(fam):
            row = []
            for j, oj in enumerate(src.family):
                if top and i < len(fa):
                    row.append(src.idempotent.entries[i][j])
                elif not top and i >= len(fa):
                    row.append(src.idempotent.entries[i - len(fa)][j])
                else:
                    row.append(w.zero_form(0, oj, oi))
            rows.append(tuple(row))
        return FormMatrix(0, fam, src.family, tuple(rows))

    def block_row(src: ProjectiveModule, left: bool) -> FormMatrix:
        rows = []
        for i, oi in enumerate(src.family):
            row = []
            for j, oj in enumerate(fam):
                if left and j < len(fa):
                    row.append(src.idempotent.entries[i][j])
                elif not left and j >= len(fa):
                    row.append(src.idempotent.entries[i][j - len(fa)])
                else:
                    row.append(w.zero_form(0, oj, oi))
            rows.append(tuple(row))
        return FormMatrix(0, src.family, fam, tuple(rows))

    return DirectSumData(
        module=total,
        inj1=block_column(a, True),
        inj2=block_column(b, False),
        proj1=block_row(a, True),
        proj2=block_row(b, False),
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
    `hom-forms(family[i], anchor)`; the subspace basis is the kernel of
    (e - 1) acting blockwise, in reduced echelon form.
    """

    def __init__(self, module: ProjectiveModule, degree: int, anchor: ObjectId):
        self.module = module
        self.degree = degree
        self.anchor = anchor
        w = module.w
        fam = module.family
        self.block_dims = tuple(w.dim(degree, o.index, anchor.index) for o in fam)
        self.offsets = offsets(self.block_dims)
        self.total_dim = total = sum(self.block_dims)

        if total == 0:
            self.rows: tuple[Vector, ...] = ()
        else:
            entries = []
            for i in range(len(fam)):
                for r in range(self.block_dims[i]):
                    entries.append([Fraction(0)] * total)
            # matrix of (e - 1) acting on stacked coordinates
            for j, oj in enumerate(fam):
                for cidx in range(self.block_dims[j]):
                    colvec = [Fraction(0)] * total
                    basis = w.basis_form(degree, anchor, oj, cidx)
                    for i, oi in enumerate(fam):
                        image = w.compose(module.idempotent.entries[i][j], basis)
                        for k, s in image.terms:
                            colvec[self.offsets[i] + k] += s
                    colvec[self.offsets[j] + cidx] -= 1
                    for r in range(total):
                        entries[r][self.offsets[j] + cidx] = colvec[r]
            mat = MatrixQ(total, total, tuple(tuple(r) for r in entries))
            self.rows = row_space_basis(kernel_basis(mat), total)
        self.pivots = tuple(next(j for j, v in enumerate(r) if v != 0) for r in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def ambient_of_column(self, u: FormMatrix) -> Vector:
        if u.col_family != (self.anchor,) or u.row_family != self.module.family:
            raise DimensionError("column does not match this component")
        if u.degree != self.degree:
            raise DimensionError("column degree does not match this component")
        out: list[Fraction] = []
        for i, d in enumerate(self.block_dims):
            out.extend(densify(u.entries[i][0].terms, d))
        return tuple(out)

    def column_of_ambient(self, v: Vector) -> FormMatrix:
        w = self.module.w
        rows = []
        for i, oi in enumerate(self.module.family):
            off, d = self.offsets[i], self.block_dims[i]
            rows.append((w.form(self.degree, self.anchor, oi, v[off:off + d]),))
        return FormMatrix(self.degree, self.module.family, (self.anchor,), tuple(rows))

    def basis_column(self, k: int) -> FormMatrix:
        return self.column_of_ambient(self.rows[k])

    def coordinates(self, u: FormMatrix) -> Vector:
        """Coordinates of an e-fixed column in the reduced basis."""
        v = self.ambient_of_column(u)
        coords = tuple(v[p] for p in self.pivots)
        check = zero_vector(self.total_dim)
        for s, row in zip(coords, self.rows):
            if s != 0:
                check = vec_add(check, vec_scale(s, row))
        if check != v:
            raise ModuleError("column is not fixed by the module idempotent")
        return coords


# ---------------------------------------------------------------------------
# the literal tensor model


class LiteralTensor:
    """Fibers tensored with forms, modulo the actual bimodule relations.

    Serves as an independent oracle for the column model: same
    dimensions, and `iso_matrix` carries the column basis to classes of
    generator (x) form tensors bijectively.
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

        spanning: list[Vector] = []
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
                            rel = [Fraction(0)] * total
                            # v.f (x) w at the fiber over z2
                            for k, s in enumerate(moved_coords):
                                if s != 0:
                                    rel[self._pos(z2, k, widx)] += s
                            # minus v (x) f.w at the fiber over z
                            fw = w.compose(f, omega)
                            for k, s in fw.terms:
                                rel[self._pos(z, uidx, k)] -= s
                            spanning.append(tuple(rel))
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
        amb = [Fraction(0)] * self.total_dim
        for k, s in enumerate(fiber_coords):
            if s == 0:
                continue
            for l, t in form_terms:
                amb[self._pos(z, k, l)] += s * t
        return self.quotient.coset_coordinates(tuple(amb))

    def iso_matrix(self, column_model: EFixedComponent) -> MatrixQ:
        """Map the column-model basis into tensor classes: u -> sum m_i (x) u_i."""
        w = self.module.w
        fam = self.module.family
        gen_coords = []
        for i, oi in enumerate(fam):
            gen_coords.append(self.fibers[oi.index].coordinates(self.module.generator(i)))
        cols = []
        for k in range(column_model.dim):
            u = column_model.basis_column(k)
            acc = zero_vector(self.dim)
            for i, oi in enumerate(fam):
                ui = u.entries[i][0]
                if ui.is_zero():
                    continue
                acc = vec_add(acc, self.class_of_tensor(oi.index, gen_coords[i], ui.terms))
            cols.append(acc)
        return MatrixQ(self.dim, column_model.dim, tuple(
            tuple(cols[j][i] for j in range(column_model.dim)) for i in range(self.dim)
        ))
