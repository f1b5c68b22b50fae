"""Finitely generated projective modules cut out by idempotent matrices.

A module is presented by a finite family of objects and an idempotent
degree-0 form matrix e over that family; the module is the image of e
acting on columns.  Generators are the columns of e, dual generators
its rows, and endomorphisms are matrices U with U = e.U.e.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import ObjectId
from .dg import DGCategory
from .derham import get_complex
from .errors import DimensionError, IdempotentError
from .exact_linalg import Vector
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
# traces


def hs_trace(m: ProjectiveModule, u: FormMatrix) -> Vector:
    """Class of the diagonal trace of e.U.e in the degree-0 quotient."""
    w = m.w
    normalized = m.normalize_endomorphism(u)
    rh = get_complex(w)
    return rh.class_of_trace(0, normalized.diagonal_trace(w))
