"""Connections on projective modules, their curvature, and families.

A connection on the module cut out by e is stored as a degree-1 matrix
L over the module family.  Its action on an e-fixed column v of any
degree is

    v  |->  C.v + e.d(v),      C := e.(L.e + d(e)),

which satisfies the product rule against right multiplication by forms.
Only e.L.e influences the action, so L is pure gauge off the module;
the operational matrix C is the canonical representative.  The same
formula covers the three ways connections arise here:

* a free module with a chosen coefficient matrix (e = 1, C = L);
* the canonical connection of an idempotent (L = 0, C = e.d(e));
* the compression of a connection along a sub-idempotent, which is
  just "store the cover's operational matrix".

The square of a connection is right-linear over forms, and is
implemented directly by the matrix Gamma = C.C + e.d(C); agreement of
that closed form with literally applying the connection twice is one of
the certified properties, not an assumption.  A connection is
immutable, so C and Gamma are each computed once, on first read: a
connection that is only parsed, exported or traced never multiplies
out C, and Gamma accumulates both of its products into one matrix.

The one-parameter family joining two connections on the same module is
handled by matrices over the polynomial extension; `tilde_curvature`
returns the extended curvature whose main part interpolates the two
curvatures and whose infinitesimal part records the velocity of the
path.
"""

from __future__ import annotations

from .dg import DGCategory
from .errors import DimensionError, ModuleError, TruncationError
from .form_matrix import FormMatrix, ProductAccumulator, block_diag
from .module_algebra import DirectSumData, ProjectiveModule
from .tforms import TildeMatrix, pm_const, poly_matrix, tilde_matrix, tm_add, tm_mul, tm_partial


class Connection:
    """A connection on a projective module, stored as a gauge matrix; C, Gamma and each Gamma^q are kept once read."""

    def __init__(self, module: ProjectiveModule, gauge: FormMatrix):
        if gauge.degree != 1:
            raise DimensionError("connection gauge matrix must consist of degree-1 forms")
        if (gauge.row_family, gauge.col_family) != (module.family, module.family):
            raise DimensionError("connection gauge matrix does not match the module family")
        self.module = module
        self.gauge = gauge
        self._operational = None
        self._powers: dict[int, FormMatrix] = {}  # Gamma^q by q, Gamma itself at 1

    @property
    def w(self) -> DGCategory:
        return self.module.w

    def operational_matrix(self) -> FormMatrix:
        """e.(L.e + d e): the part of the gauge matrix that acts, computed on the first call."""
        if self._operational is None:
            w, e = self.w, self.module.idempotent
            self._operational = e.mul(w, self.gauge.mul(w, e) + e.d(w))
        return self._operational

    def apply(self, column: FormMatrix) -> FormMatrix:
        """Covariant derivative of an e-fixed column of any degree."""
        w = self.w
        if not self.module.contains_column(column):
            raise ModuleError(f"module {self.module.name}: column is not fixed by the idempotent")
        if column.degree + 1 > w.truncation:
            raise TruncationError(
                f"derivative of a degree-{column.degree} column needs truncation {column.degree + 1}"
            )
        return self.operational_matrix().mul(w, column) + self.module.idempotent.mul(w, column.d(w))

    def curvature(self) -> FormMatrix:
        """Gamma = C.C + e.d(C); the square of the connection acts by it.

        A connection is immutable, so Gamma is computed on the first call
        and the same matrix is returned after that.
        """
        w = self.w
        if w.truncation < 2:
            raise TruncationError("curvature needs degree-2 forms; raise the truncation to at least 2")
        if 1 not in self._powers:
            c = self.operational_matrix()
            acc = ProductAccumulator(w, 2, self.module.family, self.module.family)
            acc.add(c, c)
            acc.add(self.module.idempotent, c.d(w))
            self._powers[1] = acc.matrix()
        return self._powers[1]

    def curvature_power(self, q: int) -> FormMatrix:
        """Gamma^q = Gamma^(q-1).Gamma, multiplied out once per q and kept; a degree past the truncation is refused."""
        w = self.w
        if q < 1:
            raise DimensionError("curvature power needs q >= 1")
        if 2 * q > w.truncation:
            raise TruncationError(
                f"Gamma^{q} has degree {2 * q}; raise the truncation to at least {2 * q}"
            )
        if q not in self._powers:
            self._powers[q] = self.curvature() if q == 1 else self.curvature_power(q - 1).mul(w, self.curvature())
        return self._powers[q]


def canonical_connection(module: ProjectiveModule) -> Connection:
    """The connection with zero gauge matrix: v |-> e.d(v), C = e.d(e)."""
    zero = FormMatrix.zero(module.w, module.family, module.family, 1)
    return Connection(module, zero)


def compress(conn: Connection, sub: ProjectiveModule) -> Connection:
    """Restrict a connection to a sub-idempotent over the same family."""
    w = conn.w
    if sub.family != conn.module.family:
        raise DimensionError("compression needs a sub-module over the same family")
    e_big, e_sub = conn.module.idempotent, sub.idempotent
    if e_big.mul(w, e_sub) != e_sub or e_sub.mul(w, e_big) != e_sub:
        raise ModuleError("compression target is not a sub-idempotent of the connection's module")
    return Connection(sub, conn.operational_matrix())


def direct_sum_connection(sum_data: DirectSumData, a: Connection, b: Connection) -> Connection:
    """The connection a + b on the direct sum of the modules of a and b, in that order."""
    w = a.w
    if sum_data.module.idempotent != block_diag(w, a.module.idempotent, b.module.idempotent):
        raise ModuleError(
            f"direct sum {sum_data.module.name} is not the sum of {a.module.name} and {b.module.name}, in that order"
        )
    return Connection(sum_data.module, block_diag(w, a.gauge, b.gauge))


def conjugate(conn: Connection, t: FormMatrix, t_inv: FormMatrix, name: str = "") -> tuple[ProjectiveModule, Connection]:
    """Transport a connection along an invertible degree-0 change of frame.

    Returns the module cut out by t.e.t_inv together with the connection
    acting as t . conn . t_inv on its columns.
    """
    w = conn.w
    module = conn.module
    ident = FormMatrix.identity(w, module.family)
    if t.mul(w, t_inv) != ident or t_inv.mul(w, t) != ident:
        raise ModuleError("change of frame is not invertible with the provided inverse")
    e2 = t.mul(w, module.idempotent).mul(w, t_inv)
    new_module = ProjectiveModule(w, name or f"{module.name}'", e2)
    c = conn.operational_matrix()
    gauge = t.mul(w, c).mul(w, t_inv) + t.mul(w, module.idempotent).mul(w, t_inv.d(w))
    return new_module, Connection(new_module, gauge)


def tilde_curvature(conn0: Connection, conn1: Connection) -> TildeMatrix:
    """Extended curvature of the segment joining two connections.

    The main part is the curvature of the interpolated connection as a
    polynomial in t; the infinitesimal part is its t-velocity, which is
    what the integration operator turns into an explicit primitive.
    """
    w = conn0.w
    if w.truncation < 2:
        raise TruncationError("curvature needs degree-2 forms; raise the truncation to at least 2")
    if conn0.module is not conn1.module:
        raise ModuleError("a connection path needs both endpoints on the same module")
    c0 = conn0.operational_matrix()
    # the operational matrix C0 + t.(C1 - C0) of the joining segment
    c_path = tilde_matrix(w, poly_matrix([c0, conn1.operational_matrix() - c0]))
    e_tilde = tilde_matrix(w, pm_const(conn0.module.idempotent))
    return tm_add(tm_mul(w, c_path, c_path), tm_mul(w, e_tilde, tm_partial(w, c_path)))
