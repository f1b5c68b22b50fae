"""Trace characters of curvature powers and their certificates.

The degree-2q character of a connection is the diagonal trace of
e.Gamma^q (for q = 0, of e alone), taken as a class in the quotient
complex.  Three certified facts about it are produced here, each as
checkable data rather than a boolean:

* `certify_cocycle`: the differential of the character form is an
  explicit rational combination of graded commutators, so its class is
  closed.  The combination is found by exact linear algebra over the
  commutator spanning set and re-verified by substitution.

* `invariance_certificate`: for two connections on the same module, an
  explicit primitive whose differential is the difference of the two
  character classes.  The primitive comes from integrating the
  infinitesimal part of the extended curvature of the joining segment;
  a second primitive is found independently by solving against the
  induced differential, so the two routes corroborate each other.

* `k0_character`: additivity over direct sums makes the character a
  well-defined map on formal differences of modules; every module uses
  its canonical connection, which `invariance_certificate` shows is an
  irrelevant choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .connection import Connection, canonical_connection, tilde_curvature
from .derham import commutator_label, commutator_system, get_complex
from .dg import Form
from .errors import CertificationError, DimensionError, ModuleError, ScalarTypeError, TruncationError
from .exact_linalg import IntRow, Vector, is_zero_vector, solve_rows, vec_sub, zero_vector
from .module_algebra import ProjectiveModule
from .tforms import tm_power, trace_cochain


def chern_form(conn: Connection, q: int) -> tuple[Form, ...]:
    """Object-indexed components of the trace of e.Gamma^q (of e when q = 0)."""
    w = conn.w
    if q < 0:
        raise DimensionError("character index must be non-negative")
    e = conn.module.idempotent
    if q == 0:
        return e.diagonal_trace(w)
    power = conn.curvature_power(q)
    return e.mul(w, power).diagonal_trace(w)


def chern_class(conn: Connection, q: int) -> Vector:
    """The class of the degree-2q character in the quotient complex."""
    w = conn.w
    if q >= 1 and 2 * q > w.truncation:
        raise TruncationError(f"the degree-{2 * q} character needs truncation at least {2 * q}")
    rh = get_complex(w)
    return rh.class_of_trace(2 * q, chern_form(conn, q))


# ---------------------------------------------------------------------------
# closedness certificate


@dataclass(frozen=True)
class CommutatorTerm:
    index: int
    coefficient: Fraction
    label: str


@dataclass(frozen=True)
class CocycleCertificate:
    """d(character form) written out as a combination of commutators."""

    q: int
    degree: int
    terms: tuple[CommutatorTerm, ...]
    spanning_size: int


def certify_cocycle(conn: Connection, q: int) -> CocycleCertificate:
    """Express d Tr(e.Gamma^q) in graded commutators, exactly.

    Requires the truncation to reach degree 2q + 1, where the
    differential of the character form lives; refusing to certify in a
    truncation where that degree was cut off keeps the certificate
    honest (there the identity would hold vacuously).
    """
    w = conn.w
    if q < 0:
        raise DimensionError("character index must be non-negative")
    degree = 2 * q + 1
    if degree > w.truncation:
        raise TruncationError(
            f"certifying the degree-{2 * q} character needs truncation at least {degree}"
        )
    rh = get_complex(w)
    forms = chern_form(conn, q)
    t_den, target = rh.ambient_d(2 * q, rh.ambient_row(2 * q, forms))

    # one row per ambient coordinate, and column j the numerators of
    # commutator j, that is D_j times it: the pivot columns are those of
    # the commutators, so x_j = D_j * y_j / t_den is their solution for
    # the target's numerators over t_den, free variables 0
    span, rows = commutator_system(w, degree)
    y = solve_rows(rows, len(span), (1, target))
    if y is None:
        raise CertificationError(
            f"d of the degree-{2 * q} character is not a commutator combination; "
            "the closedness theorem fails on this input"
        )
    # re-substitution: sum x_j (commutator j) = sum y_j (its numerators) / t_den,
    # with y the integers y_nums over y_den
    y_den, y_nums = y
    combination: IntRow = {}
    for j, s in y_nums.items():
        for i, n in span[j][1].items():
            combination[i] = combination.get(i, 0) + s * n
    if {i: n for i, n in combination.items() if n} != {i: n * y_den for i, n in target.items()}:
        raise CertificationError("commutator combination failed re-substitution")
    cls = rh.class_of_trace(2 * q, forms)
    if not is_zero_vector(rh.d_class(2 * q, cls)):
        raise CertificationError("character class is not closed despite the commutator combination")
    terms = tuple(CommutatorTerm(j, Fraction(span[j][0] * s, y_den * t_den), commutator_label(w, degree, j))
                  for j, s in sorted(y_nums.items()))
    return CocycleCertificate(q=q, degree=degree, terms=terms, spanning_size=len(span))


# ---------------------------------------------------------------------------
# independence of the connection


@dataclass(frozen=True)
class InvarianceCertificate:
    """Primitive data for the difference of two character classes."""

    q: int
    class0: Vector
    class1: Vector
    difference: Vector
    primitive_integral: Vector
    primitive_direct: Vector
    tilde_closed: bool


def invariance_certificate(conn0: Connection, conn1: Connection, q: int) -> InvarianceCertificate:
    """Certify that two connections on one module share their character class.

    The integral route builds the extended curvature of the joining
    segment, checks its trace class is closed upstairs, and integrates
    the infinitesimal part into a primitive; the direct route solves for
    a primitive against the induced differential.  Both primitives are
    verified by applying d.
    """
    if conn0.module is not conn1.module:
        raise ModuleError("invariance compares two connections on the same module")
    w = conn0.w
    rh = get_complex(w)
    if q == 0:
        cls = chern_class(conn0, 0)
        return InvarianceCertificate(0, cls, cls, zero_vector(rh.dim(0)), (), (), True)

    class0 = chern_class(conn0, q)
    class1 = chern_class(conn1, q)
    difference = vec_sub(class1, class0)

    cochain = trace_cochain(w, rh, tm_power(w, tilde_curvature(conn0, conn1), q))
    if not cochain.delta().is_zero():
        raise CertificationError("the extended character cochain is not closed")
    if cochain.ev_at(0) != class0 or cochain.ev_at(1) != class1:
        raise CertificationError("endpoint evaluation disagrees with the direct character classes")
    if not is_zero_vector(cochain.homotopy_defect()):
        raise CertificationError("the homotopy identity failed on the extended character")

    eta = cochain.integral_k()
    if rh.d_class(2 * q - 1, eta) != difference:
        raise CertificationError("the integrated primitive does not hit the class difference")

    direct = rh.is_coboundary(2 * q, difference)
    if direct is None:
        raise CertificationError("no direct primitive exists for the class difference")
    if rh.d_class(2 * q - 1, direct) != difference:
        raise CertificationError("the direct primitive failed re-verification")

    return InvarianceCertificate(
        q=q,
        class0=class0,
        class1=class1,
        difference=difference,
        primitive_integral=eta,
        primitive_direct=direct,
        tilde_closed=True,
    )


# ---------------------------------------------------------------------------
# formal differences of modules


@dataclass(frozen=True)
class K0Entry:
    coefficient: int
    module: ProjectiveModule


def k0_character(entries: Sequence[K0Entry], q: int) -> Vector:
    """Character of a formal integer combination of modules.

    Each module uses its canonical connection; by the invariance
    certificate the result does not depend on that choice.  Before
    anything is computed, a coefficient that is not an `int` (a `bool`,
    a float, a `Fraction`) raises `ScalarTypeError`, since K0
    combinations are integral, and modules over different graded
    categories raise `DimensionError`.
    """
    if not entries:
        raise DimensionError("empty formal combination")
    for i, entry in enumerate(entries):
        c = entry.coefficient
        if type(c) is not int:
            raise ScalarTypeError(
                f"K0 entry {i} (module {entry.module.name}): coefficient {c!r} "
                f"of type {type(c).__name__} is not an integer"
            )
    w = entries[0].module.w
    if any(entry.module.w is not w for entry in entries):
        raise DimensionError("all modules in a combination must share the graded category")
    rh = get_complex(w)
    total = zero_vector(rh.dim(2 * q))
    for entry in entries:
        cls = chern_class(canonical_connection(entry.module), q)
        total = tuple(a + entry.coefficient * b for a, b in zip(total, cls))
    return total
