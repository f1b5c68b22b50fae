"""Shared builders for the test suite.

Four small categories cover the behaviors under test:

* point: one object, identity only; no forms in positive degree.
* dual numbers: one object, hom = span{1, u} with u.u = 0.
* two points: one object, hom = span{1, c} with c.c = c.
* arrow: two objects s, t and a single arrow a between them.

Two families scale them up: `matrix_units_category(n)` (M_n, one object
whose identity is not a basis arrow) and `linear_quiver_category(n)`
(A_n, n objects in a line).  Two tables fail the category axioms:
`broken_unit_category` and `broken_associativity_category`.
"""

from fractions import Fraction
from math import lcm
import random

import pytest

from lincat import (
    Connection,
    FormMatrix,
    ProjectiveModule,
    build_category,
    universal_dg,
)
from lincat.exact_linalg import densify, scalar

from law_oracle import diff_terms


def point_category():
    return build_category(
        ["pt"],
        {("pt", "pt"): ["1"]},
        {("1", "1"): {"1": 1}},
        {"pt": {"1": 1}},
    )


def dual_category():
    return build_category(
        ["x"],
        {("x", "x"): ["1", "u"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "u"): {"u": 1},
            ("u", "1"): {"u": 1},
            ("u", "u"): {},
        },
        {"x": {"1": 1}},
    )


def two_points_category():
    return build_category(
        ["x"],
        {("x", "x"): ["1", "c"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "c"): {"c": 1},
            ("c", "1"): {"c": 1},
            ("c", "c"): {"c": 1},
        },
        {"x": {"1": 1}},
    )


def matrix_units_category(n: int):
    """M_n, the n x n matrices: matrix units e_ij, identity the sum of the e_ii (not a basis arrow)."""
    units = [f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return build_category(
        ["x"],
        {("x", "x"): units},
        {(a, b): ({f"e{a[1]}{b[2]}": 1} if a[2] == b[1] else {}) for a in units for b in units},
        {"x": {f"e{i}{i}": 1 for i in range(1, n + 1)}},
    )


def m2_category():
    return matrix_units_category(2)


def linear_quiver_category(n: int):
    """A_n, the path category of the quiver 0 -> 1 -> ... -> n-1: one arrow p_ij for each i <= j."""
    objects = [str(i) for i in range(n)]
    paths = [(i, j) for i in range(n) for j in range(i, n)]
    return build_category(
        objects,
        {(str(j), str(i)): [f"p{i}{j}"] for i, j in paths},
        {(f"p{j}{k}", f"p{i}{j}"): {f"p{i}{k}": 1} for i, j in paths for k in range(j, n)},
        {str(i): {f"p{i}{i}": 1} for i in range(n)},
    )


def arrow_category():
    return build_category(
        ["s", "t"],
        {("s", "s"): ["es"], ("t", "t"): ["et"], ("t", "s"): ["a"]},
        {
            ("es", "es"): {"es": 1},
            ("et", "et"): {"et": 1},
            ("et", "a"): {"a": 1},
            ("a", "es"): {"a": 1},
        },
        {"s": {"es": 1}, "t": {"et": 1}},
    )


def broken_unit_category():
    """The dual numbers with u named as the identity: the unit laws fail."""
    return build_category(
        ["x"],
        {("x", "x"): ["1", "u"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "u"): {"u": 1},
            ("u", "1"): {"u": 1},
            ("u", "u"): {},
        },
        {"x": {"u": 1}},  # wrong identity element
    )


def broken_associativity_category():
    """(a.a).a = b.a = 0 while a.(a.a) = a.b = 1."""
    return build_category(
        ["x"],
        {("x", "x"): ["1", "a", "b"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "a"): {"a": 1},
            ("a", "1"): {"a": 1},
            ("1", "b"): {"b": 1},
            ("b", "1"): {"b": 1},
            ("a", "a"): {"b": 1},
            ("a", "b"): {"1": 1},
        },
        {"x": {"1": 1}},
    )


@pytest.fixture(scope="session")
def point3():
    return universal_dg(point_category(), 3)


@pytest.fixture(scope="session")
def dual5():
    return universal_dg(dual_category(), 5)


@pytest.fixture(scope="session")
def two5():
    return universal_dg(two_points_category(), 5)


@pytest.fixture(scope="session")
def arrow3():
    return universal_dg(arrow_category(), 3)


@pytest.fixture(scope="session")
def m2_3():
    return universal_dg(m2_category(), 3)


# -- random data -------------------------------------------------------------


def random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))


def random_form(w, n, dom, cod, rng):
    d = w.dim(n, cod.index, dom.index)
    return w.form(n, dom, cod, tuple(random_scalar(rng) for _ in range(d)))


def dense_coords(w, f) -> tuple:
    """The coordinates of a form in the basis of its space, written out from its terms."""
    v = [Fraction(0)] * w.dim(f.degree, f.cod.index, f.dom.index)
    for k, s in f.terms:
        v[k] = s
    return tuple(v)


def dense_diagonal(w, forms) -> tuple:
    """The ambient diagonal vector of one endomorphism form per object, written out densely."""
    return tuple(s for f in forms for s in dense_coords(w, f))


def dense_ambient_d(w, n):
    """d from the ambient diagonal space of degree n, as a dense matrix."""
    objs = range(len(w.base.objects))
    width, width1 = (sum(w.dim(k, x, x) for x in objs) for k in (n, n + 1))
    out = [[Fraction(0)] * width for _ in range(width1)]
    off = off1 = 0
    level = diff_terms(w)[n]
    for x in objs:
        for j, terms in enumerate(level.get((x, x), ())):
            for i, s in terms:
                out[off1 + i][off + j] = s
        off, off1 = off + w.dim(n, x, x), off1 + w.dim(n + 1, x, x)
    return out


def dense_trace_d(w, n, forms) -> tuple:
    """d of the diagonal form of degree n with the given components, by `dense_ambient_d`."""
    v = dense_diagonal(w, forms)
    return tuple(sum((s * a for s, a in zip(r, v)), Fraction(0)) for r in dense_ambient_d(w, n))


def pm_eval(a, t):
    """The form matrix a(t) of a polynomial matrix a at a rational t."""
    t = scalar(t)
    total = a.coeffs[0].scale(0)
    power = Fraction(1)
    for m in a.coeffs:
        total = total + m.scale(power)
        power *= t
    return total


def subspace_basis(q) -> tuple:
    """The echelon rows of a quotient's subspace, written out as dense vectors."""
    return tuple(densify(r, q.ambient_dim) for r in q.numerator_rows)


def fraction_row(row) -> dict:
    """A numerator row (d, {column: int}) of the kernel read as {column: Fraction}, by column, its zeros dropped."""
    d, nums = row
    return {j: Fraction(n, d) for j, n in sorted(nums.items()) if n}


def as_numerators(v, k=1):
    """A sparse row of Fractions as a numerator row over k times the lcm of its denominators."""
    d = k * lcm(*(x.denominator for x in v.values()))
    return d, {j: int(x * d) for j, x in v.items()}


def random_form_matrix(w, degree, row_family, col_family, rng):
    return FormMatrix(
        degree,
        row_family,
        col_family,
        tuple(
            tuple(random_form(w, degree, col_family[j], row_family[i], rng)
                  for j in range(len(col_family)))
            for i in range(len(row_family))
        ),
    )


def random_gauge_connection(module: ProjectiveModule, rng) -> Connection:
    gauge = random_form_matrix(module.w, 1, module.family, module.family, rng)
    return Connection(module, gauge)


def projective_two_points(w) -> ProjectiveModule:
    """Rank-two presentation [[c, 0], [1, 1-c]] over the two-point algebra."""
    x = w.base.objects[0]
    one = w.form(0, x, x, (1, 0))
    cc = w.form(0, x, x, (0, 1))
    z = w.zero_form(0, x, x)
    e = FormMatrix(0, (x, x), (x, x), ((cc, z), (one, one - cc)))
    return ProjectiveModule(w, "P2", e)


def line_module(w) -> ProjectiveModule:
    """Image of the idempotent c over the two-point algebra."""
    x = w.base.objects[0]
    cc = w.form(0, x, x, (0, 1))
    return ProjectiveModule(w, "L", FormMatrix(0, (x,), (x,), ((cc,),)))


def dual_projective(w) -> ProjectiveModule:
    """Presentation [[1, u], [0, 0]] over the dual numbers."""
    x = w.base.objects[0]
    one = w.form(0, x, x, (1, 0))
    uu = w.form(0, x, x, (0, 1))
    z = w.zero_form(0, x, x)
    e = FormMatrix(0, (x, x), (x, x), ((one, uu), (z, z)))
    return ProjectiveModule(w, "P", e)


def graph_module(w) -> ProjectiveModule:
    """Graph-of-the-arrow presentation [[es, 0], [a, 0]] over the arrow category."""
    s, t = w.base.objects
    es = w.identity_form(s)
    a = w.basis_form(0, s, t, 0)
    e = FormMatrix(0, (s, t), (s, t), (
        (es, w.zero_form(0, t, s)),
        (a, w.zero_form(0, t, t)),
    ))
    return ProjectiveModule(w, "G", e)


def bundled_modules(dual5, two5, arrow3):
    """One free and one genuinely projective module over each test algebra."""
    return [
        (dual5, ProjectiveModule.free(dual5, "M", (dual5.base.objects[0],))),
        (dual5, dual_projective(dual5)),
        (two5, ProjectiveModule.free(two5, "F1", (two5.base.objects[0],))),
        (two5, line_module(two5)),
        (two5, projective_two_points(two5)),
        (arrow3, ProjectiveModule.free(arrow3, "F2", tuple(arrow3.base.objects))),
        (arrow3, graph_module(arrow3)),
    ]
