"""Shared builders for the test suite.

Four small categories cover the behaviors under test:

* point: one object, identity only; no forms in positive degree.
* dual numbers: one object, hom = span{1, u} with u.u = 0.
* two points: one object, hom = span{1, c} with c.c = c.
* arrow: two objects s, t and a single arrow a between them.
"""

from fractions import Fraction
import random

import pytest

from lincat import (
    Connection,
    FormMatrix,
    ProjectiveModule,
    build_category,
    universal_dg,
)


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


def m2_category():
    """The 2x2 matrices: matrix units e_ij, identity e11 + e22 (not a basis arrow)."""
    units = ["e11", "e12", "e21", "e22"]
    return build_category(
        ["x"],
        {("x", "x"): units},
        {(a, b): ({f"e{a[1]}{b[2]}": 1} if a[2] == b[1] else {}) for a in units for b in units},
        {"x": {"e11": 1, "e22": 1}},
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
