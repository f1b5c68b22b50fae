"""The integer product kernel against sums of `compose`, and the form-matrix checks."""

from fractions import Fraction
import random

import pytest

from lincat import ObjectId, build_category, universal_dg, validate_category
from lincat.errors import DimensionError
from lincat.form_matrix import FormMatrix, ProductAccumulator

from conftest import m2_category, two_points_category
from law_oracle import basis_products


def half_idempotent_category():
    """One object, basis 1, h with h.h = h/2: structure constants that are not integers."""
    return build_category(
        ["x"],
        {("x", "x"): ["1", "h"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "h"): {"h": 1},
            ("h", "1"): {"h": 1},
            ("h", "h"): {"h": Fraction(1, 2)},
        },
        {"x": {"1": 1}},
    )


@pytest.fixture(scope="module")
def models():
    half = half_idempotent_category()
    assert validate_category(half) == []
    return [
        ("two_points", universal_dg(two_points_category(), 4)),
        ("m2", universal_dg(m2_category(), 2)),
        ("half", universal_dg(half, 3)),
    ]


def coefficient(rng: random.Random) -> Fraction:
    """Zero about a third of the time; otherwise over a denominator of 1, 2, 3 or 6."""
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 2, 3, 6]))


def matrix(w, degree, rows, cols, rng) -> FormMatrix:
    return FormMatrix(degree, rows, cols, tuple(
        tuple(w.form(degree, dom, cod, [coefficient(rng) for _ in range(w.dim(degree, cod.index, dom.index))])
              for dom in cols)
        for cod in rows
    ))


def oracle(w, degree, rows, cols, products) -> FormMatrix:
    """The sum of sign * a.b, entry by entry, as a sum of `compose` over the inner index."""
    out = []
    for i, cod in enumerate(rows):
        row = []
        for j, dom in enumerate(cols):
            total = w.zero_form(degree, dom, cod)
            for a, b, sign in products:
                for k in range(len(a.col_family)):
                    total = total + w.compose(a.entries[i][k], b.entries[k][j]).scale(sign)
            row.append(total)
        out.append(tuple(row))
    return FormMatrix(degree, tuple(rows), tuple(cols), tuple(out))


def accumulated(w, degree, rows, cols, products) -> FormMatrix:
    acc = ProductAccumulator(w, degree, rows, cols)
    for a, b, sign in products:
        acc.add(a, b, sign)
    return acc.matrix()


def assert_canonical(m: FormMatrix) -> None:
    for row in m.entries:
        for f in row:
            assert all(type(s) is Fraction and s != 0 for _, s in f.terms)
            assert all(k1 < k2 for (k1, _), (k2, _) in zip(f.terms, f.terms[1:]))


def test_integer_kernel_matches_the_compose_oracle(models):
    rng = random.Random(71)
    for name, w in models:
        objs = w.base.objects
        N = w.truncation
        for p in range(N + 1):
            for q in range(N + 1 - p):
                for _ in range(3):
                    rows, inner, cols = (tuple(rng.choice(objs) for _ in range(rng.randint(1, 3))) for _ in range(3))
                    products = [(matrix(w, p, rows, inner, rng), matrix(w, q, inner, cols, rng), sign)
                                for sign in (1, -1, 1)]
                    got = accumulated(w, p + q, rows, cols, products)
                    assert got == oracle(w, p + q, rows, cols, products), (name, p, q)
                    assert_canonical(got)
                    a, b, _ = products[0]
                    assert a.mul(w, b) == oracle(w, p + q, rows, cols, products[:1]), (name, p, q)


def test_a_sum_that_cancels_is_the_empty_form(models):
    rng = random.Random(72)
    for name, w in models:
        x = w.base.objects[0]
        fam = (x, x)
        a, b = matrix(w, 1, fam, fam, rng), matrix(w, 1, fam, fam, rng)
        if not a.mul(w, b).is_zero():
            got = accumulated(w, 2, fam, fam, [(a, b, 1), (a.scale(Fraction(1, 3)), b.scale(3), -1)])
            assert all(f.terms == () for row in got.entries for f in row), name


def test_non_integral_tables_take_the_path_with_a_denominator(models):
    _, w = models[2]
    dens = {w.integral_products(p, q, 0, 0, 0)[0] for p in range(4) for q in range(4 - p)}
    assert max(dens) > 1
    for p in range(4):
        for q in range(4 - p):
            den, rows = w.integral_products(p, q, 0, 0, 0)
            block = basis_products(w, p, q, 0, 0, 0)
            assert [[[(k, Fraction(n, den)) for k, n in t] for t in row] for row in rows] \
                == [[list(t) for t in row] for row in block]
            assert all(type(n) is int for row in rows for t in row for _, n in t)


def test_entries_are_checked_against_the_families(models):
    _, w = models[0]
    x = w.base.objects[0]
    f = w.basis_form(1, x, x, 0)
    # an equal object that is not the family's own still passes
    assert FormMatrix(1, (ObjectId(x.index, x.label),), (x,), ((f,),)).entries[0][0] is f
    with pytest.raises(DimensionError, match="degree 1 != 2"):
        FormMatrix(2, (x,), (x,), ((f,),))
    # the same index in another category, under another label
    other = ObjectId(x.index, "y")
    with pytest.raises(DimensionError, match="endpoints"):
        FormMatrix(1, (other,), (x,), ((f,),))
    with pytest.raises(DimensionError, match="endpoints"):
        FormMatrix(1, (x,), (other,), ((f,),))
