"""Matrices over Q[t] and Q[t]e; a single form over the extension is a 1 x 1 matrix."""

from fractions import Fraction
import random

import pytest

from lincat import FormMatrix
from lincat.errors import DimensionError
from lincat.form_matrix import ProductAccumulator
from lincat.workspace import load_fixture
from lincat.tforms import (
    TildeMatrix,
    pm_add,
    pm_const,
    pm_d,
    pm_mul,
    pm_scale,
    pm_t_derivative,
    poly_matrix,
    tilde_matrix,
    tm_add,
    tm_mul,
    tm_partial,
    tm_power,
)

from commutator_oracles import pm_shift
from conftest import pm_eval, random_form_matrix

UNIVERSAL_FIXTURES = ["arrow_universal", "dual_numbers_universal", "point_universal", "two_points_universal"]


def one(f):
    """The 1 x 1 form matrix holding f."""
    return FormMatrix(f.degree, (f.cod,), (f.dom,), ((f,),))


def entry(m):
    """The form in a 1 x 1 form matrix."""
    return m.entries[0][0]


def random_poly(w, n, dom, cod, rng, tdeg=2):
    return poly_matrix([random_form_matrix(w, n, (cod,), (dom,), rng) for _ in range(tdeg + 1)])


def random_tilde(w, n, dom, cod, rng):
    # under degree 0 the e-part has degree -1: no coordinates, no draws
    part0 = random_poly(w, n, dom, cod, rng)
    return TildeMatrix(part0, random_poly(w, n - 1, dom, cod, rng))


def random_tilde_matrix(w, n, fam, rng):
    part0 = poly_matrix([random_form_matrix(w, n, fam, fam, rng) for _ in range(3)])
    return TildeMatrix(part0, poly_matrix([random_form_matrix(w, n - 1, fam, fam, rng) for _ in range(2)]))


def tm_scale(a, s):
    return TildeMatrix(pm_scale(a.part0, s), pm_scale(a.part1, s))


def pm_is_zero(p):
    return all(m.is_zero() for m in p.coeffs)


def tm_sub_is_zero(a, b):
    return pm_is_zero(pm_add(a.part0, pm_scale(b.part0, -1))) and pm_is_zero(pm_add(a.part1, pm_scale(b.part1, -1)))


def test_poly_form_trims_and_validates(dual5):
    w = dual5
    x = w.base.objects[0]
    z = one(w.zero_form(1, x, x))
    f = one(w.basis_form(1, x, x, 0))
    p = poly_matrix((f, z, z))
    assert len(p.coeffs) == 1
    with pytest.raises(DimensionError):
        poly_matrix(())
    with pytest.raises(DimensionError):
        poly_matrix((f, one(w.basis_form(0, x, x, 0))))  # mixed ambient degrees


def test_poly_eval_respects_ring_ops(dual5):
    w = dual5
    rng = random.Random(41)
    x = w.base.objects[0]
    for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
        for _ in range(8):
            a = random_poly(w, 1, x, x, rng)
            b = random_poly(w, 1, x, x, rng)
            prod = entry(pm_eval(pm_mul(w, a, b), t))
            assert prod.terms == w.compose(entry(pm_eval(a, t)), entry(pm_eval(b, t))).terms
            total = entry(pm_eval(pm_add(a, b), t))
            assert total.terms == (entry(pm_eval(a, t)) + entry(pm_eval(b, t))).terms
            half = entry(pm_eval(pm_scale(a, Fraction(1, 2)), t))
            assert half.terms == entry(pm_eval(a, t)).scale(Fraction(1, 2)).terms


def test_poly_d_commutes_with_eval(dual5):
    w = dual5
    rng = random.Random(42)
    x = w.base.objects[0]
    for _ in range(15):
        a = random_poly(w, 1, x, x, rng)
        for t in (Fraction(0), Fraction(1), Fraction(3)):
            assert entry(pm_eval(pm_d(w, a), t)).terms == w.d(entry(pm_eval(a, t))).terms


def test_poly_t_derivative(dual5):
    w = dual5
    x = w.base.objects[0]
    f = one(w.basis_form(1, x, x, 0))
    dp = pm_t_derivative(pm_shift(pm_const(f), 2))  # d/dt (f.t^2)
    assert dp.coeffs == pm_shift(pm_const(f.scale(2)), 1).coeffs
    assert pm_is_zero(pm_t_derivative(pm_const(f)))


def test_tilde_partial_squares_to_zero(dual5, two5):
    rng = random.Random(43)
    for w in (dual5, two5):
        x = w.base.objects[0]
        for n in (1, 2, 3):
            for _ in range(10):
                a = random_tilde(w, n, x, x, rng)
                dd = tm_partial(w, tm_partial(w, a))
                assert pm_is_zero(dd.part0)
                assert pm_is_zero(dd.part1)


def test_tilde_leibniz(dual5, two5):
    rng = random.Random(44)
    for w in (dual5, two5):
        x = w.base.objects[0]
        for _ in range(20):
            p = rng.randint(1, 2)
            q = rng.randint(1, 2)
            a = random_tilde(w, p, x, x, rng)
            b = random_tilde(w, q, x, x, rng)
            lhs = tm_partial(w, tm_mul(w, a, b))
            rhs = tm_add(
                tm_mul(w, tm_partial(w, a), b),
                tm_scale(tm_mul(w, a, tm_partial(w, b)), -1 if p % 2 else 1),
            )
            assert tm_sub_is_zero(lhs, rhs)


def test_tilde_compose_epsilon_sign(dual5):
    # the epsilon part of a.b is a0.b1 + (-1)^{deg b} a1.b0
    w = dual5
    x = w.base.objects[0]
    du = w.basis_form(1, x, x, 0)
    u = w.basis_form(0, x, x, 1)
    a = TildeMatrix(pm_const(one(du)), pm_const(one(u)))

    b_even = TildeMatrix(pm_const(one(w.compose(du, du))), pm_const(one(du)))
    ab = tm_mul(w, a, b_even)
    expected = w.compose(du, du) + w.compose(u, w.compose(du, du))
    assert entry(ab.part1.coeffs[0]).terms == expected.terms

    b_odd = TildeMatrix(pm_const(one(du)), pm_const(one(u)))
    ab2 = tm_mul(w, a, b_odd)
    expected2 = w.compose(du, u) - w.compose(u, du)
    assert entry(ab2.part1.coeffs[0]).terms == expected2.terms


def test_tilde_partial_t_derivative_sign(dual5):
    # the epsilon part of the differential carries (-1)^{n+1} times d/dt
    w = dual5
    x = w.base.objects[0]
    du = w.basis_form(1, x, x, 0)
    u = w.basis_form(0, x, x, 1)

    a1 = tilde_matrix(w, pm_shift(pm_const(one(du)), 1))  # degree 1: sign +1
    out1 = tm_partial(w, a1)
    assert entry(pm_eval(out1.part1, Fraction(1))).terms == du.terms

    a0 = tilde_matrix(w, pm_shift(pm_const(one(u)), 1))  # degree 0: sign -1
    out0 = tm_partial(w, a0)
    assert entry(pm_eval(out0.part1, Fraction(1))).terms == u.scale(-1).terms


def test_degree_0_carries_a_zero_e_part_of_degree_minus_1(dual5, arrow3):
    w = dual5
    x = w.base.objects[0]
    u = w.basis_form(0, x, x, 1)
    a = tilde_matrix(w, pm_shift(pm_const(one(u)), 1))  # u.t + 0.e
    zero = pm_const(FormMatrix.zero(w, (x,), (x,), -1))
    assert a.part1 == zero
    product = tm_mul(w, a, a)
    assert product.degree == 0 and product.part1 == zero
    assert product.part0 == pm_mul(w, a.part0, a.part0)
    with pytest.raises(DimensionError, match="^e-component must sit one degree lower$"):
        TildeMatrix(a.part0, a.part0)
    # a product of degree-0 matrices over mixed families, and its e-part
    s, t = arrow3.base.objects
    rng = random.Random(49)
    b = random_tilde(arrow3, 0, s, t, rng)
    c = random_tilde(arrow3, 0, t, t, rng)
    cb = tm_mul(arrow3, c, b)
    assert not pm_is_zero(cb.part0) and cb.part1 == pm_const(FormMatrix.zero(arrow3, (t,), (s,), -1))


def test_tilde_associativity(two5):
    w = two5
    rng = random.Random(45)
    x = w.base.objects[0]
    for _ in range(15):
        a = random_tilde(w, rng.randint(1, 2), x, x, rng)
        b = random_tilde(w, rng.randint(1, 2), x, x, rng)
        c = random_tilde(w, 1, x, x, rng)
        lhs = tm_mul(w, tm_mul(w, a, b), c)
        rhs = tm_mul(w, a, tm_mul(w, b, c))
        assert tm_sub_is_zero(lhs, rhs)


def test_tilde_matrix_partial_squares_to_zero(dual5):
    w = dual5
    rng = random.Random(46)
    x = w.base.objects[0]
    fam = (x, x)
    for n in (1, 2):
        for _ in range(6):
            a = random_tilde_matrix(w, n, fam, rng)
            dd = tm_partial(w, tm_partial(w, a))
            assert pm_is_zero(dd.part0) and pm_is_zero(dd.part1)


def test_tilde_matrix_leibniz_and_power(dual5):
    w = dual5
    rng = random.Random(47)
    x = w.base.objects[0]
    fam = (x, x)
    for _ in range(10):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        a = random_tilde_matrix(w, p, fam, rng)
        b = random_tilde_matrix(w, q, fam, rng)
        lhs = tm_partial(w, tm_mul(w, a, b))
        da_b = tm_mul(w, tm_partial(w, a), b)
        a_db = tm_mul(w, a, tm_partial(w, b))
        rhs_part0 = pm_add(da_b.part0, pm_scale(a_db.part0, -1 if p % 2 else 1))
        rhs_part1 = pm_add(da_b.part1, pm_scale(a_db.part1, -1 if p % 2 else 1))
        assert pm_is_zero(pm_add(lhs.part0, pm_scale(rhs_part0, -1)))
        assert pm_is_zero(pm_add(lhs.part1, pm_scale(rhs_part1, -1)))

    a = random_tilde_matrix(w, 1, fam, rng)
    assert tm_sub_is_zero(tm_power(w, a, 2), tm_mul(w, a, a))
    assert tm_sub_is_zero(tm_power(w, a, 3), tm_mul(w, tm_mul(w, a, a), a))
    with pytest.raises(DimensionError):
        tm_power(w, a, 0)


def test_poly_matrix_helpers(dual5):
    w = dual5
    rng = random.Random(48)
    x = w.base.objects[0]
    fam = (x, x)
    m = random_form_matrix(w, 1, fam, fam, rng)
    p = pm_const(m)
    assert pm_eval(p, Fraction(5)) == m
    assert pm_eval(pm_d(w, p), Fraction(3)) == m.d(w)
    assert pm_is_zero(pm_t_derivative(p))
    prod = pm_mul(w, p, p)
    assert pm_eval(prod, Fraction(2)) == m.mul(w, m)
    for t in (Fraction(0), Fraction(1), Fraction(-2)):
        n = random_form_matrix(w, 1, fam, fam, rng)
        q = poly_matrix([m, n])  # m + n.t
        assert pm_eval(q, t) == m + n.scale(t)


# -- products against an entrywise oracle ------------------------------------
#
# The oracle is the plain definition: each entry sums `compose` products
# with `Form.__add__`, coefficient by coefficient for polynomials, and a
# TildeMatrix product adds its two e-terms as separate polynomial products.


def oracle_mul(w, a, b):
    deg = a.degree + b.degree
    rows = []
    for i, oi in enumerate(a.row_family):
        row = []
        for j, oj in enumerate(b.col_family):
            acc = w.zero_form(deg, oj, oi)
            for k in range(len(a.col_family)):
                acc = acc + w.compose(a.entries[i][k], b.entries[k][j])
            row.append(acc)
        rows.append(tuple(row))
    return FormMatrix(deg, a.row_family, b.col_family, tuple(rows))


def oracle_pm_mul(w, a, b):
    deg = a.degree + b.degree
    coeffs = [FormMatrix.zero(w, a.row_family, b.col_family, deg) for _ in range(len(a.coeffs) + len(b.coeffs) - 1)]
    for i, ma in enumerate(a.coeffs):
        for j, mb in enumerate(b.coeffs):
            coeffs[i + j] = coeffs[i + j] + oracle_mul(w, ma, mb)
    return poly_matrix(coeffs)


def oracle_tm_mul(w, a, b):
    part1 = pm_add(oracle_pm_mul(w, a.part0, b.part1),
                   pm_scale(oracle_pm_mul(w, a.part1, b.part0), -1 if b.degree % 2 else 1))
    return TildeMatrix(oracle_pm_mul(w, a.part0, b.part0), part1)


def holey_matrix(w, degree, rows, cols, rng):
    """A random form matrix with about a third of its entries zero."""
    m = random_form_matrix(w, degree, rows, cols, rng)
    return FormMatrix(degree, rows, cols, tuple(
        tuple(f if rng.random() < 0.65 else w.zero_form(degree, f.dom, f.cod) for f in row)
        for row in m.entries
    ))


def holey_poly(w, degree, rows, cols, rng):
    """Up to three t-coefficients; a middle one is sometimes zero."""
    coeffs = [holey_matrix(w, degree, rows, cols, rng) for _ in range(rng.randint(1, 3))]
    if len(coeffs) == 3 and rng.random() < 0.5:
        coeffs[1] = FormMatrix.zero(w, rows, cols, degree)
    return poly_matrix(coeffs)


def holey_tilde(w, degree, rows, cols, rng):
    # holey_poly draws even where no forms live: a degree-0 e-part is built without draws
    if degree == 0:
        return tilde_matrix(w, holey_poly(w, 0, rows, cols, rng))
    part1 = holey_poly(w, degree - 1, rows, cols, rng)
    return TildeMatrix(holey_poly(w, degree, rows, cols, rng), part1)


def product_models(m2_3):
    return [(name, load_fixture(name).dg) for name in UNIVERSAL_FIXTURES] + [("m2", m2_3)]


def random_families(w, rng):
    """Row, inner and column families of random lengths, objects mixed."""
    objs = w.base.objects
    return [tuple(rng.choice(objs) for _ in range(rng.randint(1, 3))) for _ in range(3)]


def test_products_match_entrywise_oracle(m2_3):
    rng = random.Random(61)
    for name, w in product_models(m2_3):
        N = w.truncation
        for p in range(N + 1):
            # q = N + 1 - p puts the product above the truncation: every entry is empty
            for q in range(N + 2 - p):
                rows, inner, cols = random_families(w, rng)
                a, b = holey_matrix(w, p, rows, inner, rng), holey_matrix(w, q, inner, cols, rng)
                assert a.mul(w, b) == oracle_mul(w, a, b), (name, p, q)
                pa, pb = holey_poly(w, p, rows, inner, rng), holey_poly(w, q, inner, cols, rng)
                assert pm_mul(w, pa, pb) == oracle_pm_mul(w, pa, pb), (name, p, q)
                if p + q <= N:
                    ta, tb = holey_tilde(w, p, rows, inner, rng), holey_tilde(w, q, inner, cols, rng)
                    assert tm_mul(w, ta, tb) == oracle_tm_mul(w, ta, tb), (name, p, q)


def test_tilde_product_signs_against_oracle(m2_3):
    # both signs of the e-term a1.b0: right factors of even and odd degree,
    # with a nonzero e-part on each side
    rng = random.Random(62)
    for name, w in product_models(m2_3):
        N = w.truncation
        for p, q in [(1, 1), (1, 2), (2, 1), (0, 2), (2, 0), (0, 0)]:
            if p + q > N:
                continue
            for _ in range(2):
                rows, inner, cols = random_families(w, rng)
                ta, tb = holey_tilde(w, p, rows, inner, rng), holey_tilde(w, q, inner, cols, rng)
                got = tm_mul(w, ta, tb)
                assert got == oracle_tm_mul(w, ta, tb), (name, p, q)
                assert all(type(s) is Fraction for m in got.part0.coeffs for row in m.entries
                           for f in row for _, s in f.terms)


def test_products_refuse_mismatched_inner_families(arrow3):
    w = arrow3
    s, t = w.base.objects
    rng = random.Random(63)
    a, b = holey_matrix(w, 1, (t, s), (s, t), rng), holey_matrix(w, 0, (t, s), (s,), rng)
    with pytest.raises(DimensionError, match="inner families differ"):
        a.mul(w, b)
    with pytest.raises(DimensionError, match="inner families differ"):
        pm_mul(w, pm_const(a), pm_const(b))
    with pytest.raises(DimensionError, match="inner families differ"):
        tm_mul(w, tilde_matrix(w, pm_const(a)), tilde_matrix(w, pm_const(b)))
    with pytest.raises(DimensionError, match="inner families differ"):
        a.mul(w, holey_matrix(w, 0, (s,), (s,), rng))
    # an accumulator takes only products of its own degree and families
    acc = ProductAccumulator(w, 2, (t, s), (s,))
    with pytest.raises(DimensionError, match="do not match"):
        acc.add(a, holey_matrix(w, 0, (s, t), (s,), rng))
