from fractions import Fraction
import random

import pytest

from lincat.dg import universal_dg
from lincat.errors import DimensionError, IdempotentError, ModuleError
from lincat.exact_linalg import densify, rref
from lincat.form_matrix import FormMatrix
from lincat.module_algebra import (
    EFixedComponent,
    ProjectiveModule,
    direct_sum,
    evaluation_pairing,
    hs_trace,
    rank_one,
)

from lincat.workspace import fixture_names, load_fixture

from conftest import (
    bundled_modules,
    dual_projective,
    graph_module,
    line_module,
    m2_category,
    projective_two_points,
    random_form_matrix,
)
from module_oracles import LiteralTensor, dense_fixed_rows


def random_endomorphism(w, m, rng):
    raw = random_form_matrix(w, 0, m.family, m.family, rng)
    return m.normalize_endomorphism(raw)


def random_fixed_column(w, m, anchor, rng):
    raw = random_form_matrix(w, 0, m.family, (anchor,), rng)
    return m.idempotent.mul(w, raw)


def random_dual_row(w, m, anchor, rng):
    raw = random_form_matrix(w, 0, (anchor,), m.family, rng)
    return raw.mul(w, m.idempotent)


def test_non_idempotent_rejected(dual5):
    w = dual5
    x = w.base.objects[0]
    u = w.basis_form(0, x, x, 1)
    bad = FormMatrix(0, (x,), (x,), ((u,),))  # u.u = 0 != u
    with pytest.raises(IdempotentError) as exc:
        ProjectiveModule(w, "bad", bad)
    assert exc.value.witness == (0, 0)
    du = w.basis_form(1, x, x, 0)
    with pytest.raises(DimensionError):
        ProjectiveModule(w, "graded", FormMatrix(1, (x,), (x,), ((du,),)))


def test_dual_basis_identity(dual5, two5, arrow3):
    # sum of generator(i).dual_generator(i) rebuilds the idempotent
    for w, m in bundled_modules(dual5, two5, arrow3):
        total = FormMatrix.zero(w, m.family, m.family, 0)
        for i in range(m.size):
            total = total + rank_one(m, m.generator(i), m.dual_generator(i))
        assert total == m.idempotent
        assert m.idempotent.mul(w, m.idempotent) == m.idempotent


def test_involution_squares_to_identity(dual5, two5, arrow3):
    for w, m in bundled_modules(dual5, two5, arrow3):
        pi = m.involution()
        assert pi.mul(w, pi) == FormMatrix.identity(w, m.family)
        assert pi == m.idempotent.scale(2) - FormMatrix.identity(w, m.family)


def test_normalize_endomorphism(dual5, two5, arrow3):
    rng = random.Random(51)
    for w, m in bundled_modules(dual5, two5, arrow3):
        for _ in range(5):
            u = random_endomorphism(w, m, rng)
            assert m.normalize_endomorphism(u) == u  # already e-sandwiched
            assert m.idempotent.mul(w, u) == u
            assert u.mul(w, m.idempotent) == u
    with pytest.raises(DimensionError):
        m = line_module(two5)
        m.normalize_endomorphism(FormMatrix.identity(two5, (two5.base.objects[0],) * 2))


def test_trace_cyclicity_random_pairs(dual5, two5, arrow3):
    rng = random.Random(52)
    checked = 0
    for w, m in bundled_modules(dual5, two5, arrow3):
        for _ in range(16):
            u = random_endomorphism(w, m, rng)
            v = random_endomorphism(w, m, rng)
            assert hs_trace(m, u.mul(w, v)) == hs_trace(m, v.mul(w, u))
            checked += 1
    assert checked >= 100


def test_trace_of_rank_one_matches_evaluation(dual5, two5, arrow3):
    rng = random.Random(53)
    for w, m in bundled_modules(dual5, two5, arrow3):
        for i in range(m.size):
            col, row = m.generator(i), m.dual_generator(i)
            assert hs_trace(m, rank_one(m, col, row)) == evaluation_pairing(m, row, col)
        for _ in range(5):
            anchor = rng.choice(w.base.objects)
            col = random_fixed_column(w, m, anchor, rng)
            row = random_dual_row(w, m, anchor, rng)
            assert hs_trace(m, rank_one(m, col, row)) == evaluation_pairing(m, row, col)


def test_fixed_column_predicates(two5):
    w = two5
    m = line_module(w)
    x = w.base.objects[0]
    c = w.basis_form(0, x, x, 1)
    one = w.basis_form(0, x, x, 0)
    fixed = FormMatrix(0, m.family, (x,), ((c,),))
    assert m.contains_column(fixed)
    loose = FormMatrix(0, m.family, (x,), ((one,),))
    assert not m.contains_column(loose)


def test_direct_sum_identities(dual5, two5, arrow3):
    pairs = [
        (two5, line_module(two5), projective_two_points(two5)),
        (dual5, dual_projective(dual5), ProjectiveModule.free(dual5, "M", (dual5.base.objects[0],))),
        (arrow3, graph_module(arrow3), ProjectiveModule.free(arrow3, "F", tuple(arrow3.base.objects))),
    ]
    for w, a, b in pairs:
        s = direct_sum(a, b)
        assert s.module.idempotent.mul(w, s.module.idempotent) == s.module.idempotent
        assert s.proj1.mul(w, s.inj1) == a.idempotent
        assert s.proj2.mul(w, s.inj2) == b.idempotent
        assert s.proj1.mul(w, s.inj2) == FormMatrix.zero(w, a.family, b.family, 0)
        assert s.proj2.mul(w, s.inj1) == FormMatrix.zero(w, b.family, a.family, 0)
        recombined = s.inj1.mul(w, s.proj1) + s.inj2.mul(w, s.proj2)
        assert recombined == s.module.idempotent
        # trace is additive across the biproduct blocks
        rng = random.Random(54)
        u = random_endomorphism(w, a, rng)
        v = random_endomorphism(w, b, rng)
        mixed = s.inj1.mul(w, u).mul(w, s.proj1) + s.inj2.mul(w, v).mul(w, s.proj2)
        lhs = hs_trace(s.module, mixed)
        rhs = tuple(p + q for p, q in zip(hs_trace(a, u), hs_trace(b, v)))
        assert lhs == rhs


def test_column_model_matches_tensor_model(dual5, two5, arrow3):
    # same dimension in every degree at every anchor, and the generator
    # tensor map is a bijection between the two models
    for w, m in bundled_modules(dual5, two5, arrow3):
        for n in range(0, 4):
            for anchor in w.base.objects:
                ef = EFixedComponent(m, n, anchor)
                lt = LiteralTensor(m, n, anchor)
                assert ef.dim == lt.dim
                if ef.dim:
                    iso = lt.iso_matrix(ef)
                    assert rref(iso).rank == ef.dim


def test_tensor_model_relations(two5):
    # v.f (x) w and v (x) f.w land in the same class
    w = two5
    m = line_module(w)
    x = w.base.objects[0]
    lt = LiteralTensor(m, 2, x)
    fib = lt.fibers[x.index]
    c = w.basis_form(0, x, x, 1)
    for k in range(fib.dim):
        v = fib.basis_column(k)
        moved = FormMatrix(0, m.family, (x,), ((w.compose(v.entries[0][0], c),),))
        for widx in range(w.dim(2, x.index, x.index)):
            omega = w.basis_form(2, x, x, widx)
            lhs = lt.class_of_tensor(x.index, fib.coordinates(moved), omega.terms)
            rhs = lt.class_of_tensor(x.index, fib.coordinates(v), w.compose(c, omega).terms)
            assert lhs == rhs


def test_column_model_coordinates(dual5):
    w = dual5
    m = dual_projective(w)
    x = w.base.objects[0]
    for n in (0, 1, 2):
        ef = EFixedComponent(m, n, x)
        for k in range(ef.dim):
            assert ef.coordinates(ef.basis_column(k)) == tuple(Fraction(int(i == k)) for i in range(ef.dim))
    ef0 = EFixedComponent(m, 0, x)
    one = w.basis_form(0, x, x, 0)
    zero = w.zero_form(0, x, x)
    loose = FormMatrix(0, m.family, (x,), ((zero,), (one,)))
    with pytest.raises(ModuleError):
        ef0.coordinates(loose)
    # a stacked sparse row is split into the blocks of the family
    assert ef0.column_of_ambient(ef0.ambient_of_column(loose)) == loose
    for outside in ({ef0.total_dim: Fraction(1)}, {-1: Fraction(1)}):
        with pytest.raises(DimensionError, match="outside"):
            ef0.column_of_ambient(outside)


def m2_modules(truncation):
    """A rank-one idempotent and the free module of rank two over M2."""
    w = universal_dg(m2_category(), truncation)
    x = w.base.objects[0]
    e = FormMatrix(0, (x,), (x,), ((w.form(0, x, x, (2, -2, 1, -1)),),))
    return [ProjectiveModule(w, "P", e), ProjectiveModule.free(w, "F", (x, x))]


def test_fixed_columns_match_the_dense_kernel_of_e_minus_one():
    # the echelon basis of the e-images is the reduced basis of ker(e - 1)
    modules = [m for name in fixture_names() for m in load_fixture(name).modules.values()]
    modules += m2_modules(3) + m2_modules(4)
    compared = nonzero = 0
    for m in modules:
        w = m.w
        for n in range(w.truncation + 1):
            for anchor in w.base.objects:
                ef = EFixedComponent(m, n, anchor)
                expected = dense_fixed_rows(m, n, anchor)
                assert tuple(densify(r, ef.total_dim) for r in ef.rows) == expected, (m.name, n, anchor)
                assert ef.pivots == tuple(next(j for j, s in enumerate(r) if s) for r in expected)
                for k in range(ef.dim):
                    assert ef.coordinates(ef.basis_column(k)) == tuple(Fraction(int(i == k)) for i in range(ef.dim))
                compared += 1
                nonzero += ef.dim > 0
    assert (compared, nonzero) == (73, 56)
