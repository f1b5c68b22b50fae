from fractions import Fraction
import random

import pytest

import lincat.chern
from lincat.chern import (
    K0Entry,
    certify_cocycle,
    chern_class,
    chern_form,
    invariance_certificate,
    k0_character,
)
from lincat.connection import (
    Connection,
    canonical_connection,
    conjugate,
    direct_sum_connection,
)
from lincat.derham import TildeComplex, get_complex
from lincat.dg import universal_dg
from lincat.errors import DimensionError, ModuleError, ScalarTypeError, TruncationError
from lincat.exact_linalg import is_zero_vector, vec_add, vec_scale, vec_sub, zero_vector
from lincat.form_matrix import FormMatrix
from lincat.module_algebra import ProjectiveModule, direct_sum
from lincat.tforms import pm_diagonal_trace, tm_power
from lincat.workspace import load_fixture
from lincat.connection import tilde_curvature

from commutator_oracles import commutator_spanning_labeled
from conftest import (
    bundled_modules,
    dense_trace_d,
    dual_category,
    dual_projective,
    graph_module,
    line_module,
    projective_two_points,
    random_form_matrix,
    random_gauge_connection,
    two_points_category,
)


def test_frozen_character_classes(dual5, two5, arrow3):
    cases = {
        "M": ((Fraction(1), Fraction(0)), (Fraction(0),), (Fraction(0),)),
        "P": ((Fraction(1), Fraction(0)), (Fraction(0),), (Fraction(0),)),
        "F1": ((Fraction(1), Fraction(0)), (Fraction(0),), (Fraction(0),)),
        "L": ((Fraction(0), Fraction(1)), (Fraction(1),), (Fraction(1),)),
        "P2": ((Fraction(1), Fraction(0)), (Fraction(0),), (Fraction(0),)),
        "F2": ((Fraction(1), Fraction(1)), ()),
        "G": ((Fraction(1), Fraction(0)), ()),
    }
    for w, m in bundled_modules(dual5, two5, arrow3):
        conn = canonical_connection(m)
        expected = cases[m.name]
        for q, cls in enumerate(expected):
            assert chern_class(conn, q) == cls, (m.name, q)


def test_line_module_class_renders(two5):
    rh = get_complex(two5)
    conn = canonical_connection(line_module(two5))
    assert rh.render_class(2, chern_class(conn, 1)) == "x: c.dc.dc"
    assert rh.render_class(4, chern_class(conn, 2)) == "x: c.dc.dc.dc.dc"


def modules_at(w):
    """A free and a genuinely projective module over either one-object algebra."""
    x = w.base.objects[0]
    free = ProjectiveModule.free(w, "F", (x,))
    if "c" in w.base.basis_labels(0, 0):
        return [free, line_module(w), projective_two_points(w)]
    return [free, dual_projective(w)]


def test_cocycle_certificates_random(dual5, two5):
    # q = 1 at truncation 3, q = 2 at truncation 5: the differential of
    # the character form is an explicit commutator combination, which is
    # re-verified here directly against the ambient spanning vectors
    rng = random.Random(81)
    runs = [
        (universal_dg(dual_category(), 3), 1),
        (universal_dg(two_points_category(), 3), 1),
        (dual5, 2),
        (two5, 2),
    ]
    for w, q in runs:
        rh = get_complex(w)
        degree = 2 * q + 1
        labeled = commutator_spanning_labeled(w, degree)
        for m in modules_at(w):
            for _ in range(10):
                conn = random_gauge_connection(m, rng)
                cert = certify_cocycle(conn, q)
                assert cert.q == q and cert.degree == degree
                assert cert.spanning_size == len(labeled)
                # independent re-substitution
                target = dense_trace_d(w, 2 * q, chern_form(conn, q))
                acc = zero_vector(rh.ambient_dim(degree))
                for term in cert.terms:
                    vec_j, label_j = labeled[term.index]
                    assert label_j == term.label
                    acc = vec_add(acc, vec_scale(term.coefficient, vec_j))
                assert acc == target
                assert is_zero_vector(rh.d_class(2 * q, chern_class(conn, q)))


def test_invariance_certificates_random(dual5, two5, arrow3):
    rng = random.Random(82)
    for w, m in bundled_modules(dual5, two5, arrow3):
        rh = get_complex(w)
        qs = [1] if w.truncation >= 2 else []
        if w.truncation >= 4:
            qs.append(2)
        for q in qs:
            for _ in range(5):
                c0 = random_gauge_connection(m, rng)
                c1 = random_gauge_connection(m, rng)
                cert = invariance_certificate(c0, c1, q)
                assert cert.tilde_closed
                assert cert.class0 == chern_class(c0, q)
                assert cert.class1 == chern_class(c1, q)
                assert cert.difference == vec_sub(cert.class1, cert.class0)
                # both primitives hit the difference under the induced d
                assert rh.d_class(2 * q - 1, cert.primitive_integral) == cert.difference
                assert rh.d_class(2 * q - 1, cert.primitive_direct) == cert.difference


def test_invariance_certificate_q0(two5):
    m = line_module(two5)
    rng = random.Random(83)
    cert = invariance_certificate(
        random_gauge_connection(m, rng), random_gauge_connection(m, rng), 0
    )
    assert cert.class0 == cert.class1
    assert is_zero_vector(cert.difference)


def test_free_module_mechanism(dual5, two5):
    # on a free module the segment from the zero connection to L has
    # ev1 - ev0 equal to the class of Tr((dL + L.L)^q), computed by hand
    rng = random.Random(84)
    for w in (dual5, two5):
        x = w.base.objects[0]
        m = ProjectiveModule.free(w, "F", (x, x))
        rh = get_complex(w)
        for q in (1, 2):
            tc = TildeComplex(rh, 2 * q)
            for _ in range(4):
                lam = random_form_matrix(w, 1, m.family, m.family, rng)
                c0 = canonical_connection(m)
                c1 = Connection(m, lam)
                gamma = tm_power(w, tilde_curvature(c0, c1), q)
                cochain = tc.cochain_from_traces(
                    2 * q,
                    pm_diagonal_trace(w, gamma.part0),
                    pm_diagonal_trace(w, gamma.part1),
                )
                jump = vec_sub(tc.ev_at(cochain, 1), tc.ev_at(cochain, 0))
                hand = (lam.d(w) + lam.mul(w, lam)).power(w, q)
                hand_class = rh.class_of_trace(2 * q, hand.diagonal_trace(w))
                assert jump == hand_class
                assert is_zero_vector(tc.ev_at(cochain, 0))


def test_additivity_at_the_form_level(dual5, two5):
    rng = random.Random(85)
    for w, a, b in (
        (two5, line_module(two5), projective_two_points(two5)),
        (dual5, dual_projective(dual5), ProjectiveModule.free(dual5, "M", (dual5.base.objects[0],))),
    ):
        ca = random_gauge_connection(a, rng)
        cb = random_gauge_connection(b, rng)
        s = direct_sum(a, b)
        cs = direct_sum_connection(s, ca, cb)
        for q in (0, 1, 2):
            fa = chern_form(ca, q)
            fb = chern_form(cb, q)
            fs = chern_form(cs, q)
            for x in range(len(w.base.objects)):
                assert fs[x] == fa[x] + fb[x]


def test_k0_relations(dual5, two5, arrow3):
    for w, a, b in (
        (two5, line_module(two5), projective_two_points(two5)),
        (dual5, dual_projective(dual5), ProjectiveModule.free(dual5, "M", (dual5.base.objects[0],))),
        (arrow3, graph_module(arrow3), ProjectiveModule.free(arrow3, "F", tuple(arrow3.base.objects))),
    ):
        s = direct_sum(a, b)
        top_q = w.truncation // 2
        for q in range(0, top_q + 1):
            relation = k0_character(
                [K0Entry(1, a), K0Entry(1, b), K0Entry(-1, s.module)], q
            )
            assert is_zero_vector(relation)
    # free modules have vanishing higher character
    for w in (dual5, two5):
        x = w.base.objects[0]
        for size in (1, 2):
            free = ProjectiveModule.free(w, "F", (x,) * size)
            for q in (1, 2):
                assert is_zero_vector(k0_character([K0Entry(1, free)], q))
    # the line module is a genuinely nontrivial class
    line = line_module(two5)
    assert k0_character([K0Entry(1, line)], 1) == (Fraction(1),)
    # and the rank-2 presentation P2 is stably free: P2 - F1 vanishes
    f1 = ProjectiveModule.free(two5, "F1", (two5.base.objects[0],))
    p2 = projective_two_points(two5)
    for q in (0, 1, 2):
        assert is_zero_vector(
            k0_character([K0Entry(1, p2), K0Entry(-1, f1)], q)
        )


@pytest.mark.parametrize("coefficient", [0.5, Fraction(1, 3), True], ids=["float", "fraction", "bool"])
def test_k0_refuses_a_coefficient_that_is_not_an_integer(two5, coefficient):
    # K0 combinations are integral: a float would turn the class inexact
    line = line_module(two5)
    free = ProjectiveModule.free(two5, "F1", (two5.base.objects[0],))
    with pytest.raises(ScalarTypeError, match=f"K0 entry 1 \\(module L\\).*{type(coefficient).__name__}"):
        k0_character([K0Entry(1, free), K0Entry(coefficient, line)], 1)


def test_k0_refuses_a_mixed_combination_before_computing_anything(two5, dual5, monkeypatch):
    calls = []
    for name in ("chern_class", "get_complex"):
        original = getattr(lincat.chern, name)
        monkeypatch.setattr(lincat.chern, name, lambda *args, f=original, n=name: calls.append(n) or f(*args))
    with pytest.raises(DimensionError, match="^all modules in a combination must share the graded category$"):
        k0_character([K0Entry(1, line_module(two5)), K0Entry(1, dual_projective(dual5))], 1)
    assert calls == []
    # the counters do count: the same combination over one category computes
    k0_character([K0Entry(1, line_module(two5))], 1)
    assert {"get_complex", "chern_class"} <= set(calls)


def test_invariance_primitives_on_dual_numbers():
    # the integrated primitives of flat_M to shift_M: the classes agree, the primitive is explicit
    ws = load_fixture("dual_numbers_universal")
    flat, shift = ws.connections["flat_M"], ws.connections["shift_M"]
    for q, primitive in ((1, (Fraction(1),)), (2, (Fraction(2, 3),))):
        cert = invariance_certificate(flat, shift, q)
        assert cert.difference == (Fraction(0),)
        assert cert.primitive_integral == primitive


def test_conjugated_presentation_same_classes(dual5):
    w = dual5
    x = w.base.objects[0]
    m = dual_projective(w)
    one = w.basis_form(0, x, x, 0)
    u = w.basis_form(0, x, x, 1)
    z = w.zero_form(0, x, x)
    t = FormMatrix(0, m.family, m.family, ((one, u), (z, one)))
    t_inv = FormMatrix(0, m.family, m.family, ((one, u.scale(-1)), (z, one)))
    rng = random.Random(86)
    conn = random_gauge_connection(m, rng)
    m2, conn2 = conjugate(conn, t, t_inv)
    for q in (0, 1, 2):
        assert chern_class(conn2, q) == chern_class(conn, q)


def test_truncation_refusals(two5):
    m = line_module(two5)
    conn = canonical_connection(m)
    with pytest.raises(TruncationError):
        chern_class(conn, 3)  # degree 6 > truncation 5
    with pytest.raises(TruncationError):
        certify_cocycle(conn, 3)  # needs degree 7
    w4 = universal_dg(two_points_category(), 4)
    m4 = line_module(w4)
    with pytest.raises(TruncationError):
        certify_cocycle(canonical_connection(m4), 2)  # needs degree 5
    assert chern_class(canonical_connection(m4), 2) == (Fraction(1),)


def test_character_refusals(two5, dual5):
    line = canonical_connection(line_module(two5))
    for call in (chern_form, certify_cocycle):
        with pytest.raises(DimensionError, match="^character index must be non-negative$"):
            call(line, -1)
    projective = canonical_connection(projective_two_points(two5))
    with pytest.raises(ModuleError, match="^invariance compares two connections on the same module$"):
        invariance_certificate(line, projective, 1)
    with pytest.raises(DimensionError, match="^empty formal combination$"):
        k0_character([], 1)
    with pytest.raises(DimensionError, match="^all modules in a combination must share the graded category$"):
        k0_character([K0Entry(1, line.module), K0Entry(1, dual_projective(dual5))], 1)
