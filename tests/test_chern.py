from fractions import Fraction
import hashlib
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
from lincat.derham import get_complex
from lincat.dg import universal_dg
from lincat.errors import DimensionError, LincatError, ModuleError, ScalarTypeError, TruncationError
from lincat.exact_linalg import is_zero_vector, vec_add, vec_scale, vec_sub, zero_vector
from lincat.form_matrix import FormMatrix, ProductAccumulator
from lincat.module_algebra import ProjectiveModule, direct_sum
from lincat.tforms import tm_power, trace_cochain, trace_cochain_of_power
from lincat.workspace import fixture_names, load_fixture
from lincat.connection import tilde_curvature

from commutator_oracles import commutator_spanning_labeled
from conftest import (
    bundled_modules,
    dense_trace_d,
    dual_category,
    dual_projective,
    graph_module,
    iso_pair_category,
    line_module,
    projective_two_points,
    random_form_matrix,
    random_gauge_connection,
    seeded_two_points_sums,
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


# sha256 of the repr of `invariance_certificate` (or of the error it raises,
# "TypeName: message") on every ordered pair of connections on one module of
# every fixture, at q = 1 and 2, one line "fixture conn0 conn1 q=q repr" each
INVARIANCE_REPRS_SHA256 = "cba21145397c98978915359b2fb9da8119ae91a12423f76eb5f29fa0f2a16ed0"


def test_invariance_certificates_on_every_fixture_are_pinned():
    lines = []
    for name in fixture_names():
        ws = load_fixture(name)
        for a, c0 in ws.connections.items():
            for b, c1 in ws.connections.items():
                if c0.module is not c1.module:
                    continue
                for q in (1, 2):
                    try:
                        r = repr(invariance_certificate(c0, c1, q))
                    except LincatError as exc:
                        r = f"{type(exc).__name__}: {exc}"
                    lines.append(f"{name} {a} {b} q={q} {r}")
    assert len(lines) == 38
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == INVARIANCE_REPRS_SHA256


# sha256 over the seeded sums of F, L and P over two points at truncation 8
# (`seeded_two_points_sums(w, 40)`), at q = 1, 2 and 3, of three lines per
# case: the repr of `chern_form`, the terms (index, coefficient, label) of
# `certify_cocycle`, and the repr of `invariance_certificate` from the
# canonical connection; recorded before the curvature powers were kept
SEEDED_CHARACTERS_SHA256 = "7ba5d4995d32fa8f1ce1181c797bc9df2b6d42de0556919075a57de2d191d0ce"


def test_characters_of_seeded_sums_up_to_q3_are_pinned(two8):
    lines = []
    for names, conn in seeded_two_points_sums(two8, 40):
        canonical = canonical_connection(conn.module)
        for q in (1, 2, 3):
            terms = [(t.index, str(t.coefficient), t.label) for t in certify_cocycle(conn, q).terms]
            lines += [f"{names} q={q} form {chern_form(conn, q)!r}",
                      f"{names} q={q} cocycle {terms}",
                      f"{names} q={q} invariance {invariance_certificate(canonical, conn, q)!r}"]
    assert len(lines) == 19 * 3 * 3
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == SEEDED_CHARACTERS_SHA256


def counted_adds(monkeypatch) -> list:
    """The right factor of every `ProductAccumulator.add` call from now on, in call order."""
    factors = []
    original = ProductAccumulator.add

    def add(self, a, b, sign=1):
        factors.append(b)
        return original(self, a, b, sign)

    monkeypatch.setattr(ProductAccumulator, "add", add)
    return factors


def test_curvature_powers_multiply_out_once_per_connection(two8, monkeypatch):
    # every case is a new connection, so no power comes from an earlier case
    cases, operations = seeded_two_points_sums(two8, 41), seeded_two_points_sums(two8, 41)
    factors = counted_adds(monkeypatch)
    for names, conn in cases:
        w = conn.w
        # refusals come first, with nothing multiplied out or kept
        with pytest.raises(DimensionError, match=r"^curvature power needs q >= 1$"):
            conn.curvature_power(0)
        with pytest.raises(TruncationError, match=r"^Gamma\^5 has degree 10; raise the truncation to at least 10$"):
            conn.curvature_power(5)
        assert factors == []
        # past C, Gamma takes two products (C.C and e.dC), then Gamma^q one more per q above 1
        conn.operational_matrix()
        factors.clear()
        g3 = conn.curvature_power(3)
        gamma = conn.curvature()
        assert len(factors) == 4 and factors[2:] == [gamma, gamma]
        assert conn.curvature_power(3) is g3 and conn.curvature_power(1) is gamma
        g2 = conn.curvature_power(2)
        assert len(factors) == 4
        assert conn.curvature_power(4) == g3.mul(w, gamma) and len(factors) == 6
        assert (g2, g3) == (gamma.mul(w, gamma), gamma.mul(w, gamma).mul(w, gamma))
        factors.clear()
    # the character, its cocycle certificate and the invariance certificate
    # of one operation, and `lincat chern --certify`, share one Gamma^q
    for names, conn in operations:
        canonical = canonical_connection(conn.module)
        chern_class(conn, 3)
        certify_cocycle(conn, 3)
        invariance_certificate(canonical, conn, 3)
        assert sum(b is conn.curvature() for b in factors) == 2, names
        assert sum(b is canonical.curvature() for b in factors) == 2, names
        factors.clear()


def test_trace_of_a_power_equals_the_trace_of_the_full_power(two8):
    # every ordered pair of connections on one module of every fixture, and
    # the seeded sums from their canonical connection, at every q the
    # truncation allows
    pairs = []
    for name in fixture_names():
        ws = load_fixture(name)
        pairs += [(c0, c1) for c0 in ws.connections.values() for c1 in ws.connections.values()
                  if c0.module is c1.module and c0.w.truncation >= 2]
    pairs += [(canonical_connection(conn.module), conn) for _, conn in seeded_two_points_sums(two8, 42)]
    checked = []
    for c0, c1 in pairs:
        w = c0.w
        rh = get_complex(w)
        gamma = tilde_curvature(c0, c1)
        for q in range(1, w.truncation // 2 + 1):
            assert trace_cochain_of_power(w, rh, gamma, q) == trace_cochain(w, rh, tm_power(w, gamma, q))
            checked.append(q)
    assert (len(checked), checked.count(3), checked.count(4)) == (102, 19, 19)


def test_the_last_product_of_a_traced_power_contracts_no_off_diagonal_entry(monkeypatch):
    # over the free module on both objects of the iso pair, entry (r, c) of
    # a product is off the diagonal exactly when its two objects differ; the
    # kernel looks up one block of stored products for each pair of nonzero
    # factor forms it contracts into an entry, so counting the lookups by
    # their endpoints counts the contractions on and off the diagonal
    w = universal_dg(iso_pair_category(), 6)
    rh = get_complex(w)
    m = ProjectiveModule.free(w, "F", tuple(w.base.objects))
    rng = random.Random(86)
    lookups = {True: 0, False: 0}
    original = w.integral_products

    def integral_products(p, q, x, y, z):
        lookups[x == z] += 1
        return original(p, q, x, y, z)

    monkeypatch.setattr(w, "integral_products", integral_products)

    def count(run) -> tuple[int, int]:
        """(diagonal, off-diagonal) contractions of the call."""
        lookups.update({True: 0, False: 0})
        run()
        return lookups[True], lookups[False]

    for q in (2, 3):
        for _ in range(3):
            gamma = tilde_curvature(canonical_connection(m), random_gauge_connection(m, rng))
            head = count(lambda: tm_power(w, gamma, q - 1))
            full = count(lambda: tm_power(w, gamma, q))
            # the powers below q are built in full; the last product makes the
            # diagonal contractions of the full one and no other
            assert full[0] > head[0] and full[1] > head[1]
            assert count(lambda: trace_cochain_of_power(w, rh, gamma, q)) == (full[0], head[1])
    # a diagonal accumulator hands out traces, never a matrix with false zeros
    a = random_form_matrix(w, 2, m.family, m.family, rng)
    acc = ProductAccumulator.of_diagonal(w, 4, m.family)
    acc.add(a, a)
    assert acc.traces() == a.mul(w, a).diagonal_trace(w)
    with pytest.raises(DimensionError, match="diagonal accumulator"):
        acc.matrix()


def test_free_module_mechanism(dual5, two5):
    # on a free module the segment from the zero connection to L has
    # ev1 - ev0 equal to the class of Tr((dL + L.L)^q), computed by hand
    rng = random.Random(84)
    for w in (dual5, two5):
        x = w.base.objects[0]
        m = ProjectiveModule.free(w, "F", (x, x))
        rh = get_complex(w)
        for q in (1, 2):
            for _ in range(4):
                lam = random_form_matrix(w, 1, m.family, m.family, rng)
                c0 = canonical_connection(m)
                c1 = Connection(m, lam)
                cochain = trace_cochain(w, rh, tm_power(w, tilde_curvature(c0, c1), q))
                jump = vec_sub(cochain.ev_at(1), cochain.ev_at(0))
                gamma = lam.d(w) + lam.mul(w, lam)
                hand = gamma if q == 1 else gamma.mul(w, gamma)
                hand_class = rh.class_of_trace(2 * q, hand.diagonal_trace(w))
                assert jump == hand_class
                assert is_zero_vector(cochain.ev_at(0))


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
