"""Acceptance checks, one test per numbered criterion.

Every identity is asserted with exact rational arithmetic (tolerance
zero).  Each test finishes by printing a single PASS line describing
what was verified; with `pytest -v` the verdict per criterion is also
the PASSED/FAILED mark of the matching test.
"""

from fractions import Fraction
import json
import random
import time

import pytest

from lincat.category import build_category, validate_category
from lincat.chern import (
    K0Entry,
    certify_cocycle,
    chern_class,
    chern_form,
    invariance_certificate,
    k0_character,
)
from lincat.cli import EXIT_OK, main
from lincat.connection import (
    Connection,
    canonical_connection,
    conjugate,
    direct_sum_connection,
    tilde_curvature,
)
from lincat.derham import TildeComplex, get_complex
from lincat.dg import DGCategory, render_form, universal_dg, validate_dg
from lincat.errors import IdempotentError, TruncationError
from lincat.exact_linalg import (
    is_zero_vector,
    rref,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)
from lincat.form_matrix import FormMatrix
from lincat.module_algebra import ProjectiveModule, direct_sum, hs_trace
from lincat.tforms import pm_diagonal_trace, tm_power
from lincat.workspace import fixture_names, load_fixture

from commutator_oracles import commutator_spanning_labeled, tilde_commutator_ranks
from conftest import (
    bundled_modules,
    dense_trace_d,
    dual_category,
    dual_projective,
    graph_module,
    line_module,
    point_category,
    projective_two_points,
    random_form_matrix,
    random_gauge_connection,
    random_scalar,
    two_points_category,
)
from module_oracles import EFixedComponent, LiteralTensor

_T0 = time.monotonic()


def ok(num: int, text: str) -> None:
    print(f"PASS: criterion {num:02d} - {text}")


def random_endo(w, m, rng):
    return m.normalize_endomorphism(random_form_matrix(w, 0, m.family, m.family, rng))


def random_column(w, m, degree, anchor, rng):
    return m.idempotent.mul(w, random_form_matrix(w, degree, m.family, (anchor,), rng))


def modules_at(w):
    """A free and a genuinely projective module over either one-object algebra."""
    x = w.base.objects[0]
    free = ProjectiveModule.free(w, "F", (x,))
    if "c" in w.base.basis_labels(0, 0):
        return [free, line_module(w), projective_two_points(w)]
    return [free, dual_projective(w)]


def random_class(rh, n, rng):
    return tuple(random_scalar(rng) for _ in range(rh.dim(n)))


def random_cochain(tc, n, rng):
    rh = tc.rh
    part0 = [random_class(rh, n, rng) for _ in range(tc.t_bound + 1)]
    # under degree 0 the classes of part 1 are those of degree -1: empty, no draws
    part1 = [random_class(rh, n - 1, rng) for _ in range(tc.t_bound + 1)]
    return tc.cochain(n, part0, part1)


def test_criterion_01_axiom_validators():
    start = time.monotonic()
    names = fixture_names()
    for name in names:
        ws = load_fixture(name)
        assert validate_category(ws.category) == []
        assert validate_dg(ws.dg) == []

    # corruption 1: wrong identity element breaks the unit law
    broken_unit = build_category(
        ["x"],
        {("x", "x"): ["1", "u"]},
        {("1", "1"): {"1": 1}, ("1", "u"): {"u": 1}, ("u", "1"): {"u": 1}, ("u", "u"): {}},
        {"x": {"u": 1}},
    )
    kinds = {v.kind for v in validate_category(broken_unit)}
    assert "identity-left" in kinds or "identity-right" in kinds

    # corruption 2: (a.a).a = 0 while a.(a.a) = 1
    broken_assoc = build_category(
        ["x"],
        {("x", "x"): ["1", "a", "b"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "a"): {"a": 1}, ("a", "1"): {"a": 1},
            ("1", "b"): {"b": 1}, ("b", "1"): {"b": 1},
            ("a", "a"): {"b": 1}, ("a", "b"): {"1": 1},
        },
        {"x": {"1": 1}},
    )
    assert "associativity" in {v.kind for v in validate_category(broken_assoc)}

    # corruption 3: d(1) = th, d(th) = si, so d(d(1)) = si != 0
    bad_square = DGCategory(
        point_category(),
        2,
        {1: {(0, 0): ("th",)}, 2: {(0, 0): ("si",)}},
        {
            (0, 1): {(0, 0, 0): {(0, 0): {0: 1}}},
            (1, 0): {(0, 0, 0): {(0, 0): {0: 1}}},
            (0, 2): {(0, 0, 0): {(0, 0): {0: 1}}},
            (2, 0): {(0, 0, 0): {(0, 0): {0: 1}}},
            (1, 1): {(0, 0, 0): {(0, 0): {0: 0}}},
        },
        {
            0: {(0, 0): {0: {0: 1}}},
            1: {(0, 0): {0: {0: 1}}},
        },
    )
    assert "dg-d-squared" in {v.kind for v in validate_dg(bad_square)}

    # corruption 4: u.du declared equal to du while d(u) = du
    bad_leibniz = DGCategory(
        dual_category(),
        1,
        {1: {(0, 0): ("du",)}},
        {
            (0, 1): {(0, 0, 0): {(0, 0): {0: 1}, (1, 0): {0: 1}}},
            (1, 0): {(0, 0, 0): {(0, 0): {0: 1}, (0, 1): {0: 0}}},
        },
        {0: {(0, 0): {1: {0: 1}}}},
    )
    assert "dg-leibniz" in {v.kind for v in validate_dg(bad_leibniz)}

    # corruption 5: u.u = 0 != u, so u is not an idempotent presentation
    w = universal_dg(dual_category(), 2)
    x = w.base.objects[0]
    u = w.basis_form(0, x, x, 1)
    with pytest.raises(IdempotentError) as caught:
        ProjectiveModule(w, "bad", FormMatrix(0, (x,), (x,), ((u,),)))
    assert caught.value.witness == (0, 0)

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(1, f"validators clean on {len(names)} fixtures, 5 corruptions detected, {elapsed:.2f}s")


def test_criterion_02_dual_bases_and_splitting(dual5, two5, arrow3):
    count = 0
    for w, m in bundled_modules(dual5, two5, arrow3):
        e, every = m.idempotent, range(m.size)
        total = FormMatrix.zero(w, m.family, m.family, 0)
        for i in range(m.size):
            # generator i is column i of e, dual generator i row i
            total = total + e.submatrix(every, (i,)).mul(w, e.submatrix((i,), every))
        assert total == e
        assert e.mul(w, e) == e
        ident = FormMatrix.identity(w, m.family)
        pi = e.scale(2) - ident
        assert pi.mul(w, pi) == ident
        count += 1
    ok(2, f"dual-basis sum, e = e^2 and (2e-1)^2 = 1 on {count} projectives")


def test_criterion_03_trace_cyclicity_and_presentations(dual5, two5, arrow3):
    rng = random.Random(903)
    pairs = 0
    for w, m in bundled_modules(dual5, two5, arrow3):
        for _ in range(16):
            u = random_endo(w, m, rng)
            v = random_endo(w, m, rng)
            assert hs_trace(m, u.mul(w, v)) == hs_trace(m, v.mul(w, u))
            pairs += 1
    assert pairs >= 100

    # the same module under two presentations: e and t.e.t_inv
    w = dual5
    x = w.base.objects[0]
    m = dual_projective(w)
    one = w.basis_form(0, x, x, 0)
    u = w.basis_form(0, x, x, 1)
    z = w.zero_form(0, x, x)
    t = FormMatrix(0, m.family, m.family, ((one, u), (z, one)))
    t_inv = FormMatrix(0, m.family, m.family, ((one, u.scale(-1)), (z, one)))
    m2, _ = conjugate(canonical_connection(m), t, t_inv, "P_alt")
    assert m2.idempotent != m.idempotent
    for _ in range(8):
        phi = random_endo(w, m, rng)
        phi2 = m2.normalize_endomorphism(t.mul(w, phi).mul(w, t_inv))
        assert hs_trace(m, phi) == hs_trace(m2, phi2)
    ok(3, f"cyclicity on {pairs} random pairs, trace equal across both presentations")


def test_criterion_04_curvature(dual5, two5, arrow3):
    rng = random.Random(904)
    conns = []
    for name in fixture_names():
        ws = load_fixture(name)
        for cname in sorted(ws.connections):
            conns.append((ws.dg, ws.connections[cname]))
    fixture_count = len(conns)
    for w, m in bundled_modules(dual5, two5, arrow3):
        conns.append((w, canonical_connection(m)))
        conns.append((w, random_gauge_connection(m, rng)))

    composed = 0
    iterated = 0
    for w, conn in conns:
        m = conn.module
        if w.truncation < 2:
            with pytest.raises(TruncationError):
                conn.curvature()
            continue
        gamma = conn.curvature()
        degrees = (0, 1) if w.truncation >= 3 else (0,)
        for p in degrees:
            for _ in range(3):
                v = random_column(w, m, p, rng.choice(w.base.objects), rng)
                assert conn.apply(conn.apply(v)) == gamma.mul(w, v)
                composed += 1
        if w.truncation >= 4:
            g2 = conn.curvature_power(2)
            assert g2 == gamma.mul(w, gamma)
            for _ in range(2):
                v = random_column(w, m, 0, rng.choice(w.base.objects), rng)
                out = v
                for _ in range(4):
                    out = conn.apply(out)
                assert out == g2.mul(w, v)
                iterated += 1
    assert composed >= 50 and iterated >= 10

    # matrix identity d(G^q) = G^q.L - L.G^q needs room up to degree 2q + 1
    for cat in (dual_category(), two_points_category()):
        w = universal_dg(cat, 7)
        x = w.base.objects[0]
        m = ProjectiveModule.free(w, "F", (x, x))
        for _ in range(3):
            lam = random_form_matrix(w, 1, m.family, m.family, rng)
            conn = Connection(m, lam)
            for q in (1, 2, 3):
                gq = conn.curvature_power(q)
                assert gq.d(w) == gq.mul(w, lam) - lam.mul(w, gq)
    ok(4, f"square = operator twice on {composed} columns ({fixture_count} bundled connections), "
          f"power-2 iteration on {iterated}, commutator identity for q <= 3")


def test_criterion_05_cocycle_certificates(dual5, two5):
    rng = random.Random(905)
    runs = [
        (universal_dg(dual_category(), 3), 1),
        (universal_dg(two_points_category(), 3), 1),
        (dual5, 2),
        (two5, 2),
    ]
    certified = 0
    for w, q in runs:
        assert w.truncation == 2 * q + 1  # no slack above the target degree
        rh = get_complex(w)
        degree = 2 * q + 1
        labeled = commutator_spanning_labeled(w, degree)
        per_fixture = 0
        for m in modules_at(w):
            for _ in range(5):
                conn = random_gauge_connection(m, rng)
                cert = certify_cocycle(conn, q)
                assert cert.q == q and cert.degree == degree
                # re-substitute the certificate against the spanning set
                target = dense_trace_d(w, 2 * q, chern_form(conn, q))
                acc = zero_vector(rh.ambient_dim(degree))
                for term in cert.terms:
                    vec_j, label_j = labeled[term.index]
                    assert label_j == term.label
                    acc = vec_add(acc, vec_scale(term.coefficient, vec_j))
                assert acc == target
                assert is_zero_vector(rh.d_class(2 * q, chern_class(conn, q)))
                per_fixture += 1
        assert per_fixture >= 10
        certified += per_fixture
    ok(5, f"{certified} certificates at truncation exactly 2q+1, all re-substituted")


def test_criterion_06_invariance(dual5, two5, arrow3):
    rng = random.Random(906)
    certified = 0
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
                assert rh.d_class(2 * q - 1, cert.primitive_integral) == cert.difference
                assert rh.d_class(2 * q - 1, cert.primitive_direct) == cert.difference
                certified += 1

    # free module: the jump of the interpolated trace equals Tr((dL + L.L)^q)
    mechanism = 0
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
                assert jump == rh.class_of_trace(2 * q, hand.diagonal_trace(w))
                assert is_zero_vector(tc.ev_at(cochain, 0))
                mechanism += 1
    ok(6, f"{certified} primitives found for random connection pairs, "
          f"{mechanism} interpolation jumps match the closed form")


def test_criterion_07_homotopy(dual5, two5, arrow3):
    rng = random.Random(907)
    total = 0
    for w in (dual5, two5, arrow3):
        rh = get_complex(w)
        checked = 0
        for D in (1, 2, 3):
            tc = TildeComplex(rh, D)
            for n in range(1, w.truncation + 1):
                for _ in range(3):
                    a = random_cochain(tc, n, rng)
                    # k(delta a) + d(k(a)) - ev1(a) + ev0(a) = 0
                    assert is_zero_vector(tc.homotopy_defect(a))
                    checked += 1
        assert checked >= 20
        total += checked

    # evaluation commutes with the differentials at four sample points
    evaluated = 0
    for w in (dual5, two5):
        rh = get_complex(w)
        tc = TildeComplex(rh, 3)
        for n in range(0, w.truncation):
            for _ in range(3):
                a = random_cochain(tc, n, rng)
                da = tc.delta(a)
                for t in (0, 1, -1, 2):
                    assert tc.ev_at(da, t) == rh.d_class(n, tc.ev_at(a, t))
                    evaluated += 1

    # stratified commutator ranks at the bound used for degree-2q classes
    for w in (dual5, two5):
        for q in (1, 2):
            for n in (2, 3):
                literal, predicted = tilde_commutator_ranks(w, n, 2 * q)
                assert literal == predicted
    ok(7, f"homotopy identity on {total} random cochains, chain-map checks at t in "
          f"{{0,1,-1,2}} ({evaluated} evaluations), split ranks agree at D = 2q")


def test_criterion_08_k0_morphism(dual5, two5, arrow3):
    rng = random.Random(908)
    triples = (
        (two5, line_module(two5), projective_two_points(two5)),
        (dual5, dual_projective(dual5), ProjectiveModule.free(dual5, "M", (dual5.base.objects[0],))),
        (arrow3, graph_module(arrow3), ProjectiveModule.free(arrow3, "F2", tuple(arrow3.base.objects))),
    )
    # additivity of the trace form itself, before passing to classes
    for w, a, b in triples[:2]:
        ca = random_gauge_connection(a, rng)
        cb = random_gauge_connection(b, rng)
        cs = direct_sum_connection(direct_sum(a, b), ca, cb)
        for q in (0, 1, 2):
            fa, fb, fs = chern_form(ca, q), chern_form(cb, q), chern_form(cs, q)
            for x in range(len(w.base.objects)):
                assert fs[x] == fa[x] + fb[x]

    # every relation element maps to the zero class
    relations = 0
    for w, a, b in triples:
        s = direct_sum(a, b)
        for q in range(0, w.truncation // 2 + 1):
            rel = k0_character([K0Entry(1, a), K0Entry(1, b), K0Entry(-1, s.module)], q)
            assert is_zero_vector(rel)
            relations += 1

    # free modules carry no higher classes
    for w in (dual5, two5):
        x = w.base.objects[0]
        for size in (1, 2):
            free = ProjectiveModule.free(w, "F", (x,) * size)
            for q in (1, 2):
                assert is_zero_vector(k0_character([K0Entry(1, free)], q))
    # while the line module does
    assert k0_character([K0Entry(1, line_module(two5))], 1) == (Fraction(1),)
    ok(8, f"cochain additivity for q <= 2, {relations} relation elements vanish, "
          f"free classes vanish for q >= 1")


def test_criterion_09_tensor_models_agree(dual5, two5, arrow3):
    compared = 0
    for w, m in bundled_modules(dual5, two5, arrow3):
        for n in range(0, 4):
            for anchor in w.base.objects:
                ef = EFixedComponent(m, n, anchor)
                lt = LiteralTensor(m, n, anchor)
                assert ef.dim == lt.dim
                if ef.dim:
                    assert len(rref(lt.iso_matrix(ef))[1]) == ef.dim  # square, so bijective
                compared += 1
    ok(9, f"column model and quotient tensor model agree at {compared} (module, degree, object) sites")


def test_criterion_10_end_to_end(capsys):
    ws = load_fixture("dual_numbers_universal")
    conn = ws.connections["shift_M"]
    assert conn.gauge.entries[0][0] == ws.dg.basis_form(1, ws.dg.base.objects[0], ws.dg.base.objects[0], 0)
    assert render_form(ws.dg, conn.gauge.entries[0][0]) == "du"

    code = main([
        "chern", "fixture:dual_numbers_universal",
        "--connection", "shift_M", "--q", "1", "--output", "machine",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["trace_form"] == "x: du.du"
    assert payload["zero"] is True
    assert payload["representative"] == "0"

    elapsed = time.monotonic() - _T0
    assert elapsed < 60.0
    ok(10, f"CLI reports trace form du.du with zero class; acceptance module ran {elapsed:.1f}s into the budget")
