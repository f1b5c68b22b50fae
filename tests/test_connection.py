import random

import pytest

from lincat.connection import (
    Connection,
    canonical_connection,
    compress,
    conjugate,
    direct_sum_connection,
    tilde_curvature,
)
from lincat.dg import universal_dg
from lincat.errors import DimensionError, ModuleError, TruncationError
from lincat.form_matrix import FormMatrix, block_diag
from lincat.module_algebra import ProjectiveModule, direct_sum, hs_trace
from lincat.workspace import load_fixture

from conftest import (
    bundled_modules,
    dense_coords,
    dual_category,
    dual_projective,
    graph_module,
    line_module,
    pm_eval,
    projective_two_points,
    random_form_matrix,
    random_gauge_connection,
    two_points_category,
)


@pytest.fixture(scope="module")
def dual7():
    return universal_dg(dual_category(), 7)


@pytest.fixture(scope="module")
def two7():
    return universal_dg(two_points_category(), 7)


def fixture_connections(dual5, two5, arrow3, rng):
    out = []
    for w, m in bundled_modules(dual5, two5, arrow3):
        out.append((w, canonical_connection(m)))
        for _ in range(3):
            out.append((w, random_gauge_connection(m, rng)))
    return out


def random_fixed_column(w, m, degree, anchor, rng):
    raw = random_form_matrix(w, degree, m.family, (anchor,), rng)
    return m.idempotent.mul(w, raw)


def scalar_matrix(w, f):
    return FormMatrix(f.degree, (f.cod,), (f.dom,), ((f,),))


def test_gauge_validation(two5):
    m = line_module(two5)
    x = two5.base.objects[0]
    with pytest.raises(DimensionError):
        Connection(m, FormMatrix.zero(two5, m.family, m.family, 0))  # degree 0
    with pytest.raises(DimensionError):
        Connection(m, FormMatrix.zero(two5, (x, x), (x, x), 1))  # wrong family


def test_product_rule(dual5, two5, arrow3):
    # apply(v.g) = apply(v).g + (-1)^{deg v} v.d(g)
    rng = random.Random(61)
    for w, conn in fixture_connections(dual5, two5, arrow3, rng):
        m = conn.module
        for _ in range(4):
            p = rng.choice([0, 1])
            anchor = rng.choice(w.base.objects)
            v = random_fixed_column(w, m, p, anchor, rng)
            target = rng.choice(w.base.objects)
            for q in (0, 1):
                g = scalar_matrix(w, random_form_matrix(w, q, (anchor,), (target,), rng).entries[0][0])
                vg = v.mul(w, g)
                lhs = conn.apply(vg)
                rhs = conn.apply(v).mul(w, g) + v.mul(w, g.d(w)).scale(-1 if p % 2 else 1)
                assert lhs == rhs


def test_curvature_matches_double_application(dual5, two5, arrow3):
    rng = random.Random(62)
    for w, conn in fixture_connections(dual5, two5, arrow3, rng):
        m = conn.module
        gamma = conn.curvature()
        for _ in range(4):
            p = rng.choice([0, 1])
            anchor = rng.choice(w.base.objects)
            v = random_fixed_column(w, m, p, anchor, rng)
            assert conn.apply(conn.apply(v)) == gamma.mul(w, v)


def test_curvature_is_right_linear(dual5, two5):
    # the square, unlike the connection itself, commutes with the form action
    rng = random.Random(63)
    for w, m in ((dual5, dual_projective(dual5)), (two5, projective_two_points(two5))):
        conn = random_gauge_connection(m, rng)
        anchor = w.base.objects[0]
        v = random_fixed_column(w, m, 0, anchor, rng)
        for q in (0, 1):
            g = scalar_matrix(w, random_form_matrix(w, q, (anchor,), (anchor,), rng).entries[0][0])
            lhs = conn.apply(conn.apply(v.mul(w, g)))
            rhs = conn.apply(conn.apply(v)).mul(w, g)
            assert lhs == rhs


def test_free_curvature_closed_form(dual5, two5):
    rng = random.Random(64)
    for w in (dual5, two5):
        x = w.base.objects[0]
        m = ProjectiveModule.free(w, "F", (x, x))
        lam = random_form_matrix(w, 1, m.family, m.family, rng)
        conn = Connection(m, lam)
        assert conn.operational_matrix() == lam
        assert conn.curvature() == lam.d(w) + lam.mul(w, lam)


def test_curvature_power_matches_iteration(dual5, two5, arrow3):
    rng = random.Random(65)
    for w, conn in fixture_connections(dual5, two5, arrow3, rng):
        if w.truncation < 4:
            continue
        gamma = conn.curvature()
        assert conn.curvature_power(1) == gamma
        assert conn.curvature_power(2) == gamma.mul(w, gamma)


def test_bianchi_identity(dual7, two7):
    # d(Gamma^q) = Gamma^q.L - L.Gamma^q on free connections
    rng = random.Random(66)
    for w in (dual7, two7):
        x = w.base.objects[0]
        m = ProjectiveModule.free(w, "F", (x, x))
        for _ in range(3):
            lam = random_form_matrix(w, 1, m.family, m.family, rng)
            conn = Connection(m, lam)
            for q in (1, 2, 3):
                gq = conn.curvature_power(q)
                assert gq.d(w) == gq.mul(w, lam) - lam.mul(w, gq)


def test_compress_free_cover_gives_canonical(dual5, two5, arrow3):
    for w, m in bundled_modules(dual5, two5, arrow3):
        cover = ProjectiveModule.free(w, "cover", m.family)
        flat = canonical_connection(cover)
        restricted = compress(flat, m)
        assert restricted.operational_matrix() == canonical_connection(m).operational_matrix()
    # a non-sub-idempotent is refused
    line = line_module(two5)
    other = ProjectiveModule(
        two5,
        "K",
        FormMatrix.identity(two5, line.family) - line.idempotent,
    )
    conn = canonical_connection(other)
    with pytest.raises(ModuleError):
        compress(conn, line)


def test_direct_sum_connection_blocks(dual5, two5):
    rng = random.Random(67)
    for w, a, b in (
        (two5, line_module(two5), projective_two_points(two5)),
        (dual5, dual_projective(dual5), ProjectiveModule.free(dual5, "M", (dual5.base.objects[0],))),
    ):
        ca = random_gauge_connection(a, rng)
        cb = random_gauge_connection(b, rng)
        s = direct_sum(a, b)
        cs = direct_sum_connection(s, ca, cb)
        assert cs.operational_matrix() == block_diag(w, ca.operational_matrix(), cb.operational_matrix())
        assert cs.curvature() == block_diag(w, ca.curvature(), cb.curvature())
        assert cs.curvature_power(2) == block_diag(w, ca.curvature_power(2), cb.curvature_power(2))


def test_direct_sum_connection_refuses_other_summands():
    # the summands of L+M are L and M, in that order: M and L would give
    # the operational matrix of twist_L in both blocks
    ws = load_fixture("two_points_universal")
    w, c = ws.dg, ws.connections
    s = direct_sum(ws.modules["L"], ws.modules["M"])
    cs = direct_sum_connection(s, c["twist_L"], c["flat_M"])
    assert cs.operational_matrix() == block_diag(w, c["twist_L"].operational_matrix(), c["flat_M"].operational_matrix())
    for a, b in (("flat_M", "twist_L"), ("levi_P", "flat_M"), ("twist_L", "levi_P")):
        with pytest.raises(ModuleError, match="direct sum L\\+M is not the sum of"):
            direct_sum_connection(s, c[a], c[b])


def test_conjugate_preserves_traces(dual5):
    w = dual5
    x = w.base.objects[0]
    m = dual_projective(w)
    one = w.basis_form(0, x, x, 0)
    u = w.basis_form(0, x, x, 1)
    z = w.zero_form(0, x, x)
    t = FormMatrix(0, m.family, m.family, ((one, u), (z, one)))
    t_inv = FormMatrix(0, m.family, m.family, ((one, u.scale(-1)), (z, one)))
    conn = canonical_connection(m)
    m2, conn2 = conjugate(conn, t, t_inv, "P_conj")
    assert m2.idempotent == t.mul(w, m.idempotent).mul(w, t_inv)
    rng = random.Random(68)
    for _ in range(8):
        raw = random_form_matrix(w, 0, m.family, m.family, rng)
        phi = m.normalize_endomorphism(raw)
        phi2 = m2.normalize_endomorphism(t.mul(w, phi).mul(w, t_inv))
        assert hs_trace(m, phi) == hs_trace(m2, phi2)
    # a non-invertible frame is refused
    with pytest.raises(ModuleError):
        conjugate(conn, t, t, "bad")


def test_conjugate_transports_application(dual5):
    # conn2(t.v) = t.conn(v) for e-fixed columns v
    w = dual5
    x = w.base.objects[0]
    m = dual_projective(w)
    one = w.basis_form(0, x, x, 0)
    u = w.basis_form(0, x, x, 1)
    z = w.zero_form(0, x, x)
    t = FormMatrix(0, m.family, m.family, ((one, u), (z, one)))
    t_inv = FormMatrix(0, m.family, m.family, ((one, u.scale(-1)), (z, one)))
    rng = random.Random(69)
    conn = random_gauge_connection(m, rng)
    m2, conn2 = conjugate(conn, t, t_inv)
    for _ in range(6):
        v = random_fixed_column(w, m, 0, rng.choice(w.base.objects), rng)
        assert conn2.apply(t.mul(w, v)) == t.mul(w, conn.apply(v))


def test_truncation_limits(two5):
    w1 = universal_dg(two_points_category(), 1)
    x = w1.base.objects[0]
    m1 = ProjectiveModule.free(w1, "M", (x,))
    conn1 = canonical_connection(m1)
    with pytest.raises(TruncationError):
        conn1.curvature()

    m = line_module(two5)
    conn = canonical_connection(m)
    with pytest.raises(TruncationError):
        conn.curvature_power(3)  # degree 6 > truncation 5
    with pytest.raises(DimensionError):
        conn.curvature_power(0)
    top = random_fixed_column(two5, m, 5, two5.base.objects[0], random.Random(0))
    with pytest.raises(TruncationError):
        conn.apply(top)


def test_tilde_curvature_interpolates(dual5, two5):
    # main part at t=0 and t=1 recovers the endpoint curvatures
    rng = random.Random(70)
    for w, m in (
        (dual5, dual_projective(dual5)),
        (two5, line_module(two5)),
        (two5, projective_two_points(two5)),
    ):
        c0 = canonical_connection(m)
        c1 = random_gauge_connection(m, rng)
        tc = tilde_curvature(c0, c1)
        assert pm_eval(tc.part0, 0) == c0.curvature()
        assert pm_eval(tc.part0, 1) == c1.curvature()
        # velocity part: derivative of the operational path
        assert pm_eval(tc.part1, 0).degree == 1
        with pytest.raises(ModuleError):
            tilde_curvature(c0, canonical_connection(dual_projective(dual5) if w is two5 else line_module(two5)))


def test_curvature_is_computed_once(dual5, two5, arrow3):
    rng = random.Random(71)
    for w, conn in fixture_connections(dual5, two5, arrow3, rng):
        gamma = conn.curvature()
        assert conn.curvature() is gamma
        assert conn.curvature_power(1) is gamma
        c, e = conn.operational_matrix(), conn.module.idempotent
        assert gamma == c.mul(w, c) + e.mul(w, c.d(w))


def test_two_points_payloads_unchanged_by_the_curvature_memo(two5):
    # values recorded before curvature was memoized and before products
    # accumulated per entry
    from lincat.chern import certify_cocycle, chern_class, chern_form, invariance_certificate
    from lincat.tforms import pm_diagonal_trace, tm_power

    def coords(forms):
        return [str(s) for f in forms for s in dense_coords(two5, f)]

    w = two5
    for module, expected in [
        (projective_two_points(w), {
            1: (["1", "0"], ["0"], []),
            2: (["1", "0"], ["0"], []),
        }),
        (line_module(w), {
            1: (["0", "1"], ["1"], [(2, "-1", "[c, dc.dc.dc]@(x,x)"), (3, "2", "[c, c.dc.dc.dc]@(x,x)")]),
            2: (["0", "1"], ["1"], [(2, "-1", "[c, dc.dc.dc.dc.dc]@(x,x)"),
                                    (3, "2", "[c, c.dc.dc.dc.dc.dc]@(x,x)")]),
        }),
    ]:
        conn = random_gauge_connection(module, random.Random(17))
        for q, (form, cls, terms) in expected.items():
            assert coords(chern_form(conn, q)) == form
            assert [str(s) for s in chern_class(conn, q)] == cls
            cert = certify_cocycle(conn, q)
            assert [(t.index, str(t.coefficient), t.label) for t in cert.terms] == terms
            inv = invariance_certificate(canonical_connection(module), conn, q)
            assert [str(s) for s in inv.class1] == cls
            assert (inv.difference, inv.primitive_integral, inv.primitive_direct) == ((0,), (), ())
    conn = random_gauge_connection(projective_two_points(w), random.Random(17))
    assert [coords(row) for row in conn.curvature().entries] == [["0", "1", "0", "0"], ["1", "0", "1", "-1"]]
    path = tilde_curvature(canonical_connection(conn.module), conn)
    for q, part0, part1 in [
        (1, [["1", "0"], ["-4", "0"], ["4", "0"]], [["0", "-4"]]),
        (2, [["1", "0"], ["-8", "0"], ["24", "0"], ["-32", "0"], ["16", "0"]], [["0", "-8"], ["0", "32"], ["0", "-32"]]),
    ]:
        gamma = tm_power(w, path, q)
        assert [coords(t) for t in pm_diagonal_trace(w, gamma.part0)] == part0
        assert [coords(t) for t in pm_diagonal_trace(w, gamma.part1)] == part1
