from fractions import Fraction
import hashlib
import itertools
from math import gcd, lcm
import random

import pytest

from lincat import (
    Connection,
    FormMatrix,
    ProjectiveModule,
    block_diag,
    build_category,
    canonical_connection,
    chern_class,
    chern_form,
    get_complex,
    render_form,
    tilde_curvature,
    trivial_dg,
    universal_dg,
    validate_category,
    validate_dg,
)
import lincat.dg
import lincat.envelope
from lincat.category import Category, checked_blocks
from lincat.dg import DGCategory, Form, _generators, certified_generators
from lincat.form_matrix import ProductAccumulator
from lincat.envelope import _Chains
from lincat.exact_linalg import ONE, Echelon, build_quotient, cut_rows, integral_terms
from lincat.laws import _columns, _dims, _failures, law_violations, laws_hold_on
from lincat.errors import CategoryAxiomError, DimensionError, ScalarTypeError
from lincat.workspace import fixture_names, load_fixture, parse_workspace

from envelope_oracle import direct_tables
from test_exact_linalg import DenseMatrix, dense_kernel, dense_rref
from law_oracle import law_violations as enumerated_violations
from law_oracle import basis_products, category_violations, comp_terms, diff_terms, hom_pairs, identity_terms, law_defects
from law_oracle import unit_violations as enumerated_unit_violations
from conftest import (
    arrow_category,
    as_numerators,
    broken_associativity_category,
    broken_unit_category,
    deepened,
    dense_coords,
    dual_category,
    fraction_row,
    iso_pair_category,
    linear_quiver_category,
    m2_category,
    matrix_units_category,
    point_category,
    random_form,
    random_form_matrix,
    random_scalar,
    two_points_category,
)

UNIVERSAL_FIXTURES = ["arrow_universal", "dual_numbers_universal", "point_universal", "two_points_universal"]


def test_point_has_no_positive_forms(point3):
    w = point3
    assert validate_dg(w) == []
    for n in range(1, 4):
        assert w.dim(n, 0, 0) == 0


def test_trivial_model_has_no_positive_forms():
    w = trivial_dg(dual_category(), 2)
    assert validate_dg(w) == []
    assert w.dim(0, 0, 0) == 2
    for n in (1, 2):
        assert w.dim(n, 0, 0) == 0


def test_dual_numbers_dimensions_and_labels(dual5):
    w = dual5
    assert validate_dg(w) == []
    for n in range(6):
        assert w.dim(n, 0, 0) == 2
    assert w.space_labels(1, 0, 0) == ("du", "u.du")
    assert w.space_labels(2, 0, 0) == ("du.du", "u.du.du")


def test_two_points_dimensions(two5):
    w = two5
    assert validate_dg(w) == []
    for n in range(6):
        assert w.dim(n, 0, 0) == 2
    assert w.space_labels(1, 0, 0) == ("dc", "c.dc")


def test_arrow_dimensions(arrow3):
    w = arrow3
    assert validate_dg(w) == []
    c = w.base
    s = c.object_by_label("s").index
    t = c.object_by_label("t").index
    # the one non-identity arrow contributes a single 1-form and nothing above
    assert w.dim(1, t, s) == 1
    assert w.space_labels(1, t, s) == ("da",)
    assert w.dim(1, s, s) == 0
    assert w.dim(1, t, t) == 0
    assert w.dim(1, s, t) == 0
    for x in (s, t):
        for y in (s, t):
            assert w.dim(2, x, y) == 0
            assert w.dim(3, x, y) == 0


def test_differential_of_generators(dual5):
    w = dual5
    x = w.base.objects[0]
    u = w.basis_form(0, x, x, 1)
    du = w.d(u)
    assert du.terms == ((0, Fraction(1)),)  # d(u) = du
    assert w.d(du).is_zero()  # d(du) = 0
    one = w.identity_form(x)
    assert w.d(one).is_zero()  # d of the identity vanishes


def test_product_relations_dual_numbers(dual5):
    w = dual5
    x = w.base.objects[0]
    u = w.basis_form(0, x, x, 1)
    du = w.basis_form(1, x, x, 0)
    u_du = w.basis_form(1, x, x, 1)
    # u.du is literally the product of u and du
    assert w.compose(u, du) == u_du
    # du.u = -u.du, from d(u.u) = 0
    assert w.compose(du, u).terms == ((1, Fraction(-1)),)
    # du.du is the first degree-2 basis vector
    assert w.compose(du, du).terms == ((0, Fraction(1)),)


def test_graded_leibniz_random(dual5, two5):
    rng = random.Random(31)
    for w in (dual5, two5):
        x = w.base.objects[0]
        for _ in range(30):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            f = random_form(w, p, x, x, rng)
            g = random_form(w, q, x, x, rng)
            lhs = w.d(w.compose(f, g))
            sign = Fraction(-1 if p % 2 else 1)
            rhs = w.compose(w.d(f), g) + w.compose(f, w.d(g)).scale(sign)
            assert lhs == rhs


def test_associativity_random(two5):
    w = two5
    rng = random.Random(32)
    x = w.base.objects[0]
    for _ in range(30):
        p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)
        f = random_form(w, p, x, x, rng)
        g = random_form(w, q, x, x, rng)
        h = random_form(w, r, x, x, rng)
        assert w.compose(w.compose(f, g), h) == w.compose(f, w.compose(g, h))


def test_truncation_kills_high_degrees(dual5):
    w = dual5
    x = w.base.objects[0]
    f = w.basis_form(3, x, x, 0)
    g = w.basis_form(3, x, x, 1)
    assert w.compose(f, g).is_zero()  # degree 6 > 5
    top = w.basis_form(5, x, x, 0)
    assert w.d(top).is_zero()  # d out of the top degree


def test_d_squared_is_zero_random(dual5, two5, arrow3):
    rng = random.Random(33)
    for w in (dual5, two5, arrow3):
        for n in range(0, w.truncation - 1):
            for x in range(len(w.base.objects)):
                for y in range(len(w.base.objects)):
                    if w.dim(n, x, y) == 0:
                        continue
                    f = random_form(w, n, w.base.objects[y], w.base.objects[x], rng)
                    assert w.d(w.d(f)).is_zero()


def test_corrupted_differential_detected():
    # force d(th) != 0 onto a table model whose product cannot support it
    from lincat import DGCategory

    c = point_category()
    w = DGCategory(
        c,
        2,
        {1: {(0, 0): ("th",)}, 2: {(0, 0): ("si",)}},
        {
            (0, 1): {(0, 0, 0): {(0, 0): {0: 1}}},
            (1, 0): {(0, 0, 0): {(0, 0): {0: 1}}},
            (0, 2): {(0, 0, 0): {(0, 0): {0: 1}}},
            (2, 0): {(0, 0, 0): {(0, 0): {0: 1}}},
            (1, 1): {(0, 0, 0): {(0, 0): {0: 1}}},
        },
        {0: {(0, 0): {0: {0: 1}}}},  # d(1) = th, breaks units
    )
    kinds = {v.kind for v in validate_dg(w)}
    assert kinds  # at least one law fails


def test_corrupted_d_squared_detected():
    from lincat import DGCategory

    c = point_category()
    # d(1) = th and d(th) = si, so d(d(1)) = si != 0; products all unital
    w = DGCategory(
        c,
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
    kinds = {v.kind for v in validate_dg(w)}
    assert "dg-d-squared" in kinds


def test_leibniz_violation_detected():
    from lincat import DGCategory
    from conftest import dual_category

    # dual numbers with a hand-built Omega^1 = span{du} but d(u) = 0:
    # then d(u.u) = 0 = du.u + u.du only if the product tables say so;
    # declare u.du = du to break the Leibniz rule while keeping units.
    c = dual_category()
    w = DGCategory(
        c,
        1,
        {1: {(0, 0): ("du",)}},
        {
            (0, 1): {(0, 0, 0): {(0, 0): {0: 1}, (1, 0): {0: 1}}},  # 1.du = du, u.du = du
            (1, 0): {(0, 0, 0): {(0, 0): {0: 1}, (0, 1): {0: 0}}},  # du.1 = du, du.u = 0
        },
        {0: {(0, 0): {1: {0: 1}}}},  # d(u) = du
    )
    kinds = {v.kind for v in validate_dg(w)}
    assert "dg-leibniz" in kinds


def test_form_matrix_algebra(dual5):
    w = dual5
    rng = random.Random(34)
    x = w.base.objects[0]
    fam = (x, x)
    for _ in range(10):
        a = random_form_matrix(w, 0, fam, fam, rng)
        b = random_form_matrix(w, 1, fam, fam, rng)
        c = random_form_matrix(w, 1, fam, fam, rng)
        assert a.mul(w, b.mul(w, c)) == a.mul(w, b).mul(w, c)
        ident = FormMatrix.identity(w, fam)
        assert ident.mul(w, a) == a
        assert a.mul(w, ident) == a
        # graded Leibniz at matrix level
        lhs = a.mul(w, b).d(w)
        rhs = a.d(w).mul(w, b) + a.mul(w, b.d(w))
        assert lhs == rhs
        lhs2 = b.mul(w, c).d(w)
        rhs2 = b.d(w).mul(w, c) + b.mul(w, c.d(w)).scale(Fraction(-1))
        assert lhs2 == rhs2


def test_block_diag_and_trace(dual5):
    w = dual5
    rng = random.Random(35)
    x = w.base.objects[0]
    a = random_form_matrix(w, 0, (x,), (x,), rng)
    b = random_form_matrix(w, 0, (x, x), (x, x), rng)
    s = block_diag(w, a, b)
    assert s.row_family == (x, x, x)
    ta = a.diagonal_trace(w)
    tb = b.diagonal_trace(w)
    ts = s.diagonal_trace(w)
    assert all(ta[i] + tb[i] == ts[i] for i in range(len(ts)))


def test_dense_input_drops_zeros_and_checks_its_length(dual5):
    w = dual5
    x = w.base.objects[0]
    f = w.form(2, x, x, (0, Fraction(-3, 2)))
    assert f.terms == ((1, Fraction(-3, 2)),)
    assert type(f.terms[0][1]) is Fraction
    assert w.form(2, x, x, (Fraction(0), 0)).terms == ()
    assert w.form(2, x, x, (1, 0)) == w.basis_form(2, x, x, 0)
    for coords in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionError, match="expected 2 coordinates"):
            w.form(2, x, x, coords)
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(ScalarTypeError, match="entry 0 is 0.1 of type float"):
        w.form(0, x, x, (0.1, 0))
    with pytest.raises(ScalarTypeError, match="0.1 of type float"):
        f.scale(0.1)


def test_render_form(dual5):
    w = dual5
    x = w.base.objects[0]
    f = w.basis_form(2, x, x, 0) + w.basis_form(2, x, x, 1).scale(Fraction(-2))
    assert render_form(w, f) == "du.du - (2)u.du.du"
    assert render_form(w, w.zero_form(1, x, x)) == "0"


def test_universal_rejects_bad_truncation():
    with pytest.raises(DimensionError):
        universal_dg(dual_category(), 0)


# sha256 of repr((gr_basis, gr_comp, diff)) of envelopes no fixture
# covers: identities that are not basis arrows, more than two objects,
# and the fixture categories at higher truncations
ENVELOPE_DIGESTS = {
    "M2": (lambda: matrix_units_category(2), 3, 156,
           "1e4d19da207f08441c92a660e7cd542ac135fc13a62b122bd49dfab4eba43850"),
    "M3": (lambda: matrix_units_category(3), 2, 648,
           "93ea65d0c4503532405a2db9109feeecfc0e68d705080827ca2cb7ef20e9671b"),
    "A4": (lambda: linear_quiver_category(4), 4, 16,
           "291e0f1a606d7ebafe47bc95ab40701ff363c083690cd6fe792886fda39a0a10"),
    "A6": (lambda: linear_quiver_category(6), 6, 99,
           "dfcd28d400283b7b5354150248561bd25e73f179fcc80e5f90d1f217a50b6a85"),
    "two_points": (two_points_category, 8, 16,
                   "c7af7397861bdb54cc1b5925a381333f9c3bf1c962965ead927fb4e7f09e6105"),
    "dual": (dual_category, 6, 12,
             "21dc7c665b8dd91d4f948620a7263c14b59336ae0b76d925cfd1b5d0de13c8d4"),
}


@pytest.mark.parametrize("build, truncation, forms, digest", ENVELOPE_DIGESTS.values(), ids=ENVELOPE_DIGESTS.keys())
def test_envelope_tables_are_pinned(build, truncation, forms, digest):
    w = universal_dg(build(), truncation)
    assert sum(len(labels) for level in w.gr_basis.values() for labels in level.values()) == forms
    assert hashlib.sha256(repr((w.gr_basis, every_degree_pair(w), diff_terms(w))).encode()).hexdigest() == digest


def every_degree_pair(w):
    """`gr_comp` with every (p, q) of total degree 1..N, in (p, q) order, a pair it does not hold as an empty dict."""
    N = w.truncation
    return {(p, q): w.gr_comp.get((p, q), {}) for p in range(N + 1) for q in range(N + 1 - p) if p or q}


def test_gr_comp_holds_only_the_stored_degree_pairs():
    # the point has no product of positive degree, so at truncation 500 its
    # view is empty, not one empty dict for each of 125,750 degree pairs
    point = universal_dg(fixture_category("point_universal")[0], 500)
    assert point.gr_comp == {}
    arrow = universal_dg(fixture_category("arrow_universal")[0], 500)
    stored = [key for key, _ in arrow.stored_products()]
    assert list(arrow.gr_comp) == sorted({key[:2] for key in stored})
    assert [(*pq, *xyz) for pq, table in arrow.gr_comp.items() for xyz in table] == stored


def fixture_category(name):
    ws = load_fixture(name)
    return ws.category, ws.dg.truncation


def scaled_matrix_units(n, k):
    """M_n in the basis a_ij = k e_ij: products k a_ik, identity (a_11 + ... + a_nn) / k."""
    units = [f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return build_category(
        ["x"],
        {("x", "x"): units},
        {(a, b): ({f"a{a[1]}{b[2]}": k} if a[2] == b[1] else {}) for a in units for b in units},
        {"x": {f"a{i}{i}": Fraction(1, k) for i in range(1, n + 1)}},
    )


def weighted_matrix_units(n):
    """M_n in the basis a_ij = e_ij (i + 1) / (j + 2): the identity is no longer a multiple of a_11 + ... + a_nn."""
    lam = {(i, j): Fraction(i + 1, j + 2) for i in range(1, n + 1) for j in range(1, n + 1)}
    return build_category(
        ["x"],
        {("x", "x"): [f"a{i}{j}" for i, j in lam]},
        {(f"a{i}{j}", f"a{j2}{k}"): ({f"a{i}{k}": lam[(i, j)] * lam[(j, k)] / lam[(i, k)]} if j == j2 else {})
         for i, j in lam for j2, k in lam},
        {"x": {f"a{i}{i}": 1 / lam[(i, i)] for i in range(1, n + 1)}},
    )


def scaled_quiver(n):
    """A_n in the basis b_ij = p_ij (i + 2) / (j + 3): each object pair brings its own denominators."""
    lam = {(i, j): Fraction(i + 2, j + 3) for i in range(n) for j in range(i, n)}
    return build_category(
        [str(i) for i in range(n)],
        {(str(j), str(i)): [f"b{i}{j}"] for i, j in lam},
        {(f"b{j}{k}", f"b{i}{j}"): {f"b{i}{k}": lam[(i, j)] * lam[(j, k)] / lam[(i, k)]}
         for i, j in lam for k in range(j, n)},
        {str(i): {f"b{i}{i}": 1 / lam[(i, i)]} for i in range(n)},
    )


def kronecker_category():
    """Two objects and two parallel arrows a, b from 0 to 1: hom spaces of dimensions 1 and 2 meet in a product."""
    return build_category(
        ["0", "1"],
        {("0", "0"): ["e0"], ("1", "1"): ["e1"], ("1", "0"): ["a", "b"]},
        {("e0", "e0"): {"e0": 1}, ("e1", "e1"): {"e1": 1}, ("e1", "a"): {"a": 1}, ("e1", "b"): {"b": 1},
         ("a", "e0"): {"a": 1}, ("b", "e0"): {"b": 1}},
        {"0": {"e0": 1}, "1": {"e1": 1}},
    )


def dual_and_matrices(rows):
    """The dual numbers at P (identity p, a basis arrow) and M2 at X (identity e11 + e22, not one), and arrows between.

    With `rows`, r1 and r2 from X to P, r_i e_ij = r_j; else v1 and v2
    from P to X, e_ij v_j = v_i; u kills them on either side.
    """
    units = [f"e{i}{j}" for i in (1, 2) for j in (1, 2)]
    comp = {(a, b): ({f"e{a[1]}{b[2]}": 1} if a[2] == b[1] else {}) for a in units for b in units}
    comp.update({("p", "p"): {"p": 1}, ("p", "u"): {"u": 1}, ("u", "p"): {"u": 1}, ("u", "u"): {}})
    homs = {("P", "P"): ["p", "u"], ("X", "X"): units}
    for k in (1, 2):
        if rows:
            homs[("P", "X")] = ["r1", "r2"]
            comp.update({("p", f"r{k}"): {f"r{k}": 1}, ("u", f"r{k}"): {}})
            comp.update({(f"r{k}", e): ({f"r{e[2]}": 1} if e[1] == str(k) else {}) for e in units})
        else:
            homs[("X", "P")] = ["v1", "v2"]
            comp.update({(f"v{k}", "p"): {f"v{k}": 1}, (f"v{k}", "u"): {}})
            comp.update({(e, f"v{k}"): ({f"v{e[1]}": 1} if e[2] == str(k) else {}) for e in units})
    return build_category(["P", "X"], homs, comp, {"P": {"p": 1}, "X": {"e11": 1, "e22": 1}})


# the derived tables against the direct fill, one chain merge per pair of
# basis forms; each entry makes (category, truncation)
ORACLE_ENVELOPES = {
    **{name: (lambda name=name: fixture_category(name)) for name in UNIVERSAL_FIXTURES},
    **{f"M2-{n}": (lambda n=n: (m2_category(), n)) for n in range(1, 5)},
    "M3-2": lambda: (matrix_units_category(3), 2),
    "A4-4": lambda: (linear_quiver_category(4), 4),
    # forms end at degree 3: the walk stops at degree 4; the direct fill
    # builds every degree up to the truncation itself, so it stays small
    "A4-7": lambda: (linear_quiver_category(4), 7),
    "A6-6": lambda: (linear_quiver_category(6), 6),
    "two_points-8": lambda: (two_points_category(), 8),
    "dual-6": lambda: (dual_category(), 6),
    # coefficients with denominators: the contraction's lcm and gcd steps,
    # and product blocks over denominators in the chain merge
    "M2-halves-3": lambda: (scaled_matrix_units(2, 2), 3),
    "M2-weighted-3": lambda: (weighted_matrix_units(2), 3),
    "A4-scaled-4": lambda: (scaled_quiver(4), 4),
    # identities on and off the basis: the chains with p in a differential
    # slot are dropped with the arrows v, and kept with the arrows r, where
    # a.p.dr = a.p.r - a.r.(e11 + e22) would leave a.r.e11 + a.r.e22 on
    # kept chains
    "dual-M2-3": lambda: (dual_and_matrices(rows=False), 3),
    "M2-dual-3": lambda: (dual_and_matrices(rows=True), 3),
}


@pytest.mark.parametrize("make", ORACLE_ENVELOPES.values(), ids=ORACLE_ENVELOPES.keys())
def test_derived_tables_equal_the_direct_fill(make):
    c, truncation = make()
    w = universal_dg(c, truncation)
    direct = DGCategory(c, truncation, w.gr_basis, *direct_tables(c, truncation))
    assert direct.gr_comp == w.gr_comp
    assert diff_terms(direct) == diff_terms(w)


def _inverse(m):
    """The inverse of a square integer matrix in `Fraction`s, read off the reduced rows of (m | 1); None if singular."""
    d = len(m)
    rows, pivots = dense_rref(DenseMatrix(d, 2 * d, tuple(
        tuple(map(Fraction, row)) + tuple(Fraction(int(i == j)) for j in range(d)) for i, row in enumerate(m))))
    return [row[d:] for row in rows] if pivots[:d] == list(range(d)) else None


def rebased(c, rng):
    """`c` in a random invertible integer basis of each hom space, each label now naming a combination of old arrows.

    In an endomorphism space whose identity has integer coordinates, one
    new arrow is the identity itself half of the time, so identities
    move on and off the basis, object by object.
    """
    nobj = len(c.objects)
    change, inverse = {}, {}
    for x, y in itertools.product(range(nobj), repeat=2):
        d = c.dim(x, y)
        if not d:
            continue
        den, nums = c.identity[x] if x == y else (1, ())
        unit = [Fraction(dict(nums).get(k, 0), den) for k in range(d)]
        while inverse.get((x, y)) is None:
            m = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            if x == y and all(s.denominator == 1 for s in unit) and rng.random() < 0.5:
                m[rng.randrange(d)] = unit
            change[(x, y)], inverse[(x, y)] = m, _inverse(m)
    labels = {(x, y): c.basis_labels(x, y) for x, y in change}

    def new_terms(x, y, old):
        """A vector over the old basis of (x, y), as the coefficients of its new labels."""
        inv = inverse[(x, y)]
        terms = {labels[(x, y)][k]: sum(s * inv[j][k] for j, s in old.items()) for k in range(c.dim(x, y))}
        return {a: s for a, s in terms.items() if s}

    products = {}
    for (x, y, z), (den, rows) in c.integral_comp.items():
        for i, k in itertools.product(range(c.dim(x, y)), range(c.dim(y, z))):
            old: dict[int, Fraction] = {}
            for j, a in enumerate(change[(x, y)][i]):
                for l, b in enumerate(change[(y, z)][k]):
                    for m, n in rows[j][l]:
                        old[m] = old.get(m, 0) + a * b * Fraction(n, den)
            products[(labels[(x, y)][i], labels[(y, z)][k])] = new_terms(x, z, old)
    identities = {c.objects[x].label: new_terms(x, x, {k: Fraction(n, den) for k, n in nums})
                  for x, (den, nums) in c.identity.items()}
    return build_category([o.label for o in c.objects],
                          {(c.objects[x].label, c.objects[y].label): names for (x, y), names in labels.items()},
                          products, identities)


# categories whose identities are basis arrows, off the basis, or both
REBASED_ENVELOPES = {
    "M2-2": lambda: (m2_category(), 2),
    "dual-3": lambda: (dual_category(), 3),
    "two_points-3": lambda: (two_points_category(), 3),
    "A4-3": lambda: (linear_quiver_category(4), 3),
    "dual-M2-2": lambda: (dual_and_matrices(rows=False), 2),
    "M2-dual-2": lambda: (dual_and_matrices(rows=True), 2),
}


@pytest.mark.parametrize("make", REBASED_ENVELOPES.values(), ids=REBASED_ENVELOPES.keys())
def test_rebased_tables_equal_the_direct_fill(make):
    # a wrong chain product passes the builder's own checks and validate_dg:
    # random changes of basis move the identities on and off the basis
    # object by object, and each must give the tables of the direct fill
    rng = random.Random(7)
    c, truncation = make()
    for _ in range(3):
        r = rebased(c, rng)
        w = universal_dg(r, truncation)
        direct = DGCategory(r, truncation, w.gr_basis, *direct_tables(r, truncation))
        assert direct.gr_comp == w.gr_comp
        assert diff_terms(direct) == diff_terms(w)


# the universal builder hands `DGCategory` its stored tables and integer
# product blocks unchecked; each entry makes (category, truncation)
HANDOFF_ENVELOPES = {
    **{name: (lambda name=name: fixture_category(name)) for name in UNIVERSAL_FIXTURES},
    **{f"M2-{n}": (lambda n=n: (m2_category(), n)) for n in range(1, 5)},
    **{f"M3-{n}": (lambda n=n: (matrix_units_category(3), n)) for n in range(1, 4)},
    "two_points-8": lambda: (two_points_category(), 8),
    "dual-6": lambda: (dual_category(), 6),
    "A4-4": lambda: (linear_quiver_category(4), 4),
    # truncations far above the last degree with forms (3 for A4, 1 for an arrow)
    "A4-12": lambda: (linear_quiver_category(4), 12),
    "A4-scaled-10": lambda: (scaled_quiver(4), 10),
    "arrow_universal-15": lambda: (fixture_category("arrow_universal")[0], 15),
    # product blocks whose two factors have hom spaces of different dimensions
    "kronecker-3": lambda: (kronecker_category(), 3),
    # coefficients with denominators
    "M2-halves-3": lambda: (scaled_matrix_units(2, 2), 3),
    "M2-weighted-3": lambda: (weighted_matrix_units(2), 3),
    "A4-scaled-4": lambda: (scaled_quiver(4), 4),
}


@pytest.mark.parametrize("make", HANDOFF_ENVELOPES.values(), ids=HANDOFF_ENVELOPES.keys())
def test_trusted_handoff_equals_the_checked_constructor(make):
    c, truncation = make()
    w = universal_dg(c, truncation)
    # the checked constructor, fed the same tables in the sparse input
    # format, stores the same terms in the same key order
    checked = DGCategory(c, truncation, *own_tables(w))
    assert (repr((w.gr_basis, w.gr_comp, diff_terms(w)))
            == repr((checked.gr_basis, checked.gr_comp, diff_terms(checked))))
    # every product block came with its integer block, which is the block
    # over the lcm of its denominators, as the checked path builds it
    handed = dict(w._integral)
    keys = [(0, 0, *key) for key in c.integral_comp] + [(p, q, *key) for (p, q), table in w.gr_comp.items() for key in table]
    assert sorted(handed) == sorted(keys)
    for key, block in handed.items():
        den, flat = integral_terms(terms for row in basis_products(w, *key) for terms in row)
        assert block == (den, tuple(map(tuple, cut_rows(flat, w.dim(key[1], key[3], key[4]))))), key
        assert checked.integral_products(*key) == block, key


@pytest.mark.parametrize("name", [*HANDOFF_ENVELOPES, "circle_tables"])
def test_checked_constructor_keeps_only_the_integer_store(name):
    # the checked constructor stores the integer product and differential
    # blocks that `universal_dg` hands over, in the same key order, and no
    # `Fraction` table until `gr_comp` is read; reading the blocks, as
    # validation does, adds nothing to either store
    if name == "circle_tables":
        # its tables, which the workspace has read back into its document:
        # 1.1 = 1, 1.th = th and th.1 = th, each block over denominator 1,
        # and d(1) = 0 out of degree 0, the one degree below the truncation
        tables = load_fixture(name).dg
        w = DGCategory(tables.base, tables.truncation, *own_tables(tables))
        store = {key: (1, ((((0, 1),),),)) for key in [(0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]}
        d_store = {(0, 0, 0): (1, ((),))}
        envelopes = [w]
    else:
        c, truncation = HANDOFF_ENVELOPES[name]()
        universal = universal_dg(c, truncation)
        store, d_store = dict(universal._integral), dict(universal._diff)
        w = DGCategory(c, truncation, *own_tables(universal))
        assert validate_dg(universal) == []
        assert (universal._integral, universal._diff) == (store, d_store)
        envelopes = [w, universal]
    assert validate_dg(w) == []
    assert "gr_comp" not in w.__dict__
    assert w._integral == store
    assert list(w._diff.items()) == list(d_store.items())
    # the category's blocks are made once, and every envelope over it keeps them
    for v in envelopes:
        for key, block in w.base.integral_comp.items():
            assert v._integral[(0, 0, *key)] is block, key


def fractions_in(value) -> int:
    """The number of `Fraction`s stored in a value of tuples, lists, dicts, forms and form matrices."""
    if isinstance(value, Fraction):
        return 1
    if isinstance(value, (tuple, list)):
        return sum(map(fractions_in, value))
    if isinstance(value, dict):
        return sum(fractions_in(k) + fractions_in(v) for k, v in value.items())
    if isinstance(value, (Form, FormMatrix)):
        return fractions_in(list(vars(value).values()))
    return 0


def test_no_fraction_table_is_kept_from_parse_to_chern():
    # every table has one store, of integer blocks: parsing (which writes
    # the canonical document), validation, the quotient complex and a
    # Chern class derive no `Fraction` table from it and keep none; and
    # the identities, the connections' forms, their curvature and the
    # character forms store integer numerators, not `Fraction`s
    found = 0
    for name in fixture_names():
        ws = load_fixture(name)
        validate_dg(ws.dg)
        get_complex(ws.dg)
        q = 1 if ws.dg.truncation >= 2 else 0
        for conn in list(ws.connections.values())[:1]:
            chern_class(conn, q)
        assert "gr_comp" not in vars(ws.dg), name
        for holder in (ws.category, ws.dg):
            assert not hasattr(holder, "comp") and not hasattr(holder, "diff"), (name, holder)
        assert fractions_in(ws.category.identity) == 0, name
        for conn in ws.connections.values():
            stored = [conn.module.idempotent, conn.gauge, conn.operational_matrix(), chern_form(conn, q)]
            if q:
                stored.append(conn.curvature())
            assert fractions_in(stored) == 0, (name, conn.module.name)
            # the walk does find the `Fraction`s of the derived terms
            forms = [f for m in stored[:3] for row in m.entries for f in row]
            assert fractions_in([f.terms for f in forms]) == sum(len(f.nums) for f in forms)
            found += fractions_in([f.terms for f in forms])
    assert found


def test_chain_subspace_refuses_a_vector_outside_its_span():
    # degree 1 of M2: the span of a.db inside the chains of one object, from
    # the builder's numerator rows
    c = m2_category()
    chains = _Chains(c)
    space = chains.spaces[(1, 0, 0)]
    d_arrow = [chains.d_arrow(0, 0, b) for b in range(c.dim(0, 0))]
    sub = build_quotient(space.dim, [chains.merge(0, 1, 0, 0, 0, (1, {a: 1}), db)
                                     for a in range(c.dim(0, 0)) for db in d_arrow])
    assert 0 < sub.subspace_dim < space.dim
    free = next(j for j in range(space.dim) if j not in sub.pivots)
    for i, row in enumerate(sub.numerator_rows):
        assert fraction_row(sub.coordinates(row)) == {i: ONE}
        # the same row as numerators over a multiple of its denominators,
        # whose coordinates come back over that denominator
        d = 3 * lcm(*(s.denominator for s in fraction_row(row).values()))
        nums = {j: int(s * d) for j, s in fraction_row(row).items()}
        assert sub.coordinates((d, nums)) == (d, {i: d})
        # one entry off a basis row, at a column that is no pivot, over the
        # row's own denominator and over that multiple
        moved = fraction_row(row)
        moved[free] = moved.get(free, 0) + ONE
        assert sub.coordinates(as_numerators({j: s for j, s in moved.items() if s})) is None
        assert sub.coordinates((d, {**nums, free: nums.get(free, 0) + 1})) is None


@pytest.mark.parametrize("build", [broken_unit_category, broken_associativity_category])
def test_universal_refuses_a_category_that_fails_its_axioms(build, monkeypatch):
    import lincat.envelope

    c = build()
    violations = validate_category(c)
    assert violations
    # refused before any chain is built
    monkeypatch.setattr(lincat.envelope, "_Chains", None)
    with pytest.raises(CategoryAxiomError) as caught:
        universal_dg(c, 2)
    assert caught.value.violations == violations
    assert caught.value.workspace is None


# -- sparse storage: compose against dense contraction, validation strength --


def universal_models():
    models = [(name, load_fixture(name).dg) for name in UNIVERSAL_FIXTURES]
    return models + [("m2", universal_dg(m2_category(), 2))]


def dense_tensor(w, p, q, x, y, z):
    """The stored products of basis forms written out densely."""
    return dense_block(w.gr_comp[(p, q)][(x, y, z)], w.dim(p + q, x, z))


def dense_block(block, dn):
    """Rows of product terms written out as dense vectors of length dn."""
    table = []
    for terms_row in block:
        row = []
        for terms in terms_row:
            v = [Fraction(0)] * dn
            for k, s in terms:
                assert 0 <= k < dn and s != 0
                v[k] = s
            row.append(v)
        table.append(row)
    return table


def test_compose_matches_dense_contraction():
    rng = random.Random(41)
    for name, w in universal_models():
        objs = w.base.objects
        checked = 0
        for (p, q), table in w.gr_comp.items():
            for (x, y, z) in table:
                tensor = dense_tensor(w, p, q, x, y, z)
                for _ in range(3):
                    f = random_form(w, p, objs[y], objs[x], rng)
                    g = random_form(w, q, objs[z], objs[y], rng)
                    got = w.compose(f, g)
                    assert dense_coords(w, got) == contract_dense(w, tensor, f, g), \
                        (name, p, q, (x, y, z))
                    assert (got.degree, got.dom, got.cod) == (p + q, objs[z], objs[x])
                    checked += 1
        # degree 0 goes through the same contraction, on the base category's products
        for x, y, z in itertools.product(range(len(objs)), repeat=3):
            f = random_form(w, 0, objs[y], objs[x], rng)
            g = random_form(w, 0, objs[z], objs[y], rng)
            dn = w.dim(0, x, z)
            block = comp_terms(w.base).get((x, y, z))
            expected = (Fraction(0),) * dn if block is None else contract_dense(w, dense_block(block, dn), f, g)
            assert dense_coords(w, w.compose(f, g)) == expected, (name, (x, y, z))
        assert checked or name == "point_universal"


def contract_dense(w, tensor, f, g):
    """The dense coordinates of f.g, summed over every pair of coordinates of f and g."""
    expected = [Fraction(0)] * w.dim(f.degree + g.degree, f.cod.index, g.dom.index)
    for i, a in enumerate(dense_coords(w, f)):
        for j, b in enumerate(dense_coords(w, g)):
            for k, s in enumerate(tensor[i][j]):
                expected[k] += a * b * s
    return tuple(expected)


def assert_sorted_nonzero_fractions(terms):
    indices = [k for k, _ in terms]
    assert all(a < b for a, b in zip(indices, indices[1:])), terms
    assert all(type(s) is Fraction and s != 0 for _, s in terms), terms


def returned_forms(w, connections):
    """Every form the engine returns for the given connections over w."""
    forms = []
    for conn in connections:
        matrices = [conn.module.idempotent, conn.operational_matrix()]
        if w.truncation >= 2:
            path = tilde_curvature(canonical_connection(conn.module), conn)
            matrices += [conn.curvature(), *path.part0.coeffs, *path.part1.coeffs]
        forms += [f for m in matrices for row in m.entries for f in row]
        forms += [f for q in range(w.truncation // 2 + 1) for f in chern_form(conn, q)]
    return forms


def assert_reduced_block(den, entries):
    """A stored block over one denominator: D > 0, sorted nonzero numerators, no common factor of D and all of them."""
    assert type(den) is int and den > 0, den
    for pairs in entries:
        indices = [k for k, _ in pairs]
        assert all(a < b for a, b in zip(indices, indices[1:])), pairs
        assert all(type(n) is int and n != 0 for _, n in pairs), pairs
    assert gcd(den, *(n for pairs in entries for _, n in pairs)) == 1, (den, entries)


def test_stored_blocks_are_reduced_sorted_and_nonzero():
    # byte-identical export, `compose`, `d` and form equality rely on this
    # shape: every product and differential block, every identity and every
    # form is stored over the least denominator of its entries, and a form's
    # terms are sorted nonzero Fractions
    m2 = universal_dg(m2_category(), 2)
    x = m2.base.objects[0]
    idem = FormMatrix(0, (x,), (x,), ((m2.form(0, x, x, (2, -2, 1, -1)),),))
    gauge = FormMatrix(1, (x,), (x,), ((m2.form(1, x, x, (1, 0, -2, 2, 1, 0, 0, -1, 1, 2, -2, 0)),),))
    m2_connections = [Connection(ProjectiveModule(m2, "P", idem), gauge)]
    workspaces = [load_fixture(name) for name in fixture_names()]
    models = [(ws.dg, ws.connections.values()) for ws in workspaces] + [(m2, m2_connections)]
    # blocks over denominators other than 1
    models += [(universal_dg(weighted_matrix_units(2), 2), []), (universal_dg(scaled_quiver(3), 3), [])]
    dens = set()
    for w, connections in models:
        blocks = [(den, [entry for row in rows for entry in row]) for den, rows in w._integral.values()]
        blocks += list(w._diff.values())
        assert any(entry for _, entries in blocks for entry in entries)
        for den, entries in blocks:
            assert_reduced_block(den, entries)
            dens.add(den)
        for den, nums in w.base.identity.values():
            assert_reduced_block(den, [nums])
        for terms in identity_terms(w.base).values():
            assert_sorted_nonzero_fractions(terms)
        forms = returned_forms(w, connections)
        assert any(not f.is_zero() for f in forms) or not connections
        for f in forms:
            assert_reduced_block(f.den, [f.nums])
            assert_sorted_nonzero_fractions(f.terms)
    assert max(dens) > 1
    # the same tables with every entry's terms given in decreasing index order
    gr_comp = {pq: {key: {(i, j): dict(reversed(terms)) for i, row in enumerate(block) for j, terms in enumerate(row)}
                    for key, block in table.items()}
               for pq, table in m2.gr_comp.items()}
    diff = {n: {xy: {j: dict(reversed(terms)) for j, terms in enumerate(columns)} for xy, columns in level.items()}
            for n, level in diff_terms(m2).items()}
    again = DGCategory(m2.base, m2.truncation, m2.gr_basis, gr_comp, diff)
    assert (again._integral, again._diff) == (m2._integral, m2._diff)


def assert_same_canonical_form(got, expected):
    """Two forms with equal fields, hash and terms, each in lowest terms with a tuple of numerators."""
    for f in (got, expected):
        assert type(f.nums) is tuple, f
        assert_reduced_block(f.den, [f.nums])
    assert got == expected and hash(got) == hash(expected), (got, expected)
    assert got.terms == expected.terms


def test_forms_stay_canonical_along_every_route():
    # a form holds (den, numerators) in lowest terms, so the same form
    # reached by different sums, scalings and products is the same value;
    # coefficients over 6 and scalars over 3 and 4 keep denominators in play,
    # and without the gcd step f.scale(s).scale(1 / s) would keep a factor
    rng = random.Random(26)
    models = [universal_dg(m2_category(), 3), universal_dg(two_points_category(), 4),
              universal_dg(dual_category(), 4)]
    dens = set()
    for w in models:
        x = w.base.objects[0]
        for n in range(w.truncation + 1):
            f, g = (random_form(w, n, x, x, rng).scale(Fraction(1, 6)) for _ in range(2))
            dens.add(f.den)
            for s in (Fraction(2, 3), Fraction(-5, 4), Fraction(6)):
                assert_same_canonical_form(f.scale(s).scale(1 / s), f)
            assert_same_canonical_form((f + g) - g, f)
            assert_same_canonical_form(f - f, w.zero_form(n, x, x))
            assert_same_canonical_form(w.compose(w.identity_form(x), f), f)
            assert_same_canonical_form(w.compose(f, w.identity_form(x)), f)
        # form matrices: FormMatrix.mul against composes summed over the inner index
        for p, q in ((0, 1), (1, 1), (1, 2)):
            a = random_form_matrix(w, p, (x, x), (x, x, x), rng).scale(Fraction(1, 6))
            b = random_form_matrix(w, q, (x, x, x), (x, x), rng).scale(Fraction(-1, 4))
            ab = a.mul(w, b)
            for i in range(2):
                for j in range(2):
                    expected = w.zero_form(p + q, x, x)
                    for k in range(3):
                        expected = expected + w.compose(a.entries[i][k], b.entries[k][j])
                    assert_same_canonical_form(ab.entries[i][j], expected)
            # a.b + a.b - a.b through one accumulator, and -a.b alone
            acc, negated = (ProductAccumulator(w, p + q, (x, x), (x, x)) for _ in range(2))
            acc.add(a, b)
            acc.add(a, b)
            acc.add(a, b, sign=-1)
            negated.add(a, b, sign=-1)
            for got, again, minus, want in zip(*(m.entries for m in (acc.matrix(), ab, negated.matrix(), -ab))):
                for entries in zip(got, again, minus, want):
                    assert_same_canonical_form(entries[0], entries[1])
                    assert_same_canonical_form(entries[2], entries[3])
    assert max(dens) > 1


def test_dense_tables_survive_sparse_storage():
    # random dense input tables, one block left out: every product of basis
    # forms reads back as its table entry, and the missing block as zero
    rng = random.Random(42)
    w = universal_dg(arrow_category(), 2)
    objs = w.base.objects
    comp, diff = dense_tables(w)
    for table in comp.values():
        for block in table.values():
            for row in block:
                for v in row:
                    for k in range(len(v)):
                        v[k] = random_scalar(rng) if rng.random() < 0.5 else Fraction(0)
    (p0, q0), table0 = next((pq, t) for pq, t in comp.items() if t)
    dropped = next(iter(table0))
    del table0[dropped]
    t = rebuilt(w, comp, diff)
    for (p, q), table in t.gr_comp.items():
        for (x, y, z) in table:
            for i in range(t.dim(p, x, y)):
                for j in range(t.dim(q, y, z)):
                    got = t.compose(t.basis_form(p, objs[y], objs[x], i), t.basis_form(q, objs[z], objs[y], j))
                    if ((p, q), (x, y, z)) == ((p0, q0), dropped):
                        assert got.is_zero()
                    else:
                        assert dense_coords(t, got) == tuple(comp[(p, q)][(x, y, z)][i][j])
    # indices outside the dimensions are refused: a product (i, j), its
    # target k, a differential's source j and its target i
    x, y, z = dropped
    dp, dq, dn = t.dim(p0, x, y), t.dim(q0, y, z), t.dim(p0 + q0, x, z)
    gr_comp, d = sparse_tables(comp, diff)
    for block in ({(dp, 0): {0: 1}}, {(0, dq): {0: 1}}, {(-1, 0): {0: 1}}, {(0, 0): {dn: 1}}, {(0, 0): {-1: 1}}):
        gr_comp[(p0, q0)][dropped] = block
        with pytest.raises(DimensionError):
            DGCategory(w.base, w.truncation, w.gr_basis, gr_comp, d)
    del gr_comp[(p0, q0)][dropped]
    n, (x, y) = next((n, xy) for n, level in d.items() for xy in level)
    for columns in ({w.dim(n, x, y): {}}, {-1: {}}, {0: {w.dim(n + 1, x, y): 1}}):
        d[n][(x, y)] = columns
        with pytest.raises(DimensionError):
            DGCategory(w.base, w.truncation, w.gr_basis, gr_comp, d)
    # and by the base category, for a product (i, j) and its target k
    c = w.base
    labels = [o.label for o in c.objects]
    base_comp = {key: {(i, j): dict(terms) for i, row in enumerate(block) for j, terms in enumerate(row)}
                 for key, block in comp_terms(c).items()}
    identity = {x: dict(terms) for x, terms in identity_terms(c).items()}
    assert comp_terms(Category(labels, c.hom_basis, base_comp, identity)) == comp_terms(c)
    x, y, z = next(iter(base_comp))
    dxy, dyz, dxz = c.dim(x, y), c.dim(y, z), c.dim(x, z)
    for bad in ({(dxy, 0): {0: 1}}, {(0, dyz): {0: 1}}, {(0, 0): {dxz: 1}}):
        with pytest.raises(DimensionError):
            Category(labels, c.hom_basis, {**base_comp, (x, y, z): bad}, identity)


def dense_tables(w):
    """Products of basis forms and differential matrices, as dense tables."""
    comp = {}
    for (p, q), table in w.gr_comp.items():
        comp[(p, q)] = {key: dense_tensor(w, p, q, *key) for key in table}
    diff = {}
    for n in range(w.truncation):
        diff[n] = {}
        for xy, columns in diff_terms(w)[n].items():
            rows = diff[n][xy] = [[Fraction(0)] * len(columns) for _ in range(w.dim(n + 1, *xy))]
            for j, terms in enumerate(columns):
                for i, s in terms:
                    rows[i][j] = s
    return comp, diff


def sparse_tables(comp, diff):
    """Dense tables as the sparse input of `DGCategory`."""
    def terms(v):
        return {k: s for k, s in enumerate(v) if s}

    gr_comp = {pq: {key: {(i, j): terms(v) for i, row in enumerate(block) for j, v in enumerate(row)}
                    for key, block in table.items()}
               for pq, table in comp.items()}
    d = {n: {xy: {j: terms(col) for j, col in enumerate(zip(*rows))} for xy, rows in level.items()}
         for n, level in diff.items()}
    return gr_comp, d


def rebuilt(w, comp, diff):
    return DGCategory(w.base, w.truncation, w.gr_basis, *sparse_tables(comp, diff))


# validate_dg on single corrupted entries, recorded with the dense
# implementation that checked one `compose` of basis forms per triple.
# "comp:p:q:x:y:z:i:j:k" adds 1 to entry k of the product of basis forms
# i (degree p) and j (degree q); "diff:n:x:y:r:c" adds 1 to entry (r, c)
# of the degree-n differential at (x, y).
CORRUPTIONS = {    "m2": [
        ("comp:0:1:0:0:0:0:0:0", [
            ("dg-identity-left", "1_x . e11.de11"),
            ("dg-leibniz", "e11 . e11.de11"),
            ("dg-associativity", "e11 . e11 . e11.de11"),
            ("dg-associativity", "e11 . e12 . e21.de11"),
            ("dg-associativity", "e12 . e21 . e11.de11"),
            ("dg-associativity", "e21 . e11 . e11.de11"),
            ("dg-associativity", "e11 . e11.de11 . e12"),
            ("dg-associativity", "e11 . e11.de12 . e21"),
            ("dg-associativity", "e11 . e11.de11 . e11.de11"),
            ("dg-associativity", "e11 . e11.de11 . e11.de12"),
            ("dg-associativity", "e11 . e11.de11 . e11.de21"),
            ("dg-associativity", "e11 . e11.de11 . e11.de22"),
            ("dg-associativity", "e11 . e11.de11 . e12.de11"),
            ("dg-associativity", "e11 . e11.de11 . e12.de12"),
            ("dg-associativity", "e11.de11 . e11 . e11.de11"),
            ("dg-associativity", "e11.de21 . e11 . e11.de11"),
            ("dg-associativity", "e12.de11 . e11 . e11.de11"),
            ("dg-associativity", "e21.de11 . e11 . e11.de11"),
            ("dg-associativity", "e21.de21 . e11 . e11.de11"),
            ("dg-associativity", "e22.de11 . e11 . e11.de11"),
        ]),
        ("comp:1:0:0:0:0:2:3:5", [
            ("dg-identity-right", "e11.de21 . 1_x"),
            ("dg-leibniz", "e21 . e22"),
            ("dg-leibniz", "e11.de21 . e22"),
            ("dg-associativity", "e12 . e21.de21 . e22"),
            ("dg-associativity", "e21 . e11.de21 . e22"),
            ("dg-associativity", "e11.de21 . e11 . e22"),
            ("dg-associativity", "e11.de21 . e21 . e12"),
            ("dg-associativity", "e11.de21 . e22 . e21"),
            ("dg-associativity", "e11.de22 . e21 . e22"),
            ("dg-associativity", "e11.de21 . e22 . e21.de11"),
            ("dg-associativity", "e11.de21 . e22 . e21.de12"),
            ("dg-associativity", "e11.de21 . e22 . e21.de21"),
            ("dg-associativity", "e11.de21 . e22 . e21.de22"),
            ("dg-associativity", "e11.de21 . e22 . e22.de11"),
            ("dg-associativity", "e11.de21 . e22 . e22.de12"),
            ("dg-associativity", "e11.de11 . e11.de21 . e22"),
            ("dg-associativity", "e11.de21 . e11.de21 . e22"),
            ("dg-associativity", "e12.de11 . e11.de21 . e22"),
            ("dg-associativity", "e21.de11 . e11.de21 . e22"),
            ("dg-associativity", "e21.de21 . e11.de21 . e22"),
            ("dg-associativity", "e22.de11 . e11.de21 . e22"),
        ]),
        ("diff:0:0:0:1:1", [
            ("dg-d-squared", "degree 0 at (x,x)"),
            ("dg-leibniz", "e12 . e21"),
            ("dg-leibniz", "e21 . e12"),
            ("dg-leibniz", "e12 . e21.de11"),
            ("dg-leibniz", "e12 . e21.de12"),
            ("dg-leibniz", "e12 . e21.de21"),
            ("dg-leibniz", "e12 . e21.de22"),
            ("dg-leibniz", "e12 . e22.de11"),
            ("dg-leibniz", "e12 . e22.de12"),
            ("dg-leibniz", "e11.de11 . e12"),
            ("dg-leibniz", "e11.de21 . e12"),
            ("dg-leibniz", "e12.de11 . e12"),
            ("dg-leibniz", "e21.de11 . e12"),
            ("dg-leibniz", "e21.de21 . e12"),
            ("dg-leibniz", "e22.de11 . e12"),
        ]),
    ],
    "two_points": [
        ("comp:0:1:0:0:0:0:0:0", [
            ("dg-identity-left", "1_x . dc"),
            ("dg-leibniz", "1 . c"),
            ("dg-associativity", "1 . 1 . dc"),
            ("dg-associativity", "c . 1 . dc"),
            ("dg-associativity", "1 . dc . c"),
            ("dg-associativity", "1 . dc . dc"),
            ("dg-associativity", "1 . dc . c.dc"),
            ("dg-associativity", "1 . dc . dc.dc"),
            ("dg-associativity", "1 . dc . c.dc.dc"),
            ("dg-associativity", "dc . 1 . dc"),
            ("dg-associativity", "c.dc . 1 . dc"),
            ("dg-associativity", "dc.dc . 1 . dc"),
            ("dg-associativity", "c.dc.dc . 1 . dc"),
        ]),
        ("diff:1:0:0:0:0", [
            ("dg-d-squared", "degree 0 at (x,x)"),
            ("dg-leibniz", "c . dc"),
            ("dg-leibniz", "dc . c"),
            ("dg-leibniz", "dc . c.dc"),
            ("dg-leibniz", "c.dc . dc"),
        ]),
    ],
}


def corrupted(w, spec):
    """`w` with the single table entry named by a CORRUPTIONS spec raised by 1."""
    comp, diff = dense_tables(w)
    kind, *idx = spec.split(":")
    idx = [int(s) for s in idx]
    if kind == "comp":
        p, q, x, y, z, i, j, k = idx
        comp[(p, q)][(x, y, z)][i][j][k] += 1
    else:
        n, x, y, r, c = idx
        diff[n][(x, y)][r][c] += 1
    return rebuilt(w, comp, diff)


def test_validation_reports_single_corruptions_exactly():
    models = {"m2": universal_dg(m2_category(), 2), "two_points": universal_dg(two_points_category(), 3)}
    for name, w in models.items():
        comp, diff = dense_tables(w)
        assert validate_dg(rebuilt(w, comp, diff)) == []
        for spec, expected in CORRUPTIONS[name]:
            got = validate_dg(corrupted(w, spec))
            assert [(v.kind, v.where) for v in got] == expected, (name, spec)


def test_corruptions_beside_a_product_without_terms_are_named_as_the_enumeration_names_them():
    # the law check skips a triple (g, b, c) where g.b and b.c both have no
    # terms, both sides being 0 there; a corrupted b.c at a triple where
    # just one of the two has none is still seen, and named as the full
    # enumeration names it.  M2 at truncation 3, g a generator of degree p,
    # b of degree q and c of degree r, at the one object
    w = universal_dg(m2_category(), 3)
    found = {}
    for g in _generators(w):
        if g == w.identity_form(g.cod):
            continue
        for q, r in itertools.product(range(4), repeat=2):
            # the degree-0 products are the category's, outside the envelope's tables
            if not 0 < q + r <= 3 - g.degree:
                continue
            # a unit vector of degree q + r that g does not annihilate
            m = next(m for m in range(w.dim(q + r, 0, 0)) if w.compose(g, w.basis_form(q + r, g.dom, g.dom, m)).nums)
            for j, k in itertools.product(range(w.dim(q, 0, 0)), range(w.dim(r, 0, 0))):
                gb = bool(w.compose(g, w.basis_form(q, g.dom, g.dom, j)).nums)
                bc = bool(w.integral_products(q, r, 0, 0, 0)[1][j][k])
                if gb != bc:
                    found.setdefault(gb, f"comp:{q}:{r}:0:0:0:{j}:{k}:{m}")
    assert set(found) == {False, True}
    for spec in found.values():
        v = corrupted(w, spec)
        full = enumerated_unit_violations(v) + enumerated_violations(v)
        assert any(v.kind == "dg-associativity" for v in full), spec
        assert validate_dg(v) == full, spec
        assert not laws_hold_on(v, _generators(v)), spec


# -- the generation certificate ----------------------------------------------


def test_generator_check_alone_rejects_every_corruption():
    models = {"m2": universal_dg(m2_category(), 2), "two_points": universal_dg(two_points_category(), 3)}
    for name, w in models.items():
        assert laws_hold_on(w, _generators(w))
        for spec, _ in CORRUPTIONS[name]:
            v = corrupted(w, spec)
            assert not laws_hold_on(v, _generators(v)), (name, spec)


def test_d_squared_alone_is_detected():
    # a curved algebra: d(t) = s and d(s) = u with every product of forms
    # of positive degree zero, so units, Leibniz and associativity hold and
    # only d.d = 0 on the generator t fails
    unit = {(0, 0, 0): {(0, 0): {0: 1}}}
    w = DGCategory(
        point_category(), 3,
        {1: {(0, 0): ("t",)}, 2: {(0, 0): ("s",)}, 3: {(0, 0): ("u",)}},
        {**{(0, n): unit for n in (1, 2, 3)}, **{(n, 0): unit for n in (1, 2, 3)}},
        {1: {(0, 0): {0: {0: 1}}}, 2: {(0, 0): {0: {0: 1}}}},
    )
    assert [(v.kind, v.where) for v in validate_dg(w)] == [("dg-d-squared", "degree 1 at (pt,pt)")]


def test_degree_0_triples_enter_the_generator_check():
    # a0 (the declared identity) and a1 do not associate in degree 0, and
    # (a1.a0).t0 != a1.(a0.t0) in degree 1, while every triple (g, y, z)
    # of positive degree with g a generator associates: the lemma needs its
    # premise on the degree-0 triples too, though they are reported by
    # `validate_category` alone
    c = Category(["x"], {(0, 0): ("a0", "a1")},
                 {(0, 0, 0): {(0, 0): {0: -1, 1: 1}, (1, 0): {0: 1, 1: -1}}}, {0: {0: 1}})
    w = DGCategory(c, 1, {1: {(0, 0): ("t0",)}}, {(0, 1): {(0, 0, 0): {(0, 0): {0: -1}}}}, {})
    assert [(v.kind, v.where) for v in validate_dg(w)] == [
        ("dg-identity-left", "1_x . t0"),
        ("dg-identity-right", "t0 . 1_x"),
        ("dg-associativity", "a1 . a0 . t0"),
    ]


def test_unit_laws_alone_fail_the_generator_check():
    # the point with one form t of degree 1 and no products: 1.t = 0 and
    # t.1 = 0, so the unit laws fail on t, while d = 0, Leibniz and
    # associativity hold; t is a generator, since no word reaches it
    w = DGCategory(point_category(), 1, {1: {(0, 0): ("t",)}}, {}, {})
    assert {key[0][0] for key in law_defects(w, 1, 0, 0, {0: 1})} == {"dg-identity-left", "dg-identity-right"}
    assert enumerated_violations(w) == []
    assert not laws_hold_on(w, _generators(w))
    assert [(v.kind, v.where) for v in validate_dg(w)] == [
        ("dg-identity-left", "1_pt . t"),
        ("dg-identity-right", "t . 1_pt"),
    ]


def random_category(rng, nobj):
    """A category with random hom dimensions, fractional structure constants and identities."""
    hom_basis = {(x, y): [f"b{x}{y}{k}" for k in range(rng.randint(0, 2))]
                 for x in range(nobj) for y in range(nobj)}
    dim = {xy: len(basis) for xy, basis in hom_basis.items()}

    def vector(d):
        return {k: random_scalar(rng) for k in range(d) if rng.random() < 0.6}

    comp = {(x, y, z): {(i, j): vector(dim[(x, z)]) for i in range(dim[(x, y)]) for j in range(dim[(y, z)])}
            for x, y, z in itertools.product(range(nobj), repeat=3) if dim[(x, y)] and dim[(y, z)]}
    identity = {x: vector(dim[(x, x)]) for x in range(nobj)}
    return Category([f"o{x}" for x in range(nobj)], hom_basis, comp, identity)


def category_corruptions(c, rng, count):
    """Copies of `c` with one product or identity entry moved by a random nonzero scalar."""
    labels = [o.label for o in c.objects]
    places = [("comp", key, i, j, k) for key, block in comp_terms(c).items()
              for i, row in enumerate(block) for j in range(len(row)) for k in range(c.dim(key[0], key[2]))]
    places += [("identity", x, k) for x in range(len(labels)) for k in range(c.dim(x, x))]
    for _ in range(count):
        delta = random_scalar(rng) or Fraction(1)
        comp = {key: {(i, j): dict(terms) for i, row in enumerate(block) for j, terms in enumerate(row)}
                for key, block in comp_terms(c).items()}
        identity = {x: dict(terms) for x, terms in identity_terms(c).items()}
        place = rng.choice(places)
        if place[0] == "comp":
            _, key, i, j, k = place
            entry = comp[key][(i, j)]
        else:
            _, x, k = place
            entry = identity[x]
        entry[k] = entry.get(k, Fraction(0)) + delta
        yield place, Category(labels, c.hom_basis, comp, identity)


def test_validate_category_equals_the_category_oracle():
    # random fractional tables, which mostly fail, and single corruptions of
    # M2, M3 and an A3 quiver in a rescaled basis, which start out holding;
    # the kernel's sorted report must equal the oracle's loop order
    rng = random.Random(45)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        c = random_category(rng, rng.randint(1, 3))
        expected = category_violations(c)
        assert validate_category(c) == expected
        outcomes[not expected] += 1
    for c in (m2_category(), matrix_units_category(3), scaled_quiver(3)):
        assert validate_category(c) == category_violations(c) == []
        for place, v in category_corruptions(c, rng, 40):
            expected = category_violations(v)
            assert validate_category(v) == expected, place
            outcomes[not expected] += 1
    assert min(outcomes.values()) >= 20, outcomes


def single_corruptions(w, rng, count):
    """Copies of `w` with one entry moved by a random nonzero scalar.

    The table is drawn first: the products of basis forms, the
    differentials or the products of basis arrows of the base category.
    Then the entry, over every position of that table, zero or not.
    """
    c = w.base
    labels = [o.label for o in c.objects]
    identity = {x: dict(terms) for x, terms in identity_terms(c).items()}
    comp, diff = dense_tables(w)
    tables = [
        [("comp", pq, key, i, j, k) for pq, table in comp.items() for key, block in table.items()
         for i, row in enumerate(block) for j, v in enumerate(row) for k in range(len(v))],
        [("diff", n, xy, r, col) for n, level in diff.items() for xy, rows in level.items()
         for r, row in enumerate(rows) for col in range(len(row))],
        [("base", key, i, j, k) for key, block in comp_terms(c).items()
         for i, row in enumerate(block) for j in range(len(row)) for k in range(c.dim(key[0], key[2]))],
    ]
    for _ in range(count):
        delta = random_scalar(rng) or Fraction(1)
        place = rng.choice(rng.choice([t for t in tables if t]))
        comp, diff = dense_tables(w)
        base = c
        if place[0] == "comp":
            _, pq, key, i, j, k = place
            comp[pq][key][i][j][k] += delta
        elif place[0] == "diff":
            _, n, xy, r, col = place
            diff[n][xy][r][col] += delta
        else:
            _, key, i, j, k = place
            base_comp = {kk: {(a, b): dict(terms) for a, row in enumerate(block) for b, terms in enumerate(row)}
                         for kk, block in comp_terms(c).items()}
            entry = base_comp[key].setdefault((i, j), {})
            entry[k] = entry.get(k, Fraction(0)) + delta
            base = Category(labels, c.hom_basis, base_comp, identity)
        yield place, DGCategory(base, w.truncation, w.gr_basis, *sparse_tables(comp, diff))


def test_validation_equals_the_full_enumeration_on_random_corruptions():
    models = {
        "m2": universal_dg(m2_category(), 2),
        "two_points": universal_dg(two_points_category(), 3),
        "circle_tables": load_fixture("circle_tables").dg,
    }
    rng = random.Random(43)
    for name, w in models.items():
        failing = 0
        for place, v in single_corruptions(w, rng, 40):
            enumerated = enumerated_violations(v)
            assert law_violations(v) == enumerated_unit_violations(v) + enumerated, (name, place)
            full = enumerated_unit_violations(v) + enumerated
            assert validate_dg(v) == full, (name, place)
            failing += bool(full)
        assert failing >= 20, name  # the corruptions are seen, so the fallback ran


def test_law_kernel_over_denominators_equals_the_enumeration():
    # A4 and M2 in rescaled bases: their product blocks, differentials and
    # generators carry denominators other than 1, so the law kernel
    # cross-multiplies where the two sides of a law come from blocks over
    # different denominators
    failing, outcomes, cancelled = 0, {True: 0, False: 0}, 0
    models = ((universal_dg(scaled_quiver(4), 4), 25), (universal_dg(weighted_matrix_units(2), 2), 10))
    for w, count in models:
        rng = random.Random(44)
        products = (s for table in w.gr_comp.values() for block in table.values()
                    for row in block for terms in row for _, s in terms)
        differentials = (s for level in diff_terms(w).values() for columns in level.values()
                         for column in columns for _, s in column)
        assert any(s.denominator > 1 for s in products)
        assert any(s.denominator > 1 for s in differentials)
        assert any(s.denominator > 1 for g in _generators(w) for _, s in g.terms)
        assert validate_dg(w) == enumerated_unit_violations(w) == enumerated_violations(w) == []

        for place, v in [("clean", w)] + list(single_corruptions(w, rng, count)):
            enumerated = enumerated_violations(v)
            assert law_violations(v) == enumerated_unit_violations(v) + enumerated, place
            full = enumerated_unit_violations(v) + enumerated
            assert validate_dg(v) == full, place
            failing += bool(full)
            # forms with fractional coefficients on the left: one at random
            # per space, and where it fails, one whose defects cancel
            for p in range(v.truncation + 1):
                for (x, y) in hom_pairs(v, p):
                    dim = v.dim(p, x, y)
                    forms = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5])) for _ in range(dim)]]
                    if law_defects(v, p, x, y, dict(enumerate(forms[0]))):
                        defects = [law_defects(v, p, x, y, {i: 1}) for i in range(dim)]
                        keys = sorted(set().union(*defects), key=repr)
                        kernel = dense_kernel(DenseMatrix(len(keys), dim, tuple(
                            tuple(Fraction(d.get(key, 0)) for d in defects) for key in keys)))
                        scales = [Fraction(rng.choice([1, -1]), rng.choice([2, 3, 5, 7])) for _ in kernel]
                        mixed = [sum(s * u[i] for s, u in zip(scales, kernel)) for i in range(dim)]
                        if any(mixed[i] and defects[i] for i in range(dim)):
                            assert not law_defects(v, p, x, y, dict(enumerate(mixed)))
                            forms.append(mixed)
                            cancelled += 1
                    for coords in forms:
                        g = v.form(p, v.base.objects[y], v.base.objects[x], coords)
                        expected = not law_defects(v, p, x, y, dict(g.terms))
                        assert laws_hold_on(v, [g]) == expected, (place, p, x, y, coords)
                        outcomes[expected] += 1
    assert failing >= 25, failing
    assert min(outcomes.values()) >= 40, outcomes
    assert cancelled >= 3, cancelled


# -- identities in the generating set take the whole-object unit law -----------


def full_sweep_holds(w, gens):
    """The generator check with `_failures` run on every g in `gens`, identities included."""
    columns, dims = _columns(w), _dims(w)
    return all(next(_failures(w, g.degree, g.cod.index, g.dom.index, g.nums, columns, dims), None) is None
               for g in gens)


@pytest.mark.parametrize("name", ["two_points_universal", "dual_numbers_universal"])
def test_identity_generator_is_held_to_the_unit_law(name):
    # 1 is the first generator, so its unit law replaces its sweep: one
    # wrong entry of 1.v at the top degree, or d(1) != 0, must still be
    # seen, by the check on 1 alone and by the check on G
    w = load_fixture(name).dg
    N, one = w.truncation, w.identity_form(w.base.objects[0])
    assert one in certified_generators(w)[0] and certified_generators(w)[1]
    assert laws_hold_on(w, [one])
    top = w.space_labels(N, 0, 0)
    for spec, expected in ((f"comp:0:{N}:0:0:0:0:0:1", ("dg-identity-left", f"1_x . {top[0]}")),
                           ("diff:0:0:0:0:0", ("dg-leibniz", "1 . 1"))):
        v = corrupted(w, spec)
        gens, lawful = certified_generators(v)
        assert one in gens and not lawful and not laws_hold_on(v, [one]), spec
        assert expected in [(u.kind, u.where) for u in validate_dg(v)], spec
        with pytest.raises(CategoryAxiomError):
            get_complex(v)


def test_identity_generators_keep_the_verdict_of_the_full_sweep():
    # the single corruptions the other tests build, one entry moved at a
    # time, on models whose generating sets hold an identity and on M2,
    # whose identity is no basis arrow
    models = {
        "m2": universal_dg(m2_category(), 2),
        "two_points": universal_dg(two_points_category(), 3),
        "circle_tables": load_fixture("circle_tables").dg,
        "dual_numbers_universal": load_fixture("dual_numbers_universal").dg,
    }
    rng = random.Random(46)
    outcomes, identities = {True: 0, False: 0}, 0
    for name, w in models.items():
        family = [corrupted(w, spec) for spec, _ in CORRUPTIONS.get(name, ())]
        family += [v for _, v in single_corruptions(w, rng, 30)]
        for v in [w] + family:
            gens = _generators(v)
            identities += any(g == v.identity_form(g.cod) for g in gens)
            verdict = laws_hold_on(v, gens)
            assert verdict == full_sweep_holds(v, gens), name
            outcomes[verdict] += 1
    assert identities >= 60, identities
    assert outcomes[True] >= len(models) and outcomes[False] >= 100, outcomes


def word_span_dims(w, gens):
    """Dimension of the span of the left-normed words in `gens`, per (degree, x, y).

    The words are multiplied out with `compose`, one generator at a time,
    until no product adds to the span.
    """
    spans: dict = {}
    todo = list(gens)
    while todo:
        f = todo.pop()
        key = (f.degree, f.cod.index, f.dom.index)
        if spans.setdefault(key, Echelon()).add((f.den, dict(f.nums))) is None:
            continue
        todo += [w.compose(f, g) for g in gens if g.cod == f.dom and f.degree + g.degree <= w.truncation]
    return {key: len(basis.numerator_rows) for key, basis in spans.items()}


@pytest.mark.parametrize("name", fixture_names() + list(ENVELOPE_DIGESTS))
def test_generator_words_span_every_basis(name):
    if name in ENVELOPE_DIGESTS:
        build, truncation, _, _ = ENVELOPE_DIGESTS[name]
        w = universal_dg(build(), truncation)
    else:
        w = load_fixture(name).dg
    gens = _generators(w)
    dims = word_span_dims(w, gens)
    nobj = len(w.base.objects)
    for n in range(w.truncation + 1):
        for x in range(nobj):
            for y in range(nobj):
                assert dims.get((n, x, y), 0) == w.dim(n, x, y), (name, n, x, y)
    assert len(gens) <= sum(dims.values())


def test_generating_set_is_a_function_of_the_tables():
    w = universal_dg(m2_category(), 3)
    gens = _generators(w)
    # e12, e21 and two forms of degree 1 generate M2 at truncation 3:
    # e11 = e12.e21 is a word of the others
    assert [g.degree for g in gens] == [0, 0, 1, 1]
    assert [render_form(w, g) for g in gens[:2]] == ["e12", "e21"]
    # a second build, and the same tables handed over in reversed order
    gr_basis, gr_comp, diff = own_tables(w)

    def reverse(table):
        if isinstance(table, dict):
            return {key: reverse(v) for key, v in reversed(table.items())}
        return table

    for again in (universal_dg(m2_category(), 3),
                  DGCategory(w.base, w.truncation, reverse(gr_basis), reverse(gr_comp), reverse(diff))):
        assert _generators(again) == gens


@pytest.mark.parametrize("name", ["M2-3", "A4-4"])
def test_generators_read_each_dimension_once(name, monkeypatch):
    # `_generators` asked DGCategory.dim again for every word it multiplied:
    # 448 calls per build of M2 at truncation 3
    w = IRREDUNDANT_MODELS[name][0]()
    gens = _generators(w)
    reads = []
    dim = DGCategory.dim
    monkeypatch.setattr(DGCategory, "dim", lambda self, n, x, y: reads.append((n, x, y)) or dim(self, n, x, y))
    assert _generators(w) == gens
    assert reads and len(reads) == len(set(reads))


def settled_oracle(den, sums):
    """The block of integer sums over den by way of Fractions: each nonzero n / den, put over one lcm."""
    lcm_den, rows = integral_terms([[(k, Fraction(n, den)) for k, n in sorted(s.items()) if n] for s in sums])
    return lcm_den, tuple(rows)


def test_settled_writes_the_block_of_the_sorted_and_filtered_sums():
    # sums of zero, one and more terms, with cancelled zeros, over
    # denominators that share a factor with every entry or with none
    rng = random.Random(107)
    cases = [(1, []), (1, [{}]), (3, [{4: 0}]), (1, [{2: 0}, {5: 3}, {}]), (6, [{3: 4, 1: -2}, {0: 0, 2: 8}, {7: 6}]),
             (4, [{1: 0}, {0: 2}])]
    for _ in range(300):
        sums = [{k: rng.choice([0, -2, 3, 4, 6]) for k in rng.sample(range(9), rng.choice([0, 1, 1, 2, 3, 5]))}
                for _ in range(rng.randint(0, 6))]
        cases.append((rng.choice([1, 2, 3, 6, 12]), sums))
    for den, sums in cases:
        given = repr(sums)
        assert lincat.envelope._settled(den, sums) == settled_oracle(den, sums), (den, sums)
        assert repr(sums) == given
    assert lincat.envelope._settled(3, [{4: 0}]) == (1, ((),))
    assert lincat.envelope._settled(6, [{3: 4, 1: -2}, {}, {7: 6}]) == (3, (((1, -1), (3, 2)), (), ((7, 3),)))


# G's degree-0 forms after reverse deletion, against the basis forms of degree
# 0 that the greedy pass makes generators: on M2 e11 = e12.e21 goes, on M3
# e11 = e12.e21, on A4 every path of length 2 or 3, and on the iso pair
# 1a = g.f
IRREDUNDANT_MODELS = {
    "M2-3": (lambda: universal_dg(m2_category(), 3), ["e12", "e21"], 4),
    "M3-2": (lambda: universal_dg(matrix_units_category(3), 2), ["e12", "e13", "e21", "e31"], 7),
    "A4-4": (lambda: universal_dg(linear_quiver_category(4), 4), ["p00", "p01", "p11", "p12", "p22", "p23", "p33"], 10),
    "iso-2": (lambda: universal_dg(iso_pair_category(), 2), ["g", "f"], 3),
}


@pytest.mark.parametrize("make, degree_zero, size", IRREDUNDANT_MODELS.values(), ids=IRREDUNDANT_MODELS.keys())
def test_generating_set_is_irredundant_in_degree_0(make, degree_zero, size):
    # the words of G span every basis form, and the words of G's degree-0
    # forms without any one of them leave a degree-0 basis form unreached
    w = make()
    gens = _generators(w)
    zero = [g for g in gens if g.degree == 0]
    assert ([render_form(w, g) for g in zero], len(gens)) == (degree_zero, size)
    nobj = len(w.base.objects)
    filled = {(0, x, y): w.dim(0, x, y) for x in range(nobj) for y in range(nobj) if w.dim(0, x, y)}
    assert {key: d for key, d in word_span_dims(w, zero).items() if key[0] == 0} == filled
    for g in zero:
        assert word_span_dims(w, [h for h in zero if h is not g]) != filled, render_form(w, g)


# sha256 of the repr of G on each bundled fixture, recorded before reverse
# deletion: nothing is dropped there
FIXTURE_GENERATOR_DIGESTS = {
    "arrow_universal": "c4141e4a298b54b7da23e8caabd4a8e12f6ed694cd95dfb0e1e8e40bba517693",
    "circle_tables": "31d2e5ccb3832543a6eb0a2b9ef7b78d080c8f474fc684af6bd2d6067a52b32f",
    "dual_numbers_trivial": "759a6dbfc2e3f7262a85bb858677b1872123f0ab36e145e84de001a8291c1df7",
    "dual_numbers_universal": "8b249dbc56602caf625f05540d86fac0ee3c4cf5e54cd6e07abcd925e8d9e528",
    "point_universal": "b75fc4d068f9aae432e270253605e0bf621abfe9c15be0bda7676668379c91f1",
    "two_points_universal": "8b249dbc56602caf625f05540d86fac0ee3c4cf5e54cd6e07abcd925e8d9e528",
}


def test_generating_set_is_unchanged_where_nothing_can_go():
    # the bundled fixtures, and two points and the dual numbers raised to
    # truncation 8 and 6, whose G of 1, c, dc and 1, u, du reads as on
    # their fixtures: each degree-0 generator but one is an identity there,
    # so none is tried
    assert fixture_names() == list(FIXTURE_GENERATOR_DIGESTS)
    models = [(load_fixture(name).dg, digest) for name, digest in FIXTURE_GENERATOR_DIGESTS.items()]
    models += [(universal_dg(two_points_category(), 8), FIXTURE_GENERATOR_DIGESTS["two_points_universal"]),
               (universal_dg(dual_category(), 6), FIXTURE_GENERATOR_DIGESTS["dual_numbers_universal"])]
    for w, digest in models:
        g_repr = repr([(g.degree, g.dom.index, g.cod.index, g.terms) for g in _generators(w)])
        assert hashlib.sha256(g_repr.encode()).hexdigest() == digest, w.base.objects


# -- table keys the constructor never reads are refused ------------------------


def own_tables(w):
    """The sparse constructor input that rebuilds `w`, one block per stored key."""
    gr_comp = {pq: {key: {(i, j): dict(terms) for i, row in enumerate(block) for j, terms in enumerate(row)}
                    for key, block in table.items()}
               for pq, table in w.gr_comp.items()}
    diff = {n: {xy: {j: dict(terms) for j, terms in enumerate(columns)} for xy, columns in level.items()}
            for n, level in diff_terms(w).items()}
    return dict(w.gr_basis), gr_comp, diff


def test_own_tables_rebuild_every_fixture():
    # no fixture and no universal envelope trips the unread-key check
    models = [load_fixture(name).dg for name in fixture_names()] + [universal_dg(m2_category(), 2)]
    for w in models:
        again = DGCategory(w.base, w.truncation, *own_tables(w))
        assert (again.gr_basis, again.gr_comp, diff_terms(again)) == (w.gr_basis, w.gr_comp, diff_terms(w))
    # the universal builder hands over empty columns at zero hom spaces
    w = load_fixture("arrow_universal").dg
    gr_basis, gr_comp, diff = own_tables(w)
    diff[1][(0, 1)] = {}
    gr_comp[(1, 0)][(0, 0, 0)] = {}
    assert diff_terms(DGCategory(w.base, w.truncation, gr_basis, gr_comp, diff)) == diff_terms(w)


def refused(w, gr_basis, gr_comp, diff):
    with pytest.raises(DimensionError):
        DGCategory(w.base, w.truncation, gr_basis, gr_comp, diff)


def test_refuses_composition_degrees_above_truncation():
    w = load_fixture("circle_tables").dg  # truncation 1, one object
    gr_basis, gr_comp, diff = own_tables(w)
    refused(w, gr_basis, {**gr_comp, (2, 0): {(0, 0, 0): {(0, 0): {0: 1}}}}, diff)
    refused(w, gr_basis, {**gr_comp, (1, 1): {}}, diff)


def test_refuses_differential_above_truncation():
    w = load_fixture("circle_tables").dg
    gr_basis, gr_comp, diff = own_tables(w)
    refused(w, gr_basis, gr_comp, {**diff, 3: {(0, 0): {0: {0: 1}}}})


def test_refuses_endpoints_out_of_range():
    w = load_fixture("circle_tables").dg
    gr_basis, gr_comp, diff = own_tables(w)
    refused(w, gr_basis, gr_comp, {**diff, 0: {**diff[0], (5, 5): {0: {0: 1}}}})
    refused(w, gr_basis, {**gr_comp, (0, 1): {**gr_comp[(0, 1)], (0, 0, 1): {(0, 0): {0: 1}}}}, diff)


def test_refuses_junk_composition_key():
    w = load_fixture("circle_tables").dg
    gr_basis, gr_comp, diff = own_tables(w)
    refused(w, gr_basis, {**gr_comp, (0, 1, 7): {(0, 0, 0): {(0, 0): {0: 1}}}}, diff)


def test_refuses_entries_at_a_zero_hom_space():
    # arrow: degree-1 forms live only at (t, s); (s, s) and (s, t) are zero spaces
    w = load_fixture("arrow_universal").dg
    gr_basis, gr_comp, diff = own_tables(w)
    refused(w, gr_basis, {**gr_comp, (1, 0): {**gr_comp[(1, 0)], (0, 0, 0): {(0, 0): {0: 1}}}}, diff)
    refused(w, gr_basis, gr_comp, {**diff, 1: {**diff[1], (0, 1): {0: {0: 1}}}})


def test_tables_refuse_float_entries():
    w = load_fixture("circle_tables").dg
    gr_basis, gr_comp, diff = own_tables(w)
    with pytest.raises(ScalarTypeError, match=r"composition \(0,1\) at \(0, 0, 0\)\[0\]\[0\], entry 0 is 0.5 of type float"):
        DGCategory(w.base, w.truncation, gr_basis, {**gr_comp, (0, 1): {(0, 0, 0): {(0, 0): {0: 0.5}}}}, diff)
    with pytest.raises(ScalarTypeError, match=r"differential at degree 0, \(0, 0\), column 0, entry 0 is 0.5 of type float"):
        DGCategory(w.base, w.truncation, gr_basis, gr_comp, {**diff, 0: {(0, 0): {0: {0: 0.5}}}})


def test_refuses_form_basis_above_truncation():
    w = load_fixture("circle_tables").dg
    gr_basis, gr_comp, diff = own_tables(w)
    refused(w, {**gr_basis, 2: {(0, 0): ("th2",)}}, gr_comp, diff)


def test_degrees_without_forms_take_empty_tables_only():
    # circle_tables raised to truncation 2: degree 2 holds no forms, so the
    # in-range pair (2, 0) and degree 2 name zero spaces only
    w = load_fixture("circle_tables").dg
    gr_basis, gr_comp, diff = own_tables(w)
    plain = DGCategory(w.base, 2, gr_basis, gr_comp, diff)
    for empty in ({}, {(0, 0, 0): {}}):
        again = DGCategory(w.base, 2, gr_basis, {**gr_comp, (2, 0): empty}, {**diff, 2: {(0, 0): {}}})
        assert list(again._integral.items()) == list(plain._integral.items())
        assert list(again._diff.items()) == list(plain._diff.items())
    with pytest.raises(DimensionError) as exc:
        DGCategory(w.base, 2, gr_basis, {**gr_comp, (2, 0): {(0, 0, 0): {(0, 0): {0: 1}}}}, diff)
    assert str(exc.value) == "composition (2,0): (0, 0, 0) is a zero space, but the table gives it entries"
    with pytest.raises(DimensionError) as exc:
        DGCategory(w.base, 2, gr_basis, gr_comp, {**diff, 2: {(0, 0): {0: {0: 1}}}})
    assert str(exc.value) == "differential at degree 2: (0, 0) is a zero space, but the table gives it entries"


def test_checked_constructor_walks_the_degrees_that_hold_forms(monkeypatch):
    # circle_tables has forms in degrees 0 and 1 only, a trivial model in
    # degree 0 only: raised to truncation 200, the constructor checks the
    # degree pairs among those degrees, not all 20300 pairs up to 200
    calls = []

    def counting(table, nobj, shape, where, at):
        calls.append(where)
        return checked_blocks(table, nobj, shape, where, at)

    monkeypatch.setattr(lincat.dg, "checked_blocks", counting)
    for name, checked in [("circle_tables", ["composition (0,1)", "composition (1,0)", "composition (1,1)"]),
                          ("dual_numbers_trivial", [])]:
        text = deepened(name, 200)
        calls.clear()
        parse_workspace(text)
        assert calls == checked


def test_envelope_builder_stops_where_its_forms_stop(monkeypatch):
    # A3's forms end at degree 2, so the builder grows chain spaces up to
    # degree 3, the first degree without forms, and no further: at
    # truncation 40 it builds the chain spaces of degrees 0..3 only, and
    # stores the blocks it stores at truncation 5
    import lincat.envelope

    degrees = []
    chain_space = lincat.envelope._ChainSpace

    def counting(c, x, y, interiors, unit):
        degrees.append(len(interiors[0]) if interiors else None)
        return chain_space(c, x, y, interiors, unit)

    monkeypatch.setattr(lincat.envelope, "_ChainSpace", counting)
    c = linear_quiver_category(3)
    deep = universal_dg(c, 40)
    assert len(degrees) == 4 * 3 * 3
    assert {n for n in degrees if n is not None} == {0, 1, 2, 3}
    assert deep.dim(2, 2, 0) == 1 and all(deep.dim(3, x, y) == 0 for x in range(3) for y in range(3))
    shallow = universal_dg(c, 5)
    assert deep.stored_products() == shallow.stored_products()
    assert deep.stored_differentials() == shallow.stored_differentials()


def path_counts(c, truncation):
    """The forms of each degree by the path count, summed over endpoint pairs, up to the first degree without any."""
    objects = range(len(c.objects))
    pairs = [(x, y) for x in objects for y in objects]
    dims = {(x, y): c.dim(x, y) for x, y in pairs}
    counts = [sum(dims.values())]
    while counts[-1] and len(counts) <= truncation:
        dims = {(x, y): sum(dims[(x, w)] * (c.dim(w, y) - (w == y)) for w in objects) for x, y in pairs}
        counts.append(sum(dims.values()))
    return counts


@pytest.mark.parametrize("make, truncation, expected", [
    *[(make, 6, path_counts) for make in (two_points_category, dual_category, point_category, arrow_category)],
    *[(lambda n=n: linear_quiver_category(n), n + 2, path_counts) for n in range(3, 7)],
    (m2_category, 3, lambda c, truncation: [4 ** (n + 1) for n in range(truncation + 1)]),
], ids=["two_points", "dual", "point", "arrow", "A3", "A4", "A5", "A6", "M2"])
def test_builder_enumerates_the_kept_chains_only(make, truncation, expected, monkeypatch):
    # where every identity is a basis arrow, the chains with an identity in a
    # differential slot are never built, so each degree up to the first
    # without forms has as many chains as the path count gives forms (two
    # for two_points and the dual numbers, where every chain was 2^(n+1));
    # M2's identity is no basis arrow, and it keeps all 4^(n+1) chains
    import lincat.envelope

    built = {}
    chain_space = lincat.envelope._ChainSpace

    def counting(c, x, y, interiors, unit):
        space = chain_space(c, x, y, interiors, unit)
        if interiors:
            built[len(interiors[0])] = built.get(len(interiors[0]), 0) + space.dim
        return space

    monkeypatch.setattr(lincat.envelope, "_ChainSpace", counting)
    c = make()
    universal_dg(c, truncation)
    counts = expected(c, truncation)
    assert max(built) == len(counts) - 1
    assert [built.get(n, 0) for n in range(len(counts))] == counts


@pytest.mark.parametrize("truncation", [2.0, "3", True, 0])
@pytest.mark.parametrize("build", [universal_dg, trivial_dg])
def test_constructors_refuse_a_truncation_that_is_not_a_positive_int(build, truncation, monkeypatch):
    # refused with a typed error before any chain is built; a bool is no
    # truncation, although it is an int
    import lincat.envelope

    monkeypatch.setattr(lincat.envelope, "_Chains", None)
    with pytest.raises(DimensionError) as caught:
        build(arrow_category(), truncation)
    message = ("truncation degree must be at least 1" if truncation == 0 and type(truncation) is int
               else f"truncation degree must be an int, got {truncation!r}")
    assert str(caught.value) == message


def test_stored_blocks_are_the_blocks_the_lookups_read():
    # the two accessors list every nonempty block that `integral_products`
    # and `integral_diff` read, in sorted key order, on both constructors
    models = [load_fixture(name).dg for name in fixture_names()] + [universal_dg(m2_category(), 2)]
    for w in models:
        N, nobj = w.truncation, len(w.base.objects)
        products, differentials = w.stored_products(), w.stored_differentials()
        for stored, read in [(products, w.integral_products), (differentials, w.integral_diff)]:
            assert [key for key, _ in stored] == sorted(key for key, _ in stored)
            assert all(read(*key) is block for key, block in stored)
        triples = list(itertools.product(range(nobj), repeat=3))
        nonempty = {(p, q, *t) for p in range(N + 1) for q in range(N + 1 - p) if p or q for t in triples
                    if any(map(any, w.integral_products(p, q, *t)[1]))}
        assert nonempty <= {key for key, _ in products}
        assert all(key[0] or key[1] for key, _ in products)
        nonempty = {(n, *xy) for n in range(N + 1) for xy in itertools.product(range(nobj), repeat=2)
                    if any(w.integral_diff(n, *xy)[1])}
        assert nonempty <= {key for key, _ in differentials}
