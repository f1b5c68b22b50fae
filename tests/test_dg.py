from fractions import Fraction
import itertools
import random

import pytest

from lincat import FormMatrix, block_diag, render_form, trivial_dg, universal_dg, validate_dg
from lincat.category import compose as compose_morphisms
from lincat.category import Category
from lincat.dg import DGCategory
from lincat.errors import DimensionError, LincatError
from lincat.workspace import fixture_names, load_fixture

from conftest import (
    arrow_category,
    dual_category,
    m2_category,
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
    assert du.coords == (Fraction(1), Fraction(0))  # d(u) = du
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
    assert w.compose(u, du).coords == u_du.coords
    # du.u = -u.du, from d(u.u) = 0
    assert w.compose(du, u).coords == (Fraction(0), Fraction(-1))
    # du.du is the first degree-2 basis vector
    assert w.compose(du, du).coords == (Fraction(1), Fraction(0))


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
            assert lhs.coords == rhs.coords


def test_associativity_random(two5):
    w = two5
    rng = random.Random(32)
    x = w.base.objects[0]
    for _ in range(30):
        p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)
        f = random_form(w, p, x, x, rng)
        g = random_form(w, q, x, x, rng)
        h = random_form(w, r, x, x, rng)
        assert w.compose(w.compose(f, g), h).coords == w.compose(f, w.compose(g, h)).coords


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
    assert all((ta[i] + tb[i]).coords == ts[i].coords for i in range(len(ts)))


def test_form_morphism_round_trip(dual5):
    w = dual5
    x = w.base.objects[0]
    m = w.base.morphism(x, x, (Fraction(2), Fraction(-3)))
    f = w.form_from_morphism(m)
    assert f.degree == 0 and f.coords == m.coords
    back = w.morphism_from_form(f)
    assert back.coords == m.coords
    with pytest.raises(LincatError):
        w.morphism_from_form(w.basis_form(1, x, x, 0))


def test_render_form(dual5):
    w = dual5
    x = w.base.objects[0]
    f = w.basis_form(2, x, x, 0) + w.basis_form(2, x, x, 1).scale(Fraction(-2))
    assert render_form(w, f) == "du.du - (2)u.du.du"
    assert render_form(w, w.zero_form(1, x, x)) == "0"


def test_universal_rejects_bad_truncation():
    with pytest.raises(DimensionError):
        universal_dg(dual_category(), 0)


# -- sparse storage: compose against dense contraction, validation strength --


def universal_models():
    models = [(name, load_fixture(name).dg) for name in UNIVERSAL_FIXTURES]
    return models + [("m2", universal_dg(m2_category(), 2))]


def dense_tensor(w, p, q, x, y, z):
    """The stored products of basis forms written out densely."""
    dn = w.dim(p + q, x, z)
    table = []
    for terms_row in w.gr_comp[(p, q)][(x, y, z)]:
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
                    expected = [Fraction(0)] * w.dim(p + q, x, z)
                    for i, a in enumerate(f.coords):
                        for j, b in enumerate(g.coords):
                            for k, s in enumerate(tensor[i][j]):
                                expected[k] += a * b * s
                    got = w.compose(f, g)
                    assert got.coords == tuple(expected), (name, p, q, (x, y, z))
                    assert (got.degree, got.dom, got.cod) == (p + q, objs[z], objs[x])
                    checked += 1
        # degree 0 goes through the same contraction, on the base category's products
        for x, y, z in itertools.product(range(len(objs)), repeat=3):
            f = random_form(w, 0, objs[y], objs[x], rng)
            g = random_form(w, 0, objs[z], objs[y], rng)
            expected = compose_morphisms(w.base, w.morphism_from_form(f), w.morphism_from_form(g))
            assert w.compose(f, g).coords == expected.coords, (name, (x, y, z))
        assert checked or name == "point_universal"


def test_stored_terms_are_sorted_nonzero_fractions():
    # byte-identical export and `compose` rely on this order
    m2 = universal_dg(m2_category(), 2)
    for w in [load_fixture(name).dg for name in fixture_names()] + [m2]:
        tables = [w.base.comp, *w.gr_comp.values()]
        entries = [terms for table in tables for block in table.values() for row in block for terms in row]
        entries += [terms for level in w.diff.values() for columns in level.values() for terms in columns]
        assert any(entries)
        for terms in entries:
            indices = [k for k, _ in terms]
            assert all(a < b for a, b in zip(indices, indices[1:])), terms
            assert all(type(s) is Fraction and s != 0 for _, s in terms), terms
    # the same tables with every entry's terms given in decreasing index order
    gr_comp = {pq: {key: {(i, j): dict(reversed(terms)) for i, row in enumerate(block) for j, terms in enumerate(row)}
                    for key, block in table.items()}
               for pq, table in m2.gr_comp.items()}
    diff = {n: {xy: {j: dict(reversed(terms)) for j, terms in enumerate(columns)} for xy, columns in level.items()}
            for n, level in m2.diff.items()}
    again = DGCategory(m2.base, m2.truncation, m2.gr_basis, gr_comp, diff)
    assert (again.gr_comp, again.diff) == (m2.gr_comp, m2.diff)


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
                        assert got.coords == tuple(comp[(p, q)][(x, y, z)][i][j])
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
                 for key, block in c.comp.items()}
    assert Category(labels, c.hom_basis, base_comp, c.identity).comp == c.comp
    x, y, z = next(iter(base_comp))
    dxy, dyz, dxz = c.dim(x, y), c.dim(y, z), c.dim(x, z)
    for bad in ({(dxy, 0): {0: 1}}, {(0, dyz): {0: 1}}, {(0, 0): {dxz: 1}}):
        with pytest.raises(DimensionError):
            Category(labels, c.hom_basis, {**base_comp, (x, y, z): bad}, c.identity)


def dense_tables(w):
    """Products of basis forms and differential matrices, as dense tables."""
    comp = {}
    for (p, q), table in w.gr_comp.items():
        comp[(p, q)] = {key: dense_tensor(w, p, q, *key) for key in table}
    diff = {}
    for n in range(w.truncation):
        diff[n] = {}
        for xy, columns in w.diff[n].items():
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


def test_validation_reports_single_corruptions_exactly():
    models = {"m2": universal_dg(m2_category(), 2), "two_points": universal_dg(two_points_category(), 3)}
    for name, w in models.items():
        comp, diff = dense_tables(w)
        assert validate_dg(rebuilt(w, comp, diff)) == []
        for spec, expected in CORRUPTIONS[name]:
            comp, diff = dense_tables(w)
            kind, *idx = spec.split(":")
            idx = [int(s) for s in idx]
            if kind == "comp":
                p, q, x, y, z, i, j, k = idx
                comp[(p, q)][(x, y, z)][i][j][k] += 1
            else:
                n, x, y, r, c = idx
                diff[n][(x, y)][r][c] += 1
            got = validate_dg(rebuilt(w, comp, diff))
            assert [(v.kind, v.where) for v in got] == expected, (name, spec)
