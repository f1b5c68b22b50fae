from fractions import Fraction
import gc
import hashlib
import random
import weakref

import pytest

from lincat import Connection, FormMatrix, ProjectiveModule, canonical_connection, tilde_curvature, universal_dg
from lincat.category import validate_category
from lincat.chern import certify_cocycle, chern_form
import lincat.derham
import lincat.dg
from lincat.derham import _basis_forms, commutator_label, commutator_system, generator_span, get_complex
from lincat.dg import DGCategory, _generators, certified_generators, render_terms, trivial_dg, validate_dg
from lincat.errors import CategoryAxiomError, DimensionError, LincatError, ScalarTypeError
from lincat.exact_linalg import Echelon, QuotientSpace, build_quotient, densify, is_zero_vector, numerator_row, zero_vector
from lincat.tforms import TildeCochain, TildeMatrix, pm_const, poly_matrix, tilde_matrix, tm_power, trace_cochain
from lincat.workspace import fixture_names, load_fixture, parse_workspace

from commutator_oracles import commutator_spanning_labeled, commutators_labeled, pivot_solve, tilde_commutator_ranks
from conftest import (
    as_numerators,
    broken_associativity_category,
    broken_unit_category,
    deepened,
    dense_ambient_d,
    dual_category,
    dense_diagonal,
    dense_trace_d,
    fraction_row,
    line_module,
    linear_quiver_category,
    m2_category,
    matrix_units_category,
    projective_two_points,
    random_form,
    random_form_matrix,
    random_gauge_connection,
    random_scalar,
    sparse_trace_d,
    subspace_basis,
    two_points_category,
)
from test_dg import (UNIVERSAL_FIXTURES, dense_tables, rebuilt, scaled_matrix_units, scaled_quiver,
                     weighted_matrix_units)
from test_exact_linalg import DenseMatrix, apply, dense_kernel, dense_rref, dense_solve, oracle_shapes, sparse_matrix


def random_class(rh, n, rng):
    return tuple(random_scalar(rng) for _ in range(rh.dim(n)))


def random_cochain(rh, n, rng):
    # 1 to 4 strata; under degree 0 the classes of part 1 are those of degree -1: empty, no draws
    strata = range(rng.randint(1, 4))
    return TildeCochain(rh, n, tuple(random_class(rh, n, rng) for _ in strata),
                        tuple(random_class(rh, n - 1, rng) for _ in strata))


def test_quotient_dimensions_and_betti(point3, dual5, two5, arrow3):
    expected = {
        point3: ([1, 0, 0, 0], [1, 0, 0, 0]),
        dual5: ([2, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0]),
        two5: ([2, 0, 1, 0, 1, 0], [2, 0, 1, 0, 1, 0]),
        arrow3: ([2, 0, 0, 0], [2, 0, 0, 0]),
    }
    for w, (dims, betti) in expected.items():
        rh = get_complex(w)
        assert [rh.dim(n) for n in range(w.truncation + 1)] == dims
        assert [rh.betti(n) for n in range(w.truncation + 1)] == betti
        assert sum((-1) ** n * d for n, d in enumerate(dims)) == sum((-1) ** n * b for n, b in enumerate(betti))


def test_commutators_annihilate_in_the_quotient(dual5, two5):
    # every labeled spanning vector maps to the zero class
    for w in (dual5, two5):
        rh = get_complex(w)
        for n in range(w.truncation + 1):
            for v, label in commutator_spanning_labeled(w, n):
                assert is_zero_vector(densify(rh.quotients[n].coset_coordinates(numerator_row(v)), rh.dim(n))), label


def test_d_class_matches_ambient_d(dual5, two5):
    rng = random.Random(71)
    for w in (dual5, two5):
        rh = get_complex(w)
        for n in range(w.truncation):
            for _ in range(6):
                amb = {j: s for j, s in enumerate(random_scalar(rng) for _ in range(rh.ambient_dim(n))) if s}
                via_class = rh.d_class(n, densify(rh.quotients[n].coset_coordinates(as_numerators(amb)), rh.dim(n)))
                # ambient rows are numerator rows, here over twice the least denominator
                directly = densify(rh.quotients[n + 1].coset_coordinates(rh.ambient_d(n, as_numerators(amb, 2))),
                                   rh.dim(n + 1))
                assert via_class == directly
    # a column outside the ambient space, or a degree outside 0..N, is refused
    rh = get_complex(two5)
    for n, j in ((0, rh.ambient_dim(0)), (0, -1), (-1, 0), (6, 0)):
        with pytest.raises(DimensionError, match=f"outside the ambient space of degree {n}"):
            rh.ambient_d(n, (1, {j: 1}))
    # a sparse row of Fractions, or a Fraction among the numerators, is
    # refused by its type
    for bad in ({0: Fraction(1)}, (1, {0: Fraction(1, 2)})):
        with pytest.raises(ScalarTypeError, match="numerator row"):
            rh.ambient_d(0, bad)


def test_harmonic_representatives(dual5, two5, arrow3):
    for w in (dual5, two5, arrow3):
        rh = get_complex(w)
        for n in range(w.truncation + 1):
            reps = rh.harmonic_representatives(n)
            assert len(reps) == rh.betti(n)
            for r in reps:
                assert is_zero_vector(rh.d_class(n, r))
                if not is_zero_vector(r):
                    assert rh.is_coboundary(n, r) is None


def test_is_coboundary_positive_and_negative(dual5, two5):
    rng = random.Random(72)
    for w in (dual5, two5):
        rh = get_complex(w)
        for n in range(w.truncation):
            for _ in range(5):
                v = random_class(rh, n, rng)
                image = rh.d_class(n, v)
                prim = rh.is_coboundary(n + 1, image)
                assert prim is not None
                assert rh.d_class(n, prim) == image
    # the degree-2 generator over the two-point algebra is not exact
    rh2 = get_complex(two5)
    (rep,) = rh2.harmonic_representatives(2)
    assert rh2.is_coboundary(2, rep) is None
    # in degree 0 only the zero class counts as a coboundary
    rh1 = get_complex(dual5)
    assert rh1.is_coboundary(0, zero_vector(rh1.dim(0))) == ()
    assert rh1.is_coboundary(0, rh1.class_of_trace(0, [dual5.basis_form(0, dual5.base.objects[0], dual5.base.objects[0], 0)])) is None
    # outside 0..N the only class is the empty one, as for d_class
    rh3 = get_complex(two5)
    for n, coords in ((6, (1,)), (-1, (1, 2))):
        with pytest.raises(DimensionError, match="expected 0 class coordinates"):
            rh3.is_coboundary(n, coords)
        with pytest.raises(DimensionError, match="expected 0 class coordinates"):
            rh3.d_class(n, coords)
    assert rh3.is_coboundary(6, ()) == ()
    # class coordinates are exact: a float is refused in every degree,
    # the zero class of degree 0 included
    for rh, n in ((rh1, 0), (rh3, 0), (rh3, 2)):
        floats = (0.5,) * rh.dim(n)
        with pytest.raises(ScalarTypeError):
            rh.is_coboundary(n, floats)
        with pytest.raises(ScalarTypeError):
            rh.d_class(n, floats)
    assert rh1.d_class(0, (0,) * rh1.dim(0)) == zero_vector(rh1.dim(1))


def test_render_class(dual5):
    w = dual5
    rh = get_complex(w)
    x = w.base.objects[0]
    du = w.basis_form(1, x, x, 0)
    cls = rh.class_of_trace(1, [du])
    assert rh.render_class(1, cls) == "x: du"
    assert rh.render_class(1, zero_vector(rh.dim(1))) == "0"
    assert rh.render_class(1, tuple(int(s) for s in cls)) == "x: du"
    with pytest.raises(ScalarTypeError):
        rh.render_class(1, (0.5,) * rh.dim(1))


def test_truncation_reliable_flag(dual5):
    rh = get_complex(dual5)
    n = dual5.truncation
    assert not rh.truncation_reliable(n)
    assert all(rh.truncation_reliable(k) for k in range(n))


def test_homotopy_defect_vanishes(dual5, two5, arrow3):
    rng = random.Random(73)
    for w in (dual5, two5, arrow3):
        rh = get_complex(w)
        checked = 0
        # degree 0 included: there d(k(a)) is d out of degree -1
        for n in range(0, w.truncation + 1):
            for _ in range(9):
                a = random_cochain(rh, n, rng)
                assert is_zero_vector(a.homotopy_defect())
                checked += 1
        assert checked >= 20


def test_class_maps_return_the_zero_class_at_the_ends_of_the_complex():
    # two points at truncation 4: class dimensions 2, 0, 1, 0, 1
    w = universal_dg(two_points_category(), 4)
    rh = get_complex(w)
    objs = w.base.objects
    assert [rh.dim(n) for n in range(-1, 6)] == [0, 2, 0, 1, 0, 1, 0]
    # d out of degree -1 lands in degree 0, the primitive of a degree-5
    # class lives in degree 4
    assert rh.d_class(-1, ()) == zero_vector(2)
    assert rh.d_class(5, ()) == ()
    assert rh.is_coboundary(5, ()) == zero_vector(1)
    assert rh.is_coboundary(-1, ()) == ()
    # so the round trip through the top degree closes
    assert rh.d_class(4, rh.is_coboundary(5, ())) == ()
    # every degree outside 0..4 is the zero space, through every method
    for n in (-1, 5):
        zeros = [w.zero_form(n, o, o) for o in objs]
        assert rh.ambient_dim(n) == 0
        assert rh.ambient_row(n, zeros) == (1, {})
        assert rh.ambient_d(n, (1, {})) == (1, {})
        with pytest.raises(DimensionError, match=f"outside the ambient space of degree {n}"):
            rh.ambient_d(n, (1, {0: 1}))
        assert rh.class_of_trace(n, zeros) == ()
        assert rh.image_basis(n) == ()
        assert rh.kernel_basis_of_d(n) == ()
        assert rh.betti(n) == 0
        assert rh.harmonic_representatives(n) == ()
        assert rh.render_class(n, ()) == "0"
        with pytest.raises(DimensionError, match="expected 0 class coordinates, got 1"):
            rh.d_class(n, (1,))
        with pytest.raises(DimensionError, match="expected 0 class coordinates, got 1"):
            rh.is_coboundary(n, (1,))
        with pytest.raises(DimensionError, match="expected 0 class coordinates, got 1"):
            rh.render_class(n, (1,))
    # no d arrives in degree 0, so only its zero class has a primitive
    assert rh.image_basis(0) == ()
    assert rh.is_coboundary(0, zero_vector(2)) == ()
    assert rh.is_coboundary(0, (1, 0)) is None
    assert rh.is_coboundary(0, (0, Fraction(1, 2))) is None
    # d out of the top degree is zero, so every top class is closed
    assert rh.kernel_basis_of_d(4) == ((1, {0: 1}),)
    assert rh.d_class(4, (Fraction(3, 2),)) == ()
    assert rh.betti(4) == 1


def test_evaluation_is_a_chain_map(dual5, two5):
    rng = random.Random(74)
    for w in (dual5, two5):
        rh = get_complex(w)
        for n in range(0, w.truncation):
            for _ in range(4):
                a = random_cochain(rh, n, rng)
                da = a.delta()
                for t in (0, 1, -1, 2):
                    assert da.ev_at(t) == rh.d_class(n, a.ev_at(t))


def test_delta_squares_to_zero(dual5, two5):
    rng = random.Random(75)
    for w in (dual5, two5):
        rh = get_complex(w)
        for n in range(1, w.truncation - 1):
            for _ in range(4):
                a = random_cochain(rh, n, rng)
                dd = a.delta().delta()
                assert all(is_zero_vector(v) for v in dd.part0)
                assert all(is_zero_vector(v) for v in dd.part1)


def test_cochain_validation(dual5):
    rh = get_complex(dual5)
    one = (Fraction(1),) * rh.dim(0)
    # both parts hold one class per power of t
    with pytest.raises(DimensionError, match=r"^degree-0 cochain: part 0 has 2 classes, part 1 has 1$"):
        TildeCochain(rh, 0, (one, one), ((),))
    with pytest.raises(DimensionError, match=r"^degree-1 cochain: part 0 has 0 classes, part 1 has 1$"):
        TildeCochain(rh, 1, (), (one,))
    # the infinitesimal part of degree 0 has the classes of degree -1, which are empty
    with pytest.raises(DimensionError, match=r"^degree-0 cochain, part 1, stratum t\^0: expected 0 class coordinates, got 2$"):
        TildeCochain(rh, 0, (one,), (one,))
    assert TildeCochain(rh, 0, ((1,) * rh.dim(0),), ((),)).ev_at(1) == one


def test_cochain_refuses_classes_of_the_wrong_length():
    # dual numbers at truncation 3: one class coordinate in degrees 1 to 3
    w = universal_dg(dual_category(), 3)
    rh = get_complex(w)
    assert [rh.dim(n) for n in range(4)] == [2, 1, 1, 1]
    with pytest.raises(DimensionError, match=r"degree-1 cochain, part 0, stratum t\^0: expected 1 class coordinates, got 5"):
        TildeCochain(rh, 1, ((1, 2, 3, 4, 5),), ((0, 0),))
    with pytest.raises(DimensionError, match=r"degree-2 cochain, part 1, stratum t\^1: expected 1 class coordinates, got 2"):
        TildeCochain(rh, 2, ((1,), (0,)), ((1,), (1, 2)))
    a = TildeCochain(rh, 2, ((1,), (2,)), ((3,), (0,)))
    assert (a.part0, a.part1) == (((1,), (2,)), ((3,), (0,)))


def test_degree_0_cochains_carry_the_empty_classes_of_degree_minus_1(two5):
    w = two5
    rh = get_complex(w)
    units = FormMatrix.identity(w, w.base.objects)
    c = rh.class_of_trace(0, units.diagonal_trace(w))
    # the e-part of units + units.t is the zero matrix of degree -1, one coefficient
    a = trace_cochain(w, rh, tilde_matrix(w, poly_matrix([units, units])))
    assert a == TildeCochain(rh, 0, (c, c), ((), ())) and a.part1 == ((), ())
    assert a.integral_k() == () and TildeCochain(rh, 0, (), ()).is_zero()
    # the t-derivative of the main part, with the sign -1 of degree 0, is the e-part of D(a)
    zero = zero_vector(rh.dim(0))
    assert not is_zero_vector(c)
    assert a.delta().part1 == (tuple(-s for s in c), zero)


def test_trace_cochain_pads_the_shorter_part_with_zero_classes(two5):
    w = two5
    rh = get_complex(w)
    conn = random_gauge_connection(projective_two_points(w), random.Random(17))
    path = tilde_curvature(canonical_connection(conn.module), conn)
    for q in (1, 2):
        gamma = tm_power(w, path, q)
        # the main part has degree 2q in t, the e-part 2q - 2
        assert (len(gamma.part0.coeffs), len(gamma.part1.coeffs)) == (2 * q + 1, 2 * q - 1)
        a = trace_cochain(w, rh, gamma)
        assert a.degree == 2 * q
        assert a.part0 == tuple(rh.class_of_trace(2 * q, m.diagonal_trace(w)) for m in gamma.part0.coeffs)
        assert a.part1 == (tuple(rh.class_of_trace(2 * q - 1, m.diagonal_trace(w)) for m in gamma.part1.coeffs)
                           + (zero_vector(rh.dim(2 * q - 1)),) * 2)
    # a main part shorter than the e-part is padded the same way
    x = w.base.objects[0]
    rng = random.Random(76)
    part1 = poly_matrix([random_form_matrix(w, 0, (x,), (x,), rng) for _ in range(3)])
    assert len(part1.coeffs) == 3
    a = trace_cochain(w, rh, TildeMatrix(pm_const(random_form_matrix(w, 1, (x,), (x,), rng)), part1))
    assert a.part0[1:] == (zero_vector(rh.dim(1)),) * 2
    assert a.part1 == tuple(rh.class_of_trace(0, m.diagonal_trace(w)) for m in part1.coeffs)


def test_trace_cochain_ends_at_the_last_nonzero_trace(two5):
    # the coefficient of t is nonzero off the diagonal only, so its trace
    # vanishes and the cochain of the trace has one power of t
    w = two5
    rh = get_complex(w)
    x = w.base.objects[0]
    one, c, zero = w.basis_form(0, x, x, 0), w.basis_form(0, x, x, 1), w.zero_form(0, x, x)
    head = FormMatrix(0, (x, x), (x, x), ((c, zero), (zero, one)))
    tail = FormMatrix(0, (x, x), (x, x), ((zero, one), (zero, zero)))
    gamma = tilde_matrix(w, poly_matrix([head, tail]))
    assert len(gamma.part0.coeffs) == 2
    assert trace_cochain(w, rh, gamma) == TildeCochain(rh, 0, (rh.class_of_trace(0, head.diagonal_trace(w)),), ((),))
    # a trace that vanishes below a nonzero one keeps its zero class
    gamma = tilde_matrix(w, poly_matrix([tail, head]))
    assert trace_cochain(w, rh, gamma).part0 == (zero_vector(rh.dim(0)), rh.class_of_trace(0, head.diagonal_trace(w)))


def test_stratified_bracket_span_dimensions(dual5, two5):
    # the literal stratified bracket span is exactly one commutator
    # subspace per stratum: important for splitting the extension
    for w in (dual5, two5):
        for n, D in ((2, 1), (2, 2), (3, 2), (3, 4)):
            literal, predicted = tilde_commutator_ranks(w, n, D)
            assert literal == predicted


def test_a_dropped_envelope_and_its_complex_need_no_cycle_collector():
    # the envelope memoizes its complex; reference counting alone frees both
    gc.disable()
    try:
        w = universal_dg(m2_category(), 2)
        get_complex(w)
        dropped = weakref.ref(w)
        del w
        assert dropped() is None
    finally:
        gc.enable()


def test_class_of_trace_is_linear_and_checks_its_components(two5):
    w = two5
    rh = get_complex(w)
    x = w.base.objects[0]
    c = w.basis_form(0, x, x, 1)
    cls = rh.class_of_trace(0, [c])
    assert rh.class_of_trace(0, [c + c.scale(Fraction(1, 2))]) == tuple(s * Fraction(3, 2) for s in cls)
    with pytest.raises(DimensionError, match="need one component per object"):
        rh.class_of_trace(0, [c, c])
    with pytest.raises(DimensionError, match="component 0 is not a degree-1 endomorphism form of object 0"):
        rh.class_of_trace(1, [c])
    # above the truncation there are no forms and no classes
    assert rh.class_of_trace(6, [w.zero_form(6, x, x)]) == ()


def past_the_law_check(w):
    """`w`, refused by `get_complex`, with the verdict of its law check forced to "holds", as a faulty kernel would.

    On tables that keep the laws, d descends to the quotient; the
    closure check behind the refusal is reached only through such a
    verdict.
    """
    with pytest.raises(CategoryAxiomError):
        get_complex(w)
    w._generating_set = certified_generators(w)[0], True
    return w


def test_closure_check_rejects_tables_that_break_it():
    # M2 with a degree-1 space {th}, no products and d(e11) = th: the
    # degree-0 commutator [e12, e21] = e11 - e22 has d = th, while every
    # degree-1 commutator vanishes, so d does not descend to the quotient
    c = m2_category()
    w = DGCategory(c, 1, {1: {(0, 0): ["th"]}}, {}, {0: {(0, 0): {0: {0: 1}}}})
    with pytest.raises(LincatError, match="not closed under d"):
        get_complex(past_the_law_check(w))


def test_closure_check_rejects_a_corrupted_degree_one_differential():
    # two points at truncation 3 with one entry added to d out of degree 1,
    # so that d(dc) = c.dc.dc: the degree-1 commutator [c, dc] = 2 c.dc - dc
    # then has d = 2 dc.dc - c.dc.dc, which is not a degree-2 commutator
    w = universal_dg(two_points_category(), 3)
    comp, diff = dense_tables(w)
    assert get_complex(rebuilt(w, comp, diff)).dim(2) == 1
    diff[1][(0, 0)][1][0] += 1
    with pytest.raises(LincatError, match="degree-1 commutators are not closed under d"):
        get_complex(past_the_law_check(rebuilt(w, comp, diff)))


# -- the quotient from the generating set against the full commutator span ---


def ambient_dim(w, n):
    return sum(w.dim(n, x, x) for x in range(len(w.base.objects)))


def full_span_quotient(w, n):
    """The quotient by every commutator of basis forms, from the oracle's dense span."""
    return build_quotient(ambient_dim(w, n), [numerator_row(v) for v, _ in commutator_spanning_labeled(w, n)])


GENERATOR_SPAN_MODELS = {
    **{name: (lambda name=name: load_fixture(name).dg) for name in fixture_names()},
    **{f"M2-{n}": (lambda n=n: universal_dg(m2_category(), n)) for n in range(1, 5)},
    "M3-2": lambda: universal_dg(matrix_units_category(3), 2),
    "two_points-6": lambda: universal_dg(two_points_category(), 6),
    "dual-5": lambda: universal_dg(dual_category(), 5),
    "A4-5": lambda: universal_dg(linear_quiver_category(4), 5),
    # product blocks over denominators, so [g, v] cross-multiplies g.v and v.g
    "M2-weighted-3": lambda: universal_dg(weighted_matrix_units(2), 3),
    "A4-scaled-4": lambda: universal_dg(scaled_quiver(4), 4),
}


@pytest.mark.parametrize("make", GENERATOR_SPAN_MODELS.values(), ids=GENERATOR_SPAN_MODELS.keys())
def test_generator_span_quotient_equals_the_full_span_quotient(make):
    # [ab, c] = [a, bc] + (-1)^(|a|(|b|+|c|)) [b, ca]: once the laws hold on
    # G, the [g, v] with g in G span every commutator, and the reduced
    # echelon basis of a span is unique
    w = make()
    assert certified_generators(w)[1]
    rh = get_complex(w)
    for n in range(w.truncation + 1):
        labeled = commutator_spanning_labeled(w, n)
        # the full span, `generator_span` over every basis form, is the
        # oracle's commutators of composed basis forms, in its order, and the
        # label decoded from each index is the oracle's
        span = list(generator_span(w, n, _basis_forms(w, n)))
        dim = rh.ambient_dim(n)
        assert [densify(row, dim) for row in span] == [
            v for v, _ in labeled], n
        assert [commutator_label(w, n, j) for j in range(len(labeled))] == [label for _, label in labeled], n
        with pytest.raises(DimensionError, match=f"no commutator {len(labeled)} in the degree-{n} span"):
            commutator_label(w, n, len(labeled))
        # the certificates' system: the commutators of the full span that no
        # earlier one spans, at their indices, and their span beside unit
        # vectors, which pivots where theirs does and reduces the numerators
        # of pivot commutator k to minus the unit vector at column dim + k
        pivots, system, size = commutator_system(w, n)
        grown = Echelon()
        first = [(j, row) for j, row in enumerate(span) if grown.add(row) is not None]
        assert pivots == first and size == len(span), n
        width = dim + len(pivots)
        assert system.ambient_dim == width and system.pivots == tuple(grown.numerator_rows), n
        for k, (_, (_, nums)) in enumerate(pivots):
            unit = tuple(-1 if c == dim + k else 0 for c in range(width))
            assert densify(system.reduce_sparse((1, nums)), width) == unit, n
        # the same echelon rows, pivots and free columns
        assert rh.quotients[n] == build_quotient(rh.ambient_dim(n), [numerator_row(v) for v, _ in labeled]), n


def test_generator_span_rows_are_the_commutators_over_their_denominators():
    # random product tables whose blocks have different denominators, and
    # generators with fractional coefficients: each numerator row, read
    # over its denominator, is the commutator that `compose` makes
    rng = random.Random(11)
    w = universal_dg(two_points_category(), 3)
    comp, diff = dense_tables(w)
    for table in comp.values():
        for block in table.values():
            for row in block:
                for v in row:
                    for k in range(len(v)):
                        v[k] = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5])) if rng.random() < 0.5 else 0
    t = rebuilt(w, comp, diff)
    x = t.base.objects[0]
    dens = {(p, q): t.integral_products(p, q, 0, 0, 0)[0] for p in range(4) for q in range(4 - p)}
    assert any(dens[(p, q)] != dens[(q, p)] for p, q in dens)
    for n in range(t.truncation + 1):
        gens = [random_form(t, p, x, x, rng) for p in range(n + 1) for _ in range(2)]
        expected = []
        for g in gens:
            q = n - g.degree
            for j in range(t.dim(q, 0, 0)):
                v = t.basis_form(q, x, x, j)
                expected.append(dict((t.compose(g, v) - t.compose(v, g).scale((-1) ** (g.degree * q))).terms))
        assert [{k: Fraction(s, d) for k, s in row.items()} for d, row in generator_span(t, n, gens)] == expected, n


# G and the echelon rows and pivots of every degree's quotient, as sha256
# of their repr; a row is read by increasing column, so the digest does not
# depend on the order in which elimination filled its dict
GENERATOR_QUOTIENT_DIGESTS = {
    "M2-3": (lambda: universal_dg(m2_category(), 3),
             "fdcc848d21f90d056623b0f1e68435b91cbe3354f1f834e41f5ad15f8c304488",
             "c19d08570ff2e912465848499f74b547c77defef627b23dff2a7a426cc5dfdc7"),
    "M3-2": (lambda: universal_dg(matrix_units_category(3), 2),
             "47e440beeeaeed2a9e6196beb72613d415843f638a833ea2e98fddde1e6f28bb",
             "4333e34c489db1a555c269fc42c0838339bfa104e562b04bc5936793381b21e4"),
    "two_points-8": (lambda: universal_dg(two_points_category(), 8),
                     "8b249dbc56602caf625f05540d86fac0ee3c4cf5e54cd6e07abcd925e8d9e528",
                     "90a7c0fe92d2d6cf28c16ff16a35797c1fb27fc497d5ec6636c77038a2b9510c"),
    "dual-6": (lambda: universal_dg(dual_category(), 6),
               "8b249dbc56602caf625f05540d86fac0ee3c4cf5e54cd6e07abcd925e8d9e528",
               "4e33facb55de8785e1652e9a1e03bf763b6cd8b472616b396072aac67dc4c0b9"),
    "A4-4": (lambda: universal_dg(linear_quiver_category(4), 4),
             "061ff5b4664fd8de0da18d445465a5d06f00c317298b5000ae146b8af26545e9",
             "a2d91a893c2dac3ab946ff1b2b03a6998d4fd1da7a756514c79fa6a3a7709260"),
}


# the cocycle certificate (q = 1) of M2 at truncation 3, whose identity
# e11 + e22 is no basis arrow, for three seeded rank-one idempotents
# v.u^T / (u^T v) and degree-1 gauges: sha256 of the repr of each
# certificate's spanning size and terms (index, coefficient, label)
M2_CERTIFICATE_DIGEST = "328d4008a74aacba3597391cf07d48081dee8ecbde6a2549dca57d0212daba19"


def m2_seeded_connections():
    """Three connections over M2 at truncation 3: seeded rank-one idempotents v.u^T / (u^T v) and degree-1 gauges."""
    rng = random.Random(11)
    w = universal_dg(m2_category(), 3)
    x = w.base.objects[0]
    out = []
    for _ in range(3):
        v = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])
        u = (0, 0)
        while v[0] * u[0] + v[1] * u[1] == 0:
            u = (rng.randint(-2, 2), rng.randint(-2, 2))
        s = v[0] * u[0] + v[1] * u[1]
        idempotent = [Fraction(v[i] * u[j], s) for i in range(2) for j in range(2)]
        e = FormMatrix(0, (x,), (x,), ((w.form(0, x, x, idempotent),),))
        gauge = FormMatrix(1, (x,), (x,), ((w.form(1, x, x, [rng.randint(-2, 2) for _ in range(12)]),),))
        out.append(Connection(ProjectiveModule(w, "P", e), gauge))
    return out


def m2_certificates():
    out = []
    for conn in m2_seeded_connections():
        cert = certify_cocycle(conn, 1)
        out.append((cert.spanning_size, [(t.index, str(t.coefficient), t.label) for t in cert.terms]))
    return out


def test_m2_cocycle_certificates_are_pinned():
    # no fixture has an identity off the basis, so the recorded fixture runs
    # never reach this path of the certificate
    certificates = m2_certificates()
    assert all(size == sum(4 * 3 ** p * 4 * 3 ** (3 - p) for p in range(4)) and terms
               for size, terms in certificates)
    assert hashlib.sha256(repr(certificates).encode()).hexdigest() == M2_CERTIFICATE_DIGEST


@pytest.mark.parametrize("make, generators, quotients", GENERATOR_QUOTIENT_DIGESTS.values(),
                         ids=GENERATOR_QUOTIENT_DIGESTS.keys())
def test_generators_and_quotients_are_pinned(make, generators, quotients):
    w = make()
    gens = certified_generators(w)[0]
    g_repr = repr([(g.degree, g.dom.index, g.cod.index, g.terms) for g in gens])
    rh = get_complex(w)
    q_repr = repr([([sorted(fraction_row(row).items()) for row in q.numerator_rows], q.pivots) for q in rh.quotients])
    assert hashlib.sha256(g_repr.encode()).hexdigest() == generators
    assert hashlib.sha256(q_repr.encode()).hexdigest() == quotients


@pytest.mark.parametrize("make, generators, quotients", GENERATOR_QUOTIENT_DIGESTS.values(),
                         ids=GENERATOR_QUOTIENT_DIGESTS.keys())
def test_generators_never_add_a_word_to_a_full_space(make, generators, quotients, monkeypatch):
    # every space the words reach ends spanned, so the rank each echelon basis
    # of `_generators` ends with is its dimension: no add may come at that rank
    made = []

    class Watched(Echelon):
        def __init__(self):
            super().__init__()
            self.ranks = []
            made.append(self)

        def add(self, given):
            self.ranks.append(len(self.numerator_rows))
            return super().add(given)

    monkeypatch.setattr(lincat.dg, "Echelon", Watched)
    gens = _generators(make())
    assert made and all(basis.ranks and max(basis.ranks) < len(basis.numerator_rows) for basis in made)
    g_repr = repr([(g.degree, g.dom.index, g.cod.index, g.terms) for g in gens])
    assert hashlib.sha256(g_repr.encode()).hexdigest() == generators


@pytest.mark.parametrize("name", fixture_names())
def test_quotient_spans_only_degrees_with_forms_and_no_identity(name, monkeypatch):
    # raised to truncation 60, the degrees above the forms of a tables or
    # trivial model, a point or an arrow hold no diagonal forms: they get
    # the zero quotient without a span; and once the laws hold,
    # [1_x, v] = 0, so no identity in G enters a span
    calls = []

    def counted(w, n, gens):
        calls.append((n, gens))
        return generator_span(w, n, gens)

    monkeypatch.setattr(lincat.derham, "generator_span", counted)
    w = parse_workspace(deepened(name, 60)).dg
    rh = get_complex(w)
    held = [n for n in range(61) if rh.ambient_dim(n)]
    assert [n for n, _ in calls] == held
    assert (len(held) == 61) == (name in ("dual_numbers_universal", "two_points_universal"))
    gens = certified_generators(w)[0]
    spanning = [g for g in gens if g != w.identity_form(g.cod)]
    assert all(used == spanning for _, used in calls)
    for n in range(held[-1] + 1, 61):
        assert rh.quotients[n] == QuotientSpace(0, (), {}) and rh.d_columns[n] == (1, [])
    # the identities left out span nothing, and add nothing to the quotients
    for n in held:
        identities = [g for g in gens if g not in spanning]
        assert all(not nums for _, nums in generator_span(w, n, identities))
        assert rh.quotients[n] == build_quotient(rh.ambient_dim(n), generator_span(w, n, gens))
    if name.endswith("_universal"):
        assert len(spanning) < len(gens)


def test_generator_span_has_fewer_rows_than_the_full_span(monkeypatch):
    # the rows the quotient eliminates on M2 at truncation 3, against one per
    # pair of opposed basis forms: G holds 2 forms of degree 0 and 2 of
    # degree 1, and degree n has 4 * 3^n basis forms
    spanning = []

    def counted(ambient_dim, rows):
        spanning.append(len(rows))
        return build_quotient(ambient_dim, rows)

    monkeypatch.setattr(lincat.derham, "build_quotient", counted)
    w = universal_dg(m2_category(), 3)
    rh = get_complex(w)
    full = [len(commutator_spanning_labeled(w, n)) for n in range(4)]
    assert spanning == [2 * 4, 2 * 12 + 2 * 4, 2 * 36 + 2 * 12, 2 * 108 + 2 * 36]
    assert (sum(spanning), sum(full)) == (424, 2272)
    assert sum(q.subspace_dim for q in rh.quotients) == 142


def test_quotient_refuses_a_model_whose_laws_fail_on_g():
    # two points at truncation 2 with one entry added to the product of the
    # second degree-1 basis form with itself: associativity fails on G, and
    # the [g, v] then span less than the commutators; such tables are no DG
    # category, so no quotient complex is built, and the refusal names the
    # first violation
    w = universal_dg(two_points_category(), 2)
    comp, diff = dense_tables(w)
    comp[(1, 1)][(0, 0, 0)][1][1][1] += 1
    v = rebuilt(w, comp, diff)
    gens, lawful = certified_generators(v)
    assert not lawful
    violations = validate_dg(v)
    assert {x.kind for x in violations} == {"dg-associativity"}
    with pytest.raises(CategoryAxiomError) as caught:
        get_complex(v)
    assert caught.value.violations == violations
    assert f"first dg-associativity at {violations[0].where}" in str(caught.value)
    assert v._derham is None
    assert build_quotient(ambient_dim(v, 2), generator_span(v, 2, gens)) != full_span_quotient(v, 2)
    # a law that fails at degree 0 only is named by the category's report
    for c in (broken_unit_category(), broken_associativity_category()):
        with pytest.raises(CategoryAxiomError) as caught:
            get_complex(trivial_dg(c))
        assert caught.value.violations == validate_category(c) != []


def test_generating_set_is_built_once_for_validation_and_the_quotient(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return _generators(w)

    monkeypatch.setattr(lincat.dg, "_generators", counted)
    w = universal_dg(m2_category(), 2)
    assert validate_dg(w) == []
    get_complex(w)
    assert calls == [w]
    # the other way round, too
    again = universal_dg(m2_category(), 2)
    get_complex(again)
    assert validate_dg(again) == []
    assert calls == [w, again]


# -- the quotient complex against a dense path built here --------------------


def dense_quotient(w, n):
    """Echelon rows, pivots and free columns of the degree-n commutators."""
    width = sum(w.dim(n, x, x) for x in range(len(w.base.objects)))
    spanning = tuple(v for v, _ in commutator_spanning_labeled(w, n))
    rows, pivots = dense_rref(DenseMatrix(len(spanning), width, spanning))
    free = tuple(c for c in range(width) if c not in pivots)
    return tuple(rows[:len(pivots)]), tuple(pivots), free


def dense_d_matrix(w, n, quotient_n, quotient_n1):
    """The induced differential: d of each free unit vector, reduced, at the free columns."""
    _, _, free = quotient_n
    rows1, pivots1, free1 = quotient_n1
    d = dense_ambient_d(w, n)
    cols = []
    for c in free:
        out = [r[c] for r in d]
        for row, p in zip(rows1, pivots1):
            f = out[p]
            if f:
                out = [a - f * b for a, b in zip(out, row)]
        cols.append([out[k] for k in free1])
    return tuple(tuple(col[i] for col in cols) for i in range(len(free1)))


def test_quotient_complex_matches_dense_path():
    models = [load_fixture(name).dg for name in UNIVERSAL_FIXTURES] + [universal_dg(m2_category(), 3)]
    for w in models:
        rh = get_complex(w)
        quotients = [dense_quotient(w, n) for n in range(w.truncation + 1)]
        for n, (rows, pivots, free) in enumerate(quotients):
            q = rh.quotients[n]
            assert (subspace_basis(q), q.pivots, q.free_columns) == (rows, pivots, free), n
        for n in range(w.truncation):
            expected = dense_d_matrix(w, n, quotients[n], quotients[n + 1])
            den, d_columns = rh.d_columns[n]
            columns = [densify((den, dict(c)), rh.dim(n + 1)) for c in d_columns]
            assert len(columns) == rh.dim(n)
            assert tuple(tuple(c[i] for c in columns) for i in range(rh.dim(n + 1))) == expected, n
        assert rh.d_columns[w.truncation] == (1, [()] * rh.dim(w.truncation))


def dense_class(quotient, v):
    """The class of a dense ambient vector: pivot entries eliminated, read at the free columns."""
    rows, pivots, free = quotient
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            v = tuple(a - f * b for a, b in zip(v, row))
    return tuple(v[c] for c in free)


def dense_render(w, n, quotient, coords):
    """A class rendered from its dense representative: coordinates at the free columns, zeros elsewhere."""
    _, _, free = quotient
    rep = [Fraction(0)] * sum(w.dim(n, x, x) for x in range(len(w.base.objects)))
    for c, s in zip(free, coords):
        rep[c] = s
    pieces, off = [], 0
    for o in w.base.objects:
        d = w.dim(n, o.index, o.index)
        comp = {j: s for j, s in enumerate(rep[off:off + d]) if s}
        if comp:
            pieces.append(f"{o.label}: {render_terms(w.space_labels(n, o.index, o.index), tuple(comp.items()))}")
        off += d
    return "; ".join(pieces) if pieces else "0"


def test_trace_classes_match_dense_reduction():
    # class_of_trace, ambient_d and render_class on sparse rows against a
    # dense reduction by the rows, pivots and free columns of `dense_quotient`
    rng = random.Random(77)
    models = [load_fixture(name).dg for name in fixture_names()] + [universal_dg(m2_category(), 3)]
    checked = 0
    for w in models:
        rh = get_complex(w)
        objs = w.base.objects
        quotients = [dense_quotient(w, n) for n in range(w.truncation + 1)]
        for n, quotient in enumerate(quotients):
            for k in range(6):
                forms = [random_form(w, n, o, o, rng) for o in objs]
                if k == 0:
                    forms = [w.zero_form(n, o, o) for o in objs]
                elif k == 1:
                    # one component only, the others zero
                    forms = [f if o == objs[-1] else w.zero_form(n, o, o) for f, o in zip(forms, objs)]
                cls = rh.class_of_trace(n, forms)
                assert cls == dense_class(quotient, dense_diagonal(w, forms)), (n, k)
                assert rh.render_class(n, cls) == dense_render(w, n, quotient, cls), (n, k)
                d_row = rh.ambient_d(n, rh.ambient_row(n, forms))
                assert densify(d_row, rh.ambient_dim(n + 1)) == dense_trace_d(w, n, forms), (n, k)
                if n < w.truncation:
                    assert rh.d_class(n, cls) == dense_class(quotients[n + 1], dense_trace_d(w, n, forms))
                checked += 1
    assert checked == 6 * sum(w.truncation + 1 for w in models)


def certificate_against_dense_solve(conn, q):
    """A cocycle certificate, its (index, coefficient, label) terms and those of a dense solve.

    The dense side solves d of the character form against the oracle's
    labeled commutators of composed basis forms, free variables zero.
    """
    w = conn.w
    cert = certify_cocycle(conn, q)
    target = dense_trace_d(w, 2 * q, chern_form(conn, q))
    labeled = commutator_spanning_labeled(w, 2 * q + 1)
    columns = DenseMatrix(len(target), len(labeled), tuple(zip(*(v for v, _ in labeled))))
    solution = dense_solve(columns, target) if labeled else ()
    assert solution is not None
    expected = [(j, s, labeled[j][1]) for j, s in enumerate(solution) if s != 0]
    assert cert.spanning_size == len(labeled)
    return cert, [(t.index, t.coefficient, t.label) for t in cert.terms], expected


def certificate_against_pivot_solve(conn, q):
    """A cocycle certificate, its (index, coefficient, label) terms and those of `pivot_solve`.

    `pivot_solve` reads the oracle's commutators of composed basis forms,
    in the order of the full span, only until d of the character form
    lies in their span, and its solution is that of the dense solve over
    all of them; so it stands in for `certificate_against_dense_solve`
    where the full span is too large to write out densely.
    """
    w = conn.w
    cert = certify_cocycle(conn, q)
    n = 2 * q + 1
    target = sparse_trace_d(w, 2 * q, chern_form(conn, q))
    labels = []

    def columns():
        for vec, label in commutators_labeled(w, n):
            labels.append(label)
            yield vec

    solution = pivot_solve(columns(), target)
    assert solution is not None
    expected = [(j, s, labels[j]) for j, s in sorted(solution.items())]
    objs = range(len(w.base.objects))
    assert cert.spanning_size == sum(w.dim(p, x, y) * w.dim(n - p, y, x) for p in range(n + 1) for x in objs for y in objs)
    return cert, [(t.index, t.coefficient, t.label) for t in cert.terms], expected


def test_pivot_solve_is_the_dense_solve():
    # on random sparse systems, with targets in and out of the column span
    rng = random.Random(85)
    solved = 0
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        columns = [{i: m.entries[i][j] for i in range(rows) if m.entries[i][j]} for j in range(cols)]
        for target in (apply(m, [random_scalar(rng) for _ in range(cols)]), [random_scalar(rng) for _ in range(rows)]):
            expected = dense_solve(m, tuple(target))
            got = pivot_solve(columns, dict(enumerate(target)))
            assert (None if got is None else tuple(got.get(j, 0) for j in range(cols))) == expected
            solved += got is not None
    assert solved > 60


def test_seeded_m2_certificates_match_the_dense_solve():
    # the pinned M2 certificates, term by term, and `pivot_solve` against
    # the dense solve it stands in for
    for conn in m2_seeded_connections():
        _, got, expected = certificate_against_dense_solve(conn, 1)
        assert got == expected and expected
        assert certificate_against_pivot_solve(conn, 1)[1:] == (got, expected)


def test_m3_certificate_matches_the_pivot_solve():
    # M3 at truncation 3 has 165,888 commutators of degree 3, too many to
    # write out densely; the rank-one module e11 + e21, canonical and with
    # a seeded gauge
    w = universal_dg(matrix_units_category(3), 3)
    x = w.base.objects[0]
    e = FormMatrix(0, (x,), (x,), ((w.form(0, x, x, [1, 0, 0, 1, 0, 0, 0, 0, 0]),),))
    module = ProjectiveModule(w, "P", e)
    for conn in (canonical_connection(module), random_gauge_connection(module, random.Random(5))):
        cert, got, expected = certificate_against_pivot_solve(conn, 1)
        assert got == expected and expected
        assert cert.spanning_size == 4 * 9 * 4608


def test_two_points_certificates_match_the_dense_solve():
    w = universal_dg(two_points_category(), 8)
    rng = random.Random(84)
    cited = 0
    for m in (line_module(w), projective_two_points(w)):
        for q in (1, 2, 3):
            _, got, expected = certificate_against_dense_solve(random_gauge_connection(m, rng), q)
            assert got == expected, (m.name, q)
            cited += len(got)
    assert cited


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_certificates_match_the_dense_solve(name):
    ws = load_fixture(name)
    for conn in ws.connections.values():
        for q in range((ws.dg.truncation + 1) // 2):
            _, got, expected = certificate_against_dense_solve(conn, q)
            assert got == expected, (conn, q)


def test_commutator_system_makes_no_commutator_past_the_rank(monkeypatch):
    # on M2 at truncation 3 the 97th and last pivot commutator of degree 3
    # is the 587th of the 1,728: no later one is made
    made = []

    def counted(w, n, gens):
        for row in generator_span(w, n, gens):
            made.append(row)
            yield row

    w = universal_dg(m2_category(), 3)
    rank = get_complex(w).quotients[3].subspace_dim
    monkeypatch.setattr(lincat.derham, "generator_span", counted)
    pivots, span, size = commutator_system(w, 3)
    assert (len(made), len(pivots), rank, size) == (587, 97, 97, 1728)
    assert span.ambient_dim == get_complex(w).ambient_dim(3) + 97
    assert pivots[-1] == (586, made[-1])
    # the kept system is read again without making one more
    assert commutator_system(w, 3)[0] is pivots and len(made) == 587


def test_m2_cocycle_certificate_matches_dense_solve():
    # a rank-one idempotent and a fixed degree-1 gauge on M2 at truncation 3
    w = universal_dg(m2_category(), 3)
    x = w.base.objects[0]
    idem = [Fraction(a) for a in (2, -2, 1, -1)]
    gauge = [1, 0, -2, 2, 1, 0, 0, -1, 1, 2, -2, 0]
    e = FormMatrix(0, (x,), (x,), ((w.form(0, x, x, idem),),))
    conn = Connection(ProjectiveModule(w, "P", e), FormMatrix(1, (x,), (x,), ((w.form(1, x, x, gauge),),)))
    cert, got, expected = certificate_against_dense_solve(conn, 1)
    assert got == expected
    assert cert.spanning_size == 1728
    assert len(expected) > 10
    # the system is built once for the degree and kept on the complex; a
    # second certificate on it is the same as the first, made while the
    # system was built, so the first solve left the kept rows as they were
    assert commutator_system(w, 3) is commutator_system(w, 3)
    again = certify_cocycle(conn, 1)
    assert again == cert
    assert [(t.index, t.coefficient, t.label) for t in again.terms] == expected


def weighted_idempotent(w):
    """The rank-one idempotent [[2, -2], [1, -1]] of M2, in the basis of `weighted_matrix_units(2)`."""
    x = w.base.objects[0]
    # a_ij = e_ij (i + 1) / (j + 2), so e_ij has coordinate (j + 2) / (i + 1) at a_ij
    coords = [Fraction(s * (j + 2), i + 1) for (i, j), s in zip([(1, 1), (1, 2), (2, 1), (2, 2)], (2, -2, 1, -1))]
    return ProjectiveModule(w, "P", FormMatrix(0, (x,), (x,), ((w.form(0, x, x, coords),),)))


# models whose product blocks have denominators, and a model at a higher
# truncation: each with the modules to certify on, the character indices,
# and whether any certificate cites a commutator (a quiver with arrows one
# way only has no diagonal forms above degree 0, so its span is empty)
CERTIFICATE_MODELS = {
    "M2-weighted-3": (lambda: universal_dg(weighted_matrix_units(2), 3),
                      lambda w: [weighted_idempotent(w), ProjectiveModule.free(w, "F", w.base.objects)], (1,), True),
    "M2-halves-3": (lambda: universal_dg(scaled_matrix_units(2, 2), 3),
                    lambda w: [ProjectiveModule.free(w, "F", w.base.objects)], (1,), True),
    "A4-scaled-4": (lambda: universal_dg(scaled_quiver(4), 4),
                    lambda w: [ProjectiveModule.free(w, "F", w.base.objects)], (1,), False),
    "two_points-7": (lambda: universal_dg(two_points_category(), 7),
                     lambda w: [line_module(w), projective_two_points(w)], (1, 2, 3), True),
}


@pytest.mark.parametrize("make, modules, qs, cites", CERTIFICATE_MODELS.values(), ids=CERTIFICATE_MODELS.keys())
def test_cocycle_certificate_matches_dense_solve_over_denominators(make, modules, qs, cites):
    # the certificate solves over the integer numerators of the commutators,
    # each column scaled by its denominator: its terms must still be those
    # of the dense solve over the commutators themselves, labels included
    w = make()
    rng = random.Random(83)
    cited = 0
    for m in modules(w):
        for q in qs:
            _, got, expected = certificate_against_dense_solve(random_gauge_connection(m, rng), q)
            assert got == expected, (m.name, q)
            cited += len(got)
    assert bool(cited) == cites


# -- cohomology against dense elimination on the class-level differential ----


def dense_class_d(w, rh, n):
    """The induced differential out of degree n, densely, from the library's quotients."""
    if n == w.truncation:
        return DenseMatrix(0, rh.dim(n), ())
    qn, qn1 = ((subspace_basis(q), q.pivots, q.free_columns) for q in rh.quotients[n:n + 2])
    entries = dense_d_matrix(w, n, qn, qn1)
    return DenseMatrix(rh.dim(n + 1), rh.dim(n), entries)


def dense_cohomology(mats, n):
    """(betti, representatives) of degree n, by dense row reduction alone.

    `mats[k]` is the dense induced differential out of degree k.
    """
    width = mats[n].cols
    kernel = dense_kernel(mats[n])
    image = ()
    if n > 0:
        prev = mats[n - 1]
        cols = tuple(tuple(r[j] for r in prev.entries) for j in range(prev.cols))
        rows, pivots = dense_rref(DenseMatrix(len(cols), width, cols))
        image = tuple(zip(rows, pivots))
    reduced = []
    for v in kernel:
        for row, p in image:
            if v[p]:
                v = tuple(a - v[p] * b for a, b in zip(v, row))
        if any(v):
            reduced.append(v)
    reps = ()
    if reduced:
        rows, pivots = dense_rref(DenseMatrix(len(reduced), width, tuple(reduced)))
        reps = tuple(rows[:len(pivots)])
    return len(kernel) - len(image), reps


def cohomology_against_dense_path(models, rng) -> tuple[int, int]:
    """Betti numbers, representatives and primitives of each model against `dense_cohomology` and `dense_solve`.

    Returns the counts of targets that have a primitive and that have none.
    """
    solved = refused = 0
    for w in models:
        rh = get_complex(w)
        mats = [dense_class_d(w, rh, n) for n in range(w.truncation + 1)]
        for n in range(w.truncation + 1):
            betti, reps = dense_cohomology(mats, n)
            assert rh.betti(n) == betti, n
            assert rh.harmonic_representatives(n) == reps, n
            if n == 0:
                continue
            units = [tuple(Fraction(int(i == k)) for i in range(rh.dim(n))) for k in range(rh.dim(n))]
            exact = [rh.d_class(n - 1, random_class(rh, n - 1, rng)) for _ in range(3)]
            for target in units + exact + list(reps):
                got = rh.is_coboundary(n, target)
                assert got == dense_solve(mats[n - 1], target), n
                if got is None:
                    refused += 1
                else:
                    assert rh.d_class(n - 1, got) == target
                    solved += 1
    return solved, refused


def test_cohomology_matches_dense_path():
    # betti numbers, representatives and primitives against a dense path
    # that shares no elimination with the sparse one
    rng = random.Random(76)
    models = [load_fixture(name).dg for name in fixture_names()]
    # at N = 5 a primitive differs from the one of a span in natural class order
    models += [universal_dg(m2_category(), n) for n in (3, 4, 5)]
    assert cohomology_against_dense_path(models, rng) == (115, 195)


def test_image_and_kernel_bases_are_the_image_and_kernel_of_d():
    # each basis is independent, d of every kernel row is zero, every image
    # row is a combination of the d of the unit classes, and the counts are
    # the rank and the nullity of d, by dense row reduction
    models = [load_fixture(name).dg for name in fixture_names()] + [universal_dg(m2_category(), 3)]
    for w in models:
        rh = get_complex(w)
        ranks = [len(dense_rref(dense_class_d(w, rh, n))[1]) for n in range(w.truncation + 1)]
        for n in range(w.truncation + 1):
            dim = rh.dim(n)
            kernel, image = rh.kernel_basis_of_d(n), rh.image_basis(n)
            assert (len(kernel), len(image)) == (dim - ranks[n], ranks[n - 1] if n else 0), n
            for basis in (kernel, image):
                assert build_quotient(dim, basis).subspace_dim == len(basis)
            assert all(is_zero_vector(rh.d_class(n, densify(row, dim))) for row in kernel)
            units = [tuple(Fraction(int(i == k)) for i in range(rh.dim(n - 1))) for k in range(rh.dim(n - 1))]
            d_of_units = build_quotient(dim, [numerator_row(rh.d_class(n - 1, u)) for u in units])
            assert all(d_of_units.coordinates(row) is not None for row in image)


def test_cohomology_over_denominators_matches_dense_path():
    # the induced differential of weighted M2 is kept over D = 6, so the
    # class layer scales classes, kernel rows and primitives by D; every
    # model above has D = 1
    rng = random.Random(78)
    w = universal_dg(weighted_matrix_units(2), 3)
    assert [get_complex(w).d_columns[n][0] for n in range(3)] == [6, 6, 6]
    assert cohomology_against_dense_path([w], rng) == (12, 25)
