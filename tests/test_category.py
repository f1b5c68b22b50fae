from fractions import Fraction
import random

import pytest

from lincat import build_category, get_complex, trivial_dg, validate_category
from lincat.category import Category
from lincat.errors import CompositionError, DimensionError, LincatError, ScalarTypeError

from law_oracle import comp_terms, identity_terms
from conftest import (
    arrow_category,
    broken_associativity_category,
    broken_unit_category,
    dual_category,
    point_category,
    two_points_category,
)


def test_fixture_categories_validate():
    for make in (point_category, dual_category, two_points_category, arrow_category):
        assert validate_category(make()) == []


def test_dimensions_and_lookup():
    c = arrow_category()
    s = c.object_by_label("s")
    t = c.object_by_label("t")
    assert c.dim(s.index, s.index) == 1
    assert c.dim(t.index, s.index) == 1
    assert c.dim(s.index, t.index) == 0
    assert c.basis_labels(t.index, s.index) == ("a",)
    with pytest.raises(LincatError):
        c.object_by_label("nope")


def test_compose_follows_tables():
    # a morphism of c is a degree-0 form of trivial_dg(c)
    w = trivial_dg(dual_category())
    x = w.base.objects[0]
    u = w.basis_form(0, x, x, 1)
    one = w.identity_form(x)
    assert w.compose(u, one) == u
    assert w.compose(one, u) == u
    assert w.compose(u, u).terms == ()

    arr = trivial_dg(arrow_category())
    s, t = arr.base.objects
    a = arr.basis_form(0, s, t, 0)
    with pytest.raises(CompositionError):
        arr.compose(a, a)  # endpoints do not match


def test_identity_coordinates():
    c = two_points_category()
    assert c.identity[0] == (1, ((0, 1),))


def test_broken_unit_detected():
    c = broken_unit_category()
    kinds = {v.kind for v in validate_category(c)}
    assert "identity-left" in kinds or "identity-right" in kinds


def test_broken_associativity_detected():
    c = broken_associativity_category()
    kinds = {v.kind for v in validate_category(c)}
    assert "associativity" in kinds


def test_duplicate_arrow_label_rejected():
    with pytest.raises(LincatError):
        build_category(
            ["x", "y"],
            {("x", "x"): ["e"], ("y", "y"): ["e"]},
            {},
            {"x": {"e": 1}, "y": {"e": 1}},
        )


def test_unknown_labels_rejected():
    with pytest.raises(LincatError):
        build_category(["x"], {("x", "z"): ["a"]}, {}, {"x": {}})
    with pytest.raises(LincatError):
        build_category(
            ["x"],
            {("x", "x"): ["1"]},
            {("1", "nope"): {"1": 1}},
            {"x": {"1": 1}},
        )


def commutator_class(c, components):
    """Class of a diagonal element modulo commutators: degree 0 of the quotient complex."""
    rh = get_complex(trivial_dg(c))
    row = {off + k: s for off, comp in zip(rh.component_offsets[0], components) for k, s in enumerate(comp) if s}
    return rh.quotients[0].coset_coordinates(row)


def test_commutator_class_is_trace_like():
    rng = random.Random(21)
    for make in (dual_category, two_points_category):
        w = trivial_dg(make())
        rh = get_complex(w)
        x = w.base.objects[0]
        for _ in range(25):
            f = w.form(0, x, x, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)))
            g = w.form(0, x, x, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)))
            assert rh.class_of_trace(0, (w.compose(f, g),)) == rh.class_of_trace(0, (w.compose(g, f),))


def test_commutator_class_separates_arrow_category():
    # diagonal sums of identities at s and t stay distinct in the quotient
    c = arrow_category()
    cls_s = commutator_class(c, ((Fraction(1),), (Fraction(0),)))
    cls_t = commutator_class(c, ((Fraction(0),), (Fraction(1),)))
    assert cls_s != cls_t


# -- table keys the constructor never reads are refused ------------------------


def arrow_inputs():
    """The arrow category's own constructor input: s = 0, t = 1, hom (s, t) is zero."""
    c = arrow_category()
    comp = {key: {(i, j): dict(terms) for i, row in enumerate(block) for j, terms in enumerate(row)}
            for key, block in comp_terms(c).items()}
    identity = {x: dict(terms) for x, terms in identity_terms(c).items()}
    return c, [o.label for o in c.objects], comp, identity


def test_category_accepts_its_own_tables_and_empty_zero_blocks():
    c, labels, comp, identity = arrow_inputs()
    assert comp_terms(Category(labels, c.hom_basis, comp, identity)) == comp_terms(c)
    # an empty block at a zero hom space carries nothing and is accepted
    assert comp_terms(Category(labels, c.hom_basis, {**comp, (0, 1, 0): {}}, identity)) == comp_terms(c)


@pytest.mark.parametrize("key, block", [
    ((0, 0, 2), {(0, 0): {0: 1}}),  # object triple out of range
    ((0, 1, 7), {(0, 0): {0: 1}}),  # junk key
    ((0, 1), {(0, 0): {0: 1}}),  # not a triple
    ((0, 1, 0), {(0, 0): {0: 1}}),  # nonempty block at the zero hom space (s, t)
], ids=["triple-out-of-range", "junk-key", "not-a-triple", "zero-hom-space"])
def test_category_refuses_unread_composition_keys(key, block):
    c, labels, comp, identity = arrow_inputs()
    with pytest.raises(DimensionError):
        Category(labels, c.hom_basis, {**comp, key: block}, identity)


def test_category_refuses_identity_of_a_missing_object():
    c, labels, comp, identity = arrow_inputs()
    with pytest.raises(DimensionError, match="identity"):
        Category(labels, c.hom_basis, comp, {**identity, 2: {0: Fraction(1)}})


def test_build_category_refuses_float_coefficients():
    # a float is already rounded: read through its repr, 1/3 was stored as 3333333333333333/10**16
    def one_object(s):
        return build_category(["x"], {("x", "x"): ["1"]}, {("1", "1"): {"1": s}}, {"x": {"1": 1}})

    for exact in (1, "1", Fraction(1), " 1/1 "):
        assert comp_terms(one_object(exact))[(0, 0, 0)][0][0] == ((0, Fraction(1)),)
    for inexact in (1 / 3, 1.0, True):
        with pytest.raises(ScalarTypeError, match="coefficient of '1'"):
            one_object(inexact)
    for malformed in ("one", "1/0"):
        with pytest.raises(DimensionError, match="not a rational scalar"):
            one_object(malformed)
