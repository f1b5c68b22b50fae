from fractions import Fraction
import random

import pytest

from lincat import DiagonalForm, build_category, compose, get_complex, trivial_dg, validate_category
from lincat.errors import CompositionError, LincatError

from conftest import arrow_category, dual_category, point_category, two_points_category


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
    c = dual_category()
    x = c.objects[0]
    u = c.basis_morphism(x, x, 1)
    one = c.identity_morphism(x)
    assert compose(c, u, one).coords == u.coords
    assert compose(c, one, u).coords == u.coords
    assert compose(c, u, u).coords == (0, 0)

    arr = arrow_category()
    s, t = arr.objects
    a = arr.basis_morphism(s, t, 0)
    with pytest.raises(CompositionError):
        compose(arr, a, a)  # endpoints do not match


def test_identity_coordinates():
    c = two_points_category()
    assert c.identity[0] == (Fraction(1), Fraction(0))


def test_broken_unit_detected():
    c = build_category(
        ["x"],
        {("x", "x"): ["1", "u"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "u"): {"u": 1},
            ("u", "1"): {"u": 1},
            ("u", "u"): {},
        },
        {"x": {"u": 1}},  # wrong identity element
    )
    kinds = {v.kind for v in validate_category(c)}
    assert "identity-left" in kinds or "identity-right" in kinds


def test_broken_associativity_detected():
    # (a.a).a = b.a = 0 while a.(a.a) = a.b = 1
    c = build_category(
        ["x"],
        {("x", "x"): ["1", "a", "b"]},
        {
            ("1", "1"): {"1": 1},
            ("1", "a"): {"a": 1},
            ("a", "1"): {"a": 1},
            ("1", "b"): {"b": 1},
            ("b", "1"): {"b": 1},
            ("a", "a"): {"b": 1},
            ("a", "b"): {"1": 1},
        },
        {"x": {"1": 1}},
    )
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
    return get_complex(trivial_dg(c)).class_of(DiagonalForm(0, components))


def test_commutator_class_is_trace_like():
    rng = random.Random(21)
    for make in (dual_category, two_points_category):
        c = make()
        x = c.objects[0]
        for _ in range(25):
            f = c.morphism(x, x, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)))
            g = c.morphism(x, x, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)))
            fg = compose(c, f, g)
            gf = compose(c, g, f)
            assert commutator_class(c, (fg.coords,)) == commutator_class(c, (gf.coords,))


def test_commutator_class_separates_arrow_category():
    # diagonal sums of identities at s and t stay distinct in the quotient
    c = arrow_category()
    cls_s = commutator_class(c, ((Fraction(1),), (Fraction(0),)))
    cls_t = commutator_class(c, ((Fraction(0),), (Fraction(1),)))
    assert cls_s != cls_t
