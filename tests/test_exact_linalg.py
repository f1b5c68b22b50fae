from fractions import Fraction
import random
from typing import NamedTuple

import pytest

from lincat.errors import DimensionError, ScalarTypeError
from lincat.exact_linalg import (
    Echelon,
    build_quotient,
    checked_terms,
    densify,
    echelon,
    format_scalar,
    parse_scalar,
    rref,
    scalar,
    solve_rows,
    sparse,
    vec,
    vec_add,
    vec_scale,
    zero_vector,
)

from conftest import subspace_basis


class DenseMatrix(NamedTuple):
    """A dense matrix for the oracles: `rows` tuples of `cols` entries each."""

    rows: int
    cols: int
    entries: tuple


def random_matrix(rng, rows, cols, den=2):
    return DenseMatrix(rows, cols, tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.choice([1, den])) for _ in range(cols))
        for _ in range(rows)
    ))


def test_scalar_parse_format_round_trip():
    for text in ["0", "5", "-7", "2/3", "-11/4"]:
        s = parse_scalar(text)
        assert format_scalar(s) == text
    assert parse_scalar(3) == Fraction(3)
    assert parse_scalar("6/4") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_scalar("1.5e3x")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_malformed_scalar_strings_raise_scalar_type_error():
    # Fraction("1/0") and Fraction("one") raise ZeroDivisionError and
    # ValueError, which are no LincatError; every caller of `scalar` refuses
    from lincat import FormMatrix, TildeComplex, get_complex
    from lincat.workspace import load_fixture

    w = load_fixture("two_points_universal").dg
    x = w.base.objects[0]
    rh = get_complex(w)
    tc = TildeComplex(rh, 1)
    zero = tc.cochain(0, [(0, 0)], None)
    calls = {
        "form": lambda: w.form(0, x, x, ("1/0", 0)),
        "Form.scale": lambda: w.basis_form(0, x, x, 0).scale("one"),
        "FormMatrix.scale": lambda: FormMatrix.identity(w, (x,)).scale("1/0"),
        "d_class": lambda: rh.d_class(0, ("x", 0)),
        "is_coboundary": lambda: rh.is_coboundary(0, ("1/0", 0)),
        "render_class": lambda: rh.render_class(0, ("x", 0)),
        "ev_at": lambda: tc.ev_at(zero, "1/0"),
        "cochain": lambda: tc.cochain(0, [("abc", 0)], None),
    }
    for name, call in calls.items():
        with pytest.raises(ScalarTypeError, match="is '(1/0|one|x|abc)', not a rational scalar"):
            call()
            pytest.fail(f"{name} accepted a malformed scalar")
    assert scalar("6/4", "here") == Fraction(3, 2)
    with pytest.raises(ScalarTypeError, match="^here is '1/0'"):
        scalar("1/0", "here")


def test_vector_helpers():
    v = vec([1, "1/2", Fraction(2, 3)])
    assert v == (Fraction(1), Fraction(1, 2), Fraction(2, 3))
    assert vec_add(v, zero_vector(3)) == v
    assert vec_scale(Fraction(2), vec([0, 1, 0])) == (0, 2, 0)


def test_rref_shape_and_idempotence():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        echelon_rows, echelon_pivots = rref(m)
        rows = [densify(row, m.cols) for row in echelon_rows]
        # pivots strictly increase and pivot columns are unit
        pivots = [next(j for j, s in enumerate(row) if s != 0) for row in rows]
        assert pivots == sorted(set(pivots))
        assert tuple(pivots) == echelon_pivots
        for i, p in enumerate(pivots):
            assert rows[i][p] == 1
            for i2 in range(len(rows)):
                if i2 != i:
                    assert rows[i2][p] == 0
        if rows:
            again, _ = rref(DenseMatrix(len(rows), m.cols, tuple(rows)))
            assert [densify(row, m.cols) for row in again] == rows


def test_quotient_space():
    # ambient Q^3 modulo span{(1,0,0)}
    q = build_quotient(3, [{0: Fraction(1)}, {0: Fraction(2)}])
    assert q.dim == 2
    assert q.subspace_dim == 1
    assert q.reduce_sparse(sparse(vec([5, 1, 2]))) == q.reduce_sparse(sparse(vec([0, 1, 2])))
    assert q.coset_coordinates(sparse(vec([7, 3, -1]))) == (3, -1)
    assert q.coset_coordinates({}) == (0, 0)
    for outside in ({3: Fraction(1)}, {-1: Fraction(1)}):
        with pytest.raises(DimensionError, match="outside 0..2"):
            q.coset_coordinates(outside)


def test_quotient_zero_and_full():
    q_all = build_quotient(2, [{0: Fraction(1)}, {1: Fraction(1)}])
    assert q_all.dim == 0
    q_none = build_quotient(2, [])
    assert q_none.dim == 2
    assert q_all.coset_coordinates(sparse(vec([3, 4]))) == ()
    assert q_none.coset_coordinates(sparse(vec([3, 4]))) == (3, 4)


def test_echelon_basis_is_canonical():
    # the basis is a function of the span: shuffling and scaling the rows leave it alone
    rng = random.Random(15)
    for _ in range(20):
        cols = rng.randint(1, 4)
        rows = [sparse(vec([rng.randint(-2, 2) for _ in range(cols)])) for _ in range(rng.randint(0, 4))]
        basis1 = echelon(rows, cols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [{j: 3 * x for j, x in r.items()} for r in shuffled]
        assert echelon(scaled, cols) == basis1
        # so is a quotient, whose equality compares its integer rows
        assert build_quotient(cols, scaled) == build_quotient(cols, rows)


# -- the sparse kernel against the dense elimination it replaced -------------


def dense_rref(m):
    """Reference: row reduction on dense rows, scanning every entry."""
    work = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = None
        for i in range(r, m.rows):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        if pv != 1:
            work[r] = [x / pv for x in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return [tuple(row) for row in work], pivots


def dense_kernel(m):
    rows, pivots = dense_rref(m)
    basis = []
    for c in range(m.cols):
        if c in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[c] = Fraction(1)
        for r_i, p in enumerate(pivots):
            v[p] = -rows[r_i][c]
        basis.append(tuple(v))
    return tuple(basis)


def dense_solve(m, b):
    aug = DenseMatrix(m.rows, m.cols + 1, tuple(row + (bb,) for row, bb in zip(m.entries, b)))
    rows, pivots = dense_rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r_i, p in enumerate(pivots):
        x[p] = rows[r_i][m.cols]
    return tuple(x)


def sparse_matrix(rng, rows, cols):
    """About 90 % zeros, with some rows and columns forced to zero."""
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    zero_cols = {j for j in range(cols) if rng.random() < 0.2}
    return DenseMatrix(rows, cols, tuple(
        tuple(
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
            if i not in zero_rows and j not in zero_cols and rng.random() < 0.1 else Fraction(0)
            for j in range(cols)
        )
        for i in range(rows)
    ))


def oracle_shapes(rng):
    yield 0, 4
    yield 4, 0
    yield 0, 0
    for _ in range(60):
        yield rng.randint(1, 14), rng.randint(1, 14)


def test_sparse_rref_matches_dense_reference():
    rng = random.Random(101)
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        ref_rows, ref_pivots = dense_rref(m)
        got_rows, got_pivots = rref(m)
        assert got_pivots == tuple(ref_pivots)
        assert tuple(densify(r, cols) for r in got_rows) == tuple(ref_rows[:len(ref_pivots)])
        assert all(not any(r) for r in ref_rows[len(ref_pivots):])
        # rref is echelon of the nonzeros
        assert (got_rows, got_pivots) == echelon([sparse(r) for r in m.entries], cols)


def apply(m, x):
    """m @ x, for a dense matrix and vector."""
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m.entries)


def echelon_kernel(m):
    """Kernel of m read off the echelon form of the augmented columns [m e_k | e_k].

    This is the route the de Rham complex takes for the kernel of d.
    """
    columns = ({**{i: row[k] for i, row in enumerate(m.entries) if row[k] != 0}, m.rows + k: Fraction(1)}
               for k in range(m.cols))
    basis, pivots = echelon(columns, m.rows + m.cols)
    return tuple(densify({j - m.rows: x for j, x in row.items()}, m.cols)
                 for row, p in zip(basis, pivots) if p >= m.rows)


def test_solve_in_span():
    rng = random.Random(14)
    hits = 0
    for _ in range(40):
        m = random_matrix(rng, 3, rng.randint(1, 3))
        target = vec([rng.randint(-3, 3) for _ in range(3)])
        sol = solve_rows([sparse(r) for r in m.entries], m.cols, target)
        if sol is not None:
            assert apply(m, sol) == target
            hits += 1
    assert hits > 0


def test_sparse_kernel_and_solve_match_dense_reference():
    rng = random.Random(102)
    solved = 0
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        sparse_rows = [sparse(r) for r in m.entries]
        kernel = echelon_kernel(m)
        assert echelon([sparse(k) for k in kernel], cols) == echelon([sparse(k) for k in dense_kernel(m)], cols)
        assert len(kernel) == len(dense_kernel(m))
        assert all(apply(m, k) == zero_vector(rows) for k in kernel)
        # one right-hand side in the column span, one arbitrary
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols))
        for b in (apply(m, x), tuple(Fraction(rng.randint(-1, 1)) for _ in range(rows))):
            got = solve_rows(sparse_rows, cols, b)
            assert got == dense_solve(m, b)
            if got is not None:
                assert apply(m, got) == b
                solved += 1
    assert solved >= 60


def test_sparse_quotient_matches_dense_reference():
    rng = random.Random(103)
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        q = build_quotient(cols, [sparse(r) for r in m.entries])
        ref_rows, ref_pivots = dense_rref(m)
        rank_ = len(ref_pivots)
        assert q.pivots == tuple(ref_pivots)
        assert subspace_basis(q) == tuple(ref_rows[:rank_])
        assert q.free_columns == tuple(c for c in range(cols) if c not in ref_pivots)
        for _ in range(3):
            v = tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0) for _ in range(cols))
            out = list(v)
            for row, p in zip(ref_rows[:rank_], ref_pivots):
                f = out[p]
                out = [a - f * b for a, b in zip(out, row)]
            assert q.reduce_sparse(sparse(v)) == sparse(out)
            assert q.coset_coordinates(sparse(v)) == tuple(out[c] for c in q.free_columns)
            # coordinates exactly on the span
            assert (q.coordinates(sparse(v)) is None) == bool(q.reduce_sparse(sparse(v)))
            # a random combination of the reference rows has that combination as coordinates
            lam = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(rank_)]
            combo = [sum((s * row[j] for s, row in zip(lam, ref_rows)), Fraction(0)) for j in range(cols)]
            assert q.coordinates(sparse(combo)) == {i: s for i, s in enumerate(lam) if s}


def assert_fraction_rows(rows, pivots):
    """Every entry is a Fraction, not an int that compares equal, and each pivot entry is 1."""
    for row, p in zip(rows, pivots):
        assert all(type(x) is Fraction for x in row.values()), row
        assert type(row[p]) is Fraction and row[p] == 1, (row, p)


def entry_points_match_dense_reference(m, rng):
    """echelon, Echelon, QuotientSpace and solve_rows on the rows of m against the dense reference.

    Every entry they hand back must be a Fraction: `==` cannot tell 1 from
    Fraction(1), so the comparisons alone would pass an int leaking out of
    the kernel's integer rows.
    """
    rows, cols = m.rows, m.cols
    sparse_rows = [sparse(r) for r in m.entries]
    ref_rows, ref_pivots = dense_rref(m)
    rank_ = len(ref_pivots)
    got_rows, got_pivots = echelon(sparse_rows, cols)
    assert got_pivots == tuple(ref_pivots)
    assert tuple(densify(r, cols) for r in got_rows) == tuple(ref_rows[:rank_])
    assert_fraction_rows(got_rows, got_pivots)
    assert sparse_rows == [sparse(r) for r in m.entries]  # inputs left alone
    # the same basis grown one row at a time, and unit-vector membership
    basis = Echelon()
    assert sum(basis.add(r) is not None for r in sparse_rows) == rank_
    assert basis.rows == dict(zip(got_pivots, got_rows))
    assert_fraction_rows(basis.rows.values(), basis.rows)
    assert [basis.spans_unit(k) for k in range(cols)] == [
        k in ref_pivots and sparse(ref_rows[ref_pivots.index(k)]) == {k: 1} for k in range(cols)
    ]
    q = build_quotient(cols, sparse_rows)
    assert (q.rows, q.pivots) == (got_rows, got_pivots)
    assert_fraction_rows(q.rows, q.pivots)
    for _ in range(3):
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 7)) if rng.random() < 0.4 else Fraction(0)
                  for _ in range(cols))
        out = list(v)
        for row, p in zip(ref_rows[:rank_], ref_pivots):
            f = out[p]
            out = [a - f * b for a, b in zip(out, row)]
        # reduction leaves entries at free columns only, which the coordinates read
        red = q.reduce_sparse(sparse(v))
        assert red == sparse(out)
        assert set(red) <= set(q.free_columns)
        assert all(type(x) is Fraction for x in red.values())
        coset = q.coset_coordinates(sparse(v))
        assert coset == tuple(red.get(c, 0) for c in q.free_columns)
        assert all(type(x) is Fraction for x in coset)
        assert (q.coordinates(sparse(v)) is None) == bool(red)
        # a combination of the rows has that combination as coordinates
        lam = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(rank_)]
        combo = sparse([sum((s * row[j] for s, row in zip(lam, ref_rows)), Fraction(0)) for j in range(cols)])
        coords = q.coordinates(combo)
        assert coords == {i: s for i, s in enumerate(lam) if s}
        assert all(type(x) is Fraction for x in coords.values())
        x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(cols))
        for b in (apply(m, x), tuple(Fraction(rng.randint(-1, 1)) for _ in range(rows))):
            got = solve_rows(sparse_rows, cols, b)
            assert got == dense_solve(m, b)
            assert got is None or all(type(s) is Fraction for s in got)


def test_sparse_entry_points_match_dense_front_doors():
    rng = random.Random(104)
    for rows, cols in oracle_shapes(rng):
        entry_points_match_dense_reference(sparse_matrix(rng, rows, cols), rng)


def dense_random_matrix(rng, rows, cols):
    """About 30 % fill, denominators up to 7, negative and non-unit entries; some rows combine others."""
    entries = [
        [Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 7)) if rng.random() < 0.3
         else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]
    for i in range(2, rows):
        if rng.random() < 0.25:
            a, b = rng.sample(range(i), 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            entries[i] = [s * x + t * y for x, y in zip(entries[a], entries[b])]
    return DenseMatrix(rows, cols, tuple(map(tuple, entries)))


def test_wide_dense_rows_match_dense_reference():
    # many rows per column, so a new pivot is cleared from many rows through
    # the column index, and rows over several denominators are normalised by
    # their gcd
    rng = random.Random(105)
    for _ in range(16):
        entry_points_match_dense_reference(dense_random_matrix(rng, rng.randint(1, 40), rng.randint(1, 40)), rng)


def test_a_stale_column_in_the_index_is_skipped():
    # row 1 is listed under column 3; its entry there cancels when pivot 2
    # is cleared from it, so pivot 3 visits a stale entry and skips it
    f = Fraction
    basis = Echelon()
    assert basis.add({0: f(1), 2: f(1)}) == 0
    assert basis.add({1: f(1), 2: f(1), 3: f(1)}) == 1
    assert basis.add({2: f(1), 3: f(1)}) == 2
    assert basis.rows == {0: {0: 1, 3: -1}, 1: {1: 1}, 2: {2: 1, 3: 1}}
    # a non-unit pivot over a denominator lands on the stale column
    assert basis.add({3: f(-2, 3), 4: f(1)}) == 3
    expected = {0: {0: 1, 4: f(-3, 2)}, 1: {1: 1}, 2: {2: 1, 4: f(3, 2)}, 3: {3: 1, 4: f(-3, 2)}}
    assert basis.rows == expected
    assert_fraction_rows(basis.rows.values(), basis.rows)
    m = DenseMatrix(4, 5, (vec([1, 0, 1, 0, 0]), vec([0, 1, 1, 1, 0]), vec([0, 0, 1, 1, 0]),
                           vec([0, 0, 0, "-2/3", 1])))
    ref_rows, ref_pivots = dense_rref(m)
    assert {p: densify(r, 5) for p, r in basis.rows.items()} == dict(zip(ref_pivots, ref_rows))
    assert basis.add({4: f(5, 7)}) == 4
    assert basis.rows == {k: {k: 1} for k in range(5)}
    assert all(basis.spans_unit(k) for k in range(5))


def test_inexact_entries_are_refused():
    # an int or float entry would turn exact division into float division
    with pytest.raises(ScalarTypeError):
        rref(DenseMatrix(2, 2, ((2, 1), (1, 1))))
    with pytest.raises(ScalarTypeError):
        rref(DenseMatrix(1, 2, ((Fraction(1), 0.5),)))
    with pytest.raises(ScalarTypeError):
        build_quotient(2, [{0: 2, 1: Fraction(1)}])
    with pytest.raises(ScalarTypeError):
        solve_rows([{0: Fraction(3)}], 1, (1,))
    # Echelon.add converts its row to integer numerators: a float would be
    # reduced in float arithmetic, and an int would pass for a Fraction
    for bad in ({0: 0.5}, {0: 2}, {1: Fraction(1, 2), 0: 3}):
        basis = Echelon()
        basis.add({2: Fraction(1)})
        with pytest.raises(ScalarTypeError, match="must be Fractions"):
            basis.add(bad)
        assert basis.rows == {2: {2: Fraction(1)}}
    # the converting constructors share one rule: a float or a bool is refused
    assert scalar(3) == Fraction(3) and scalar("-1/2") == Fraction(-1, 2)
    for bad in (0.5, True, None):
        with pytest.raises(ScalarTypeError, match=type(bad).__name__):
            scalar(bad)
    with pytest.raises(ScalarTypeError, match="entry 1 is 0.1 of type float"):
        vec([1, 0.1])
    with pytest.raises(ScalarTypeError, match="row 2, entry 0 is 0.1 of type float"):
        checked_terms({0: 0.1}, 1, "row 2")
    assert checked_terms({1: 2, 0: Fraction(0)}, 2, "row") == ((1, Fraction(2)),)
    # and stay exact
    assert solve_rows([{0: Fraction(3)}], 1, vec([1])) == (Fraction(1, 3),)
    assert rref(DenseMatrix(2, 2, (vec([2, 1]), vec([1, 1])))) == (({0: 1}, {1: 1}), (0, 1))
    assert build_quotient(2, [{0: Fraction(2), 1: Fraction(1)}]).rows == ({0: Fraction(1), 1: Fraction(1, 2)},)
