from fractions import Fraction
import random

import pytest

from lincat.errors import ScalarTypeError
from lincat.exact_linalg import (
    MatrixQ,
    build_quotient,
    densify,
    echelon,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rank,
    row_space_basis,
    rref,
    solve_in_span,
    solve_rows,
    sparse,
    unit_vector,
    vec,
    vec_add,
    vec_scale,
    zero_vector,
)


def random_matrix(rng, rows, cols, den=2):
    return MatrixQ(rows, cols, tuple(
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


def test_vector_helpers():
    v = vec([1, "1/2", Fraction(2, 3)])
    assert v == (Fraction(1), Fraction(1, 2), Fraction(2, 3))
    assert vec_add(v, zero_vector(3)) == v
    assert vec_scale(Fraction(2), unit_vector(3, 1)) == (0, 2, 0)


def test_rref_shape_and_idempotence():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rref(m)
        rows = [r.matrix.row(i) for i in range(r.rank)]
        # pivots strictly increase and pivot columns are unit
        pivots = [next(j for j, s in enumerate(row) if s != 0) for row in rows]
        assert pivots == sorted(set(pivots))
        assert tuple(pivots) == r.pivots
        for i, p in enumerate(pivots):
            assert rows[i][p] == 1
            for i2 in range(len(rows)):
                if i2 != i:
                    assert rows[i2][p] == 0
        if rows:
            again = rref(MatrixQ(len(rows), m.cols, tuple(rows)))
            assert [again.matrix.row(i) for i in range(again.rank)] == rows


def test_rank_nullity():
    rng = random.Random(12)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        assert rank(m) + len(kernel_basis(m)) == cols
        for k in kernel_basis(m):
            assert m.apply(k) == zero_vector(rows)


def test_matrix_algebra():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        c = random_matrix(rng, n, n)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ MatrixQ.identity(n) == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        assert (a + b).scale(Fraction(2)) == a.scale(Fraction(2)) + b.scale(Fraction(2))


def test_solve_in_span():
    rng = random.Random(14)
    hits = 0
    for _ in range(40):
        m = random_matrix(rng, 3, rng.randint(1, 3))
        target = vec([rng.randint(-3, 3) for _ in range(3)])
        sol = solve_in_span(m, target)
        if sol is not None:
            assert m.apply(sol) == target
            hits += 1
    assert hits > 0


def test_quotient_space():
    # ambient Q^3 modulo span{(1,0,0)}
    q = build_quotient(3, [vec([1, 0, 0]), vec([2, 0, 0])])
    assert q.dim == 2
    assert q.subspace_dim == 1
    assert q.reduce(vec([5, 1, 2])) == q.reduce(vec([0, 1, 2]))
    coords = q.coset_coordinates(vec([7, 3, -1]))
    assert q.reduce(q.lift(coords)) == q.reduce(vec([7, 3, -1]))


def test_quotient_zero_and_full():
    q_all = build_quotient(2, [vec([1, 0]), vec([0, 1])])
    assert q_all.dim == 0
    q_none = build_quotient(2, [])
    assert q_none.dim == 2
    assert q_none.coset_coordinates(vec([3, 4])) == (3, 4)


def test_row_space_basis_canonical():
    rng = random.Random(15)
    for _ in range(20):
        cols = rng.randint(1, 4)
        rows = [vec([rng.randint(-2, 2) for _ in range(cols)]) for _ in range(rng.randint(0, 4))]
        basis1 = row_space_basis(rows, cols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [vec_scale(Fraction(3), r) for r in shuffled]
        assert row_space_basis(scaled, cols) == basis1


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
    aug = MatrixQ(m.rows, m.cols + 1, tuple(row + (bb,) for row, bb in zip(m.entries, b)))
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
    return MatrixQ(rows, cols, tuple(
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
        res = rref(m)
        assert res.pivots == tuple(ref_pivots)
        assert res.matrix.entries == tuple(ref_rows)
        assert (res.matrix.rows, res.matrix.cols) == (rows, cols)


def test_sparse_kernel_and_solve_match_dense_reference():
    rng = random.Random(102)
    solved = 0
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        assert kernel_basis(m) == dense_kernel(m)
        # one right-hand side in the column span, one arbitrary
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols))
        for b in (m.apply(x), tuple(Fraction(rng.randint(-1, 1)) for _ in range(rows))):
            got = solve_in_span(m, b)
            assert got == dense_solve(m, b)
            if got is not None:
                assert m.apply(got) == b
                solved += 1
    assert solved >= 60


def test_sparse_quotient_matches_dense_reference():
    rng = random.Random(103)
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        q = build_quotient(cols, list(m.entries))
        ref_rows, ref_pivots = dense_rref(m)
        rank_ = len(ref_pivots)
        assert q.pivots == tuple(ref_pivots)
        assert q.subspace_basis == tuple(ref_rows[:rank_])
        assert q.free_columns == tuple(c for c in range(cols) if c not in ref_pivots)
        assert row_space_basis(list(m.entries), cols) == (tuple(ref_rows[:rank_]) if rows else ())
        for _ in range(3):
            v = tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0) for _ in range(cols))
            out = list(v)
            for row, p in zip(ref_rows[:rank_], ref_pivots):
                f = out[p]
                out = [a - f * b for a, b in zip(out, row)]
            assert q.reduce(v) == tuple(out)
            assert q.coset_coordinates(v) == tuple(out[c] for c in q.free_columns)


def test_sparse_entry_points_match_dense_front_doors():
    rng = random.Random(104)
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        sparse_rows = [sparse(r) for r in m.entries]
        ref_rows, ref_pivots = dense_rref(m)
        got_rows, got_pivots = echelon(sparse_rows, cols)
        assert got_pivots == tuple(ref_pivots)
        assert tuple(densify(r, cols) for r in got_rows) == tuple(ref_rows[:len(ref_pivots)])
        assert sparse_rows == [sparse(r) for r in m.entries]  # inputs left alone
        q = build_quotient(cols, sparse_rows)
        assert q == build_quotient(cols, list(m.entries))
        for _ in range(3):
            v = tuple(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0) for _ in range(cols))
            assert q.reduce_sparse(sparse(v)) == sparse(q.reduce(v))
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols))
            for b in (m.apply(x), tuple(Fraction(rng.randint(-1, 1)) for _ in range(rows))):
                assert solve_rows(sparse_rows, cols, b) == dense_solve(m, b)


def test_inexact_entries_are_refused():
    # an int or float entry would turn exact division into float division
    with pytest.raises(ScalarTypeError):
        solve_in_span(MatrixQ(1, 1, ((3,),)), (1,))
    with pytest.raises(ScalarTypeError):
        rref(MatrixQ(2, 2, ((2, 1), (1, 1))))
    with pytest.raises(ScalarTypeError, match=r"entry \(0, 1\) is 0.5"):
        MatrixQ(1, 2, ((Fraction(1), 0.5),))
    with pytest.raises(ScalarTypeError):
        build_quotient(2, [{0: 2, 1: Fraction(1)}])
    with pytest.raises(ScalarTypeError):
        solve_rows([{0: Fraction(3)}], 1, (1,))
    # the converting constructors stay exact
    assert solve_in_span(MatrixQ.from_rows([[3]]), vec([1])) == (Fraction(1, 3),)
    assert rref(MatrixQ.from_rows([[2, 1], [1, 1]])).matrix == MatrixQ.identity(2)
    assert build_quotient(2, [(2, 1)]).rows == ({0: Fraction(1), 1: Fraction(1, 2)},)
