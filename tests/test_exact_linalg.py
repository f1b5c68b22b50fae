from fractions import Fraction
from math import gcd
import random
import sys
from typing import NamedTuple

import pytest

from lincat.errors import DimensionError, ScalarTypeError
from lincat.exact_linalg import (
    Echelon,
    build_quotient,
    checked_terms,
    densify,
    format_scalar,
    numerator_row,
    rref,
    scalar,
    solve_rows,
    vec,
    vec_add,
    vec_scale,
    zero_vector,
)

from conftest import as_numerators, fraction_row, subspace_basis


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
        s = scalar(text)
        assert format_scalar(s) == text
    assert scalar(3) == Fraction(3)
    assert scalar("6/4") == Fraction(3, 2)
    with pytest.raises(ScalarTypeError):
        scalar("1.5e3x")
    with pytest.raises(ScalarTypeError):
        scalar("")


def test_scalar_refuses_a_decimal_exponent_past_the_digit_limit():
    # the limit is Python's on the digits of an integer string, 4300 by default
    assert sys.get_int_max_str_digits() == 4300
    assert scalar("1e4300") == 10 ** 4300
    assert scalar("1e-4300") == Fraction(1, 10 ** 4300)
    assert scalar("2.5E+0_4300") == 25 * 10 ** 4299
    # refused before 10^|exponent| is built: for "1e999999999" an integer of a billion digits
    for text in ("1e4301", "1e-4301", "1E+4_301", "1e999999999", " 1e" + "9" * 5000 + " "):
        with pytest.raises(ScalarTypeError, match="^here is '.*', whose decimal exponent exceeds 4300 in magnitude"):
            scalar(text, "here")


def test_scalar_refuses_a_digit_run_past_the_limit():
    # Fraction reads the integer part, the decimal part and the denominator
    # as integer strings, each under the limit; underscores are not digits
    assert scalar("1" * 4300) == int("1" * 4300)
    assert scalar("0." + "1" * 4299) == Fraction(int("1" * 4299), 10 ** 4299)
    assert scalar("1_" * 4299 + "1") == int("1" * 4300)
    half = int("1" * 2200)
    assert scalar("1" * 2200 + "." + "1" * 2200) == half + Fraction(half, 10 ** 2200)
    # refused before Fraction reads it, with the limit named and at most 60 characters of the value
    for text in ("1" * 4301, "0." + "1" * 5000, "1/" + "3" * 5000, "1_" * 4300 + "1", "1e" + "0" * 4300 + "1"):
        with pytest.raises(ScalarTypeError) as exc:
            scalar(text, "here")
        message = str(exc.value)
        assert message == f"here is {text[:60] + '...'!r}, with more than 4300 digits in a row, the limit on integer digits"
        assert len(message) < 200
    # so is every other refusal of a long value
    for bad in (" 1e" + "9" * 5000, "x" * 5000, [1] * 5000):
        with pytest.raises(ScalarTypeError) as exc:
            scalar(bad, "here")
        assert len(str(exc.value)) < 200


def test_malformed_scalar_strings_raise_scalar_type_error():
    # Fraction("1/0") and Fraction("one") raise ZeroDivisionError and
    # ValueError, which are no LincatError; every caller of `scalar` refuses
    from lincat import FormMatrix, get_complex
    from lincat.tforms import TildeCochain
    from lincat.workspace import load_fixture

    w = load_fixture("two_points_universal").dg
    x = w.base.objects[0]
    rh = get_complex(w)
    zero = TildeCochain(rh, 0, ((0, 0),), ((),))
    calls = {
        "form": lambda: w.form(0, x, x, ("1/0", 0)),
        "Form.scale": lambda: w.basis_form(0, x, x, 0).scale("one"),
        "FormMatrix.scale": lambda: FormMatrix.identity(w, (x,)).scale("1/0"),
        "d_class": lambda: rh.d_class(0, ("x", 0)),
        "is_coboundary": lambda: rh.is_coboundary(0, ("1/0", 0)),
        "render_class": lambda: rh.render_class(0, ("x", 0)),
        "ev_at": lambda: zero.ev_at("1/0"),
    }
    for name, call in calls.items():
        with pytest.raises(ScalarTypeError, match="is '(1/0|one|x)', not a rational scalar"):
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


def coset(q, v) -> tuple:
    """The coset coordinates of a dense vector, written out densely."""
    return densify(q.coset_coordinates(numerator_row(v)), q.dim)


def test_quotient_space():
    # ambient Q^3 modulo span{(1,0,0)}
    q = build_quotient(3, [(1, {0: 1}), (1, {0: 2})])
    assert q.dim == 2
    assert q.subspace_dim == 1
    assert q.reduce_sparse(numerator_row(vec([5, 1, 2]))) == q.reduce_sparse(numerator_row(vec([0, 1, 2])))
    assert coset(q, vec([7, 3, -1])) == (3, -1)
    assert coset(q, zero_vector(3)) == (0, 0)
    for outside in ((1, {3: 1}), (1, {-1: 1})):
        with pytest.raises(DimensionError, match="outside 0..2"):
            q.coset_coordinates(outside)


def test_quotient_zero_and_full():
    q_all = build_quotient(2, [(1, {0: 1}), (1, {1: 1})])
    assert q_all.dim == 0
    q_none = build_quotient(2, [])
    assert q_none.dim == 2
    assert coset(q_all, vec([3, 4])) == ()
    assert coset(q_none, vec([3, 4])) == (3, 4)


def test_echelon_basis_is_canonical():
    # the basis is a function of the span: shuffling and scaling the rows leave it alone
    rng = random.Random(15)
    for _ in range(20):
        cols = rng.randint(1, 4)
        rows = [numerator_row(vec([rng.randint(-2, 2) for _ in range(cols)])) for _ in range(rng.randint(0, 4))]
        q = build_quotient(cols, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [(d, {j: 3 * x for j, x in r.items()}) for d, r in shuffled]
        scaled_q = build_quotient(cols, scaled)
        assert (scaled_q.numerator_rows, scaled_q.pivots) == (q.numerator_rows, q.pivots)
        # so is the quotient, whose equality compares its integer rows
        assert scaled_q == q


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
        # rref is the span of the nonzeros
        q = build_quotient(cols, [numerator_row(r) for r in m.entries])
        assert (got_rows, got_pivots) == (q.numerator_rows, q.pivots)


def apply(m, x):
    """m @ x, for a dense matrix and vector."""
    return tuple(sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m.entries)


def augmented_span(m):
    """The span of the augmented columns [m e_k | e_k], e_k at column m.rows + m.cols - 1 - k.

    This is the span the de Rham complex keeps for d, in reverse column order.
    """
    last = m.rows + m.cols - 1
    columns = [{**{i: row[k] for i, row in enumerate(m.entries) if row[k] != 0}, last - k: Fraction(1)}
               for k in range(m.cols)]
    return build_quotient(last + 1, list(map(as_numerators, columns)))


def echelon_kernel(m):
    """Kernel of m: the e-parts of the rows of `augmented_span(m)` that pivot past the m-part, the route of d."""
    span, last = augmented_span(m), m.rows + m.cols - 1
    return tuple(densify((d, {last - j: x for j, x in row.items()}), m.cols)
                 for (d, row), p in zip(span.numerator_rows, span.pivots) if p >= m.rows)


def reduction_solve(m, b):
    """A solution of m x = b read off the reduction of (b | 0) by `augmented_span(m)`, or None: the primitive of d."""
    den, nums = augmented_span(m).reduce_sparse(numerator_row(b))
    if any(j < m.rows for j in nums):
        return None
    last = m.rows + m.cols - 1
    return densify((den, {last - j: -x for j, x in nums.items()}), m.cols)


def solve(rows, ncols, b):
    """`solve_rows` with b a dense vector, its solution written out densely, or None."""
    x = solve_rows(rows, ncols, numerator_row(b))
    return None if x is None else densify(x, ncols)


def test_solve_in_span():
    rng = random.Random(14)
    hits = 0
    for _ in range(40):
        m = random_matrix(rng, 3, rng.randint(1, 3))
        target = vec([rng.randint(-3, 3) for _ in range(3)])
        sol = solve([numerator_row(r) for r in m.entries], m.cols, target)
        if sol is not None:
            assert apply(m, sol) == target
            hits += 1
    assert hits > 0


def test_sparse_kernel_and_solve_match_dense_reference():
    rng = random.Random(102)
    solved = 0
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        given_rows = [numerator_row(r) for r in m.entries]
        kernel = echelon_kernel(m)
        assert build_quotient(cols, list(map(numerator_row, kernel))) == build_quotient(
            cols, list(map(numerator_row, dense_kernel(m))))
        assert len(kernel) == len(dense_kernel(m))
        assert all(apply(m, k) == zero_vector(rows) for k in kernel)
        # one right-hand side in the column span, one arbitrary
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols))
        for b in (apply(m, x), tuple(Fraction(rng.randint(-1, 1)) for _ in range(rows))):
            got = solve(given_rows, cols, b)
            assert got == dense_solve(m, b)
            # the reduction in reverse column order leaves the same variables free
            assert reduction_solve(m, b) == got
            if got is not None:
                assert apply(m, got) == b
                solved += 1
    assert solved >= 60


def test_sparse_quotient_matches_dense_reference():
    rng = random.Random(103)
    for rows, cols in oracle_shapes(rng):
        m = sparse_matrix(rng, rows, cols)
        q = build_quotient(cols, [numerator_row(r) for r in m.entries])
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
            assert densify(q.reduce_sparse(numerator_row(v)), cols) == tuple(out)
            assert coset(q, v) == tuple(out[c] for c in q.free_columns)
            # coordinates exactly on the span
            assert (q.coordinates(numerator_row(v)) is None) == bool(q.reduce_sparse(numerator_row(v))[1])
            # a random combination of the reference rows has that combination as coordinates
            lam = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(rank_)]
            combo = [sum((s * row[j] for s, row in zip(lam, ref_rows)), Fraction(0)) for j in range(cols)]
            assert fraction_row(q.coordinates(numerator_row(combo))) == {i: s for i, s in enumerate(lam) if s}


def assert_numerator_rows(rows, pivots):
    """Each row is (d, {column: int}) with d a positive int, in lowest terms, its pivot numerator d.

    `==` cannot tell 1 from Fraction(1), so the comparisons alone would
    pass a Fraction leaking into the kernel's integer rows.
    """
    for (d, nums), p in zip(rows, pivots):
        assert type(d) is int and d > 0 and {type(n) for n in nums.values()} == {int}, (d, nums)
        assert nums[p] == d and gcd(d, *nums.values()) == 1, (d, nums, p)


def assert_integers(row):
    """A numerator row handed back: a positive int denominator and int numerators."""
    d, nums = row
    assert type(d) is int and d > 0 and all(type(n) is int for n in nums.values()), row


def scaled_row(row, k, sign=1):
    """The same vector over k times the denominator, with every numerator multiplied by sign * k."""
    d, nums = row
    return k * d, {j: n * k * sign for j, n in nums.items()}


def entry_points_match_dense_reference(m, rng):
    """Echelon, QuotientSpace and solve_rows on the rows of m against the dense reference.

    Every row, reduction, coordinate vector and solution they hand back
    must be a numerator row of ints (`assert_numerator_rows`,
    `assert_integers`).
    """
    rows, cols = m.rows, m.cols
    given_rows = [numerator_row(r) for r in m.entries]
    given = repr(given_rows)
    ref_rows, ref_pivots = dense_rref(m)
    rank_ = len(ref_pivots)
    q = build_quotient(cols, given_rows)
    got_rows, got_pivots = q.numerator_rows, q.pivots
    assert got_pivots == tuple(ref_pivots)
    assert tuple(densify(r, cols) for r in got_rows) == tuple(ref_rows[:rank_])
    assert_numerator_rows(got_rows, got_pivots)
    assert repr(given_rows) == given  # inputs left alone
    # the same basis grown one row at a time, and unit-vector membership
    basis = Echelon()
    assert sum(basis.add(r) is not None for r in given_rows) == rank_
    assert basis.numerator_rows == dict(zip(got_pivots, got_rows))
    assert [basis.spans_unit(k) for k in range(cols)] == [
        k in ref_pivots and numerator_row(ref_rows[ref_pivots.index(k)]) == (1, {k: 1}) for k in range(cols)
    ]
    # the integer rows as kept, by pivot: each over its pivot numerator
    assert tuple(basis.numerator_rows) == got_pivots
    for kept in (q.numerator_rows, tuple(basis.numerator_rows.values())):
        assert [fraction_row(r) for r in kept] == [fraction_row(numerator_row(r)) for r in ref_rows[:rank_]]
        assert_numerator_rows(kept, got_pivots)
    # the same rows over a random multiple of their denominators, with a
    # random sign and a zero numerator at a column they leave out, none of
    # which matters to the span
    numerator_rows = []
    for r in given_rows:
        d, nums = scaled_row(r, rng.randint(1, 3), rng.choice((-1, 1)))
        if len(nums) < cols:
            nums[rng.choice([j for j in range(cols) if j not in nums])] = 0
        numerator_rows.append((d, nums))
    scaled_given = repr(numerator_rows)
    scaled_q = build_quotient(cols, numerator_rows)
    assert (scaled_q.numerator_rows, scaled_q.pivots) == (got_rows, got_pivots)
    grown = Echelon()
    assert sum(grown.add(r) is not None for r in numerator_rows) == rank_
    assert grown.numerator_rows == basis.numerator_rows
    assert scaled_q == q
    assert repr(numerator_rows) == scaled_given  # inputs left alone
    for _ in range(3):
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 7)) if rng.random() < 0.4 else Fraction(0)
                  for _ in range(cols))
        out = list(v)
        for row, p in zip(ref_rows[:rank_], ref_pivots):
            f = out[p]
            out = [a - f * b for a, b in zip(out, row)]
        # reduction leaves entries at free columns only, which the coordinates read
        red = q.reduce_sparse(numerator_row(v))
        assert densify(red, cols) == tuple(out)
        assert set(red[1]) <= set(q.free_columns)
        assert_integers(red)
        numerator_coset = q.coset_coordinates(numerator_row(v))
        assert densify(numerator_coset, q.dim) == tuple(out[c] for c in q.free_columns)
        assert_integers(numerator_coset)
        assert (q.coordinates(numerator_row(v)) is None) == bool(red[1])
        # over twice its denominator: a vector outside the span is refused,
        # and the reduction and the coset coordinates are the same vectors
        doubled = scaled_row(numerator_row(v), 2)
        assert (q.coordinates(doubled) is None) == bool(red[1])
        assert densify(q.reduce_sparse(doubled), cols) == tuple(out)
        assert densify(q.coset_coordinates(doubled), q.dim) == densify(numerator_coset, q.dim)
        # a combination of the rows has that combination as coordinates
        lam = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(rank_)]
        combo = numerator_row([sum((s * row[j] for s, row in zip(lam, ref_rows)), Fraction(0)) for j in range(cols)])
        coords = q.coordinates(combo)
        assert fraction_row(coords) == {i: s for i, s in enumerate(lam) if s}
        assert_integers(coords)
        # and over the row's own denominator
        d, nums = scaled_row(combo, 3)
        assert q.coordinates((d, nums)) == (d, {i: int(s * d) for i, s in enumerate(lam) if s})
        x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(cols))
        for b in (apply(m, x), tuple(Fraction(rng.randint(-1, 1)) for _ in range(rows))):
            got = solve_rows(given_rows, cols, numerator_row(b))
            assert (None if got is None else densify(got, cols)) == dense_solve(m, b)
            if got is not None:
                assert_integers(got)
            # the same rows and right-hand side over twice their denominators
            assert solve_rows([scaled_row(r, 2) for r in given_rows], cols, scaled_row(numerator_row(b), 2)) == got


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


def fraction_rows(basis) -> dict:
    """The rows of an `Echelon` by pivot, each read as {column: Fraction}."""
    return {p: fraction_row(r) for p, r in basis.numerator_rows.items()}


def test_a_stale_column_in_the_index_is_skipped():
    # row 1 is listed under column 3; its entry there cancels when pivot 2
    # is cleared from it, so pivot 3 visits a stale entry and skips it
    basis = Echelon()
    assert basis.add((1, {0: 1, 2: 1})) == 0
    assert basis.add((1, {1: 1, 2: 1, 3: 1})) == 1
    assert basis.add((1, {2: 1, 3: 1})) == 2
    assert fraction_rows(basis) == {0: {0: 1, 3: -1}, 1: {1: 1}, 2: {2: 1, 3: 1}}
    # a non-unit pivot over a denominator lands on the stale column
    assert basis.add((3, {3: -2, 4: 3})) == 3
    f = Fraction
    expected = {0: {0: 1, 4: f(-3, 2)}, 1: {1: 1}, 2: {2: 1, 4: f(3, 2)}, 3: {3: 1, 4: f(-3, 2)}}
    assert fraction_rows(basis) == expected
    assert_numerator_rows(basis.numerator_rows.values(), basis.numerator_rows)
    m = DenseMatrix(4, 5, (vec([1, 0, 1, 0, 0]), vec([0, 1, 1, 1, 0]), vec([0, 0, 1, 1, 0]),
                           vec([0, 0, 0, "-2/3", 1])))
    ref_rows, ref_pivots = dense_rref(m)
    assert {p: densify(r, 5) for p, r in basis.numerator_rows.items()} == dict(zip(ref_pivots, ref_rows))
    assert basis.add((7, {4: 5})) == 4
    assert fraction_rows(basis) == {k: {k: 1} for k in range(5)}
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
    # Echelon.add takes integer numerators only: a float would be reduced in
    # float arithmetic, and an int would pass for a Fraction
    for bad in ({0: 0.5}, {0: 2}, {1: Fraction(1, 2), 0: 3}):
        basis = Echelon()
        basis.add((1, {2: 1}))
        with pytest.raises(ScalarTypeError, match="numerator row"):
            basis.add(bad)
        assert basis.numerator_rows == {2: (1, {2: 1})}
    # a numerator row is (d, {column: int}) with d a positive int: a bare
    # dict of ints above, d <= 0, a float or bool d, and a float or bool
    # numerator are refused by both front doors
    for bad in ((0, {0: 1}), (-1, {0: 1}), (1.0, {0: 1}), (True, {0: 1}), (1, {0: 0.5}), (1, {0: True}),
                (1, {0: 1, 1: Fraction(1)}), (1, [(0, 1)]), (1, {0: 1}, 2)):
        basis = Echelon()
        basis.add((1, {2: 1}))
        with pytest.raises(ScalarTypeError, match="numerator row"):
            basis.add(bad)
        assert basis.numerator_rows == {2: (1, {2: 1})}
        with pytest.raises(ScalarTypeError, match="numerator row"):
            build_quotient(3, [bad])
    # a sparse row of Fractions, the shape the kernel no longer takes, is
    # refused at every entry point, as a row, a vector or a right-hand side,
    # and leaves the basis it was offered to unchanged
    for fractions in ({0: Fraction(1, 2), 2: Fraction(1)}, {1: Fraction(3)}, {}):
        basis = Echelon()
        basis.add((1, {2: 1}))
        q = build_quotient(3, [(1, {2: 1})])
        calls = {
            "Echelon.add": lambda: basis.add(fractions),
            "build_quotient": lambda: build_quotient(3, [(1, {0: 1}), fractions]),
            "solve_rows, a row": lambda: solve_rows([(1, {0: 1}), fractions], 3, (1, {0: 1})),
            "solve_rows, the right-hand side": lambda: solve_rows([(1, {0: 1}), (1, {2: 1})], 3, fractions),
            "coordinates": lambda: q.coordinates(fractions),
            "reduce_sparse": lambda: q.reduce_sparse(fractions),
            "coset_coordinates": lambda: q.coset_coordinates(fractions),
        }
        for name, call in calls.items():
            with pytest.raises(ScalarTypeError, match="numerator row"):
                call()
                pytest.fail(f"{name} accepted {fractions!r}")
            assert basis.numerator_rows == {2: (1, {2: 1})}, name
            assert (q.numerator_rows, q.free_columns) == (((1, {2: 1}),), (0, 1)), name
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
    assert densify(solve_rows([(1, {0: 3})], 1, numerator_row(vec([1]))), 1) == (Fraction(1, 3),)
    assert rref(DenseMatrix(2, 2, (vec([2, 1]), vec([1, 1])))) == (((1, {0: 1}), (1, {1: 1})), (0, 1))
    q = build_quotient(2, [as_numerators({0: Fraction(2), 1: Fraction(1)})])
    assert tuple(map(fraction_row, q.numerator_rows)) == ({0: Fraction(1), 1: Fraction(1, 2)},)
