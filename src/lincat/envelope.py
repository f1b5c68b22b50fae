"""The universal differential envelope of a category, chain model.

`universal_tables` computes the tables of the universal envelope
concretely inside "chain" spaces, in the sparse input format of
`DGCategory`; `lincat.dg.universal_dg` builds the envelope from them.
The degree-n chain space for the endpoint pair (x, y) is the direct
sum, over the length-n interior object paths whose steps are all
nonzero hom spaces, of tensor products of the n+1 hom spaces strung
along the path; degree 0 is the hom space itself.  Inside it:

* the product is the middle merge: compose the arrows that meet;
* the differential is the alternating sum of identity insertions, which
  on degree 0 reduces to d(f) = 1.f - f.1;
* one span rule gives every basis: degree 0 has the unit rows, and
  degree n >= 1 is the span of the products omega.db, over the
  degree-(n-1) basis rows omega and the basis arrows b.  So degree 1 is
  span{a.db}, the kernel of the composition map, and degree n is the
  degree-(n-1) forms times dC.

Each basis is the reduced echelon basis of its span in a fixed column
order, which is unique for the span, so composition tensors and
differentials are reproducible.  The chain vectors are sparse maps, and
their spans go to the elimination kernel `echelon` as they are.

The span is the only place where chains are multiplied.  Its products
give two things, and the chain vectors are dropped after them:

* the right multiplications by db: the coordinates of every spanning
  product omega.db in the degree-n basis;
* an expression of every degree-n basis row as a combination of
  spanning products.  A row that is a multiple of one product is
  written as that product; the other rows come from one augmented
  elimination over the remaining products.

The tables then follow by linearity from three rules, in the envelope
of a category (associative, with units):

1. u.(omega.db) = (u.omega).db, so the product block (p, q), q >= 1, is
   block (p, q-1) followed by the right multiplications;
2. (omega.db).a = omega.d(ba) - (omega.b).da, so block (p, 0) is block
   (p-1, 0) together with the right multiplications;
3. d(a) = 1.da and d(omega.db) = d(omega).db, so the differential out of
   degree n is that out of degree n-1 followed by them.

Each derived entry is covered by these checks:

* the rules hold in a category only, so `universal_dg` refuses a
  category that `validate_category` rejects (`CategoryAxiomError`)
  before any chain is built;
* every spanning product is reduced by the basis over the whole chain
  space, and must leave nothing (`_Subspace.coordinates`), so its
  coordinates are exact; every expression is substituted back in
  coordinates, which with the former makes it an identity of chain
  vectors; the entries follow from these identities and the rules in
  exact arithmetic;
* the tests pin the table digests of six envelopes, and compare the
  tables of more with a direct fill (one chain merge and reduction per
  pair of basis forms) that they keep as an oracle.

The contraction sums Python ints over one denominator per block, in
the manner of `lincat.form_matrix.ProductAccumulator`; each stored
coefficient becomes a `Fraction` once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .category import Category
from .errors import LincatError
from .exact_linalg import ONE, ZERO, Echelon, SparseRow, cut_rows, echelon, integral_terms, over_lcm, reduce_by

# sparse vectors over one denominator: (D, rows), where rows holds, nested
# by the block's indices, tuples of (key, n) pairs, n / D the coefficient at key
IntBlock = tuple[int, list]


class _ChainSpace:
    """Flat enumeration of the degree-n chains for one endpoint pair.

    A chain is (interior objects, arrow basis indices): n interior
    objects and n+1 arrows strung from x to y through them.  The
    interiors are the given walks through nonzero hom spaces.  The
    enumeration runs over them (lexicographic), then row-major in the
    arrow indices, and is then sorted, stably, by the number of
    differential slots (every slot but the first) that hold the
    identity arrow of their object: such a chain makes a poor pivot, so
    these come last.  Every reduced basis is taken in this column
    order, which makes it deterministic and puts pivots on clean
    monomials whenever possible.  A degree-0 chain has no differential
    slot, so in degree 0 the chains are ((), (k,)) in order, and chain k
    is basis arrow k.
    """

    def __init__(self, c: Category, x: int, y: int, interiors: list[tuple[int, ...]], unit: dict[int, int]):
        elems: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for interior in interiors:
            steps = itertools.pairwise((x,) + interior + (y,))
            elems += ((interior, arrows) for arrows in itertools.product(*(range(c.dim(a, b)) for a, b in steps)))

        def identities(elem) -> int:
            interior, arrows = elem
            path = (x,) + interior + (y,)
            return sum(1 for i in range(1, len(arrows)) if path[i] == path[i + 1] and unit.get(path[i]) == arrows[i])
        self.elems = sorted(elems, key=identities) if unit else elems
        self.pos = {e: k for k, e in enumerate(self.elems)}

    @property
    def dim(self) -> int:
        return len(self.elems)


class _Subspace:
    """A subspace of a chain space with a reduced-echelon basis.

    The basis rows are sparse maps over the chain space, reduced in its
    enumeration order (`_ChainSpace`); each is addressed by its pivot
    chain.
    """

    def __init__(self, space: _ChainSpace, spanning):
        self.rows, self.pivots = echelon(spanning, space.dim)
        self._row_at_pivot = dict(zip(self.pivots, self.rows))
        self._index = {p: i for i, p in enumerate(self.pivots)}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates(self, v: SparseRow) -> SparseRow:
        """Nonzero coordinates in the reduced basis; the vector must lie in the span.

        The vector lies in the span exactly when `reduce_by` leaves
        nothing of it, and then its coordinates are its entries at the
        pivots.
        """
        if reduce_by(v, self._row_at_pivot):
            raise LincatError("universal builder: vector left the expected span")
        index = self._index
        return {index[j]: s for j, s in v.items() if j in index}


class _Chains:
    """The chain spaces of a category in degrees 0..N, with their product and differential."""

    def __init__(self, c: Category, truncation: int):
        self.c = c
        objects = range(len(c.objects))
        # the basis arrow that is an object's identity, where there is one
        self.unit = {x: terms[0][0] for x, terms in c.identity.items() if len(terms) == 1 and terms[0][1] == 1}
        # chains by a walk: the degree-n interiors from x to y extend the
        # degree-(n-1) interiors from each z to y by one nonzero hom (x, z)
        self.spaces: dict[tuple[int, int, int], _ChainSpace] = {}
        for y in objects:
            tails = {x: [()] for x in objects if c.dim(x, y)}
            for n in range(truncation + 1):
                for x in objects:
                    self.spaces[(n, x, y)] = _ChainSpace(c, x, y, tails.get(x, []), self.unit)
                tails = {x: [(z,) + t for z in objects if c.dim(x, z) for t in tails.get(z, ())] for x in objects}

    def merge(self, p: int, q: int, x: int, y: int, z: int, u: SparseRow, v: SparseRow) -> SparseRow:
        """Chain-level product of a degree-p (x,y) vector and a degree-q (y,z) vector."""
        compose_basis = self.c.compose_basis
        u_elems, v_elems = self.spaces[(p, x, y)].elems, self.spaces[(q, y, z)].elems
        out_pos = self.spaces[(p + q, x, z)].pos
        out: SparseRow = {}
        for ui, uc in u.items():
            u_int, u_arr = u_elems[ui]
            u_last_src = u_int[-1] if u_int else x
            for vi, vc in v.items():
                v_int, v_arr = v_elems[vi]
                v_first_tgt = v_int[0] if v_int else z
                interior = u_int + v_int
                for k, s in compose_basis(u_last_src, y, v_first_tgt, u_arr[-1], v_arr[0]):
                    key = out_pos[(interior, u_arr[:-1] + (k,) + v_arr[1:])]
                    out[key] = out.get(key, ZERO) + uc * vc * s
        return {k: s for k, s in out.items() if s}

    def d(self, n: int, x: int, y: int, v: SparseRow) -> SparseRow:
        """The differential of a degree-n (x,y) vector: alternating identity insertion."""
        identity = self.c.identity
        src_elems, out_pos = self.spaces[(n, x, y)].elems, self.spaces[(n + 1, x, y)].pos
        out: SparseRow = {}
        for idx, s in v.items():
            interior, arrows = src_elems[idx]
            path = (x,) + interior + (y,)
            for ins in range(0, n + 2):
                sign = Fraction(-1 if ins % 2 else 1)
                obj = path[ins]
                new_interior = (path[:ins + 1] + (obj,) + path[ins + 1:])[1:n + 2]
                for k, idcoef in identity[obj]:
                    key = out_pos[(new_interior, arrows[:ins] + (k,) + arrows[ins:])]
                    out[key] = out.get(key, ZERO) + s * sign * idcoef
        return {k: s for k, s in out.items() if s}

    def label(self, n: int, x: int, y: int, pivot: int) -> str:
        """A basis row named by its pivot chain: a0.da1...dan, with an identity head elided."""
        c = self.c
        interior, arrows = self.spaces[(n, x, y)].elems[pivot]
        path = (x,) + interior + (y,)
        head_label = c.basis_labels(path[0], path[1])[arrows[0]]
        head_is_unit = path[0] == path[1] and self.unit.get(path[0]) == arrows[0]
        pieces = [] if head_is_unit else [head_label]
        for i in range(1, len(arrows)):
            pieces.append("d" + c.basis_labels(path[i], path[i + 1])[arrows[i]])
        return ".".join(pieces) if pieces else head_label


def _expressions(coords: list[SparseRow], dim: int) -> list[SparseRow]:
    """Each basis row k as a combination {j: lam} of spanning products, given their coordinates.

    A row that is a multiple of one spanning product is written as the
    first such product.  The other rows come from one augmented
    elimination: the remaining products, reduced modulo those multiples,
    are picked while they are independent, and the echelon basis of the
    picked rows, augmented by the unit vector of each product, reads off
    the combinations.  Every combination is substituted back in
    coordinates.
    """
    first: dict[int, tuple[int, Fraction]] = {}  # k -> (j, s): product j is s times row k
    for j, v in enumerate(coords):
        if len(v) == 1:
            ((k, s),) = v.items()
            first.setdefault(k, (j, s))
    out: dict[int, SparseRow] = {k: {j: 1 / s} for k, (j, s) in first.items()}
    missing = dim - len(first)
    if missing:
        picked, augmented = Echelon(), []
        for j, v in enumerate(coords):
            rest = {k: s for k, s in v.items() if k not in first}
            if not rest or picked.add(rest) is None:
                continue
            row = {**rest, dim + j: ONE}
            for k, s in v.items():
                if k in first:
                    h, t = first[k]
                    row[dim + h] = row.get(dim + h, ZERO) - s / t
            augmented.append(row)
            if len(augmented) == missing:
                break
        for r, k in zip(*echelon(augmented, dim + len(coords))):
            if k < dim:
                out[k] = {col - dim: s for col, s in r.items() if col >= dim}
    for k in range(dim):
        check: SparseRow = {}
        for j, lam in out.get(k, {}).items():
            for m, s in coords[j].items():
                check[m] = check.get(m, ZERO) + lam * s
        if {m: s for m, s in check.items() if s} != {k: ONE}:
            raise LincatError(f"universal builder: basis row {k} is not a combination of spanning products")
    return [out[k] for k in range(dim)]


def _settled(den: int, sums: list) -> IntBlock:
    """Integer sums over `den` as a block: zeros dropped, the common factor of all entries and den cancelled."""
    rows = [tuple((k, n) for k, n in s.items() if n) for s in sums]
    if den != 1:
        g = gcd(den, *(n for r in rows for _, n in r))
        if g != 1:
            den //= g
            rows = [tuple((k, n // g) for k, n in r) for r in rows]
    return den, rows


def universal_tables(c: Category, truncation: int) -> tuple[dict, dict, dict]:
    """The tables (gr_basis, gr_comp, diff) of the universal envelope of `c`.

    Degree 0 is the chain space of the arrows themselves, with the unit
    rows as basis.  Every degree n >= 1, up to `truncation`, is the
    reduced echelon span of the products omega.db, over the
    degree-(n-1) basis rows omega and the basis arrows b.  The products
    and differentials of basis forms follow from the coordinates of
    those spanning products by the three rules of the module docstring,
    in the sparse input format of `DGCategory`.  The rules hold in a
    category only: `c` must pass `validate_category`, which
    `lincat.dg.universal_dg` checks before it calls this.
    """
    gr_basis, dims, right, expr = _spans(c, truncation)
    return gr_basis, *_derived_tables(c, truncation, dims, right, expr)


def _spans(c: Category, N: int) -> tuple[dict, dict, dict, dict]:
    """The bases of every degree, from the span rule, and what the tables need of their spans.

    Returns gr_basis, the dimensions by (n, x, y), and the blocks
    `right` and `expr` described below.  The chain vectors of a degree
    are dropped once the next degree has taken its products.
    """
    objects = range(len(c.objects))
    pairs = [(x, y) for x in objects for y in objects]
    chains = _Chains(c, N)
    dims = {(0, x, y): c.dim(x, y) for x, y in pairs}

    # right[(n, x, w, y)]: the degree-n coordinates of omega.db, for the
    # degree-(n-1) basis row omega at (x, w) and the arrow b at (w, y), rows[i][b];
    # expr[(n, x, y)]: degree-n basis row k as the (w, i, b, coefficient) terms
    # of a combination of those products, rows[k]
    right: dict[tuple[int, int, int, int], IntBlock] = {}
    expr: dict[tuple[int, int, int], IntBlock] = {}
    gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}

    # one span rule: the unit rows in degree 0, the span of omega.db above;
    # each degree keeps the chain rows of the degree below only
    basis = {(x, y): [{k: ONE} for k in range(c.dim(x, y))] for x, y in pairs}
    d_arrow = {(w, y): [chains.d(0, w, y, {b: ONE}) for b in range(c.dim(w, y))] for w, y in pairs}
    for n in range(1, N + 1):
        level, grown = {}, {}
        for x, y in pairs:
            # the path count: the first step of a path spans its hom space,
            # every later step the hom space without its identity
            expected = sum(dims[(n - 1, x, w)] * (c.dim(w, y) - (w == y)) for w in objects)
            span = [(w, i, b, chains.merge(n - 1, 1, x, w, y, omega, db))
                    for w in objects for i, omega in enumerate(basis[(x, w)]) for b, db in enumerate(d_arrow[(w, y)])]
            sub = _Subspace(chains.spaces[(n, x, y)], (v for *_, v in span))
            dims[(n, x, y)] = sub.dim
            if sub.dim != expected:
                raise LincatError(
                    f"universal builder: degree-{n} space at ({c.objects[x].label},"
                    f"{c.objects[y].label}) has dimension {sub.dim}, the path-count formula gives {expected}"
                )
            coords = [sub.coordinates(v) for *_, v in span]
            start = 0
            for w in objects:
                size = dims[(n - 1, x, w)] * c.dim(w, y)
                den, flat = integral_terms(v.items() for v in coords[start:start + size])
                right[(n, x, w, y)] = den, cut_rows(flat, c.dim(w, y))
                start += size
            expr[(n, x, y)] = integral_terms(((span[j][:3], lam) for j, lam in e.items())
                                        for e in _expressions(coords, sub.dim))
            grown[(x, y)] = sub.rows
            if sub.dim:
                names = tuple(chains.label(n, x, y, p) for p in sub.pivots)
                if len(set(names)) != len(names):
                    raise LincatError(
                        f"degree-{n} basis labels collide at ({c.objects[x].label},"
                        f"{c.objects[y].label}); rename arrows that start with 'd'"
                    )
                level[(x, y)] = names
        gr_basis[n] = level
        basis = grown
    return gr_basis, dims, right, expr


class _Ints(dict):
    """Shared `Fraction`s of integers, made on first use."""

    def __missing__(self, n: int) -> Fraction:
        f = self[n] = Fraction(n)
        return f


def _derived_tables(c: Category, N: int, dims: dict, right: dict, expr: dict) -> tuple[dict, dict]:
    """gr_comp and diff of the envelope, by the three rules, from the spanning products.

    `dims`, `right` and `expr` are those of `_spans`.  The blocks of one
    total degree are made from those of the degree below, over one
    denominator each; the output holds one `Fraction` per stored
    coefficient, shared between equal integers.
    """
    objects = range(len(c.objects))
    ints = _Ints()

    def as_fractions(den: int, terms) -> dict[int, Fraction]:
        if den == 1:
            return {k: ints[n] for k, n in terms}
        return {k: Fraction(n, den) for k, n in terms}

    def scaled(e_block: IntBlock, dens: dict) -> IntBlock:
        """Expression terms (w, i, b, n) whose factors at w have denominator dens[w], over one denominator."""
        e_den, e_rows = e_block
        L = lcm(*dens.values())
        return e_den * L, [[(w, i, b, n * (L // dens[w])) for (w, i, b), n in ev] for ev in e_rows]

    def times_db(e_rows: list, vectors: dict, r_blocks: dict) -> list[dict[int, int]]:
        """For each expression, the sum of n * (vectors[w][i]).db over its terms (w, i, b, n)."""
        sums = []
        for ev in e_rows:
            acc: dict[int, int] = {}
            for w, i, b, n in ev:
                rw = r_blocks[w]
                for k, s in vectors[w][i]:
                    s *= n
                    for m, t in rw[k][b]:
                        acc[m] = acc.get(m, 0) + s * t
            sums.append(acc)
        return sums

    base: dict[tuple[int, int, int], IntBlock] = {}  # products of arrows
    for (x, y, z), block in c.comp.items():
        den, flat = integral_terms(terms for row in block for terms in row)
        base[(x, y, z)] = den, cut_rows(flat, c.dim(y, z))

    def times_arrows(p: int, x: int, y: int, z: int, below: dict) -> IntBlock:
        """Block (p, 0): (omega.db).a = omega.d(ba) - (omega.b).da."""
        e_den, e_rows = expr[(p, x, y)]
        r_den, r_yz = right[(p, x, y, z)]
        dens, arrows, r_wz, forms = {}, {}, {}, {}
        for w in objects:
            if dims[(p - 1, x, w)] and c.dim(w, y):
                (ba_den, arrows[w]), (rw_den, r_wz[w]) = base[(w, y, z)], right[(p, x, w, z)]
                f_den, forms[w] = below[(p - 1, 0, x, w, y)]
                dens[(w, 0)], dens[(w, 1)] = ba_den * rw_den, f_den * r_den
        L = lcm(*dens.values())
        scale = {key: L // d for key, d in dens.items()}
        sums = []
        for ev in e_rows:
            for a in range(c.dim(y, z)):
                acc: dict[int, int] = {}
                for (w, i, b), n in ev:
                    n0, rw = n * scale[(w, 0)], r_wz[w][i]
                    for k, s in arrows[w][b][a]:
                        s *= n0
                        for m, t in rw[k]:
                            acc[m] = acc.get(m, 0) + s * t
                    n1 = n * scale[(w, 1)]
                    for k, s in forms[w][i][b]:
                        s *= n1
                        for m, t in r_yz[k][a]:
                            acc[m] = acc.get(m, 0) - s * t
                sums.append(acc)
        den, flat = _settled(e_den * L, sums)
        return den, cut_rows(flat, c.dim(y, z))

    def times_forms(p: int, q: int, x: int, y: int, z: int, below: dict) -> IntBlock:
        """Block (p, q), q >= 1: u.(omega.db) = (u.omega).db."""
        dens, left, r_wz = {}, {}, {}
        for w in objects:
            if dims[(q - 1, y, w)] and c.dim(w, z):
                (l_den, left[w]), (rw_den, r_wz[w]) = below[(p, q - 1, x, y, w)], right[(p + q, x, w, z)]
                dens[w] = l_den * rw_den
        den, e_rows = scaled(expr[(q, y, z)], dens)
        sums = []
        for u in range(dims[(p, x, y)]):
            sums += times_db(e_rows, {w: rows[u] for w, rows in left.items()}, r_wz)
        den, flat = _settled(den, sums)
        return den, cut_rows(flat, dims[(q, y, z)])

    def d_out(n: int, x: int, y: int, below: dict) -> IntBlock:
        """d out of degree n: d(a) = 1.da, and d(omega.db) = d(omega).db."""
        if n == 0:
            # 1.da is the sum of s * (e_k.da) over the identity's terms (k, s)
            (i_den, unit), (r_den, r_xy) = over_lcm(c.identity[x]), right[(1, x, x, y)]
            return _settled(i_den * r_den, times_db([[(x, k, a, s) for k, s in unit] for a in range(c.dim(x, y))],
                                                    {x: [((k, 1),) for k in range(c.dim(x, x))]}, {x: r_xy}))
        dens, d_w, r_wy = {}, {}, {}
        for w in objects:
            if dims[(n - 1, x, w)] and c.dim(w, y):
                (dw_den, d_w[w]), (rw_den, r_wy[w]) = below[(x, w)], right[(n + 1, x, w, y)]
                dens[w] = dw_den * rw_den
        den, e_rows = scaled(expr[(n, x, y)], dens)
        return _settled(den, times_db(e_rows, d_w, r_wy))

    gr_comp: dict[tuple[int, int], dict] = {}
    diff: dict[int, dict] = {}
    below = {(0, 0, x, y, z): block for (x, y, z), block in base.items()}  # product blocks, total degree n-1
    d_below: dict[tuple[int, int], IntBlock] = {}  # differential blocks out of degree n-1
    for n in range(1, N + 1):
        # the differential out of degree n-1, through degree-n right multiplications
        level = diff[n - 1] = {}
        d_level = {}
        for x in objects:
            for y in objects:
                columns = level[(x, y)] = {}
                if dims[(n - 1, x, y)]:
                    den, rows = d_level[(x, y)] = d_out(n - 1, x, y, d_below)
                    for j, terms in enumerate(rows):
                        if terms:
                            columns[j] = as_fractions(den, terms)
        d_below = d_level
        # the products of total degree n
        blocks = {}
        for p in range(n, -1, -1):
            q = n - p
            table = gr_comp[(p, q)] = {}
            for x in objects:
                for y in objects:
                    if not dims[(p, x, y)]:
                        continue
                    for z in objects:
                        if not dims[(q, y, z)]:
                            continue
                        if q:
                            den, rows = times_forms(p, q, x, y, z, below)
                        else:
                            den, rows = times_arrows(p, x, y, z, below)
                        if n < N:  # the top degree is the last one derived
                            blocks[(p, q, x, y, z)] = den, rows
                        table[(x, y, z)] = {(i, j): as_fractions(den, terms)
                                            for i, row in enumerate(rows) for j, terms in enumerate(row) if terms}
        below = blocks
    return gr_comp, diff
