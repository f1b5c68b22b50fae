"""The universal differential envelope of a category, chain model.

`universal_tables` computes the bases, the differential and the integer
product blocks of the universal envelope inside "chain" spaces;
`lincat.dg.universal_dg` builds the envelope from them.  A degree-n
chain from x to y strings n+1 basis arrows along a walk of n interior
objects through nonzero hom spaces; in degree 0 it is a basis arrow.
The product is the middle merge (compose the arrows that meet), and the
differential of an arrow is d(b) = 1.b - b.1.  One span rule gives
every basis: degree 0 has the unit rows, and degree n >= 1 is the span
of the products omega.db, over the degree-(n-1) basis rows omega and
the basis arrows b.  So degree 1 is span{a.db}, the kernel of the
composition map, and degree n is the degree-(n-1) forms times dC.

The chain spaces are normalized, as in the bar model C (x) Cbar^(x)n
with Cbar = C modulo the identities (Cuntz-Quillen, J. AMS 8 (1995),
section 1; Loday, Cyclic Homology, sections 1.1 and 2.6): a chain with
an identity basis arrow in a differential slot (every slot but the
first) is never built, and a term of a product or of d(b) that lands on
one is dropped.  Where every identity is a basis arrow, a0.da1...dan is
the kept chain a0 (x) a1 (x) ... (x) an plus dropped chains, and a
dropped chain times db is a sum of dropped chains, so the forms multiply
exactly on the kept chains and each kept chain is its own basis row: two
in each degree of the dual numbers, of 2^(n+1) chains.  An identity off
the basis (M_n) drops no chain, nor does that of an object w from which
a walk reaches one: a.1_w.db = a.1_w.b - a.b.1_y, for b from w to y,
would leave the terms of 1_y on kept chains.

The walk ends where the forms end.  Every degree is checked against the
path count, dim(n, x, y) = sum over w of dim(n-1, x, w) *
(dim hom(w, y) - [w = y]), so a degree whose forms are all zero has
none above it, and a product of two nonzero factor spaces has forms in
its total degree.  So the chain spaces are grown one degree at a time
(`_Chains.grow`), and the walk and the tables stop after the first
degree without forms: for a category whose non-identity arrows cannot
be chained past length k (a poset, an acyclic quiver), no chain space
above degree k + 1 is built, whatever the truncation.

Each basis is the reduced echelon basis of its span in a fixed column
order, which is unique for the span, so the tables are reproducible.
Chain vectors are `NumeratorRow`s, (d, {chain: int}), multiplied over
the category's integer product blocks; each basis is read off the
integer rows of its span (`QuotientSpace.numerator_rows`), and no
coefficient becomes a `Fraction` while the tables are built.

The span is the only place where chains are multiplied.  Its products
give the right multiplications by db (the coordinates of every spanning
product omega.db in the degree-n basis) and an expression of every
degree-n basis row as an integer combination of spanning products; the
chain vectors are dropped after them.  The tables then follow by
linearity from three rules, in the envelope of a category (associative,
with units):

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
  space, and must leave nothing (`QuotientSpace.coordinates`), and every
  expression is substituted back in coordinates, which with the former
  makes it an identity of chain vectors; the entries follow from these
  identities and the rules in exact arithmetic;
* the tests pin the table digests of six envelopes, and compare the
  tables of more with a direct fill (one chain merge and reduction per
  pair of basis forms, in `Fraction`s, over every chain) that they keep
  as an oracle.

The contraction sums Python ints over one denominator per block, in the
manner of `lincat.form_matrix.ProductAccumulator`, starting from the
category's own blocks (`Category.integral_comp`).  Those integer blocks,
and those of the differential, are the one store of `DGCategory`, which
the checked constructor fills too: no table is kept as `Fraction`s.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .category import Category
from .errors import LincatError
from .exact_linalg import Echelon, IntRow, NumeratorRow, build_quotient, cut_rows, over_one

# sparse vectors over one denominator: (D, rows), where rows holds, nested
# by the block's indices, tuples of (key, n) pairs, n / D the coefficient at key
IntBlock = tuple[int, list]


class _ChainSpace:
    """The kept degree-n chains for one endpoint pair: a basis of the normalized bar model.

    A chain is (interior objects, arrow basis indices): n interior
    objects, from the given walks, and n+1 arrows strung from x to y
    through them.  Only the chains with no identity named in `unit` in a
    differential slot are built, over the interiors, then row-major in
    the arrow indices; every reduced basis is taken in this order.  Where
    every identity is a basis arrow, a0.da1...dan is the kept chain
    a0 (x) ... (x) an plus dropped chains, so each kept chain is its own
    basis row (Cuntz-Quillen, section 1; Loday, sections 1.1 and 2.6).
    In degree 0 the chains are ((), (k,)) in order: chain k is arrow k.
    """

    def __init__(self, c: Category, x: int, y: int, interiors: list[tuple[int, ...]], unit: dict[int, int]):
        self.elems: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for interior in interiors:
            path = (x,) + interior + (y,)
            slots = [[k for k in range(c.dim(a, b)) if not (i and a == b and unit.get(a) == k)]
                     for i, (a, b) in enumerate(itertools.pairwise(path))]
            self.elems += ((interior, arrows) for arrows in itertools.product(*slots))
        self.pos = {e: k for k, e in enumerate(self.elems)}

    @property
    def dim(self) -> int:
        return len(self.elems)


class _Chains:
    """The chain spaces of a category from degree 0 up, with their product and the differential of an arrow.

    `_Chains(c)` holds degrees 0 and 1, where d(b) lies; `grow` adds the
    next one, when the universal builder's span walk reaches it.
    """

    def __init__(self, c: Category):
        self.c = c
        # the basis arrow that is an object's identity, where there is one
        self.unit = {x: nums[0][0] for x, (den, nums) in c.identity.items() if len(nums) == 1 and nums[0][1] == den}
        # the identities that drop chains: those of the objects from which no
        # walk reaches an identity that is not a basis arrow (module docstring)
        objects = range(len(c.objects))
        reach = {x for x in objects if x not in self.unit}
        while more := {x for x in objects if x not in reach and any(c.dim(x, y) for y in reach)}:
            reach |= more
        self.dropped = {x: k for x, k in self.unit.items() if x not in reach}
        # the category's products over one denominator per block, and their lcm
        self.products: dict[tuple[int, int, int], IntBlock] = c.integral_comp
        self.den = lcm(*(den for den, _ in self.products.values()))
        self.labels = {(x, y): c.basis_labels(x, y) for x in objects for y in objects}
        self.spaces: dict[tuple[int, int, int], _ChainSpace] = {}
        self.top = -1
        self._interiors: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.grow()
        self.grow()

    def grow(self) -> None:
        """Add the chain spaces of degree top + 1, found by a walk.

        Degree 0 has the empty interior wherever hom(x, y) is nonzero;
        the degree-n interiors from x to y extend the degree-(n-1)
        interiors from each z to y by one nonzero hom (x, z).
        """
        c, objects, below = self.c, range(len(self.c.objects)), self._interiors
        self.top += 1
        if self.top == 0:
            self._interiors = {(x, y): [()] for x in objects for y in objects if c.dim(x, y)}
        else:
            self._interiors = {(x, y): [(z,) + t for z in objects if c.dim(x, z) for t in below.get((z, y), ())]
                               for x in objects for y in objects}
        for x in objects:
            for y in objects:
                self.spaces[(self.top, x, y)] = _ChainSpace(c, x, y, self._interiors.get((x, y), []), self.dropped)

    def merge(self, p: int, q: int, x: int, y: int, z: int, u: NumeratorRow, v: NumeratorRow) -> NumeratorRow:
        """Chain-level product of a degree-p (x,y) and a degree-q (y,z) numerator row, over du * dv * `den`.

        The arrows that meet are multiplied in the category's integer
        blocks (`products`), each scaled up to their lcm `den`; a term on
        a dropped chain is left out.
        """
        products, den = self.products, self.den
        u_elems, v_elems = self.spaces[(p, x, y)].elems, self.spaces[(q, y, z)].elems
        out_pos = self.spaces[(p + q, x, z)].pos
        (du, u_nums), (dv, v_nums) = u, v
        out: IntRow = {}
        for ui, uc in u_nums.items():
            u_int, u_arr = u_elems[ui]
            u_last_src, head, last = u_int[-1] if u_int else x, u_arr[:-1], u_arr[-1]
            for vi, vc in v_nums.items():
                v_int, v_arr = v_elems[vi]
                block_den, rows = products[(u_last_src, y, v_int[0] if v_int else z)]
                m = uc * vc if block_den == den else uc * vc * (den // block_den)
                interior, tail = u_int + v_int, v_arr[1:]
                for k, s in rows[last][v_arr[0]]:
                    key = out_pos.get((interior, head + (k,) + tail))
                    if key is not None:
                        out[key] = out.get(key, 0) + m * s
        return du * dv * den, {k: n for k, n in out.items() if n}

    def d_arrow(self, x: int, y: int, b: int) -> NumeratorRow:
        """d of basis arrow b at (x, y), a numerator row on the kept degree-1 chains: 1.b - b.1."""
        (dx, ix), (dy, iy) = self.c.identity[x], self.c.identity[y]
        den, pos = lcm(dx, dy), self.spaces[(1, x, y)].pos
        terms = [(((x,), (k, b)), n * (den // dx)) for k, n in ix] + [(((y,), (b, k)), -n * (den // dy)) for k, n in iy]
        out: IntRow = {}
        for chain, n in terms:
            if chain in pos:
                out[pos[chain]] = out.get(pos[chain], 0) + n
        return den, {k: n for k, n in out.items() if n}

    def label(self, n: int, x: int, y: int, pivot: int) -> str:
        """A basis row named by its pivot chain: a0.da1...dan, with an identity head elided."""
        labels = self.labels
        interior, arrows = self.spaces[(n, x, y)].elems[pivot]
        path = (x,) + interior + (y,)
        head_label = labels[(x, path[1])][arrows[0]]
        head_is_unit = x == path[1] and self.unit.get(x) == arrows[0]
        pieces = [] if head_is_unit else [head_label]
        for i in range(1, len(arrows)):
            pieces.append("d" + labels[(path[i], path[i + 1])][arrows[i]])
        return ".".join(pieces) if pieces else head_label


def _expressions(coords: list[NumeratorRow], dim: int) -> list[NumeratorRow]:
    """Each basis row k as a combination (d, {j: n}) of spanning products, given their coordinates.

    A row that is a multiple of one spanning product is written as the
    first such product.  The other rows come from one augmented
    elimination: the remaining products, reduced modulo those multiples,
    are picked while they are independent, and the echelon basis of the
    picked rows, augmented by the unit vector of each product, reads off
    the combinations.  All of it runs over integers, each augmented row
    over a scale of its own, and every combination is substituted back.
    """
    first: dict[int, tuple[int, int, int]] = {}  # k -> (j, D, n): product j is n / D times row k
    for j, (den, v) in enumerate(coords):
        if len(v) == 1:
            ((k, n),) = v.items()
            first.setdefault(k, (j, den, n))
    out: dict[int, NumeratorRow] = {k: (abs(n), {j: den if n > 0 else -den}) for k, (j, den, n) in first.items()}
    missing = dim - len(first)
    if missing:
        picked, augmented = Echelon(), Echelon()
        for j, (den, v) in enumerate(coords):
            rest = {k: n for k, n in v.items() if k not in first}
            if not rest or picked.add((1, rest)) is None:
                continue
            # den * t times product j less, for each row k it shares with a
            # multiple h, its part there: with t the lcm of those multiples'
            # numerators, so every entry is an integer
            shared = [(k, n) for k, n in v.items() if k in first]
            t = lcm(*(first[k][2] for k, _ in shared))
            row = {k: n * t for k, n in rest.items()}
            row[dim + j] = den * t
            for k, n in shared:
                h, h_den, h_n = first[k]
                row[dim + h] = row.get(dim + h, 0) - n * h_den * (t // h_n)
            augmented.add((1, row))
            missing -= 1
            if not missing:
                break
        for k, (d, row) in augmented.numerator_rows.items():
            if k < dim:
                out[k] = d, {col - dim: n for col, n in row.items() if col >= dim}
    for k in range(dim):
        d, lam = out.get(k, (1, {}))
        common = lcm(*(coords[j][0] for j in lam))
        check: IntRow = {}
        for j, n in lam.items():
            den, v = coords[j]
            n *= common // den
            for m, s in v.items():
                check[m] = check.get(m, 0) + n * s
        if {m: s for m, s in check.items() if s} != {k: d * common}:
            raise LincatError(f"universal builder: basis row {k} is not a combination of spanning products")
    return [out[k] for k in range(dim)]


def _settled(den: int, sums: list) -> IntBlock:
    """Integer sums over `den` as a block: sorted, nonzero and over the lcm of their denominators.

    The common factor of den and all entries is cancelled, so the block
    is the one `integral_terms` makes of the same entries.
    """
    rows = tuple([tuple(s.items()) if len(s) < 2 and 0 not in s.values() else
                  tuple(sorted(s.items() if 0 not in s.values() else [(k, n) for k, n in s.items() if n]))
                  for s in sums])
    if den != 1 and (g := gcd(den, *itertools.chain.from_iterable(map(dict.values, sums)))) != 1:
        den //= g
        rows = tuple([tuple([(k, n // g) for k, n in r]) for r in rows])
    return den, rows


def universal_tables(c: Category, truncation: int) -> tuple[dict, dict, dict]:
    """The tables (gr_basis, blocks, diff) of the universal envelope of `c`.

    Degree 0 has the unit rows as basis, and every degree n >= 1, up to
    `truncation`, is the reduced echelon span of the products omega.db,
    until the first degree whose forms are all zero, above which no
    degree holds forms and no product has two nonzero factors.  The
    products and differentials of basis forms follow from the
    coordinates of those spanning products by the three rules of the
    module docstring.  gr_basis is in the input format of `DGCategory`;
    blocks holds every product block, those of the category included,
    by (p, q, x, y, z), as `DGCategory.integral_products` hands them out,
    and diff every block of the differential out of a degree below the
    truncation, by (n, x, y), as `DGCategory.integral_diff` does.  The
    rules hold in a category only: `c` must pass `validate_category`,
    which `lincat.dg.universal_dg` checks first.
    """
    gr_basis, dims, right, expr = _spans(c, truncation)
    return gr_basis, *_derived_tables(c, max(gr_basis), dims, right, expr)


def _spans(c: Category, N: int) -> tuple[dict, dict, dict, dict]:
    """The bases of the degrees 1..N the walk reaches, from the span rule, and what the tables need of their spans.

    Returns gr_basis, the dimensions by (n, x, y), and the blocks `right`
    and `expr` described below, up to the first degree whose forms are
    all zero (or N).  The chain spaces of a degree are built when the
    walk reaches it, and its chain vectors are dropped once the next
    degree has taken its products.
    """
    objects = range(len(c.objects))
    pairs = [(x, y) for x in objects for y in objects]
    chains = _Chains(c)
    dims = {(0, x, y): c.dim(x, y) for x, y in pairs}

    # right[(n, x, w, y)]: the degree-n coordinates of omega.db, for the
    # degree-(n-1) basis row omega at (x, w) and the arrow b at (w, y), rows[i][b];
    # expr[(n, x, y)]: degree-n basis row k as the (w, i, b, coefficient) terms
    # of a combination of those products, rows[k]
    right: dict[tuple[int, int, int, int], IntBlock] = {}
    expr: dict[tuple[int, int, int], IntBlock] = {}
    gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}

    # one span rule: the unit rows in degree 0, the span of omega.db above;
    # each degree keeps the chain rows of the degree below only, as the
    # integer rows of its span
    basis = {(x, y): [(1, {k: 1}) for k in range(c.dim(x, y))] for x, y in pairs}
    d_arrow = {(w, y): [chains.d_arrow(w, y, b) for b in range(c.dim(w, y))] for w, y in pairs}
    for n in range(1, N + 1):
        if n > chains.top:
            chains.grow()
        level, grown = {}, {}
        for x, y in pairs:
            # the path count: the first step of a path spans its hom space,
            # every later step the hom space without its identity
            expected = sum(dims[(n - 1, x, w)] * (c.dim(w, y) - (w == y)) for w in objects)
            span = [(w, i, b, chains.merge(n - 1, 1, x, w, y, omega, db))
                    for w in objects for i, omega in enumerate(basis[(x, w)]) for b, db in enumerate(d_arrow[(w, y)])]
            sub = build_quotient(chains.spaces[(n, x, y)].dim, [v for *_, v in span])
            dim = dims[(n, x, y)] = sub.subspace_dim
            if dim != expected:
                raise LincatError(
                    f"universal builder: degree-{n} space at ({c.objects[x].label},"
                    f"{c.objects[y].label}) has dimension {dim}, the path-count formula gives {expected}"
                )
            coords = [sub.coordinates(v) for *_, v in span]
            if None in coords:
                raise LincatError("universal builder: vector left the expected span")
            start = 0
            for w in objects:
                size = dims[(n - 1, x, w)] * c.dim(w, y)
                den, flat = over_one(coords[start:start + size])
                right[(n, x, w, y)] = den, cut_rows(flat, c.dim(w, y))
                start += size
            expr[(n, x, y)] = over_one([(d, {span[j][:3]: lam for j, lam in e.items()})
                                         for d, e in _expressions(coords, dim)])
            grown[(x, y)] = sub.numerator_rows
            if dim:
                names = tuple(chains.label(n, x, y, p) for p in sub.pivots)
                if len(set(names)) != len(names):
                    raise LincatError(
                        f"degree-{n} basis labels collide at ({c.objects[x].label},"
                        f"{c.objects[y].label}); rename arrows that start with 'd'"
                    )
                level[(x, y)] = names
        gr_basis[n] = level
        if not level:
            break
        basis = grown
    return gr_basis, dims, right, expr


def _derived_tables(c: Category, top: int, dims: dict, right: dict, expr: dict) -> tuple[dict, dict]:
    """The integer product and differential blocks of the envelope, by the three rules.

    `dims`, `right` and `expr` are those of `_spans`, and `top` the last
    degree it walked, above which no product has two nonzero factors.
    The blocks of one total degree are made from those of the degree
    below, over one denominator each, and all of them are kept.
    """
    objects, base = range(len(c.objects)), c.integral_comp

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
        return den, tuple(cut_rows(flat, c.dim(y, z)))

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
        return den, tuple(cut_rows(flat, dims[(q, y, z)]))

    def d_out(n: int, x: int, y: int, below: dict) -> IntBlock:
        """d out of degree n: d(a) = 1.da, and d(omega.db) = d(omega).db."""
        if n == 0:
            # 1.da is the sum of s * (e_k.da) over the identity's terms (k, s)
            (i_den, unit), (r_den, r_xy) = c.identity[x], right[(1, x, x, y)]
            return _settled(i_den * r_den, times_db([[(x, k, a, s) for k, s in unit] for a in range(c.dim(x, y))],
                                                    {x: [((k, 1),) for k in range(c.dim(x, x))]}, {x: r_xy}))
        dens, d_w, r_wy = {}, {}, {}
        for w in objects:
            if dims[(n - 1, x, w)] and c.dim(w, y):
                (dw_den, d_w[w]), (rw_den, r_wy[w]) = below[(x, w)], right[(n + 1, x, w, y)]
                dens[w] = dw_den * rw_den
        den, e_rows = scaled(expr[(n, x, y)], dens)
        return _settled(den, times_db(e_rows, d_w, r_wy))

    # every product block and every differential block out of degrees
    # 0..top-1, each over one denominator, by (p, q, x, y, z) and (n, x, y)
    blocks = {(0, 0, *key): block for key, block in base.items()}
    diff: dict[tuple[int, int, int], IntBlock] = {}
    d_below: dict[tuple[int, int], IntBlock] = {}  # differential blocks out of degree n-1
    for n in range(1, top + 1):
        # the differential out of degree n-1, through degree-n right multiplications
        d_level = {}
        for x in objects:
            for y in objects:
                if dims[(n - 1, x, y)]:
                    d_level[(x, y)] = diff[(n - 1, x, y)] = d_out(n - 1, x, y, d_below)
        d_below = d_level
        # the products of total degree n
        for p in range(n, -1, -1):
            q = n - p
            for x in objects:
                for y in objects:
                    if not dims[(p, x, y)]:
                        continue
                    for z in objects:
                        if dims[(q, y, z)]:
                            blocks[(p, q, x, y, z)] = (
                                times_forms(p, q, x, y, z, blocks) if q else times_arrows(p, x, y, z, blocks))
    return blocks, diff
