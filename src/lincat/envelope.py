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
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .category import Category
from .errors import LincatError
from .exact_linalg import ONE, ZERO, SparseRow, echelon


class _ChainSpace:
    """Flat enumeration of the degree-n chains for one endpoint pair.

    A chain is (interior objects, arrow basis indices): n interior
    objects and n+1 arrows strung from x to y through them.  The
    interiors are the given walks through nonzero hom spaces; flat order
    is theirs (lexicographic), then row-major in the arrow indices, which
    makes every reduced basis deterministic.  In degree 0 the chains are
    ((), (k,)), so chain k is basis arrow k.
    """

    def __init__(self, c: Category, x: int, y: int, interiors: list[tuple[int, ...]]):
        self.x, self.y = x, y
        self.elems: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for interior in interiors:
            steps = itertools.pairwise((x,) + interior + (y,))
            self.elems += ((interior, arrows) for arrows in itertools.product(*(range(c.dim(a, b)) for a, b in steps)))
        self.pos = {e: k for k, e in enumerate(self.elems)}

    @property
    def dim(self) -> int:
        return len(self.elems)


class _Subspace:
    """A subspace of a chain space with a reduced-echelon basis.

    Reduction runs in a preferred column order (chains free of identity
    arrows in differential slots first), so pivots land on clean
    monomials whenever possible; rows are stored back in the natural
    chain order, as sparse maps.  Each basis row is addressed by its
    pivot chain.
    """

    def __init__(self, space: _ChainSpace, spanning, order: tuple[int, ...]):
        position = [0] * space.dim
        for pos, j in enumerate(order):
            position[j] = pos
        rows, pivots = echelon(({position[j]: s for j, s in r.items()} for r in spanning), space.dim)
        self.rows: tuple[SparseRow, ...] = tuple({order[k]: s for k, s in r.items()} for r in rows)
        self.pivots = tuple(order[k] for k in pivots)
        self._index = {p: i for i, p in enumerate(self.pivots)}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates(self, v: SparseRow) -> SparseRow:
        """Nonzero coordinates in the reduced basis; the vector must lie in the span.

        `v` holds nonzero entries only.  The coordinates are read off at
        the pivots and substituted back over the whole chain space.
        """
        index = self._index
        coords = {index[j]: s for j, s in v.items() if j in index}
        check: SparseRow = {}
        for i, s in coords.items():
            for j, y in self.rows[i].items():
                check[j] = check.get(j, ZERO) + s * y
        if {j: x for j, x in check.items() if x} != v:
            raise LincatError("universal builder: vector left the expected span")
        return coords


def universal_tables(c: Category, truncation: int) -> tuple[dict, dict, dict]:
    """The tables (gr_basis, gr_comp, diff) of the universal envelope of `c`.

    Degree 0 is the chain space of the arrows themselves, with the unit
    rows as basis.  Every degree n >= 1, up to `truncation`, is the
    reduced echelon span of the products omega.db, over the
    degree-(n-1) basis rows omega and the basis arrows b.  Products and
    differentials of basis forms are read off as the sparse coordinates
    of chain vectors in the reduced bases (each re-checked by
    substitution), in the sparse input format of `DGCategory`.
    """
    N = truncation
    nobj = len(c.objects)
    objects = range(nobj)

    # chains by a walk: the degree-n interiors from x to y extend the
    # degree-(n-1) interiors from each z to y by one nonzero hom (x, z)
    spaces: dict[tuple[int, int, int], _ChainSpace] = {}
    for y in objects:
        tails = {x: [()] for x in objects if c.dim(x, y)}
        for n in range(N + 1):
            for x in objects:
                spaces[(n, x, y)] = _ChainSpace(c, x, y, tails.get(x, []))
            tails = {x: [(z,) + t for z in objects if c.dim(x, z) for t in tails.get(z, ())] for x in objects}

    def is_identity_arrow(x: int, k: int) -> bool:
        return c.identity[x] == ((k, ONE),)

    def chain_order(space: _ChainSpace) -> tuple[int, ...]:
        # identity arrows in differential slots make a chain a poor pivot
        def badness(elem) -> int:
            interior, arrows = elem
            path = (space.x,) + interior + (space.y,)
            return sum(
                1 for i in range(1, len(arrows))
                if path[i] == path[i + 1] and is_identity_arrow(path[i], arrows[i])
            )
        return tuple(sorted(range(space.dim), key=lambda k: (badness(space.elems[k]), k)))

    def merge_vectors(p: int, q: int, x: int, y: int, z: int, u: SparseRow, v: SparseRow) -> SparseRow:
        """Chain-level product of a degree-p (x,y) vector and a degree-q (y,z) vector."""
        u_elems, v_elems = spaces[(p, x, y)].elems, spaces[(q, y, z)].elems
        out_pos = spaces[(p + q, x, z)].pos
        out: SparseRow = {}
        for ui, uc in u.items():
            u_int, u_arr = u_elems[ui]
            u_last_src = u_int[-1] if u_int else x
            for vi, vc in v.items():
                v_int, v_arr = v_elems[vi]
                v_first_tgt = v_int[0] if v_int else z
                interior = u_int + v_int
                for k, s in c.compose_basis(u_last_src, y, v_first_tgt, u_arr[-1], v_arr[0]):
                    key = out_pos[(interior, u_arr[:-1] + (k,) + v_arr[1:])]
                    out[key] = out.get(key, ZERO) + uc * vc * s
        return {k: s for k, s in out.items() if s}

    # the differential: alternating identity insertion on chain terms
    def d_of_chain_vector(n: int, x: int, y: int, v: SparseRow) -> SparseRow:
        src_elems, out_pos = spaces[(n, x, y)].elems, spaces[(n + 1, x, y)].pos
        out: SparseRow = {}
        for idx, s in v.items():
            interior, arrows = src_elems[idx]
            path = (x,) + interior + (y,)
            for ins in range(0, n + 2):
                sign = Fraction(-1 if ins % 2 else 1)
                obj = path[ins]
                new_interior = (path[:ins + 1] + (obj,) + path[ins + 1:])[1:n + 2]
                for k, idcoef in c.identity[obj]:
                    key = out_pos[(new_interior, arrows[:ins] + (k,) + arrows[ins:])]
                    out[key] = out.get(key, ZERO) + s * sign * idcoef
        return {k: s for k, s in out.items() if s}

    # one span rule: the unit rows in degree 0, the span of omega.db above
    sub: dict[tuple[int, int, int], _Subspace] = {}
    for x in objects:
        for y in objects:
            space = spaces[(0, x, y)]
            sub[(0, x, y)] = _Subspace(space, [{k: ONE} for k in range(space.dim)], chain_order(space))
    d_arrow = {(z, y): [d_of_chain_vector(0, z, y, {b: ONE}) for b in range(c.dim(z, y))]
               for z in objects for y in objects}
    for n in range(1, N + 1):
        for x in objects:
            for y in objects:
                span = (merge_vectors(n - 1, 1, x, z, y, omega, db)
                        for z in objects for omega in sub[(n - 1, x, z)].rows for db in d_arrow[(z, y)])
                sub[(n, x, y)] = _Subspace(spaces[(n, x, y)], span, chain_order(spaces[(n, x, y)]))

    # consistency check against the path count: the first step of a path
    # spans its hom space, every later step the hom space without its identity
    expected = {(x, y): c.dim(x, y) for x in objects for y in objects}
    for n in range(1, N + 1):
        expected = {(x, y): sum(expected[(x, z)] * (c.dim(z, y) - (z == y)) for z in objects)
                    for x in objects for y in objects}
        for (x, y), count in expected.items():
            built = sub[(n, x, y)].dim
            if built != count:
                raise LincatError(
                    f"universal builder: degree-{n} space at ({c.objects[x].label},"
                    f"{c.objects[y].label}) has dimension {built}, the path-count formula gives {count}"
                )

    # labels: each basis row is named by its pivot chain, rendered as a
    # product a0.da1...dan with an identity head elided
    def render_chain(x: int, y: int, elem: tuple[tuple[int, ...], tuple[int, ...]]) -> str:
        interior, arrows = elem
        path = (x,) + interior + (y,)
        head_label = c.basis_labels(path[0], path[1])[arrows[0]]
        head_is_unit = path[0] == path[1] and is_identity_arrow(path[0], arrows[0])
        pieces = [] if head_is_unit else [head_label]
        for i in range(1, len(arrows)):
            pieces.append("d" + c.basis_labels(path[i], path[i + 1])[arrows[i]])
        return ".".join(pieces) if pieces else head_label

    gr_basis: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
    for n in range(1, N + 1):
        level = {}
        for x in objects:
            for y in objects:
                s = sub[(n, x, y)]
                if s.dim:
                    names = tuple(render_chain(x, y, spaces[(n, x, y)].elems[p]) for p in s.pivots)
                    if len(set(names)) != len(names):
                        raise LincatError(
                            f"degree-{n} basis labels collide at ({c.objects[x].label},"
                            f"{c.objects[y].label}); rename arrows that start with 'd'"
                        )
                    level[(x, y)] = names
        gr_basis[n] = level

    # composition tensors
    gr_comp: dict[tuple[int, int], dict[tuple[int, int, int], dict[tuple[int, int], SparseRow]]] = {}
    for p in range(0, N + 1):
        for q in range(0, N + 1 - p):
            if p == 0 and q == 0:
                continue
            table: dict[tuple[int, int, int], dict[tuple[int, int], SparseRow]] = {}
            for x in objects:
                for y in objects:
                    left = sub[(p, x, y)].rows
                    if not left:
                        continue
                    for z in objects:
                        right = sub[(q, y, z)].rows
                        if not right:
                            continue
                        target = sub[(p + q, x, z)]
                        block = table[(x, y, z)] = {}
                        for i, uvec in enumerate(left):
                            for j, vvec in enumerate(right):
                                coords = target.coordinates(merge_vectors(p, q, x, y, z, uvec, vvec))
                                if coords:
                                    block[(i, j)] = coords
            gr_comp[(p, q)] = table

    diff: dict[int, dict[tuple[int, int], dict[int, SparseRow]]] = {}
    for n in range(0, N):
        level = diff[n] = {}
        for x in objects:
            for y in objects:
                target = sub[(n + 1, x, y)]
                columns = level[(x, y)] = {}
                for j, vv in enumerate(sub[(n, x, y)].rows):
                    coords = target.coordinates(d_of_chain_vector(n, x, y, vv))
                    if coords:
                        columns[j] = coords

    return gr_basis, gr_comp, diff
