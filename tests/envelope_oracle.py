"""The direct fill of the universal envelope's tables, as an oracle.

`direct_tables` builds the same bases as `lincat.envelope` (the chain
spaces and the span rule), then fills the product table and the
differential the direct way: one chain merge or identity insertion per
pair of basis forms, or per basis form, with its coordinates read off
after a reduction that must leave nothing.  It shares no table rule with
the builder, which derives both tables from the span's own products, and
no chain arithmetic either: only the enumeration of the chain spaces is
the builder's, and the merge and the insertion here are written in
`Fraction`s, straight from `law_oracle.compose_basis` and the identities,
where the builder's run over integer blocks.  So the two must agree
entry for entry.
"""

from fractions import Fraction

from lincat.envelope import _Chains
from lincat.errors import LincatError
from lincat.exact_linalg import ONE, ZERO, build_quotient

from conftest import as_numerators, fraction_row
from law_oracle import compose_basis, identity_terms


def _coordinates(target, v):
    """The coordinates of a chain vector in the basis of `target`, a span it must lie in."""
    coords = target.coordinates(as_numerators(v))
    if coords is None:
        raise LincatError("direct fill: vector left the expected span")
    return fraction_row(coords)


def rows(q):
    """The basis rows of a chain subspace as sparse rows of Fractions."""
    return [fraction_row(r) for r in q.numerator_rows]


def merge(chains, p, q, x, y, z, u, v):
    """Chain-level product of a degree-p (x,y) vector and a degree-q (y,z) vector, sparse rows of Fractions."""
    c = chains.c
    u_elems, v_elems = chains.spaces[(p, x, y)].elems, chains.spaces[(q, y, z)].elems
    out_pos = chains.spaces[(p + q, x, z)].pos
    out = {}
    for ui, uc in u.items():
        u_int, u_arr = u_elems[ui]
        u_last_src = u_int[-1] if u_int else x
        for vi, vc in v.items():
            v_int, v_arr = v_elems[vi]
            v_first_tgt = v_int[0] if v_int else z
            for k, s in compose_basis(c, u_last_src, y, v_first_tgt, u_arr[-1], v_arr[0]):
                key = out_pos[(u_int + v_int, u_arr[:-1] + (k,) + v_arr[1:])]
                out[key] = out.get(key, ZERO) + uc * vc * s
    return {k: s for k, s in out.items() if s}


def chain_d(chains, n, x, y, v):
    """The differential of a degree-n (x,y) sparse row of Fractions: alternating identity insertion."""
    identity = identity_terms(chains.c)
    src_elems, out_pos = chains.spaces[(n, x, y)].elems, chains.spaces[(n + 1, x, y)].pos
    out = {}
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


def direct_tables(c, truncation):
    """(gr_comp, diff) of the universal envelope of `c`, one chain vector per entry."""
    N = truncation
    objects = range(len(c.objects))
    chains = _Chains(c, N)
    sub = {}
    for x in objects:
        for y in objects:
            sub[(0, x, y)] = build_quotient(chains.spaces[(0, x, y)].dim, [(1, {k: 1}) for k in range(c.dim(x, y))])
    d_arrow = {(z, y): [chain_d(chains, 0, z, y, {b: ONE}) for b in range(c.dim(z, y))] for z in objects for y in objects}
    for n in range(1, N + 1):
        for x in objects:
            for y in objects:
                span = [merge(chains, n - 1, 1, x, z, y, omega, db)
                        for z in objects for omega in rows(sub[(n - 1, x, z)]) for db in d_arrow[(z, y)]]
                sub[(n, x, y)] = build_quotient(chains.spaces[(n, x, y)].dim, [as_numerators(v) for v in span])

    gr_comp = {}
    for p in range(0, N + 1):
        for q in range(0, N + 1 - p):
            if p == 0 and q == 0:
                continue
            table = gr_comp[(p, q)] = {}
            for x in objects:
                for y in objects:
                    left = rows(sub[(p, x, y)])
                    for z in objects:
                        right = rows(sub[(q, y, z)])
                        if not left or not right:
                            continue
                        target = sub[(p + q, x, z)]
                        block = table[(x, y, z)] = {}
                        for i, u in enumerate(left):
                            for j, v in enumerate(right):
                                coords = _coordinates(target, merge(chains, p, q, x, y, z, u, v))
                                if coords:
                                    block[(i, j)] = coords

    diff = {}
    for n in range(0, N):
        level = diff[n] = {}
        for x in objects:
            for y in objects:
                target = sub[(n + 1, x, y)]
                columns = level[(x, y)] = {}
                for j, v in enumerate(rows(sub[(n, x, y)])):
                    coords = _coordinates(target, chain_d(chains, n, x, y, v))
                    if coords:
                        columns[j] = coords
    return gr_comp, diff
