"""The direct fill of the universal envelope's tables, as an oracle.

`direct_tables` builds the same bases as `lincat.envelope` (the chain
spaces and the span rule), then fills the product table and the
differential the direct way: one chain merge or identity insertion per
pair of basis forms, or per basis form, with its coordinates read off
after a reduction that must leave nothing.  It shares no table rule with the builder, which
derives both tables from the span's own products, so the two must
agree entry for entry.
"""

from lincat.envelope import _Chains
from lincat.errors import LincatError
from lincat.exact_linalg import ONE, build_quotient


def _coordinates(target, v):
    """The coordinates of a chain vector in the basis of `target`, a span it must lie in."""
    coords = target.coordinates(v)
    if coords is None:
        raise LincatError("direct fill: vector left the expected span")
    return coords


def direct_tables(c, truncation):
    """(gr_comp, diff) of the universal envelope of `c`, one chain vector per entry."""
    N = truncation
    objects = range(len(c.objects))
    chains = _Chains(c, N)
    sub = {}
    for x in objects:
        for y in objects:
            sub[(0, x, y)] = build_quotient(chains.spaces[(0, x, y)].dim, [{k: ONE} for k in range(c.dim(x, y))])
    d_arrow = {(z, y): [chains.d(0, z, y, {b: ONE}) for b in range(c.dim(z, y))] for z in objects for y in objects}
    for n in range(1, N + 1):
        for x in objects:
            for y in objects:
                span = [chains.merge(n - 1, 1, x, z, y, omega, db)
                        for z in objects for omega in sub[(n - 1, x, z)].rows for db in d_arrow[(z, y)]]
                sub[(n, x, y)] = build_quotient(chains.spaces[(n, x, y)].dim, span)

    gr_comp = {}
    for p in range(0, N + 1):
        for q in range(0, N + 1 - p):
            if p == 0 and q == 0:
                continue
            table = gr_comp[(p, q)] = {}
            for x in objects:
                for y in objects:
                    left = sub[(p, x, y)].rows
                    for z in objects:
                        right = sub[(q, y, z)].rows
                        if not left or not right:
                            continue
                        target = sub[(p + q, x, z)]
                        block = table[(x, y, z)] = {}
                        for i, u in enumerate(left):
                            for j, v in enumerate(right):
                                coords = _coordinates(target, chains.merge(p, q, x, y, z, u, v))
                                if coords:
                                    block[(i, j)] = coords

    diff = {}
    for n in range(0, N):
        level = diff[n] = {}
        for x in objects:
            for y in objects:
                target = sub[(n + 1, x, y)]
                columns = level[(x, y)] = {}
                for j, v in enumerate(sub[(n, x, y)].rows):
                    coords = _coordinates(target, chains.d(n, x, y, v))
                    if coords:
                        columns[j] = coords
    return gr_comp, diff
