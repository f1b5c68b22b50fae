"""Finite linear categories over the rationals.

A category here is a finite set of objects together with a chosen basis
for every hom space and structure constants for composition.  The hom
space indexed by the pair ``(x, y)`` consists of the morphisms *from* y
*to* x, so composition pairs ``(x, y) x (y, z) -> (x, z)`` and reads
left of right, like matrix multiplication.

Everything is exact and sparse: the structure constants are stored as
the nonzero (index, coefficient) terms of each product of basis arrows,
and the identity of each object as the terms of its expansion in the
basis.  `contract` multiplies two vectors given by their terms.

This module holds the tables alone: objects, bases, composition and
the axiom check `validate_category`.  A morphism is a degree-0 form of
any graded envelope of the category (`trivial_dg(c)` has no others), so
morphisms, their composition and their trace classes live in
`lincat.dg` and `lincat.derham` rather than in a second implementation
here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionError, LincatError
from .exact_linalg import ONE, Terms, checked_terms, contract_into, scalar, terms_of

# products of basis elements: entry [i][j] holds the terms of b_i . b_j
ProductRows = tuple[tuple[Terms, ...], ...]


def product_rows(block: Mapping[tuple[int, int], Mapping[int, object]], rows: int, cols: int,
                 dim: int, where: str) -> ProductRows:
    """Check a sparse product block ``{(i, j): {k: s}}`` and store it as rows of terms.

    Entry [i][j] is empty where the block gives no product.  An index
    outside the shape (rows, cols) or a target outside 0..dim-1 raises
    `DimensionError`.
    """
    out = [[()] * cols for _ in range(rows)]
    for (i, j), entries in block.items():
        if not (0 <= i < rows and 0 <= j < cols):
            raise DimensionError(f"{where}: product ({i}, {j}) out of range for shape ({rows}, {cols})")
        out[i][j] = checked_terms(entries, dim, f"{where}[{i}][{j}]")
    return tuple(map(tuple, out))


def refuse_unread(table: Mapping, read, valid, where: str) -> None:
    """Refuse the keys of `table` that a constructor's loops do not read.

    Keys in `read` are read.  A key outside `valid`, the keys of the
    index ranges, raises `DimensionError`; so does a valid key that is
    not read (it names a zero space) when its entry is not empty.
    """
    for key, entry in table.items():
        if key in read:
            continue
        if key not in valid:
            raise DimensionError(f"{where}: key {key!r} is out of range")
        if entry:
            raise DimensionError(f"{where}: {key!r} is a zero space, but the table gives it entries")


@dataclass(frozen=True)
class ObjectId:
    index: int
    label: str


@dataclass(frozen=True)
class Violation:
    """A single failed axiom instance, as data rather than an exception."""

    kind: str
    where: str


class Category:
    """Finite linear category given by bases and structure constants.

    Parameters
    ----------
    labels:
        Object labels; objects are indexed 0..len(labels)-1.
    hom_basis:
        Map (x, y) -> basis labels of the morphisms from y to x.  Absent
        pairs are zero spaces.
    comp:
        Map (x, y, z) -> sparse product block ``{(i, j): {k: s}}``: the
        product ``b_i . b_j`` of b_i in the (x, y) basis and b_j in the
        (y, z) basis has coefficient s at basis element k of (x, z).
        Absent products vanish.  The blocks are checked by `product_rows`
        and stored as its rows of nonzero (k, s) terms.  A key outside
        the object range, or a nonempty block at a zero hom space, raises
        `DimensionError` (`refuse_unread`).
    identity:
        Map x -> sparse expansion ``{k: s}`` of the identity of x in the
        (x, x) basis, checked by `checked_terms` and stored as its terms.
        A missing object, or a key that is not an object index, raises
        `DimensionError`.
    """

    def __init__(
        self,
        labels: Sequence[str],
        hom_basis: Mapping[tuple[int, int], Sequence[str]],
        comp: Mapping[tuple[int, int, int], Mapping[tuple[int, int], Mapping[int, object]]],
        identity: Mapping[int, Mapping[int, object]],
    ):
        self.objects: tuple[ObjectId, ...] = tuple(
            ObjectId(i, str(lab)) for i, lab in enumerate(labels)
        )
        n = len(self.objects)
        self.hom_basis: dict[tuple[int, int], tuple[str, ...]] = {}
        for (x, y), basis in hom_basis.items():
            if not (0 <= x < n and 0 <= y < n):
                raise DimensionError(f"hom endpoint out of range: {(x, y)}")
            if basis:
                self.hom_basis[(x, y)] = tuple(str(b) for b in basis)

        self.comp: dict[tuple[int, int, int], ProductRows] = {}
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    dxy, dyz = self.dim(x, y), self.dim(y, z)
                    if dxy and dyz:
                        self.comp[(x, y, z)] = product_rows(
                            comp.get((x, y, z), {}), dxy, dyz, self.dim(x, z), f"composition {(x, y, z)}"
                        )
        refuse_unread(comp, self.comp, set(itertools.product(range(n), repeat=3)), "composition")

        refuse_unread(identity, range(n), (), "identity")
        self.identity: dict[int, Terms] = {}
        for x in range(n):
            entries = identity.get(x)
            if entries is None:
                raise DimensionError(f"object {self.objects[x].label}: identity coordinates missing")
            self.identity[x] = checked_terms(entries, self.dim(x, x), f"identity of {self.objects[x].label}")

    # -- basic accessors -------------------------------------------------

    def dim(self, x: int, y: int) -> int:
        return len(self.hom_basis.get((x, y), ()))

    def object_by_label(self, label: str) -> ObjectId:
        for o in self.objects:
            if o.label == label:
                return o
        raise LincatError(f"no object labeled {label!r}")

    def basis_labels(self, x: int, y: int) -> tuple[str, ...]:
        return self.hom_basis.get((x, y), ())

    def compose_basis(self, x: int, y: int, z: int, i: int, j: int) -> Terms:
        """The nonzero (k, s) terms of b_i . b_j, for b_i at (x, y) and b_j at (y, z)."""
        block = self.comp.get((x, y, z))
        return () if block is None else block[i][j]


def validate_category(c: Category) -> list[Violation]:
    """All unit and associativity failures on basis elements, as data.

    The products are contracted straight from the stored terms of the
    composition blocks and the identities.
    """
    violations: list[Violation] = []
    n = len(c.objects)

    def product(x: int, y: int, z: int, u: Terms, v: Terms) -> Terms:
        out: dict[int, Fraction] = {}
        block = c.comp.get((x, y, z))
        if block is not None:
            for i, a in u:
                contract_into(out, v, block[i], a)
        return terms_of(out)

    for x in range(n):
        ox = c.objects[x]
        for y in range(n):
            oy = c.objects[y]
            for k in range(c.dim(x, y)):
                b = ((k, ONE),)
                label = c.basis_labels(x, y)[k]
                if product(x, x, y, c.identity[x], b) != b:
                    violations.append(Violation("identity-left", f"1_{ox.label} . {label}"))
                if product(x, y, y, b, c.identity[y]) != b:
                    violations.append(Violation("identity-right", f"{label} . 1_{oy.label}"))

    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    dxy, dyz, dzw = c.dim(x, y), c.dim(y, z), c.dim(z, w)
                    if dxy * dyz * dzw == 0:
                        continue
                    fg_block, gh_block = c.comp[(x, y, z)], c.comp[(y, z, w)]
                    for i in range(dxy):
                        f = ((i, ONE),)
                        for j in range(dyz):
                            fg = fg_block[i][j]
                            for k in range(dzw):
                                left = product(x, z, w, fg, ((k, ONE),))
                                right = product(x, y, w, f, gh_block[j][k])
                                if left != right:
                                    names = (
                                        c.basis_labels(x, y)[i],
                                        c.basis_labels(y, z)[j],
                                        c.basis_labels(z, w)[k],
                                    )
                                    violations.append(
                                        Violation("associativity", " . ".join(names))
                                    )
    return violations


def build_category(
    object_labels: Sequence[str],
    arrows: Mapping[tuple[str, str], Sequence[str]],
    products: Mapping[tuple[str, str], Mapping[str, object]],
    identities: Mapping[str, Mapping[str, object]],
) -> Category:
    """Assemble a category from label-level sparse data.

    ``arrows`` maps (cod_label, dom_label) to basis arrow names, which
    must be globally unique.  ``products`` maps a pair of arrow names
    (left, right) to the sparse expansion of their composite; omitted
    pairs compose to zero.  ``identities`` maps each object label to the
    sparse expansion of its identity.  Coefficients are converted by
    `scalar`: a `Fraction`, an int or a "p/q" string, never a float.
    """
    labels = [str(s) for s in object_labels]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise DimensionError("object labels must be distinct")

    hom_basis: dict[tuple[int, int], tuple[str, ...]] = {}
    arrow_home: dict[str, tuple[int, int, int]] = {}
    for (cod, dom), names in arrows.items():
        if cod not in index or dom not in index:
            raise DimensionError(f"hom endpoints ({cod}, {dom}) name unknown objects")
        key = (index[cod], index[dom])
        hom_basis[key] = tuple(str(a) for a in names)
        for k, a in enumerate(hom_basis[key]):
            if a in arrow_home:
                raise DimensionError(f"arrow label {a!r} is not globally unique")
            arrow_home[a] = (key[0], key[1], k)

    def expand(pair: tuple[int, int], terms: Mapping[str, object]) -> dict[int, Fraction]:
        pos = {a: k for k, a in enumerate(hom_basis.get(pair, ()))}
        out = {}
        for a, s in terms.items():
            if a not in pos:
                raise DimensionError(f"arrow {a!r} does not live in the expected hom space")
            try:
                out[pos[a]] = scalar(s, f"coefficient of {a!r}")
            except (ValueError, ZeroDivisionError) as exc:
                raise DimensionError(f"coefficient of {a!r}: not a rational scalar: {s!r}") from exc
        return out

    comp: dict[tuple[int, int, int], dict[tuple[int, int], dict[int, Fraction]]] = {}
    for (left, right), terms in products.items():
        if left not in arrow_home or right not in arrow_home:
            raise DimensionError(f"product ({left}, {right}) names unknown arrows")
        lx, ly, li = arrow_home[left]
        ry, rz, rj = arrow_home[right]
        if ly != ry:
            raise DimensionError(f"product ({left}, {right}) is not composable")
        comp.setdefault((lx, ly, rz), {})[(li, rj)] = expand((lx, rz), terms)

    identity: dict[int, dict[int, Fraction]] = {}
    for lab, terms in identities.items():
        if lab not in index:
            raise DimensionError(f"identity given for unknown object {lab!r}")
        x = index[lab]
        identity[x] = expand((x, x), terms)

    return Category(labels, hom_basis, comp, identity)
