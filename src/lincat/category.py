"""Finite linear categories over the rationals.

A category here is a finite set of objects together with a chosen basis
for every hom space and structure constants for composition.  The hom
space indexed by the pair ``(x, y)`` consists of the morphisms *from* y
*to* x, so composition pairs ``(x, y) x (y, z) -> (x, z)`` and reads
left of right, like matrix multiplication.

Everything is exact: coordinates are tuples of `Fraction`, and the
structure constants are stored sparse, as the nonzero terms of each
product of basis arrows.

This module holds the category alone: objects, bases, composition and
the axiom check.  The trace quotient (endomorphisms modulo commutators)
is degree 0 of the quotient complex of any graded envelope, so its
classes come from `get_complex(trivial_dg(c)).class_of` (`lincat.derham`)
rather than from a second implementation here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CompositionError, DimensionError, LincatError
from .exact_linalg import (
    ZERO,
    Terms,
    Vector,
    checked_terms,
    densify,
    is_zero_vector,
    parse_scalar,
    vec,
    vec_add,
    vec_scale,
    zero_vector,
)

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


def contract(block: ProductRows, u: Vector, v: Vector, dim: int) -> Vector:
    """Coordinates of the product u . v, from the products of basis elements in `block`."""
    out = [ZERO] * dim
    v_support = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        row = block[i]
        for j, b in v_support:
            ab = a * b
            for k, s in row[j]:
                out[k] += ab * s
    return tuple(out)


@dataclass(frozen=True)
class ObjectId:
    index: int
    label: str


@dataclass(frozen=True)
class Morphism:
    """A morphism from `dom` to `cod` in hom-space coordinates."""

    dom: ObjectId
    cod: ObjectId
    coords: Vector

    def __add__(self, other: "Morphism") -> "Morphism":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise CompositionError("cannot add morphisms with different endpoints")
        return Morphism(self.dom, self.cod, vec_add(self.coords, other.coords))

    def __neg__(self) -> "Morphism":
        return self.scale(-1)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-other)

    def scale(self, s) -> "Morphism":
        return Morphism(self.dom, self.cod, vec_scale(Fraction(s), self.coords))

    def is_zero(self) -> bool:
        return is_zero_vector(self.coords)


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
        Map x -> coordinates of the identity in the (x, x) basis; a key
        that is not an object index raises `DimensionError`.
    """

    def __init__(
        self,
        labels: Sequence[str],
        hom_basis: Mapping[tuple[int, int], Sequence[str]],
        comp: Mapping[tuple[int, int, int], Mapping[tuple[int, int], Mapping[int, object]]],
        identity: Mapping[int, Sequence],
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
        self.identity: dict[int, Vector] = {}
        for x in range(n):
            coords = identity.get(x)
            if coords is None:
                raise DimensionError(f"object {self.objects[x].label}: identity coordinates missing")
            v = vec(coords)
            if len(v) != self.dim(x, x):
                raise DimensionError(f"object {self.objects[x].label}: identity has wrong length")
            self.identity[x] = v

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

    def morphism(self, dom: ObjectId, cod: ObjectId, coords: Iterable) -> Morphism:
        v = vec(coords)
        if len(v) != self.dim(cod.index, dom.index):
            raise DimensionError(
                f"morphism {dom.label}->{cod.label}: expected {self.dim(cod.index, dom.index)} coordinates"
            )
        return Morphism(dom, cod, v)

    def zero_morphism(self, dom: ObjectId, cod: ObjectId) -> Morphism:
        return Morphism(dom, cod, zero_vector(self.dim(cod.index, dom.index)))

    def basis_morphism(self, dom: ObjectId, cod: ObjectId, k: int) -> Morphism:
        d = self.dim(cod.index, dom.index)
        if not (0 <= k < d):
            raise DimensionError(f"basis index {k} out of range for dim {d}")
        return Morphism(dom, cod, tuple(Fraction(1 if i == k else 0) for i in range(d)))

    def identity_morphism(self, x: ObjectId) -> Morphism:
        return Morphism(x, x, self.identity[x.index])

    def compose_basis(self, x: int, y: int, z: int, i: int, j: int) -> Terms:
        """The nonzero (k, s) terms of b_i . b_j, for b_i at (x, y) and b_j at (y, z)."""
        block = self.comp.get((x, y, z))
        return () if block is None else block[i][j]


def compose(c: Category, f: Morphism, g: Morphism) -> Morphism:
    """The composite f . g of f: y -> x and g: z -> y."""
    if f.dom != g.cod:
        raise CompositionError(
            f"cannot compose: left factor starts at {f.dom.label}, right factor ends at {g.cod.label}"
        )
    x, y, z = f.cod.index, f.dom.index, g.dom.index
    if (x, y, z) not in c.comp:
        return c.zero_morphism(g.dom, f.cod)
    return Morphism(g.dom, f.cod, contract(c.comp[(x, y, z)], f.coords, g.coords, c.dim(x, z)))


def validate_category(c: Category) -> list[Violation]:
    """All unit and associativity failures on basis elements, as data."""
    violations: list[Violation] = []
    n = len(c.objects)

    for x in range(n):
        ox = c.objects[x]
        for y in range(n):
            oy = c.objects[y]
            for k in range(c.dim(x, y)):
                b = c.basis_morphism(oy, ox, k)
                label = c.basis_labels(x, y)[k]
                if compose(c, c.identity_morphism(ox), b) != b:
                    violations.append(Violation("identity-left", f"1_{ox.label} . {label}"))
                if compose(c, b, c.identity_morphism(oy)) != b:
                    violations.append(Violation("identity-right", f"{label} . 1_{oy.label}"))

    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    dxy, dyz, dzw = c.dim(x, y), c.dim(y, z), c.dim(z, w)
                    if dxy * dyz * dzw == 0:
                        continue
                    for i in range(dxy):
                        f = c.basis_morphism(c.objects[y], c.objects[x], i)
                        for j in range(dyz):
                            g = c.basis_morphism(c.objects[z], c.objects[y], j)
                            fg = compose(c, f, g)
                            for k in range(dzw):
                                h = c.basis_morphism(c.objects[w], c.objects[z], k)
                                left = compose(c, fg, h)
                                right = compose(c, f, compose(c, g, h))
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
    sparse expansion of its identity.
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
                out[pos[a]] = parse_scalar(str(s))
            except ValueError as exc:
                raise DimensionError(f"coefficient of {a!r}: {exc}") from exc
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

    identity: dict[int, Vector] = {}
    for lab, terms in identities.items():
        if lab not in index:
            raise DimensionError(f"identity given for unknown object {lab!r}")
        x = index[lab]
        identity[x] = densify(expand((x, x), terms), len(hom_basis.get((x, x), ())))

    return Category(labels, hom_basis, comp, identity)
