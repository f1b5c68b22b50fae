"""Finite linear categories over the rationals.

A category here is a finite set of objects together with a chosen basis
for every hom space and structure constants for composition.  The hom
space indexed by the pair ``(x, y)`` consists of the morphisms *from* y
*to* x, so composition pairs ``(x, y) x (y, z) -> (x, z)`` and reads
left of right, like matrix multiplication.

Everything is exact and sparse.  The structure constants have one
store, `Category.integral_comp`: each block of products of basis arrows
over one denominator, as the integer numerators of its nonzero terms.
The envelope builder, every `DGCategory` over the category and the
workspace export read that store, and no `Fraction` copy of it is
kept.  The identity of each object is stored the way a form is, as
(denominator, numerators) in lowest terms.  `checked_blocks`
checks a product table and stores its blocks, for the category and
for every degree pair of a `DGCategory` alike.

This module holds the tables alone: objects, bases and composition.
Its axiom check, `validate_category`, is degree 0 of the one law
kernel of `lincat.laws`, run on `trivial_dg(c)`.  A morphism is a
degree-0 form of any graded envelope of the category (`trivial_dg(c)`
has no others), so morphisms, their composition and their trace
classes live in `lincat.dg` and `lincat.derham` rather than in a second
implementation here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionError, LincatError, ScalarTypeError
from .exact_linalg import IntTerms, checked_terms, integral_block, over_lcm, scalar

def checked_blocks(table: Mapping[tuple[int, int, int], Mapping[tuple[int, int], Mapping[int, object]]],
                   nobj: int, shape, where: str, at: str) -> dict[tuple[int, int, int], tuple[int, tuple]]:
    """Check a product table over the object triples and store each block over one denominator.

    `table` maps (x, y, z) to a sparse block ``{(i, j): {k: s}}``, and
    shape(x, y, z) gives its (rows, cols, dim): the dimensions of the
    left and right factors' spaces and of the products' space.  A triple
    whose factors' spaces are both nonzero gets its block, the input's
    entries checked by `checked_terms` and stored by `integral_block`,
    empty where the input gives no product.  An index outside the shape
    or a target outside 0..dim-1 raises `DimensionError`, naming the
    block by `at` formatted with its triple; a key the loop does not
    read is refused by `refuse_unread`, naming the table `where`.
    """
    blocks = {}
    for x, y, z in itertools.product(range(nobj), repeat=3):
        rows, cols, dim = shape(x, y, z)
        if not (rows and cols):
            continue
        name = at.format((x, y, z))
        block = [[()] * cols for _ in range(rows)]
        for (i, j), entries in table.get((x, y, z), {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionError(f"{name}: product ({i}, {j}) out of range for shape ({rows}, {cols})")
            block[i][j] = checked_terms(entries, dim, f"{name}[{i}][{j}]")
        blocks[(x, y, z)] = integral_block(block, cols)
    refuse_unread(table, blocks, set(itertools.product(range(nobj), repeat=3)), where)
    return blocks


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
        Absent products vanish.  The blocks are checked and stored by
        `checked_blocks`, in `integral_comp`: block (x, y, z) as (D, rows),
        entry [i][j] of rows holding (k, D * s) over the nonzero terms
        (k, s) of b_i . b_j, D the lcm of the block's denominators.  A key
        outside the object range, or a nonempty block at a zero hom
        space, raises `DimensionError` (`refuse_unread`).
    identity:
        Map x -> sparse expansion ``{k: s}`` of the identity of x in the
        (x, x) basis, checked by `checked_terms` and stored by `over_lcm`
        as (D, ((k, D * s), ...)), the fields `den` and `nums` of a `Form`.
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

        # the one product store: each block over one denominator, by (x, y, z)
        self.integral_comp: dict[tuple[int, int, int], tuple[int, tuple]] = checked_blocks(
            comp, n, lambda x, y, z: (self.dim(x, y), self.dim(y, z), self.dim(x, z)), "composition", "composition {}")

        refuse_unread(identity, range(n), (), "identity")
        self.identity: dict[int, tuple[int, IntTerms]] = {}
        for x in range(n):
            entries = identity.get(x)
            if entries is None:
                raise DimensionError(f"object {self.objects[x].label}: identity coordinates missing")
            self.identity[x] = over_lcm(checked_terms(entries, self.dim(x, x), f"identity of {self.objects[x].label}"))
        self._violations = None  # memo slot of `validate_category`

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


def validate_category(c: Category) -> list[Violation]:
    """All unit and associativity failures on basis arrows, as data.

    This is degree 0 of the law kernel of `lincat.laws`: its report on
    `trivial_dg(c)`, where d = 0 and no form lies above degree 0, so only
    the unit and associativity laws of `c` can fail.  The report is made
    once per category; every call returns a fresh list of it.
    """
    if c._violations is None:
        # imported here, because `lincat.dg` and `lincat.laws` import this module
        from .dg import trivial_dg
        from .laws import _report

        c._violations = tuple(_report(trivial_dg(c)))
    return list(c._violations)


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
    sparse expansion of its identity.  An expansion that is not a
    mapping raises `DimensionError`, naming its product or identity.
    Coefficients are converted by `scalar`: a `Fraction`, an int or a
    "p/q" string, never a float.
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

    def expand(pair: tuple[int, int], terms: Mapping[str, object], where: str) -> dict[int, Fraction]:
        if not isinstance(terms, Mapping):
            raise DimensionError(f"{where}: expected a mapping of arrow labels to coefficients, got {terms!r}")
        pos = {a: k for k, a in enumerate(hom_basis.get(pair, ()))}
        out = {}
        for a, s in terms.items():
            if a not in pos:
                raise DimensionError(f"arrow {a!r} does not live in the expected hom space")
            try:
                out[pos[a]] = scalar(s, f"coefficient of {a!r}")
            except ScalarTypeError as exc:
                if not isinstance(s, str):
                    raise
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
        comp.setdefault((lx, ly, rz), {})[(li, rj)] = expand((lx, rz), terms, f"product ({left}, {right})")

    identity: dict[int, dict[int, Fraction]] = {}
    for lab, terms in identities.items():
        if lab not in index:
            raise DimensionError(f"identity given for unknown object {lab!r}")
        x = index[lab]
        identity[x] = expand((x, x), terms, f"identity of {lab!r}")

    return Category(labels, hom_basis, comp, identity)
