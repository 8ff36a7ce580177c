"""Finite permutation groups: enumeration, centralizers, conjugacy, isomorphism.

Groups are stored as full element lists (every listed group has order at
most a few thousand, where filtering beats stabilizer-chain machinery) and
are immutable once built; the command's trees of S_m, C_k and C_k wr S_m
list no group at all (branchgf.wreaths).  The named constructors keep the
generators they build from (S_m's transposition and m-cycle, a product's
factor generators), and conjugacy classes close under those; only a group
given without them, such as a centralizer, needs a greedy generating set
for its classes.  Products of permutations already known to be valid skip
the validation that the public Perm constructor runs.
Generating sets, conjugation orbits, map extension and the image search
come from branchgf.orbits, shared with the ring code.  Isomorphism testing
screens by the order and then by cheap invariants (the derived subgroup
among them, as the normal closure of the commutators of a generating
set), then searches images of a small generating set, pruned at every
failing prefix.  KeyRegistry keys groups for the tree engine through
engine.IsoRegistry, which the ring code shares: isomorphic groups get one
hashable key with a stable per-run tag.  The registry answers a group
whose element set it keyed before without any test, and keys the first
group of an order without computing its invariants; only a new element
set whose order and invariants match a known group reaches the order
limit of is_isomorphic.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .engine import IsoKey, IsoRegistry
from .errors import ElementNotInGroupError, OrderLimitError
from .orbits import closure, extend_map, greedy_generators, orbit_partition, search_images

__all__ = [
    "Perm",
    "PermGroup",
    "ConjClass",
    "KeyRegistry",
    "parse_cycles",
    "partitions",
    "zlambda",
    "is_isomorphic",
    "symmetric_group",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "wreath_c2_s2",
]

ISO_ORDER_LIMIT = 512
CLOSURE_ORDER_LIMIT = 512
PRODUCT_ORDER_LIMIT = 10_000


class Perm:
    """Permutation of {0, ..., d-1} stored as the tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation: {imgs!r}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """Wrap an image tuple already known to be a permutation, unchecked."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def _check_degree(self, other: "Perm") -> None:
        if len(self.images) != len(other.images):
            raise ValueError(f"degrees differ: {self.degree} and {other.degree}")

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (a*b)(x) = a(b(x))."""
        self._check_degree(other)
        return Perm._trusted(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Perm._trusted(tuple(inv))

    def conjugate(self, x: "Perm") -> "Perm":
        """self * x * self^-1 without forming the inverse."""
        self._check_degree(x)
        g = self.images
        out = [0] * len(g)
        for i, xi in enumerate(x.images):
            out[g[i]] = g[xi]
        return Perm._trusted(tuple(out))

    def commutes_with(self, other: "Perm") -> bool:
        a, b = self.images, other.images
        return all(a[b[i]] == b[a[i]] for i in range(len(a)))

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, weakly decreasing."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)!r})"

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cyc)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1,2)(3,4)"; "()" is the identity.

    Points within a cycle may be separated by commas or spaces.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return Perm.identity(degree)
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    for body in _CYCLE_RE.findall(stripped):
        body = body.strip()
        if not body:
            continue
        points = [int(tok) - 1 for tok in re.split(r"[,\s]+", body)]
        if any(not 0 <= p < degree for p in points):
            raise ValueError(f"point out of range 1..{degree} in {text!r}")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point within a cycle in {text!r}")
        for a, b in zip(points, points[1:] + points[:1]):
            if images[a] != a:
                raise ValueError(f"point {a + 1} appears in two cycles in {text!r}")
            images[a] = b
    return Perm(images)


class ConjClass(NamedTuple):
    rep: Perm
    size: int


class PermGroup:
    """Immutable permutation group given by its full, sorted element list and,
    from a named constructor, the generators it was built from (else None)."""

    def __init__(
        self, degree: int, elements: Sequence[Perm], generators: Sequence[Perm] | None = None
    ):
        self.degree = degree
        self.elements: tuple[Perm, ...] = tuple(sorted(set(elements)))
        if not self.elements:
            raise ValueError("a group needs at least the identity")
        self.generators = None if generators is None else tuple(generators)

    @classmethod
    def from_generators(
        cls,
        degree: int,
        generators: Sequence[Perm],
        order_limit: int = CLOSURE_ORDER_LIMIT,
    ) -> "PermGroup":
        """Close the generators under multiplication (breadth-first)."""
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        elements = closure(Perm.identity(degree), generators, operator.mul, order_limit)
        return cls(degree, list(elements), generators)

    @classmethod
    def trivial(cls, degree: int = 1) -> "PermGroup":
        return cls(degree, [Perm.identity(degree)], ())

    # -- basic queries ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    def __contains__(self, perm: Perm) -> bool:
        return perm in self._element_set

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.small_generating_set
        return all(a.commutes_with(b) for a, b in itertools.combinations(gens, 2))

    @cached_property
    def element_order_counts(self) -> tuple[tuple[int, int], ...]:
        counts: dict[int, int] = {}
        for x in self.elements:
            o = x.order()
            counts[o] = counts.get(o, 0) + 1
        return tuple(sorted(counts.items()))

    @cached_property
    def small_generating_set(self) -> tuple[Perm, ...]:
        """Greedy generating set: a maximal-order element, then least outsiders."""
        return greedy_generators(
            self.elements,
            self.identity,
            operator.mul,
            rank=lambda x: (x.order(), tuple(-i for i in x.images)),
        )

    # -- subgroup machinery ---------------------------------------------------

    def centralizer(self, xs: Sequence[Perm]) -> "PermGroup":
        """Subgroup of elements commuting with every member of xs."""
        for x in xs:
            if x not in self:
                raise ElementNotInGroupError(f"{x} is not in the group")
        elems = [g for g in self.elements if all(g.commutes_with(x) for x in xs)]
        return PermGroup(self.degree, elems)

    @cached_property
    def _conjugation_orbits(self) -> tuple[frozenset[Perm], ...]:
        # Conjugating by any generating set reaches the whole orbit.
        gens = self.small_generating_set if self.generators is None else self.generators
        return tuple(orbit_partition(self.elements, gens, lambda y, g: g.conjugate(y)))

    @cached_property
    def conjugacy_classes(self) -> tuple[ConjClass, ...]:
        """Conjugation orbits in discovery order; reps are lexicographically least."""
        return tuple(
            ConjClass(rep=min(orbit), size=len(orbit))
            for orbit in self._conjugation_orbits
        )

    @cached_property
    def class_size_of(self) -> dict[Perm, int]:
        return {
            y: len(orbit) for orbit in self._conjugation_orbits for y in orbit
        }

    @cached_property
    def centralizer_orders(self) -> Counter:
        """|C(x)| -> number of conjugacy classes with that centralizer order."""
        return Counter(self.order // cls.size for cls in self.conjugacy_classes)

    @cached_property
    def derived_subgroup_order(self) -> int:
        """|G'|, with G' the normal closure of the commutators of a generating set.

        The generators commute modulo that closure, so it contains G'; it is
        generated by commutators, so it lies in G'.  It is one closure from
        the identity under right products by those commutators and
        conjugation by the generators: that set is closed under conjugation
        by G, so x h c h^-1 = h ((h^-1 x h) c) h^-1 lies in it for every
        conjugate h c h^-1 of a commutator, and it is the normal closure.
        """
        gens = self.small_generating_set
        commutators = {
            a.inverse() * b.inverse() * a * b for a, b in itertools.combinations(gens, 2)
        }
        steps = [lambda x, c=c: x * c for c in commutators - {self.identity}]
        steps += [g.conjugate for g in gens]
        return len(closure(self.identity, steps, lambda x, step: step(x)))

    @cached_property
    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariants of groups of one order; equality is
        necessary, not sufficient.

        The sorted class sizes fix the center order and whether G is abelian.
        """
        return (
            self.element_order_counts,
            tuple(sorted(cls.size for cls in self.conjugacy_classes)),
            self.derived_subgroup_order,
        )

    # -- conjugation tables for orbit enumeration -----------------------------

    @cached_property
    def element_index(self) -> dict[Perm, int]:
        return {x: i for i, x in enumerate(self.elements)}

    @cached_property
    def conjugation_tables(self) -> tuple[tuple[int, ...], ...]:
        """tables[g][x] = index of elements[g] * elements[x] * elements[g]^-1."""
        idx = self.element_index
        return tuple(
            tuple(idx[g.conjugate(x)] for x in self.elements) for g in self.elements
        )

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


# -- S_m by cycle types ---------------------------------------------------------


def partitions(m: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m as weakly decreasing tuples, lexicographically ascending."""
    if m < 0:
        raise ValueError("m must be non-negative")

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(cap, remaining) + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(m, m)


def zlambda(partition: tuple[int, ...]) -> int:
    """Centralizer order of a permutation with the given cycle type."""
    if any(p <= 0 for p in partition):
        raise ValueError("partition parts must be positive")
    mult: dict[int, int] = {}
    for part in partition:
        mult[part] = mult.get(part, 0) + 1
    out = 1
    for part, m in mult.items():
        out *= math.factorial(m) * part**m
    return out


# -- isomorphism ------------------------------------------------------------


def is_isomorphic(g: PermGroup, h: PermGroup) -> bool:
    """Decide isomorphism of two groups of order <= ISO_ORDER_LIMIT (512).

    Screens by the order and then the invariant fingerprint, settles
    abelian pairs by their element-order statistics, and otherwise searches
    (orbits.search_images) images in h of a small generating set of g with
    matching order and class size, the first one a class representative.
    A prefix of images is kept while its extension over the Cayley graph
    of the subgroup it generates (orbits.extend_map) is conflict-free and
    injective: with every generator, a bijection onto h, as |g| = |h|, so
    an isomorphism.
    Larger groups whose order and fingerprint agree raise OrderLimitError,
    even equal ones; KeyRegistry calls this only for a new element set of
    the order of a known group.
    """
    if g.order != h.order or g.fingerprint != h.fingerprint:
        return False
    if g.order > ISO_ORDER_LIMIT:
        raise OrderLimitError(f"isomorphism testing supports order <= {ISO_ORDER_LIMIT}")
    if g.degree == h.degree and g._element_set == h._element_set:
        return True
    if g.is_abelian:
        # A finite abelian group is determined by its element-order multiset.
        return True
    gens = g.small_generating_set
    profiles = [(x.order(), g.class_size_of[x]) for x in gens]
    first_candidates = [
        c.rep for c in h.conjugacy_classes if (c.rep.order(), c.size) == profiles[0]
    ]
    later_candidates = [
        [y for y in h.elements if (y.order(), h.class_size_of[y]) == profile]
        for profile in profiles[1:]
    ]
    start = (g.identity, h.identity)

    def extends(images: tuple[Perm, ...]) -> bool:
        pairs = list(zip(gens, images))
        mapping = extend_map(start, pairs, lambda p, q: (p[0] * q[0], p[1] * q[1]))
        return mapping is not None and len(set(mapping.values())) == len(mapping)

    return search_images([first_candidates, *later_candidates], extends)


class KeyRegistry(IsoRegistry):
    """The engine's IsoRegistry for permutation groups; keys print as g<order>.<tag>."""

    def key_for(self, group: PermGroup) -> IsoKey:
        """Key of group; a group with an element set seen before skips all tests."""
        return self.lookup(group, (group.degree, group._element_set), group.order,
                           is_isomorphic, "g")


# -- named constructors -------------------------------------------------------


def symmetric_group(m: int) -> PermGroup:
    """S_m in its natural action, listed (m <= 8 is the supported range)."""
    if not 1 <= m <= 8:
        raise ValueError("symmetric_group supports 1 <= m <= 8")
    if m == 1:
        return PermGroup.trivial(1)
    elements = [Perm._trusted(images) for images in itertools.permutations(range(m))]
    gens = [Perm([1, 0] + list(range(2, m))), Perm(list(range(1, m)) + [0])]
    return PermGroup(m, elements, gens)


def cyclic_group(k: int) -> PermGroup:
    """C_k as the group generated by a k-cycle."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return PermGroup.trivial(1)
    return PermGroup.from_generators(k, [Perm(list(range(1, k)) + [0])])


def dihedral_group(n: int) -> PermGroup:
    """Symmetries of the regular n-gon (order 2n); n <= 2 degenerates naturally."""
    if n < 1:
        raise ValueError("n must be positive")
    if 2 * n > CLOSURE_ORDER_LIMIT:  # refused before a permutation of degree n is built
        raise OrderLimitError(f"group order exceeds the limit {CLOSURE_ORDER_LIMIT}")
    if n == 1:
        return cyclic_group(2)
    if n == 2:
        return direct_product(cyclic_group(2), cyclic_group(2))
    rotation = Perm(list(range(1, n)) + [0])
    reflection = Perm([(n - i) % n for i in range(n)])
    return PermGroup.from_generators(n, [rotation, reflection])


def direct_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """G x H on the disjoint union of the domains, at most PRODUCT_ORDER_LIMIT elements."""
    order = g.order * h.order
    if order > PRODUCT_ORDER_LIMIT:
        raise OrderLimitError(
            f"direct product order {order} exceeds the limit {PRODUCT_ORDER_LIMIT}"
        )
    shift = g.degree

    def pair(a: Perm, b: Perm) -> Perm:
        return Perm(list(a.images) + [shift + x for x in b.images])

    elements = [pair(a, b) for a in g.elements for b in h.elements]
    generators = None
    if g.generators is not None and h.generators is not None:
        generators = [pair(a, h.identity) for a in g.generators]
        generators += [pair(g.identity, b) for b in h.generators]
    return PermGroup(g.degree + h.degree, elements, generators)


def wreath_c2_s2() -> PermGroup:
    """The order-8 group C2 wr S2 permuting two swappable pairs {1,2},{3,4}."""
    gens = [
        parse_cycles("(1,2)", 4),
        parse_cycles("(3,4)", 4),
        parse_cycles("(1,3)(2,4)", 4),
    ]
    return PermGroup.from_generators(4, gens)
