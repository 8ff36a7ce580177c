"""Generic branching engine for self-similar rooted trees.

A branching process names each node class by an opaque hashable key and
supplies, for every key, the multiset of keys of a node's children.  When
the reachable key set is finite the per-level node counts satisfy a linear
recurrence: discovering the classes by breadth-first search yields the
branching matrix B with B[i][j] = number of children in class i of any
class-j node, and the class-i generating function is then coordinate i of
the resolvent column (I - B*t)^-1 e_root.

Two independent evaluation paths are kept deliberately separate so they
can cross-check each other: the rational-function path through the
resolvent, and plain integer vector iteration of the child counts
(bfs_level_counts / verify_tree).

The group and module trees are both centralizer towers
(centralizer_tower): a structure lists a state's classes as (centralizer,
count) pairs, so one centralizer shared by many classes is keyed once, by
its isomorphism class, through one IsoRegistry: size buckets, first-seen
tags and a fast path for an element set seen before.  Each structure
supplies only its same-set key, size, isomorphism test and label prefix,
so a key prints as g120.0 for a group or r16.0 for a ring.  Cheap
invariants that screen a pair belong to the isomorphism test itself.  A
structure that is its own same-set key, as a Z^n-set label is, needs no
test, and its key (z720.0) is made at the first sight of it.

The classes of a direct product are tuples of its factors' classes, and
class_product is the one fold that lists them.  As the centralizer of
(g, h) in G x H is C_G(g) x C_H(h), the tree of a product is the product
of its factors' trees: product_process builds it from the factors'
branching matrices, so no element of the product is ever listed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import StateExplosionError
from .polyring import Poly, RatFun, bareiss_det, poly_gcd, ratfun_sum, resolvent_column

__all__ = [
    "BranchingProcess",
    "BranchingMatrix",
    "IsoKey",
    "IsoRegistry",
    "centralizer_tower",
    "class_product",
    "product_process",
    "build_branching",
    "gf_total",
    "class_gfs",
    "bfs_level_counts",
    "verify_tree",
    "render_dot",
]

ClassKey = Hashable

# More distinct classes than this stop discovery; read at call time.
STATE_LIMIT = 10_000


@dataclass(frozen=True)
class BranchingProcess:
    """Root class key plus the children-multiset function.

    children(key) must be deterministic and return a mapping key -> count.
    label, when given, renders a key for display.
    """

    root: ClassKey
    children: Callable[[ClassKey], Mapping[ClassKey, int]]
    label: Callable[[ClassKey], str] | None = None

    def child_counts(self, key: ClassKey) -> dict[ClassKey, int]:
        counts = self.children(key)
        if any(n < 0 for n in counts.values()):
            raise ValueError("child multiplicities must be non-negative")
        return {k: n for k, n in counts.items() if n > 0}

    def label_for(self, key: ClassKey) -> str:
        return self.label(key) if self.label is not None else str(key)


class IsoKey(NamedTuple):
    """Hashable name for an isomorphism class, stable within one registry.

    str gives the label prefix, the structure's size and the first-seen
    tag, as in g120.0 or z720.0.
    """

    prefix: str
    size: int
    tag: int

    def __str__(self) -> str:
        return f"{self.prefix}{self.size}.{self.tag}"


class IsoRegistry:
    """Assigns equal IsoKeys exactly to isomorphic structures, first-seen tags.

    A structure whose same-set key was seen before gets its key back with
    no isomorphism test; otherwise the isomorphism test runs only against
    the representatives of its size, so the first structure of a size is
    keyed with no test at all.  representatives maps each key to the
    first structure that got it.  The registry is mutable; confine one
    instance to the trees of one command, such as the factor trees of one
    direct product, whose keys must agree across factors.
    """

    def __init__(self):
        self._by_size: dict[int, list[IsoKey]] = {}
        self._by_same_set: dict[Hashable, IsoKey] = {}
        self.representatives: dict[IsoKey, object] = {}

    def lookup(
        self,
        z,
        same_set: Hashable,
        size: int,
        is_isomorphic: Callable[[object, object], bool],
        prefix: str,
    ) -> IsoKey:
        """Key of z, whose element set same_set names and has size elements."""
        key = self._by_same_set.get(same_set)
        if key is not None:
            return key
        bucket = self._by_size.setdefault(size, [])
        key = next((k for k in bucket if is_isomorphic(self.representatives[k], z)), None)
        if key is None:
            key = IsoKey(prefix, size, len(self.representatives))
            bucket.append(key)
            self.representatives[key] = z
        self._by_same_set[same_set] = key
        return key


def centralizer_tower(top, registry, branches: Callable) -> BranchingProcess:
    """The process whose nodes are running centralizers Z, starting at top.

    branches(Z) lists (C, n) pairs: n classes of Z whose representatives
    have centralizer C in Z.  Each pair adds n children keyed by
    registry.key_for(C), and registry.representatives maps a key back to
    its Z.
    """

    def children(key: ClassKey) -> Counter:
        counts = Counter()
        for c, n in branches(registry.representatives[key]):
            counts[registry.key_for(c)] += n
        return counts

    return BranchingProcess(root=registry.key_for(top), children=children)


@dataclass(frozen=True)
class BranchingMatrix:
    """Discovered classes (root first, breadth-first order) and child counts."""

    keys: tuple[ClassKey, ...]
    matrix: tuple[tuple[int, ...], ...]  # matrix[i][j]: children in class i per class-j node
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.keys)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.matrix[i][j] for i in range(self.size))


def class_product(start: Hashable, factors: Iterable, combine: Callable) -> Counter:
    """The classes of a product as a Counter: start combined with one of each factor's
    (class, count) pairs in turn by combine(partial, class), the counts multiplied."""
    out = Counter({start: 1})
    for pairs in factors:
        step = Counter()
        for part, mult in out.items():
            for cls, n in pairs:
                step[combine(part, cls)] += mult * n
        out = step
    return out


def product_process(*trees: BranchingMatrix) -> BranchingProcess:
    """The tree of a direct product, from its factors' trees.

    The factors must be keyed by one registry, so that equal keys name
    isomorphic factors.  A node is the sorted tuple of its factor keys
    (G x H is H x G), and its children are every combination of the
    factors' children, read off the matrix columns, with multiplicities
    multiplied.  Raises StateExplosionError, before any class is listed,
    when the product of the factors' class counts exceeds STATE_LIMIT.
    """
    sizes = [bm.size for bm in trees]
    if math.prod(sizes) > STATE_LIMIT:
        raise StateExplosionError(
            f"the factors' class counts {' * '.join(map(str, sizes))} = "
            f"{math.prod(sizes)} exceed the state limit {STATE_LIMIT}"
        )
    columns, labels = {}, {}
    for bm in trees:
        for j, key in enumerate(bm.keys):
            columns[key] = [(k, n) for k, n in zip(bm.keys, bm.column(j)) if n]
            labels[key] = bm.labels[j]

    def children(node: tuple) -> Counter:
        return class_product((), (columns[key] for key in node),
                             lambda part, child: tuple(sorted(part + (child,))))

    return BranchingProcess(
        root=tuple(sorted(bm.keys[0] for bm in trees)),
        children=children,
        label=lambda node: "x".join(labels[k] for k in node),
    )


def _state_explosion(process: BranchingProcess, keys: list[ClassKey]) -> StateExplosionError:
    return StateExplosionError(
        f"more than {STATE_LIMIT} classes discovered: {len(keys)} classes "
        f"found so far, the last {process.label_for(keys[-1])!r}"
    )


def build_branching(process: BranchingProcess) -> BranchingMatrix:
    """Discover the reachable classes breadth-first and tabulate the matrix.

    Raises StateExplosionError when more than STATE_LIMIT distinct
    keys appear, which signals either a keying that is not self-similar or
    a limit set too low.
    """
    order: list[ClassKey] = [process.root]
    index: dict[ClassKey, int] = {process.root: 0}
    children: list[dict[ClassKey, int]] = []
    cursor = 0
    while cursor < len(order):
        key = order[cursor]
        cursor += 1
        counts = process.child_counts(key)
        for child in counts:
            if child not in index:
                if len(order) >= STATE_LIMIT:
                    raise _state_explosion(process, order)
                index[child] = len(order)
                order.append(child)
        children.append(counts)
    n = len(order)
    matrix = [[0] * n for _ in range(n)]
    for j, counts in enumerate(children):
        for child, mult in counts.items():
            matrix[index[child]][j] = mult
    return BranchingMatrix(
        keys=tuple(order),
        matrix=tuple(tuple(row) for row in matrix),
        labels=tuple(process.label_for(k) for k in order),
    )


def gf_total(bm: BranchingMatrix) -> RatFun:
    """Generating function of the per-level node totals."""
    return ratfun_sum(resolvent_column(bm.matrix))


def class_gfs(bm: BranchingMatrix) -> list[RatFun]:
    return resolvent_column(bm.matrix)


@dataclass(frozen=True)
class LevelCounts:
    keys: tuple[ClassKey, ...]
    by_class: tuple[tuple[int, ...], ...]  # by_class[i][n]: class-i nodes at level n
    totals: tuple[int, ...]

    def counts_for(self, key: ClassKey) -> tuple[int, ...]:
        return self.by_class[self.keys.index(key)]


def bfs_level_counts(process: BranchingProcess, depth: int) -> LevelCounts:
    """Exact per-class and total node counts for levels 0..depth.

    Pure integer iteration of the child-count recurrence, independent of
    the resolvent computation.
    """
    keys: list[ClassKey] = [process.root]
    index: dict[ClassKey, int] = {process.root: 0}
    memo: dict[ClassKey, dict[ClassKey, int]] = {}
    levels: list[dict[int, int]] = [{0: 1}]
    for _ in range(depth):
        current = levels[-1]
        nxt: dict[int, int] = {}
        for i, count in current.items():
            key = keys[i]
            counts = memo.get(key)
            if counts is None:
                counts = memo[key] = process.child_counts(key)
            for child, mult in counts.items():
                ci = index.get(child)
                if ci is None:
                    if len(keys) >= STATE_LIMIT:
                        raise _state_explosion(process, keys)
                    ci = index[child] = len(keys)
                    keys.append(child)
                nxt[ci] = nxt.get(ci, 0) + count * mult
        levels.append(nxt)
    by_class = tuple(
        tuple(level.get(i, 0) for level in levels) for i in range(len(keys))
    )
    totals = tuple(sum(level.values()) for level in levels)
    return LevelCounts(keys=tuple(keys), by_class=by_class, totals=totals)


def verify_tree(process: BranchingProcess, depth: int) -> bool:
    """Cross-check the resolvent path against direct vector iteration.

    True iff, for every class and every level up to depth, the series
    coefficients of the class generating functions agree with the counts
    obtained by iterating the children function.
    """
    bm = build_branching(process)
    counts = bfs_level_counts(process, depth)
    gfs = class_gfs(bm)
    by_key = {key: gfs[i].series(depth) for i, key in enumerate(bm.keys)}
    for key in counts.keys:
        expected = list(counts.counts_for(key))
        got = by_key.get(key)
        if got is None or got != expected:
            return False
    totals = ratfun_sum(gfs).series(depth)
    return list(totals) == list(counts.totals)


def denominators_divide_det(bm: BranchingMatrix) -> bool:
    """Every class gf denominator divides det(I - B*t)."""
    n = bm.size
    det = bareiss_det(
        [
            [Poly([1 if i == j else 0, -bm.matrix[i][j]]) for j in range(n)]
            for i in range(n)
        ]
    )
    for entry in class_gfs(bm):
        g = poly_gcd(det, entry.den)
        if g != entry.den and g != -entry.den:
            return False
    return True


def render_dot(bm: BranchingMatrix) -> str:
    """Class graph in DOT format: nodes are classes, edge j->i carries b_ij."""
    lines = ["digraph branching {"]
    for i, label in enumerate(bm.labels):
        shape = ' shape="doublecircle"' if i == 0 else ""
        lines.append(f'  c{i} [label="{label}"{shape}];')
    for j in range(bm.size):
        for i in range(bm.size):
            mult = bm.matrix[i][j]
            if mult:
                lines.append(f'  c{j} -> c{i} [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines)
