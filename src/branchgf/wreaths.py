"""Commuting trees of S_m, C_k and C_k wr S_m from Z^n-set labels, listing no group.

A commuting n-tuple in S_m is an action of Z^n on m points (a Z^n-set), and
its centralizer is the automorphism group of that Z^n-set: prod_i A_i wr
S_(j_i), where A_i is the abelian automorphism group of an orbit type that
occurs j_i times (J. Bryan and J. Fulman, Ann. Comb. 2, 1998; the closed
form of branchgf.zsets).  C_k wr S_m is the centralizer in S_km of a
permutation with m k-cycles, so its tree is a subtree of S_km's, and C_k
is C_k wr S_1.  So a state is labelled by the
multiset {(A_i, j_i)}, each A by its invariant factors, and its children
are read off the label:

- The classes of A wr S_j, for abelian A, are the functions
  (l, a) -> k_(l,a) over cycle lengths l >= 1 and cycle products a in A
  with sum l k = j (I. G. Macdonald, "Symmetric Functions and Hall
  Polynomials", ch. I, appendix B).  The centralizer of such a class is
  prod B wr S_(k_(l,a)) with B = (A x Z)/<(-a, l)>, of order l|A|.
- A state's classes are tuples of its factors' classes, listed by
  engine.class_product, the fold that also lists a product's children.

A label fixes its children's labels by construction, which is all the
paper's criterion asks; labels may be finer than isomorphism classes.
The canonical form merges the factors with j = 1 into one abelian group,
drops the trivial factor, and reads S_2 as C_2, C_3 wr S_2 as C_3 x S_3
and C_2 wr S_3 as C_2 x S_4; with these, S_6 to S_9 get exactly one
label per isomorphism class of centralizer.  LabelTable, an
engine.IsoRegistry, keys labels as z<order>.<tag>, so a label's key never
equals a group key g<order>.<tag> and sorts beside it in a product.  The
module uses only the engine's parts, and lists no group.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .engine import BranchingProcess, IsoKey, IsoRegistry, centralizer_tower, class_product
from .errors import StateExplosionError

__all__ = ["ZSetGroup", "LabelTable", "symmetric", "cyclic", "cyclic_wreath"]

# More labels than this in one command's trees, or among the classes of one
# state, stop the build (S20's 1932 labels take 3.5 s on a 2-vCPU Xeon, most
# of it the resolvent); read at call time.
LABEL_LIMIT = 2000

Abelian = tuple[int, ...]  # invariant factors d_1 | d_2 | ..., each > 1
# (the factors with j = 1 as one abelian group, the sorted (A, j) with j >= 2)
Label = tuple[Abelian, tuple[tuple[Abelian, int], ...]]


def _normal(factors) -> Abelian:
    """Invariant factors of the product of cyclic groups of the given orders."""
    ds = sorted(d for d in factors if d > 1)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = math.gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(d for d in ds if d > 1)


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


@lru_cache(maxsize=None)
def _extensions(a: Abelian, l: int) -> tuple[tuple[Abelian, int], ...]:
    """The groups B = (A x Z)/<(-x, l)> over the x in A, with how many x give each.

    B is the direct sum of its p-parts.  For p not dividing l the p-part
    is A's, whatever x is.  For p dividing l, with A's p-part the sum of
    Z/p^lam_c (lam ascending, partial sums Lam_k) and v_c the valuation
    of x_c, the gcd D_k of the k x k minors of the relation matrix
    (diag(p^lam), 0; -x, l) has valuation the least of Lam_k, e + Lam_(k-1)
    (e the valuation of l) and, for each c, v_c + Lam_k - lam_c if c <= k
    and v_c + Lam_(k-1) otherwise; B's p-part is the sum of the
    Z/p^(D_k/D_(k-1)).  So x counts only through its valuations, and
    Z/p^lam holds p^(lam - v) - p^(lam - v - 1) elements of valuation v < lam.
    """
    rest = list(a)  # A's part prime to l
    parts = Counter({(): 1})
    q, p = l, 2
    while q > 1:
        if q % p:
            p += 1
            continue
        e = _valuation(q, p)
        q //= p**e
        lam = []
        for i, d in enumerate(rest):
            v = _valuation(d, p)
            rest[i] = d // p**v
            if v:
                lam.append(v)
        lam.sort()
        sums = [0, *itertools.accumulate(lam)]
        r = len(lam)
        local = Counter()
        for vs in itertools.product(*(range(top + 1) for top in lam)):
            n = math.prod(p ** (top - v) - p ** (top - v - 1) if v < top else 1
                          for v, top in zip(vs, lam))
            logs = [0] + [
                min(sums[k], e + sums[k - 1],
                    *(v + (sums[k] - top if c < k else sums[k - 1])
                      for c, (v, top) in enumerate(zip(vs, lam))))
                for k in range(1, r + 1)
            ] + [e + sums[r]]
            local[tuple(p ** (hi - lo) for lo, hi in zip(logs, logs[1:]))] += n
        parts = Counter({x + y: m * n for x, m in parts.items() for y, n in local.items()})
    out = Counter()
    for powers, n in parts.items():
        out[_normal(rest + list(powers))] += n * math.prod(rest)
    return tuple(out.items())


def _partitions(n: int, most: int, cap: int):
    """Partitions of n into at most `most` parts, each at most cap."""
    if n == 0:
        yield ()
        return
    if most:  # the largest part is at least n / most
        for first in range(min(n, cap), -(-n // most) - 1, -1):
            for rest in _partitions(n - first, most - 1, first):
                yield (first, *rest)


_SMALL_PRODUCTS = {((3,), 2): ((), 3), ((2,), 3): ((), 4)}


def _label(entries) -> Label:
    """The canonical label of prod over entries (A, j) of A wr S_j."""
    abelian, wreaths = [], []
    for a, j in entries:
        if j == 1:
            abelian.extend(a)
        elif j == 2 and not a:
            abelian.append(2)  # S_2 is C_2
        elif (a, j) in _SMALL_PRODUCTS:  # C_3 wr S_2 is C_3 x S_3, C_2 wr S_3 is C_2 x S_4
            abelian.extend(a)
            wreaths.append(_SMALL_PRODUCTS[a, j])
        else:
            wreaths.append((a, j))
    return _normal(abelian), tuple(sorted(wreaths))


def _times(x: Label, y: Label) -> Label:
    """The label of x times y; canonical labels' wreath factors stay canonical."""
    return _normal(x[0] + y[0]), tuple(sorted(x[1] + y[1]))


def _order(label: Label) -> int:
    abelian, wreaths = label
    return math.prod(abelian) * math.prod(math.prod(a) ** j * math.factorial(j) for a, j in wreaths)


def _check_label_count(labels: Counter, what: str) -> None:
    if len(labels) > LABEL_LIMIT:
        raise StateExplosionError(
            f"{what} have more than {LABEL_LIMIT} centralizer labels, the label limit"
        )


@lru_cache(maxsize=None)
def _wreath_classes(a: Abelian, j: int) -> tuple[tuple[Label, int], ...]:
    """The classes of A wr S_j as (centralizer label, count) pairs.

    A class is the centralizer prod over (l, x) of B wr S_(k_(l,x)).  The
    x in A that give one B for one cycle length l are interchangeable:
    choosing the positive k_(l,x) of c such x is choosing a partition mu
    into at most c parts, in c!/(c - len(mu))! / prod_k mult_k(mu)! ways.
    """
    # (l, B, c) in ascending l, listed only as far as a walk reaches
    source = ((l, b, c) for l in itertools.count(1) for b, c in _extensions(a, l))
    types = []
    out = Counter()

    def walk(start: int, left: int, entries: tuple, ways: int) -> None:
        if left == 0:
            out[_label(entries)] += ways
            _check_label_count(out, f"the classes of {_name(a, j)}")
            return
        for t in itertools.count(start):
            if t == len(types):
                types.append(next(source))
            l, b, c = types[t]
            if l > left:
                return
            for size in range(left // l, 0, -1):
                for mu in _partitions(size, c, size):
                    n = math.perm(c, len(mu))
                    for mult in Counter(mu).values():
                        n //= math.factorial(mult)
                    walk(t + 1, left - l * size, entries + tuple((b, k) for k in mu), ways * n)

    walk(0, j, (), 1)
    return tuple(out.items())


def _branches(label: Label) -> list[tuple[Label, int]]:
    """The state's classes as (centralizer label, count) pairs: tuples of its
    factors' classes, times |A| for the abelian factor A.  No fold step merges
    labels (abelian groups and multisets cancel), so one check at the end suffices."""
    abelian, wreaths = label
    out = class_product((abelian, ()), [_wreath_classes(a, j) for a, j in wreaths], _times)
    _check_label_count(out, f"the classes of a group of order {_order(label)}")
    return [(child, n * math.prod(abelian)) for child, n in out.items()]


def _name(a: Abelian, j: int) -> str:
    return f"{'x'.join(f'C{d}' for d in a)}wrS{j}" if a else f"S{j}"


class ZSetGroup(NamedTuple):
    """A group prod_i A_i wr S_(j_i) with every A_i abelian, given by its label."""

    label: Label

    @property
    def order(self) -> int:
        return _order(self.label)

    @property
    def centralizer_orders(self) -> Counter:
        """|C(x)| -> number of conjugacy classes with that centralizer order."""
        out = Counter()
        for child, n in _branches(self.label):
            out[_order(child)] += n
        return out

    def process(self, table: "LabelTable") -> BranchingProcess:
        """Its commuting tree (engine.centralizer_tower), keyed by table.  The
        root's classes are checked before its key, and so its order, exists."""
        for a, j in self.label[1]:
            _wreath_classes(a, j)
        return centralizer_tower(self.label, table, _branches)


def symmetric(m: int) -> ZSetGroup:
    return ZSetGroup(_label([((), m)]))


def cyclic(k: int) -> ZSetGroup:
    return ZSetGroup(_label([(_normal([k]), 1)]))


def cyclic_wreath(k: int, m: int) -> ZSetGroup:
    return ZSetGroup(_label([(_normal([k]), m)]))


class LabelTable(IsoRegistry):
    """The engine's IsoRegistry for labels, each its own same-set key, so no
    isomorphism test or size bucket is needed; keys print as z<order>.<tag>.
    Confine one table to the trees of one command, so that every Z factor of
    a product is keyed by it."""

    def key_for(self, label: Label) -> IsoKey:
        """Key of label; a label seen before computes no order."""
        key = self._by_same_set.get(label)
        if key is None:
            if len(self.representatives) >= LABEL_LIMIT:
                raise StateExplosionError(
                    f"more than {LABEL_LIMIT} labels, the label limit: {len(self.representatives)} "
                    f"labels found so far, the last {next(reversed(self.representatives))}"
                )
            key = self._by_same_set[label] = IsoKey("z", _order(label), len(self.representatives))
            self.representatives[key] = label
        return key
