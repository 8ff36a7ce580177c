"""Simultaneous-conjugacy classes of commuting tuples in a finite group.

The orbits of G acting diagonally on commuting n-tuples form the level-n
nodes of a rooted tree; a node's children are the conjugacy classes of the
running centralizer, so keying each node by the isomorphism class of that
centralizer yields a self-similar keying; commuting_process builds it
with engine.centralizer_tower, as branchgf.matrixalg does for rings.
This is the general path, for any listed group; the group command needs
no listed group at all, as the trees of S_m, C_k, C_k wr S_m and D_n come
from labels (branchgf.wreaths).  The listed path stays as the tests'
independent keying of those trees, which they hold to the same gfs.
A direct product needs no tree of its own: with its factors keyed by one
registry, engine.product_process combines the factors' trees, and
burnside_gf combines their classes, both through engine.class_product,
so neither lists a product element.
Orbit counts of all (not necessarily commuting) tuples have a classical
closed form, the sum over classes of 1/(z (1 - zt)) with z the centralizer
order.  burnside_gf tallies the classes of any group by z and
symmetric_burnside_gf tallies S_m's cycle types by z_lambda; both hand the
tally to one centralizer-order sum, which needs no gcd until its one
reduction.  burnside_gf_elementwise sums element by element as a check.

The brute-force oracle counts the same orbits by canonical-representative
enumeration (branchgf.orbits), extending a representative by the least
images of its centralizer under conjugation by its stabilizer.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import TYPE_CHECKING

from .engine import BranchingProcess, build_branching, centralizer_tower, class_product, gf_total
from .orbits import DEFAULT_WORK_BUDGET, canonical_levels, stabilizer_minima
from .perms import KeyRegistry, PermGroup, partitions, zlambda
from .polyring import Poly, RatFun, one_minus, ratfun_sum

if TYPE_CHECKING:
    from .wreaths import ZSetGroup

__all__ = [
    "commuting_process",
    "commuting_gf",
    "burnside_gf",
    "burnside_gf_elementwise",
    "partitions",
    "zlambda",
    "symmetric_burnside_gf",
    "commuting_orbit_counts",
    "DEFAULT_WORK_BUDGET",
]


def commuting_process(group: PermGroup, registry: KeyRegistry | None = None) -> BranchingProcess:
    """Branching process whose level-n classes are the orbits of commuting n-tuples.

    The centralizer tower of the group (engine.centralizer_tower): the
    children of a node with centralizer Z are the conjugacy classes of Z,
    each keyed by the group-isomorphism class of the centralizer in Z of
    its representative.  An abelian Z has |Z| classes, each centralized
    by Z itself, so it lists no class.
    """

    def branches(z: PermGroup) -> list[tuple[PermGroup, int]]:
        if z.is_abelian:
            return [(z, z.order)]
        return [(z.centralizer([cls.rep]), 1) for cls in z.conjugacy_classes]

    return centralizer_tower(group, registry if registry is not None else KeyRegistry(), branches)


def commuting_gf(group: PermGroup) -> RatFun:
    """Generating function of simultaneous-conjugacy classes of commuting tuples."""
    return gf_total(build_branching(commuting_process(group)))


def burnside_gf(*groups: PermGroup | ZSetGroup) -> RatFun:
    """Generating function of orbit counts on all n-tuples of the groups' direct product.

    Orbit counting gives sum over g of |Z(g)|^n / |G|, i.e. the sum of
    size/|G| * 1/(1 - |Z|t) = 1/(|Z| (1 - |Z|t)) over conjugacy classes.  A
    class of a product is a tuple of factor classes whose |Z| is the product
    of theirs, so classes are tallied by |Z| and no product element is listed.
    Each group, a PermGroup or a wreaths.ZSetGroup, gives its classes as
    centralizer_orders.
    """
    return _centralizer_sum(
        class_product(1, (group.centralizer_orders.items() for group in groups), operator.mul)
    )


def _centralizer_sum(tally: dict[int, int]) -> RatFun:
    """The sum over distinct z of c_z/(z (1 - zt)), for tally = {z: c_z}, reduced once.

    Distinct z give pairwise coprime factors 1 - zt, so with L = lcm(z) the sum
    is the sum of (c_z L/z)/(1 - zt), divided by L: halves add over the product
    of their denominators, with no gcd or lcm until the one reduction.
    """
    lcm = math.lcm(*tally)
    terms = [(Poly([count * (lcm // z)]), one_minus(z)) for z, count in tally.items()]

    def merged(lo: int, hi: int) -> tuple[Poly, Poly]:
        if hi - lo == 1:
            return terms[lo]
        mid = (lo + hi) // 2
        (num1, den1), (num2, den2) = merged(lo, mid), merged(mid, hi)
        return num1 * den2 + num2 * den1, den1 * den2

    num, den = merged(0, len(terms))
    return RatFun(num, den.scale(lcm))


def burnside_gf_elementwise(group: PermGroup) -> RatFun:
    """Same series as burnside_gf, summed element by element (slow cross-check)."""
    n = group.order
    terms = [
        RatFun(Poly([1]), Poly([n]) * Poly([1, -group.centralizer([g]).order]))
        for g in group.elements
    ]
    return ratfun_sum(terms)


# -- symmetric-group partition formula ----------------------------------------


def symmetric_burnside_gf(m: int) -> RatFun:
    """Tuple-orbit generating function of S_m via the cycle-type sum."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _centralizer_sum(Counter(zlambda(lam) for lam in partitions(m)))


# -- brute-force orbit oracle --------------------------------------------------


def commuting_orbit_counts(
    group: PermGroup, n_max: int, budget: int = DEFAULT_WORK_BUDGET
) -> list[int]:
    """Exact orbit counts of commuting n-tuples for n = 0..n_max.

    Representatives are lexicographically least under simultaneous
    conjugation, and a prefix is extended only by elements centralizing it,
    each replaced by its least conjugate under the conjugation tables that
    fix the prefix.  The budget caps the number of candidates examined.
    """
    tables = group.conjugation_tables

    def centralizing(rep: tuple[int, ...]) -> list[int]:
        # Element c centralizes a iff conjugation by c fixes a.
        return [c for c in range(group.order) if all(tables[c][a] == a for a in rep)]

    levels = canonical_levels(n_max, centralizing, stabilizer_minima(tables), budget)
    return [len(reps) for reps in levels]

