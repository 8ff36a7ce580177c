"""Commuting tuples in S_m counted as Z^n-sets, a closed form beside the oracles.

A commuting n-tuple in S_m is an action of Z^n on m points, and simultaneous
conjugacy is isomorphism of such actions.  A Z^n-set is the disjoint union
of its orbits, and a transitive one of size d is Z^n / H for a subgroup H
of index d, so (J. Bryan and J. Fulman, "Orbifold Euler characteristics and
the number of commuting m-tuples in the symmetric groups", Ann. Comb. 2,
1998)

    h_n(S_m) = [x^m] prod_{d >= 1} (1 - x^d)^(-a_n(d)),

where a_n(d) counts the index-d subgroups of Z^n: a_0(d) = [d = 1] and
a_n(d) = sum over e | d of e^(n-1) a_(n-1)(d / e).  The module uses no
group, tree or registry code, so it checks the commuting tree of S_m
independently of the keys.
"""

from __future__ import annotations

import math

__all__ = ["symmetric_commuting_counts"]


def symmetric_commuting_counts(m: int, n_max: int) -> list[int]:
    """h_n(S_m), the classes of commuting n-tuples in S_m, for n = 0..n_max."""
    if m < 0 or n_max < 0:
        raise ValueError("m and n_max must be non-negative")
    subgroups = [0, 1] + [0] * (m - 1)  # a_0(d) for d = 0..m
    out = []
    for n in range(n_max + 1):
        if n:
            subgroups = [0] + [
                sum(e ** (n - 1) * subgroups[d // e] for e in range(1, d + 1) if d % e == 0)
                for d in range(1, m + 1)
            ]
        series = [1] + [0] * m  # prod over d of (1 - x^d)^(-a_n(d)), to x^m
        for d in range(1, m + 1):
            a = subgroups[d]
            if a:  # (1 - x^d)^(-a) = sum over k of C(a + k - 1, k) x^(dk)
                series = [
                    sum(math.comb(a + k - 1, k) * series[i - d * k] for k in range(i // d + 1))
                    for i in range(m + 1)
                ]
        out.append(series[m])
    return out
