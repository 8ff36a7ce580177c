"""Point and vector configurations: Stirling, Bell, Gaussian-binomial counting.

An n-point configuration in an m-element set is an orbit of the symmetric
group acting diagonally on n-tuples; its type is the number of distinct
entries.  A vector configuration is the GL_m(F_q) analog on n-tuples of
vectors, typed by the dimension of their span.  Both trees are chains: a
type-i node keeps type i or steps to type i+1, so the class generating
functions are telescoping products and the level counts are Stirling
numbers of the second kind, Bell numbers, Gaussian binomial coefficients
and their q-Bell (subspace-total) analog.

Closed forms follow the convention fixed by the enumeration oracles
(built on branchgf.orbits): with rate(r) the children a type-r node keeps
at type r (r for points, q^r for vectors), the type-i class generating
function is t^i * prod_{r=0..i} 1/(1-rate(r)*t).  Their sums, the total
generating functions, grow fast with m: point_config_gf admits m up to
POINT_M_LIMIT, and vector_config_gf bounds the size of its denominator by
VECTOR_SIZE_LIMIT, so the largest admitted case of each takes about a
second; others raise SizeLimitError before any polynomial is built.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

from .engine import BranchingProcess
from .errors import SizeLimitError
from .fields import Fq, echelon_basis, span_values
from .orbits import DEFAULT_WORK_BUDGET, canonical_levels, stabilizer_minima
from .polyring import ONE, Poly, RatFun, ratfun_sum

__all__ = [
    "point_config_process",
    "point_config_gf",
    "stirling2",
    "bell",
    "vector_config_process",
    "vector_config_gf",
    "gaussian_binom",
    "q_stirling",
    "q_bell",
    "point_orbit_counts",
    "vector_orbit_counts",
    "row_space_bijection_check",
    "all_subspaces",
]


# -- branching processes ---------------------------------------------------------


def _type_chain(m: int, stay: Callable[[int], int]) -> BranchingProcess:
    """Chain process: a type-i node has stay(i) children of type i and,
    below m, one child of type i+1."""
    if m < 0:
        raise ValueError("m must be non-negative")

    def children(i: int) -> dict[int, int]:
        counts = {i: stay(i)}
        if i < m:
            counts[i + 1] = 1
        return counts

    return BranchingProcess(root=0, children=children, label=lambda i: f"type {i}")


# Set so that the largest admitted closed form of each kind, printed by
# `configs`, takes about a second on a 2-vCPU x86-64 VM with Python 3.11:
# points m = 150 in 0.8 s, vectors q = 10^16 + 61, m = 18 in 0.6 s and
# q = 3317044064679887385961813, m = 16 in 1.0 s.
POINT_M_LIMIT = 150
VECTOR_SIZE_LIMIT = 200_000


def _point_rate(i: int) -> int:
    return i


def point_config_process(m: int) -> BranchingProcess:
    """Chain process for point configurations: a type-i node has i children
    of type i and, below m, one child of type i+1."""
    return _type_chain(m, _point_rate)


def vector_config_process(q: int, m: int) -> BranchingProcess:
    """Chain process for vector configurations: a type-i node has q^i
    children of type i and, below m, one child of type i+1."""
    return _type_chain(m, partial(pow, q))


def _type_gf(i: int, rate: Callable[[int], int]) -> RatFun:
    """Generating function of type-i configurations (any m >= i) in the
    chain whose type-r nodes keep rate(r) children of type r."""
    den = ONE
    for r in range(i + 1):
        den = den * Poly([1, -rate(r)])
    return RatFun(Poly([0] * i + [1]), den)


def point_config_gf(m: int) -> RatFun:
    """Total point-configuration generating function, as the type sum."""
    if m > POINT_M_LIMIT:
        raise SizeLimitError(f"{m} points; the supported bound is m <= {POINT_M_LIMIT}")
    return ratfun_sum(_type_gf(i, _point_rate) for i in range(m + 1))


def vector_config_gf(q: int, m: int) -> RatFun:
    """Total vector-configuration generating function, as the type sum.

    Its size rule bounds (m + 1) * m(m + 1)/2 * ceil(log2 q), the bits the
    denominator prod_{r=0..m} (1 - q^r t) would hold if each of its m + 1
    coefficients were as long as the last, q^(m(m+1)/2).
    """
    size = (m + 1) * (m * (m + 1) // 2) * (q - 1).bit_length()
    if size > VECTOR_SIZE_LIMIT:
        raise SizeLimitError(
            f"q = {q}, m = {m} gives (m + 1) * m(m + 1)/2 * ceil(log2 q) = {size}; "
            f"the supported bound is {VECTOR_SIZE_LIMIT}"
        )
    return ratfun_sum(_type_gf(i, partial(pow, q)) for i in range(m + 1))


# -- triangles -------------------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, i: int) -> int:
    """Set partitions of an n-set into exactly i blocks, S(n, i)."""
    if n < 0 or i < 0:
        raise ValueError("arguments must be non-negative")
    if n == 0:
        return 1 if i == 0 else 0
    if i == 0 or i > n:
        return 0
    return stirling2(n - 1, i - 1) + i * stirling2(n - 1, i)


def bell(n: int) -> int:
    """Number of set partitions of an n-set (row sum of the Stirling triangle)."""
    return sum(stirling2(n, i) for i in range(n + 1))


@lru_cache(maxsize=None)
def q_stirling(n: int, i: int, q: int) -> int:
    """Vector-configuration type counts: S_q(n,i) = S_q(n-1,i-1) + q^i * S_q(n-1,i)."""
    if n < 0 or i < 0:
        raise ValueError("arguments must be non-negative")
    if n == 0:
        return 1 if i == 0 else 0
    if i == 0:
        return 1
    if i > n:
        return 0
    return q_stirling(n - 1, i - 1, q) + q**i * q_stirling(n - 1, i, q)


def gaussian_binom(n: int, i: int, q: int) -> int:
    """Number of i-dimensional subspaces of an n-dimensional space over F_q.

    Computed by the q-factorial product formula, deliberately not the same
    recurrence as q_stirling so that equality of the two is a real check;
    q = 1 degenerates to the ordinary binomial coefficient.
    """
    if n < 0 or i < 0:
        raise ValueError("arguments must be non-negative")
    if i > n:
        return 0
    num, den = 1, 1
    for j in range(i):
        num *= (q ** (n - j) - 1) if q > 1 else (n - j)
        den *= (q ** (j + 1) - 1) if q > 1 else (j + 1)
    assert num % den == 0
    return num // den


def q_bell(n: int, q: int) -> int:
    """Total number of subspaces of an n-dimensional space over F_q."""
    return sum(q_stirling(n, i, q) for i in range(n + 1))


# -- enumeration oracles -----------------------------------------------------------


def _type_splits(
    levels: Iterable[list[tuple[int, ...]]], m: int, type_of: Callable[[tuple[int, ...]], int]
) -> tuple[list[int], list[list[int]]]:
    totals: list[int] = []
    by_type: list[list[int]] = []
    for reps in levels:
        totals.append(len(reps))
        split = [0] * (m + 1)
        for rep in reps:
            split[type_of(rep)] += 1
        by_type.append(split)
    return totals, by_type


def point_orbit_counts(
    m: int, n_max: int, budget: int = DEFAULT_WORK_BUDGET
) -> tuple[list[int], list[list[int]]]:
    """Orbit totals and per-type splits for point tuples, by direct enumeration.

    Returns (totals, by_type) with by_type[n][i] the number of level-n
    orbits of type i.  Any point may extend a prefix.  A canonical
    representative with k distinct points uses the points 0..k-1; its
    stabilizer fixes those and permutes the rest, so the least images of
    the points are 0..k-1 and then k.
    """
    lows = [[*range(k), *[k] * (m - k)] for k in range(m + 1)]
    levels = canonical_levels(n_max, lambda rep: range(m), lambda r: lows[len(set(r))], budget)
    return _type_splits(levels, m, lambda rep: len(set(rep)))


def brute_point_orbit_count(m: int, n: int) -> int:
    """Slow reference: canonical minima taken over all of S_m explicitly."""
    perms = list(itertools.permutations(range(m)))
    canon = set()
    for tup in itertools.product(range(m), repeat=n):
        canon.add(min(tuple(p[x] for x in tup) for p in perms))
    return len(canon)


@lru_cache(maxsize=None)
def _field(q: int) -> Fq:
    return Fq(q)


@lru_cache(maxsize=None)
def _vector_list(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(q), repeat=m))


@lru_cache(maxsize=None)
def _gl_action_tables(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    """For each invertible m x m matrix, in itertools.product order of its
    row-major entries, its permutation of vector indices: span_values of its
    columns lists the images of _vector_list in order.  The matrices are
    walked row by row, each row outside the span of the rows above it, so
    no singular matrix is formed."""
    field = _field(q)
    vectors = _vector_list(q, m)
    index = {v: i for i, v in enumerate(vectors)}

    def invertible(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(rows) == m:
            yield rows
            return
        span = set(span_values(field, rows, m))
        for v in vectors:
            if v not in span:
                yield from invertible(rows + (v,))

    return tuple(
        tuple(map(index.__getitem__, span_values(field, list(zip(*rows)), m)))
        for rows in invertible(())
    )


def _vector_rep_levels(
    q: int, m: int, n_max: int, budget: int
) -> Iterator[list[tuple[int, ...]]]:
    """Canonical orbit representatives (as vector-index tuples) per level."""
    tables = _gl_action_tables(q, m)
    return canonical_levels(n_max, lambda rep: range(q**m), stabilizer_minima(tables), budget)


def vector_orbit_counts(
    q: int, m: int, n_max: int, budget: int = DEFAULT_WORK_BUDGET
) -> tuple[list[int], list[list[int]]]:
    """Orbit totals and per-type splits for vector tuples under GL_m(F_q).

    Canonical representatives are lexicographic minima over the explicitly
    enumerated general linear group, each extended by the least images of
    the vectors under the matrices that fix it (orbits.stabilizer_minima),
    so keep m small.
    """
    field = _field(q)
    vectors = _vector_list(q, m)
    return _type_splits(
        _vector_rep_levels(q, m, n_max, budget),
        m,
        lambda rep: len(echelon_basis(field, [vectors[i] for i in rep])),
    )


# -- subspaces and the row-space bijection ------------------------------------------


def _span_set(field: Fq, gens, width: int) -> frozenset[tuple[int, ...]]:
    return frozenset(span_values(field, echelon_basis(field, gens), width))


@lru_cache(maxsize=None)
def all_subspaces(q: int, n: int) -> frozenset[frozenset[tuple[int, ...]]]:
    """Every subspace of F_q^n, each as the frozenset of its vectors, as the
    spans of all sets of at most n vectors.  Cached, so the row-space checks
    of one run list the subspaces of each F_q^n once."""
    field = _field(q)
    vectors = _vector_list(q, n)
    return frozenset(
        _span_set(field, gens, n)
        for dim in range(n + 1)
        for gens in itertools.combinations(vectors, dim)
    )


def _subspace_dim(space: frozenset, q: int) -> int:
    size = len(space)
    dim = 0
    while q**dim < size:
        dim += 1
    return dim


def row_space_bijection_check(
    q: int, m: int, n: int, budget: int = DEFAULT_WORK_BUDGET
) -> bool:
    """Does tuple -> row space of its m x n coordinate matrix biject orbits
    onto the subspaces of F_q^n of dimension <= m, matching type to dimension?

    Both sides are enumerated: orbits by canonical minima over GL_m(F_q),
    subspaces by closing spans of generator sets.
    """
    field = _field(q)
    vectors = _vector_list(q, m)
    *_, reps = _vector_rep_levels(q, m, n, budget)
    seen_spaces: set[frozenset] = set()
    for rep in reps:
        cols = [vectors[i] for i in rep]  # column j holds vector j of the tuple
        rows = [tuple(cols[j][i] for j in range(n)) for i in range(m)]
        space = _span_set(field, rows, n)
        if _subspace_dim(space, q) != len(echelon_basis(field, cols)):
            return False  # row rank must equal column rank
        if space in seen_spaces:
            return False  # not injective
        seen_spaces.add(space)
    expected = {s for s in all_subspaces(q, n) if _subspace_dim(s, q) <= m}
    return seen_spaces == expected
