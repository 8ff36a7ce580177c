"""Finite fields, matrix algebras, and commuting-tuple similarity classes.

Simultaneous-similarity classes of commuting n-tuples in M_m(F_q) - i.e.
isomorphism classes of m-dimensional modules over a polynomial algebra in
n variables - form a self-similar rooted tree exactly as commuting tuples
in a group do, with the running centralizer subring in the role of the
centralizer subgroup and unit-group conjugacy in the role of conjugacy.
States are keyed by unital-ring isomorphism classes, and module_process
builds the tree with engine.centralizer_tower, as branchgf.commuting does.

Matrices are flat tuples of field elements (ints < q); fields carry
precomputed arithmetic tables.  Ambient rings of up to 81 elements run
plainly; 82 to 512 elements (M_2(F_4), M_3(F_2)) need stretch=True, and
larger ones raise SizeLimitError.  The brute-force oracle
module_orbit_counts enumerates the same classes with branchgf.orbits.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, partial
from typing import Iterable, NamedTuple, Sequence

from .engine import BranchingProcess, build_branching, centralizer_tower, gf_total
from .errors import ElementNotInAlgebraError, SizeLimitError
from .orbits import DEFAULT_WORK_BUDGET, canonical_levels, closure, extend_map
from .orbits import canonical_form, greedy_generators, orbit_partition
from .polyring import RatFun

__all__ = [
    "Fq",
    "prime_power",
    "MatRing",
    "Subalgebra",
    "RingKey",
    "RingKeyRegistry",
    "centralizer_ring",
    "unit_conjugacy_classes",
    "module_process",
    "module_gf",
    "module_orbit_counts",
    "module_orbit_oracle",
]

RING_SIZE_LIMIT = 512
PLAIN_SIZE_LIMIT = 81  # larger ambient rings, up to RING_SIZE_LIMIT, need stretch=True

Mat = tuple[int, ...]  # row-major flat m*m tuple of field elements


class Fq:
    """Finite field of order q = p^k with full arithmetic tables.

    Elements are the integers 0..q-1; for prime powers the base-p digits
    of an element are the coefficients of a residue polynomial modulo the
    lexicographically first irreducible polynomial of degree k.  Field
    axioms are spot-checked exhaustively at construction (q <= 9 keeps
    this instant).
    """

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            modulus = _first_irreducible(p, k)
            add = [
                [_encode(_poly_add(_digits(a, p, k), _digits(b, p, k), p), p) for b in range(q)]
                for a in range(q)
            ]
            mul = [
                [
                    _encode(_poly_mulmod(_digits(a, p, k), _digits(b, p, k), modulus, p), p)
                    for b in range(q)
                ]
                for a in range(q)
            ]
        self.add = tuple(tuple(row) for row in add)
        self.mul = tuple(tuple(row) for row in mul)
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self.mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise ArithmeticError(f"no inverse for {a} in F_{q}")
        self.inv = tuple(inv)
        self._check_axioms()

    def _check_axioms(self) -> None:
        q, add, mul = self.q, self.add, self.mul
        for a in range(q):
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise ArithmeticError("identity axiom failed")
        for a in range(q):
            for b in range(q):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise ArithmeticError("commutativity failed")
                for c in range(q):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise ArithmeticError("additive associativity failed")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise ArithmeticError("multiplicative associativity failed")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise ArithmeticError("distributivity failed")

    def __repr__(self) -> str:
        return f"Fq({self.q})"


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime p; ValueError when q is no prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # The least divisor above 1 is prime; q is a prime power iff it is p^k.
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, n = 0, q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def _digits(e: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _encode(digits: Sequence[int], p: int) -> int:
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _poly_add(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return [(x + y) % p for x, y in zip(a, b)]


def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for j in range(k):
                prod[top - k + j] = (prod[top - k + j] - c * modulus[j]) % p
    return prod[:k]


def _first_irreducible(p: int, k: int) -> list[int]:
    # Monic degree-k polynomial as coefficient list c_0..c_{k-1}, 1; first in
    # lexicographic order of (c_0, ..., c_{k-1}) with no root in F_p (enough
    # for k <= 3) and, for k >= 4, no factor of degree <= k//2.
    for coeffs in itertools.product(range(p), repeat=k):
        poly = list(coeffs) + [1]
        if any(_poly_eval(poly, x, p) == 0 for x in range(p)):
            continue
        if k >= 4 and _has_small_factor(poly, p, k):
            continue
        return poly
    raise ArithmeticError(f"no irreducible polynomial of degree {k} over F_{p}")


def _poly_eval(poly: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _has_small_factor(poly: Sequence[int], p: int, k: int) -> bool:
    for d in range(2, k // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            divisor = list(coeffs) + [1]
            if _poly_divides(divisor, poly, p):
                return True
    return False


def _poly_divides(d: Sequence[int], poly: Sequence[int], p: int) -> bool:
    rem = list(poly)
    dd = len(d) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        q = rem[-1]  # divisor is monic
        shift = len(rem) - 1 - dd
        for j in range(len(d)):
            rem[shift + j] = (rem[shift + j] - q * d[j]) % p
    return not any(rem)


# -- matrices over Fq -----------------------------------------------------------


def mat_identity(m: int) -> Mat:
    return tuple(1 if i == j else 0 for i in range(m) for j in range(m))


def mat_zero(m: int) -> Mat:
    return (0,) * (m * m)


def mat_mul(field: Fq, a: Mat, b: Mat, m: int) -> Mat:
    add, mul = field.add, field.mul
    out = [0] * (m * m)
    for i in range(m):
        row = i * m
        for k in range(m):
            aik = a[row + k]
            if aik:
                brow = k * m
                for j in range(m):
                    out[row + j] = add[out[row + j]][mul[aik][b[brow + j]]]
    return tuple(out)


def mat_add(field: Fq, a: Mat, b: Mat) -> Mat:
    add = field.add
    return tuple(add[x][y] for x, y in zip(a, b))


def mat_inv(field: Fq, a: Mat, m: int) -> Mat | None:
    """Inverse by Gauss-Jordan elimination, or None when singular."""
    aug = [list(a[i * m : (i + 1) * m]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = inv[aug[col][col]]
        aug[col] = [mul[scale][x] for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                factor = neg[aug[r][col]]
                aug[r] = [add[x][mul[factor][y]] for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][m + j] for i in range(m) for j in range(m))


def echelon_basis(field: Fq, vectors: Iterable[Sequence[int]]) -> list:
    """The vectors outside the span of those before them, by Gaussian elimination.

    They form a basis of the span of all the vectors.
    """
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    basis = []
    echelon: list[tuple[list[int], int]] = []
    for v in vectors:
        vec = list(v)
        for row, piv in echelon:
            if vec[piv]:
                factor = neg[mul[vec[piv]][inv[row[piv]]]]
                vec = [add[x][mul[factor][y]] for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is not None:
            basis.append(v)
            echelon.append((vec, piv))
    return basis


class MatRing:
    """The full matrix ring M_m(F_q) with indexed element enumeration."""

    def __init__(self, field: Fq, m: int):
        if field.q ** (m * m) > RING_SIZE_LIMIT:
            raise SizeLimitError(
                f"M_{m}(F_{field.q}) has {field.q ** (m * m)} elements; "
                f"the supported bound is {RING_SIZE_LIMIT}"
            )
        self.field = field
        self.m = m
        self.identity = mat_identity(m)
        self.zero = mat_zero(m)

    @cached_property
    def elements(self) -> tuple[Mat, ...]:
        return tuple(itertools.product(range(self.field.q), repeat=self.m * self.m))

    @cached_property
    def element_index(self) -> dict[Mat, int]:
        return {a: i for i, a in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return self.field.q ** (self.m * self.m)

    def mul(self, a: Mat, b: Mat) -> Mat:
        return mat_mul(self.field, a, b, self.m)

    def inv(self, a: Mat) -> Mat | None:
        return mat_inv(self.field, a, self.m)

    @cached_property
    def units(self) -> tuple[Mat, ...]:
        return tuple(a for a in self.elements if mat_inv(self.field, a, self.m) is not None)

    @cached_property
    def unit_conjugation_tables(self) -> tuple[tuple[int, ...], ...]:
        """Per unit u, the index permutation a -> u a u^-1 over all elements,
        composed from the tables of a generating set: table_ug = table_u o table_g."""
        idx = self.element_index
        gens = greedy_generators(self.units, self.identity, self.mul, partial(_mult_order, self))
        generator_pairs = [
            (g, tuple(idx[self.mul(self.mul(g, a), ginv)] for a in self.elements))
            for g, ginv in zip(gens, map(self.inv, gens))
        ]

        def compose(pair, gen):
            (u, table_u), (g, table_g) = pair, gen
            return self.mul(u, g), tuple(map(table_u.__getitem__, table_g))

        tables = extend_map((self.identity, tuple(range(self.size))), generator_pairs, compose)
        if tables is None or len(tables) != len(self.units):
            raise ArithmeticError("the unit generators do not generate the unit group")
        return tuple(tables[u] for u in self.units)

    def __repr__(self) -> str:
        return f"MatRing(F_{self.field.q}, m={self.m})"


class Subalgebra:
    """Unital subring of a matrix ring, stored as an explicit element set."""

    def __init__(self, ring: MatRing, elements: Iterable[Mat]):
        self.ring = ring
        self.elements: frozenset[Mat] = frozenset(elements)
        if ring.zero not in self.elements or ring.identity not in self.elements:
            raise ValueError("a unital subring must contain 0 and 1")

    @classmethod
    def full(cls, ring: MatRing) -> "Subalgebra":
        return cls(ring, ring.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def sorted_elements(self) -> tuple[Mat, ...]:
        return tuple(sorted(self.elements))

    @cached_property
    def basis(self) -> tuple[Mat, ...]:
        """F_q-basis of the element set, which must be closed under addition.

        The basis spans every element, so q**len(basis) == size holds
        exactly when the set is the whole span.
        """
        q = self.ring.field.q
        basis = tuple(echelon_basis(self.ring.field, self.sorted_elements))
        if q ** len(basis) != self.size:
            raise ValueError("element set is not closed under addition")
        return basis

    @cached_property
    def units(self) -> tuple[Mat, ...]:
        """Elements invertible in the ambient ring; inverses land back in the set."""
        out = []
        for a in self.sorted_elements:
            ainv = self.ring.inv(a)
            if ainv is not None:
                if ainv not in self.elements:
                    raise ArithmeticError(
                        "unit inverse escaped the subalgebra; the set is not a subring"
                    )
                out.append(a)
        return tuple(out)

    @cached_property
    def is_commutative(self) -> bool:
        basis = self.basis
        return all(
            self.ring.mul(a, b) == self.ring.mul(b, a)
            for a, b in itertools.combinations(basis, 2)
        )

    @cached_property
    def center_size(self) -> int:
        basis = self.basis
        return sum(
            1
            for a in self.elements
            if all(self.ring.mul(a, b) == self.ring.mul(b, a) for b in basis)
        )

    def __repr__(self) -> str:
        return f"Subalgebra(size={self.size} of {self.ring!r})"


def centralizer_ring(z: Subalgebra, a: Mat) -> Subalgebra:
    """Subring of elements of z commuting with a."""
    if a not in z.elements:
        raise ElementNotInAlgebraError("element is not in the subalgebra")
    ring = z.ring
    return Subalgebra(
        ring, (b for b in z.elements if ring.mul(a, b) == ring.mul(b, a))
    )


def unit_conjugacy_classes(z: Subalgebra) -> list[tuple[Mat, int]]:
    """Orbits of the unit group acting on z by conjugation: (least rep, size)."""
    ring = z.ring
    # Highest multiplicative order first: keeps conjugation orbits cheap to walk.
    units = greedy_generators(
        z.units, ring.identity, ring.mul, lambda u: (_mult_order(ring, u), tuple(-c for c in u))
    )
    gens = [(g, ring.inv(g)) for g in units]

    def conjugate(x: Mat, gen: tuple[Mat, Mat]) -> Mat:
        return ring.mul(ring.mul(gen[0], x), gen[1])

    return [(min(o), len(o)) for o in orbit_partition(z.sorted_elements, gens, conjugate)]


# -- ring isomorphism keys ------------------------------------------------------


class RingKey(NamedTuple):
    """Hashable name for a unital-ring isomorphism class (registry-scoped tag)."""

    fingerprint: tuple
    tag: int

    @property
    def size(self) -> int:
        return self.fingerprint[0]

    def __str__(self) -> str:
        return f"r{self.size}.{self.tag}"


def _additive_order(field: Fq, a: Mat) -> int:
    # Always the field characteristic for nonzero a, but computed honestly.
    n, x = 1, a
    zero = (0,) * len(a)
    while x != zero:
        x = tuple(field.add[u][v] for u, v in zip(x, a))
        n += 1
    return n


def _mult_order(ring: MatRing, u: Mat) -> int:
    n, x = 1, u
    while x != ring.identity:
        x = ring.mul(x, u)
        n += 1
    return n


def _nilpotency_index(ring: MatRing, a: Mat) -> int:
    """Least k with a^k = 0, or 0 if a is not nilpotent."""
    x = a
    for k in range(1, ring.m + 1):
        if x == ring.zero:
            return k
        x = ring.mul(x, a)
    return 1 if a == ring.zero else 0


def ring_fingerprint(z: Subalgebra) -> tuple:
    """Cheap unital-ring isomorphism invariants."""
    field = z.ring.field
    unit_orders: dict[int, int] = {}
    for u in z.units:
        o = _mult_order(z.ring, u)
        unit_orders[o] = unit_orders.get(o, 0) + 1
    additive_exponent = max(_additive_order(field, a) for a in z.elements)
    return (
        z.size,
        len(z.units),
        z.center_size,
        additive_exponent,
        tuple(sorted(unit_orders.items())),
        z.is_commutative,
    )


def _ring_generators(z: Subalgebra) -> tuple[Mat, ...]:
    # Smallest elements (by flat-tuple order) that grow the closed subring,
    # greedily by closure size.
    closure = _subring_closure(z.ring, [])
    gens: list[Mat] = []
    while len(closure) < z.size:
        best = None
        best_closure = None
        for a in z.sorted_elements:
            if a in closure:
                continue
            trial = _subring_closure(z.ring, gens + [a])
            if best_closure is None or len(trial) > len(best_closure):
                best, best_closure = a, trial
                if len(trial) == z.size:
                    break
        gens.append(best)
        closure = best_closure
    return tuple(gens)


def _subring_closure(ring: MatRing, seed: Sequence[Mat]) -> set[Mat]:
    # The subring generated by seed is the additive (F_p, not F_q) span of
    # the multiplicative monoid that seed and 1 generate.
    monoid = closure(ring.identity, seed, ring.mul)
    return closure(ring.zero, list(monoid), partial(mat_add, ring.field))


def _element_profile(z: Subalgebra, a: Mat) -> tuple:
    ring = z.ring
    is_unit = ring.inv(a) is not None
    return (
        _additive_order(ring.field, a),
        _mult_order(ring, a) if is_unit else 0,
        _nilpotency_index(ring, a),
        ring.mul(a, a) == a,
        all(ring.mul(a, b) == ring.mul(b, a) for b in z.basis),
    )


def ring_is_isomorphic(z1: Subalgebra, z2: Subalgebra) -> bool:
    """Decide unital-ring isomorphism by trying images of a generating set.

    Each generator of z1 (none for the prime ring) tries, in sorted order,
    the elements of z2 with the same element profile.
    """
    if z1.size != z2.size:
        return False
    if z1.ring is z2.ring and z1.elements == z2.elements:
        return True
    if ring_fingerprint(z1) != ring_fingerprint(z2):
        return False
    gens = _ring_generators(z1)
    profiles = [_element_profile(z1, g) for g in gens]
    candidates = [
        [b for b in z2.sorted_elements if _element_profile(z2, b) == p] for p in profiles
    ]
    return any(
        _is_ring_isomorphism(z1, z2, gens, images) for images in itertools.product(*candidates)
    )


def _is_ring_isomorphism(
    z1: Subalgebra, z2: Subalgebra, gens: Sequence[Mat], images: Sequence[Mat]
) -> bool:
    """Whether gens -> images extends to a ring isomorphism from z1 onto z2.

    The map extends over the monoid of gens and 1, by right multiplication,
    then over its additive span, z1.  Multiplicative on the monoid and
    additive, it is a ring homomorphism, bijective with z2.size images.
    """
    r1, r2 = z1.ring, z2.ring

    def times(pair, gen):
        return r1.mul(pair[0], gen[0]), r2.mul(pair[1], gen[1])

    def plus(pair, gen):
        return mat_add(r1.field, pair[0], gen[0]), mat_add(r2.field, pair[1], gen[1])

    monoid = extend_map((r1.identity, r2.identity), list(zip(gens, images)), times)
    if monoid is None:
        return False
    span = extend_map((r1.zero, r2.zero), list(monoid.items()), plus)
    return span is not None and len(set(span.values())) == z2.size


class RingKeyRegistry:
    """First-seen tags for ring isomorphism classes, plus a same-set fast path."""

    def __init__(self):
        self._by_fingerprint: dict[tuple, list[tuple[Subalgebra, int]]] = {}
        self._by_elements: dict[frozenset, RingKey] = {}
        self._next_tag = 0
        self.representatives: dict[RingKey, Subalgebra] = {}

    def key_for(self, z: Subalgebra) -> RingKey:
        if z.size > RING_SIZE_LIMIT:
            raise SizeLimitError(
                f"ring keys support size <= {RING_SIZE_LIMIT}, got {z.size}"
            )
        cached = self._by_elements.get(z.elements)
        if cached is not None:
            return cached
        fp = ring_fingerprint(z)
        bucket = self._by_fingerprint.setdefault(fp, [])
        for rep, tag in bucket:
            if ring_is_isomorphic(rep, z):
                key = RingKey(fp, tag)
                self._by_elements[z.elements] = key
                return key
        tag = self._next_tag
        self._next_tag += 1
        bucket.append((z, tag))
        key = RingKey(fp, tag)
        self.representatives[key] = z
        self._by_elements[z.elements] = key
        return key


# -- the module-counting tree ----------------------------------------------------


def _matrix_ring(q: int, m: int, stretch: bool) -> MatRing:
    """M_m(F_q), up to PLAIN_SIZE_LIMIT elements, or RING_SIZE_LIMIT with stretch."""
    field = Fq(q)
    size = q ** (m * m)
    if size > (RING_SIZE_LIMIT if stretch else PLAIN_SIZE_LIMIT):
        raise SizeLimitError(
            f"M_{m}(F_{q}) has {size} elements; rings of up to {PLAIN_SIZE_LIMIT} elements "
            f"run plainly, up to {RING_SIZE_LIMIT} with --stretch (stretch=True), none larger"
        )
    return MatRing(field, m)


def module_process(q: int, m: int, stretch: bool = False) -> BranchingProcess:
    """Branching process counting m-dimensional modules of n-variable polynomial algebras.

    Level-n classes are simultaneous-similarity classes of commuting
    n-tuples in M_m(F_q).  The centralizer tower of M_m(F_q)
    (engine.centralizer_tower): the children of a state with centralizer
    ring Z are the unit-conjugacy classes of Z, keyed by the
    ring-isomorphism class of the centralizer in Z of a representative.
    """
    return centralizer_tower(
        Subalgebra.full(_matrix_ring(q, m, stretch)),
        RingKeyRegistry(),
        classes=lambda z: [rep for rep, _size in unit_conjugacy_classes(z)],
        centralizer=lambda z, rep: centralizer_ring(z, rep),
    )


def module_gf(q: int, m: int, stretch: bool = False) -> RatFun:
    """Generating function of m-dimensional module counts over F_q."""
    return gf_total(build_branching(module_process(q, m, stretch)))


def module_orbit_counts(
    q: int,
    m: int,
    n_max: int,
    budget: int = DEFAULT_WORK_BUDGET,
    stretch: bool = False,
) -> list[int]:
    """Brute-force counts of simultaneous-similarity classes of commuting tuples.

    Representatives are lexicographic minima over the full unit group, and
    a prefix is extended only by elements commuting with all its entries.
    """
    ring = _matrix_ring(q, m, stretch)
    elements = ring.elements

    def commuting(rep: tuple[int, ...]) -> list[int]:
        mats = [elements[i] for i in rep]
        return [
            i
            for i, c in enumerate(elements)
            if all(ring.mul(c, a) == ring.mul(a, c) for a in mats)
        ]

    tables = ring.unit_conjugation_tables
    levels = canonical_levels(n_max, commuting, canonical_form(tables), budget)
    return [len(reps) for reps in levels]


def module_orbit_oracle(
    q: int, m: int, n: int, budget: int = DEFAULT_WORK_BUDGET, stretch: bool = False
) -> int:
    return module_orbit_counts(q, m, n, budget, stretch)[n]
