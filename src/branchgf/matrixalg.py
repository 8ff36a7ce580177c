"""Matrix algebras over finite fields and commuting-tuple similarity classes.

Simultaneous-similarity classes of commuting n-tuples in M_m(F_q) - i.e.
isomorphism classes of m-dimensional modules over a polynomial algebra in
n variables - form a self-similar rooted tree exactly as commuting tuples
in a group do, with the running centralizer subring in the role of the
centralizer subgroup and unit-group conjugacy in the role of conjugacy.
States are keyed by F_q-algebra isomorphism classes through
RingKeyRegistry, the engine's IsoRegistry with the subring's size and the
isomorphism test, which screens by the ring fingerprint itself; and
module_process builds the tree with engine.centralizer_tower, as
branchgf.commuting does, listing a state's classes as (centralizer, count)
pairs.

Matrices are flat tuples of field elements (ints < q) over a
branchgf.fields.Fq.  MatRing is only the ambient M_m(F_q): arithmetic and
matrix units.  Every subring, the whole ring Subalgebra.full included, is
a Subalgebra made from its reduced row echelon F_q-basis, which names it:
the center is the null space of one linear map, and so is the centralizer
of a non-central element, the isomorphism test evaluates one presentation
per prefix of the generators on their images, and element lists are built
only where unit-group orbits and that search need them; linear maps on
them are evaluated from basis images by fields.span_values.  Units are
read off determinants, with no inverse per element.  Unit generators and
their conjugation tables are chosen in one place,
Subalgebra.unit_generators, for the tree's unit classes and the oracle's
unit tables alike.

The tree's root lists no elements.  Its classes are the rational canonical
forms (similarity_classes), read off the monic irreducibles over F_q, and
grouped by type, the multiset of (deg f, lambda_f): classes of one type
have isomorphic centralizers, so each type is one pair, with one
centralizer null space.  A commutative state is one pair too, itself
|Z| times.  The largest element list is then a proper centralizer, of
at most q^((m-1)^2+1) elements; rings whose bound exceeds
CENTRALIZER_SIZE_LIMIT, or whose field exceeds FIELD_SIZE_LIMIT
elements, raise SizeLimitError before their field is built (M_4(F_2),
M_3(F_7) and M_2(F_139) run).  The brute-force oracle
module_orbit_counts enumerates the same classes with branchgf.orbits, on
rings of up to ORACLE_SIZE_LIMIT elements; it reads the full subring's
elements, units and unit tables, but nothing of the tree's root classes,
centralizers or keys.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property, partial, reduce
from operator import itemgetter
from typing import Sequence

from .engine import BranchingProcess, IsoKey, IsoRegistry, build_branching
from .commuting import partitions
from .engine import centralizer_tower, gf_total
from .errors import ElementNotInAlgebraError, SizeLimitError
from .fields import Fq, Span, prime_power, span_values
from .orbits import DEFAULT_WORK_BUDGET, canonical_levels, extend_map
from .orbits import canonical_form, greedy_generators, orbit_partition, search_images
from .polyring import RatFun

__all__ = [
    "Fq",
    "prime_power",
    "MatRing",
    "Subalgebra",
    "RingKeyRegistry",
    "centralizer_ring",
    "unit_conjugacy_classes",
    "unit_conjugation_tables",
    "similarity_classes",
    "module_process",
    "module_gf",
    "module_orbit_counts",
]

# The tree lists no element of its root M_m(F_q), only those of the subrings
# below it, the largest a proper centralizer of q^((m-1)^2+1) elements; fields
# F_q carry q x q tables; and the brute-force oracle's unit tables hold
# |units| x q^(m*m) entries.
CENTRALIZER_SIZE_LIMIT = 20000
FIELD_SIZE_LIMIT = 512
ORACLE_SIZE_LIMIT = 512

Mat = tuple[int, ...]  # row-major flat m*m tuple of field elements


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


@cache
def _leibniz_terms(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per permutation s of range(m): the flat positions i*m + s(i) of its
    entries, and its number of inversions mod 2 (1 when s is odd)."""
    pairs = list(itertools.combinations(range(m), 2))
    return tuple(
        (tuple(i * m + j for i, j in enumerate(s)), sum(s[i] > s[j] for i, j in pairs) % 2)
        for s in itertools.permutations(range(m))
    )


def mat_det(field: Fq, a: Mat, m: int) -> int:
    """Determinant as the Leibniz sum of m! products, each cut at its first
    zero factor: cheaper than elimination at the m of the admitted rings."""
    add, mul, neg = field.add, field.mul, field.neg
    det = 0
    for positions, odd in _leibniz_terms(m):
        term = 1
        for k in positions:
            term = mul[term][a[k]]
            if not term:
                break
        else:
            det = add[det][neg[term] if odd else term]
    return det


def _check_sizes(q: int, m: int, oracle: bool = False) -> None:
    """Refuse F_q above FIELD_SIZE_LIMIT elements, and M_m(F_q) whose largest
    proper centralizer (or, for the oracle, the whole ring) exceeds its bound."""
    if q > FIELD_SIZE_LIMIT:
        raise SizeLimitError(
            f"F_{q} has {q} elements; the supported field bound is {FIELD_SIZE_LIMIT}"
        )
    if oracle:
        dim, limit = m * m, ORACLE_SIZE_LIMIT
        listed, rule = f"M_{m}(F_{q}) has", "the brute-force oracle's bound"
    else:  # a non-scalar matrix commutes with at most (m-1)^2 + 1 dimensions
        dim, limit = (m - 1) ** 2 + 1 if m > 1 else 0, CENTRALIZER_SIZE_LIMIT
        listed, rule = f"M_{m}(F_{q}) has proper centralizers of", "the supported bound"
    # q**dim >= 2**dim passes the bound once dim reaches its bit length, so
    # the power is only formed while it is small.
    if dim >= limit.bit_length() or q**dim > limit:
        raise SizeLimitError(f"{listed} {q}^{dim} elements; {rule} is {limit}")


class MatRing:
    """The full matrix ring M_m(F_q) as an ambient context: its arithmetic
    and matrix units.  Its elements, units and unit tables are those of
    Subalgebra.full."""

    def __init__(self, field: Fq, m: int):
        _check_sizes(field.q, m)
        self.field = field
        self.m = m
        self.identity = mat_identity(m)
        self.zero = mat_zero(m)

    @property
    def size(self) -> int:
        return self.field.q ** (self.m * self.m)

    @cached_property
    def standard_basis(self) -> tuple[Mat, ...]:
        """The matrix units: E_k has a 1 at flat position k and 0 elsewhere."""
        n = self.m * self.m
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def mul(self, a: Mat, b: Mat) -> Mat:
        return mat_mul(self.field, a, b, self.m)

    def __repr__(self) -> str:
        return f"MatRing(F_{self.field.q}, m={self.m})"


class Subalgebra:
    """Unital subring of a matrix ring, carried by its F_q-basis.

    The basis is in reduced row echelon form, so it names the subring:
    equal subrings have equal bases.  The element list is built only when
    asked for (units, orbits, generators).
    """

    def __init__(self, ring: MatRing, basis: tuple[Mat, ...]):
        self.ring = ring
        self.basis = basis

    @classmethod
    def full(cls, ring: MatRing) -> "Subalgebra":
        return cls(ring, ring.standard_basis)

    @property
    def size(self) -> int:
        return self.ring.field.q ** len(self.basis)

    @cached_property
    def sorted_elements(self) -> tuple[Mat, ...]:
        """Every F_q-combination of the basis, in increasing order.

        A combination has its coefficient of the i-th basis row at that
        row's pivot column, and before it only entries fixed by the earlier
        coefficients; so the order of the combinations is the order of
        their coefficient tuples, the order span_values lists them in.
        """
        return tuple(span_values(self.ring.field, self.basis, len(self.ring.zero)))

    @cached_property
    def element_index(self) -> dict[Mat, int]:
        return {x: i for i, x in enumerate(self.sorted_elements)}

    @cached_property
    def _span(self) -> Span:
        span = Span(self.ring.field)
        for b in self.basis:
            span.add(b)
        return span

    def __contains__(self, a: Mat) -> bool:
        return a in self._span

    @cached_property
    def units(self) -> tuple[Mat, ...]:
        """Elements invertible in the ambient ring: those of nonzero determinant."""
        return tuple(a for a in self.sorted_elements if mat_det(self.ring.field, a, self.ring.m))

    @cached_property
    def unit_orders(self) -> dict[Mat, int]:
        """Multiplicative order of every unit, in the order of units.

        The powers of u up to its order o give all the orders of its cyclic
        group at once: u^j has order o / gcd(j, o).  They hold u's inverse
        u^(o-1), so each must lie in the set, or the set is not a subring.
        Only unit_generators reads them, to rank its candidates.
        """
        orders: dict[Mat, int] = {}
        for u in self.units:
            if u not in orders:
                powers, x = [u], u
                while x != self.ring.identity:
                    x = self.ring.mul(x, u)
                    if x not in self.element_index:
                        raise ArithmeticError("a unit power escaped the set: not a subring")
                    powers.append(x)
                for j, y in enumerate(powers, 1):
                    orders.setdefault(y, len(powers) // math.gcd(j, len(powers)))
        return {u: orders[u] for u in self.units}

    @cached_property
    def unit_generators(self) -> tuple[tuple[Mat, tuple[int, ...]], ...]:
        """Generators of the unit group, each with its conjugation table
        over sorted_elements.  Highest multiplicative order first: keeps
        conjugation orbits cheap to walk."""
        ring = self.ring
        gens = greedy_generators(
            self.units, ring.identity, ring.mul,
            lambda u: (self.unit_orders[u], tuple(-c for c in u)),
        )
        return tuple((g, _conjugation_table(self, g)) for g in gens)

    @cached_property
    def center(self) -> "Subalgebra":
        """The center: the null space of x -> ([x, b] for b in basis), with
        each commutator of two basis elements formed once, as [b, a] = -[a, b]."""
        ring, basis, neg = self.ring, self.basis, self.ring.field.neg
        brackets = [[ring.zero] * len(basis) for _ in basis]
        for i, j in itertools.combinations(range(len(basis)), 2):
            c = brackets[i][j] = _commutator(ring, basis[i], basis[j])
            brackets[j][i] = tuple(neg[x] for x in c)
        return Subalgebra(ring, _null_space(ring.field, [sum(row, ()) for row in brackets], basis))

    @cached_property
    def ring_generators(self) -> tuple[tuple[Mat, Presentation], ...]:
        return _ring_generators(self)

    @cached_property
    def element_profiles(self) -> tuple[tuple, ...]:
        """_element_profile of each element, in the order of sorted_elements."""
        return tuple(_element_profile(self, b) for b in self.sorted_elements)

    def __repr__(self) -> str:
        return f"Subalgebra(size={self.size} of {self.ring!r})"


def _commutator(ring: MatRing, a: Mat, b: Mat) -> Mat:
    add, neg = ring.field.add, ring.field.neg
    return tuple(add[x][neg[y]] for x, y in zip(ring.mul(a, b), ring.mul(b, a)))


def _null_space(field: Fq, images: Sequence[Mat], basis: Sequence[Mat]) -> tuple[Mat, ...]:
    """Null space in span(basis) of the linear map basis -> images: the second
    halves of the reduced rows (0 | x) of one elimination of the rows (image | b)."""
    n = len(images[0]) if images else 0
    span = Span(field)
    for image, b in zip(images, basis):
        span.add(image + b)
    return tuple(row[n:] for row in span.basis if not any(row[:n]))


def centralizer_ring(z: Subalgebra, a: Mat) -> Subalgebra:
    """Subring of z commuting with a: z if a is central, else one null space."""
    if a in z.center:
        return z
    if a not in z:
        raise ElementNotInAlgebraError("element is not in the subalgebra")
    images = [_commutator(z.ring, a, b) for b in z.basis]
    return Subalgebra(z.ring, _null_space(z.ring.field, images, z.basis))


def _conjugation_table(z: Subalgebra, g: Mat) -> tuple[int, ...]:
    """The map x -> g x g^-1 on z, as indices into z.sorted_elements: it is
    linear, so span_values of the images of the basis lists its values."""
    ring = z.ring
    ginv = mat_inv(ring.field, g, ring.m)
    images = [ring.mul(ring.mul(g, b), ginv) for b in z.basis]
    values = span_values(ring.field, images, len(ring.zero))
    return tuple(map(z.element_index.__getitem__, values))


def unit_conjugacy_classes(z: Subalgebra) -> list[tuple[Mat, int]]:
    """Orbits of the unit group acting on z by conjugation: (least rep, size),
    from the generator tables over z.sorted_elements."""
    elements = z.sorted_elements
    tables = [table for _g, table in z.unit_generators]
    orbits = orbit_partition(range(len(elements)), tables, lambda i, table: table[i])
    return [(elements[min(o)], len(o)) for o in orbits]


def unit_conjugation_tables(z: Subalgebra) -> tuple[tuple[int, ...], ...]:
    """Per unit u of z, the index permutation x -> u x u^-1 of
    z.sorted_elements, composed from the generator tables:
    table_ug = table_u o table_g, which is itemgetter(*table_g)(table_u),
    one getter built per generator.  An itemgetter of one index returns a
    scalar, so a one-entry table, which only a one-element z has, composes
    by tuple instead."""
    ring = z.ring

    def compose(pair, gen):
        (u, table_u), (g, getter) = pair, gen
        return ring.mul(u, g), getter(table_u)

    getters = [
        (g, itemgetter(*table) if len(table) > 1 else tuple)
        for g, table in z.unit_generators
    ]
    start = (ring.identity, tuple(range(z.size)))
    tables = extend_map(start, getters, compose)
    if tables is None or len(tables) != len(z.units):
        raise ArithmeticError("the unit generators do not generate the unit group")
    return tuple(tables[u] for u in z.units)


# -- ring isomorphism keys ------------------------------------------------------


def _nilpotency_index(ring: MatRing, a: Mat) -> int:
    """Least k with a^k = 0, or 0 if a is not nilpotent."""
    x = a
    for k in range(1, ring.m + 1):
        if x == ring.zero:
            return k
        x = ring.mul(x, a)
    return 1 if a == ring.zero else 0


def ring_fingerprint(z: Subalgebra) -> tuple:
    """Cheap isomorphism invariants of unital rings of one size: center
    size and number of units.  With the size, the center size fixes
    commutativity."""
    return (z.center.size, len(z.units))


# Per generator prefix: the steps (i, j), kept word = word i times generator
# j, and the relations (i, j, c), word i times generator j = sum c_l word l.
Presentation = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, tuple[int, ...]], ...]]


def _word_basis(ring: MatRing, gens: Sequence[Mat]) -> tuple[Span, Presentation]:
    """The words in gens that span the F_q-subalgebra they generate.

    Starting from the identity, word 0, each kept word is multiplied by
    every generator in turn, breadth-first, and a product is kept when it
    is F_q-independent of the words kept so far; otherwise its coordinates
    in them make a relation.  The span holds each kept word w_l as the row
    w_l + e_l, so reducing x + 0 leaves -c in the second half when x is
    the combination c of the kept words.
    """
    width, neg = len(ring.zero), ring.field.neg
    span = Span(ring.field)
    span.add(ring.identity + ring.standard_basis[0])
    words, steps, relations = [ring.identity], [], []
    for i, word in enumerate(words):  # grows while it is walked
        for j, g in enumerate(gens):
            x = ring.mul(word, g)
            reduced = span.reduce(x + ring.zero)
            if any(reduced[:width]):
                reduced[width + len(words)] = 1
                span.insert(reduced)
                steps.append((i, j))
                words.append(x)
            else:
                relations.append((i, j, tuple(neg[c] for c in reduced[width : width + len(words)])))
    return span, (tuple(steps), tuple(relations))


def _ring_generators(z: Subalgebra) -> tuple[tuple[Mat, Presentation], ...]:
    """Generators of z as an F_q-algebra, in one walk over sorted_elements:
    each element outside the subalgebra of those before it is one.  Each
    comes with the presentation of the subalgebra it and those before it
    generate."""
    ring, gens, out = z.ring, [], []
    span, _presentation = _word_basis(ring, gens)
    for a in z.sorted_elements:
        if len(span) == len(z.basis):
            break
        if any(span.reduce(a + ring.zero)[: len(a)]):
            gens.append(a)
            span, presentation = _word_basis(ring, gens)
            out.append((a, presentation))
    return tuple(out)


def _element_profile(z: Subalgebra, a: Mat) -> tuple:
    ring = z.ring
    nonzero, unit = any(a), mat_det(ring.field, a, ring.m) != 0
    if unit and nonzero:  # a nonzero unit is not nilpotent, and is idempotent only as 1
        powers = (0, a == ring.identity)
    else:
        powers = (_nilpotency_index(ring, a), ring.mul(a, a) == a)
    return (ring.field.p if nonzero else 1, unit, *powers, a in z.center)


def ring_is_isomorphic(z1: Subalgebra, z2: Subalgebra) -> bool:
    """Decide F_q-algebra isomorphism of two subrings of matrix rings over
    one F_q by searching images of a generating set.

    Screens by the size and then ring_fingerprint.  Each generator of z1
    (none for F_q itself) tries, in sorted order, the elements of z2 with
    the same element profile; orbits.search_images keeps a prefix of
    images only while _ring_map_extends accepts it, so one conflict drops
    every tuple that begins with that prefix.
    """
    if z1.size != z2.size or ring_fingerprint(z1) != ring_fingerprint(z2):
        return False
    if z1.ring is z2.ring and z1.basis == z2.basis:
        return True
    candidates = [
        [b for b, profile in zip(z2.sorted_elements, z2.element_profiles) if profile == wanted]
        for wanted in (_element_profile(z1, g) for g, _presentation in z1.ring_generators)
    ]
    return search_images(candidates, partial(_ring_map_extends, z1, z2))


def _ring_map_extends(z1: Subalgebra, z2: Subalgebra, images: Sequence[Mat]) -> bool:
    """Whether z1's first generators -> images extends to a one-to-one
    F_q-algebra map.

    The kept words of the prefix's presentation are an F_q-basis of the
    subalgebra S of z1 that those generators generate; f maps each to the
    same word in images, F_q-linearly.  When the image words are
    independent and satisfy every relation, f(w g) = f(w) f(g) for each
    kept word w and generator g (g = 1 g is a step or a relation too), so
    by linearity and induction on words f is a one-to-one F_q-algebra map
    on S.  With every generator S is z1, and f is then onto z2, as
    |z1| = |z2|.  An isomorphism extending gens -> images is such an f on
    every S, so it passes at every prefix.
    """
    steps, relations = z1.ring_generators[len(images) - 1][1]
    ring, add, mul = z2.ring, z2.ring.field.add, z2.ring.field.mul
    words, span = [ring.identity], Span(ring.field)
    span.add(ring.identity)
    for i, j in steps:
        words.append(ring.mul(words[i], images[j]))
        if not span.add(words[-1]):
            return False
    for i, j, coords in relations:
        value = ring.zero
        for c, w in zip(coords, words):
            if c:
                value = tuple(add[x][mul[c][y]] for x, y in zip(value, w))
        if ring.mul(words[i], images[j]) != value:
            return False
    return True


class RingKeyRegistry(IsoRegistry):
    """The engine's IsoRegistry for subrings; keys print as r<size>.<tag>."""

    def key_for(self, z: Subalgebra) -> IsoKey:
        """Key of z; a subring with a basis seen before skips all tests."""
        return self.lookup(z, z.basis, z.size, ring_is_isomorphic, "r")


# -- the root's classes: rational canonical forms ----------------------------------

FqPoly = tuple[int, ...]  # coefficients c_0, ..., c_d of a polynomial over F_q


def _poly_mul(field: Fq, f: FqPoly, g: FqPoly) -> FqPoly:
    add, mul = field.add, field.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = add[out[i + j]][mul[a][b]]
    return tuple(out)


def _monic_irreducibles(field: Fq, m: int) -> list[FqPoly]:
    """The monic irreducibles over F_q of degree 1..m, by degree: a sieve
    that marks f g for each irreducible f and monic g of degree >= 1 up to
    total degree m, so a degree's unmarked polynomials are its irreducibles
    once every lower degree is done."""
    monic = [[(*c, 1) for c in itertools.product(range(field.q), repeat=d)] for d in range(m + 1)]
    irreducibles: list[FqPoly] = []
    reducible: set[FqPoly] = set()
    for d in range(1, m + 1):
        new = [f for f in monic[d] if f not in reducible]
        reducible.update(_poly_mul(field, f, g) for f in new for e in range(1, m - d + 1)
                         for g in monic[e])
        irreducibles += new
    return irreducibles


def similarity_classes(ring: MatRing) -> dict[tuple, list[Mat]]:
    """One representative of each similarity class of M_m(F_q), grouped by type.

    A class is a choice, for some distinct monic irreducibles f of degree
    d, of partitions lambda_f with the sum of d |lambda_f| equal to m (its
    rational canonical form); its representative is the block diagonal of
    the companion matrices of the f^k for k in each lambda_f.  The type is
    the multiset of the (d, lambda_f): two classes of one type have
    isomorphic centralizers (J. A. Green, Trans. AMS 80, 1955).  Choices
    are grown from a stack, each by an irreducible after its last one, so
    no recursion level is spent per polynomial.
    """
    field, m = ring.field, ring.m
    irreducibles = _monic_irreducibles(field, m)
    by_size = [list(partitions(n)) for n in range(m + 1)]
    classes: dict[tuple, list[Mat]] = {}
    stack: list[tuple[tuple, int, int]] = [((), 0, 0)]  # (f, lambda_f) chosen, degree used, next f
    while stack:
        chosen, used, start = stack.pop()
        if used == m:
            rep, at = [0] * (m * m), 0
            for f, parts in chosen:
                for k in parts:
                    g = reduce(partial(_poly_mul, field), [f] * k)
                    n = len(g) - 1  # the companion matrix of g, at rows and columns at..at+n-1
                    for i in range(n):
                        row = (at + i) * m + at
                        if i:
                            rep[row + i - 1] = 1
                        rep[row + n - 1] = field.neg[g[i]]
                    at += n
            kind = tuple(sorted((len(f) - 1, parts) for f, parts in chosen))
            classes.setdefault(kind, []).append(tuple(rep))
            continue
        for i in range(start, len(irreducibles)):
            d = len(irreducibles[i]) - 1
            if used + d > m:
                break
            for n in range(1, (m - used) // d + 1):
                stack.extend(((*chosen, (irreducibles[i], parts)), used + d * n, i + 1)
                             for parts in by_size[n])
    return classes


# -- the module-counting tree ----------------------------------------------------


def _matrix_ring(q: int, m: int) -> MatRing:
    """M_m(F_q); its sizes are checked before the field F_q is built."""
    _check_sizes(q, m)
    return MatRing(Fq(q), m)


def module_process(q: int, m: int) -> BranchingProcess:
    """Branching process counting m-dimensional modules of n-variable polynomial algebras.

    Level-n classes are simultaneous-similarity classes of commuting
    n-tuples in M_m(F_q).  The centralizer tower of M_m(F_q)
    (engine.centralizer_tower): the children of a state with centralizer
    ring Z are the unit-conjugacy classes of Z, keyed by the
    ring-isomorphism class of the centralizer in Z of a representative.
    The root's classes are the rational canonical forms, one pair per
    type, and a commutative Z is one pair, Z itself |Z| times, so neither
    lists its classes one by one.
    """
    full = Subalgebra.full(_matrix_ring(q, m))
    types = similarity_classes(full.ring)

    def branches(z: Subalgebra) -> list[tuple[Subalgebra, int]]:
        if z is full:
            return [(centralizer_ring(z, reps[0]), len(reps)) for reps in types.values()]
        if z.center.size == z.size:
            return [(z, z.size)]
        return [(centralizer_ring(z, rep), 1) for rep, _size in unit_conjugacy_classes(z)]

    return centralizer_tower(full, RingKeyRegistry(), branches)


def module_gf(q: int, m: int) -> RatFun:
    """Generating function of m-dimensional module counts over F_q."""
    return gf_total(build_branching(module_process(q, m)))


def module_orbit_counts(
    q: int, m: int, n_max: int, budget: int = DEFAULT_WORK_BUDGET
) -> list[int]:
    """Brute-force counts of simultaneous-similarity classes of commuting tuples.

    Representatives are lexicographic minima over the full unit group, and
    a prefix is extended only by elements commuting with all its entries,
    the intersection of their _commutant sets, memoised per element.  Rings
    above ORACLE_SIZE_LIMIT elements are refused before anything is built.
    """
    _check_sizes(q, m, oracle=True)
    full = Subalgebra.full(_matrix_ring(q, m))
    commutant = cache(lambda i: _commutant(full, full.sorted_elements[i]))

    def commuting(rep: tuple[int, ...]) -> list[int]:
        return sorted(set(range(full.size)).intersection(*map(commutant, rep)))

    tables = unit_conjugation_tables(full)
    levels = canonical_levels(n_max, commuting, canonical_form(tables), budget)
    return [len(reps) for reps in levels]


def _commutant(full: Subalgebra, a: Mat) -> frozenset[int]:
    """Indices in full.sorted_elements of the c with ca = ac: the span of the
    null space of the linear map c -> ca - ac on the matrix units."""
    ring = full.ring
    images = [_commutator(ring, e, a) for e in ring.standard_basis]
    basis = _null_space(ring.field, images, ring.standard_basis)
    index = full.element_index
    return frozenset(index[c] for c in span_values(ring.field, basis, len(a)))

