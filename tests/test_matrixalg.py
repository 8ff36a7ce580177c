"""Finite fields, subalgebras, and module-count series."""

import itertools
import random
import time
from collections import Counter

import pytest

from branchgf import fields, matrixalg
from branchgf.engine import build_branching, centralizer_tower, class_gfs, gf_total, verify_tree
from branchgf.errors import ElementNotInAlgebraError, SizeLimitError, WorkBudgetError
from branchgf.fixtures import (
    fixture_ratfun,
    module_gf_closed,
    module_gf_dim3_candidates,
    similarity_class_count,
)
from branchgf.fields import Span, span_values
from branchgf.matrixalg import (
    Fq,
    MatRing,
    RingKeyRegistry,
    Subalgebra,
    centralizer_ring,
    mat_det,
    mat_identity,
    mat_inv,
    mat_mul,
    module_gf,
    module_orbit_counts,
    module_process,
    prime_power,
    _commutant,
    _element_profile,
    _ring_map_extends,
    _ring_generators,
    _word_basis,
    ring_fingerprint,
    ring_is_isomorphic,
    similarity_classes,
    unit_conjugacy_classes,
    unit_conjugation_tables,
)


def mat_add(field, a, b):
    return tuple(field.add[x][y] for x, y in zip(a, b))


def _listed(ring, elements):
    # The subring with exactly this element set, from its reduced row
    # echelon basis: the set lies in the span and has as many elements.
    elements = set(elements)
    span = Span(ring.field)
    for a in elements:
        span.add(a)
    assert ring.field.q ** len(span) == len(elements)
    return Subalgebra(ring, span.basis)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_constructs_and_inverts(q):
    field = Fq(q)
    for a in range(1, q):
        assert field.mul[a][field.inv[a]] == 1


def test_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        Fq(6)


# The moduli c_0, ..., c_{k-1}, 1 of the fields that are not prime, pinned
# from an earlier construction of the tables by recurrences.
FIELD_MODULI = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
    32: (1, 0, 0, 1, 0, 1),
    49: (1, 0, 1),
    64: (1, 0, 0, 0, 0, 1, 1),
    81: (1, 0, 1, 1, 1),
    121: (1, 0, 1),
    125: (1, 0, 1, 1),
}
# The q with exactly one prime divisor.
PRIME_POWERS_BELOW_128 = [
    q
    for q in range(2, 128)
    if len([d for d in range(2, q + 1) if q % d == 0 and all(d % e for e in range(2, d))]) == 1
]


def _residue_tables(q, modulus):
    # Residues mod the monic modulus, numbered by their base-p digits c_0 + c_1 p + ...
    p, k = prime_power(q)
    digits = [[(e // p**i) % p for i in range(k)] for e in range(q)]

    def number(coeffs):
        return sum((c % p) * p**i for i, c in enumerate(coeffs))

    def times(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # t^k = -(c_0 + ... + c_{k-1} t^{k-1})
            lead, prod[top] = prod[top], 0
            for j in range(k):
                prod[top - k + j] -= lead * modulus[j]
        return number(prod[:k])

    add = tuple(tuple(number(map(sum, zip(a, b))) for b in digits) for a in digits)
    mul = tuple(tuple(times(a, b) for b in digits) for a in digits)
    return add, mul


@pytest.mark.parametrize("q", PRIME_POWERS_BELOW_128)
def test_field_tables_are_pinned(q):
    field = Fq(q)
    modulus = FIELD_MODULI.get(q, (0, 1))
    assert field.modulus == modulus
    assert (field.add, field.mul) == _residue_tables(q, modulus)


def test_prime_power_split():
    for q in range(-2, 130):
        splits = [
            (p, k)
            for p in range(2, q + 1)
            if all(p % d for d in range(2, p))
            for k in range(1, q.bit_length())
            if p**k == q
        ]
        if splits:
            assert prime_power(q) == splits[0]
        else:
            with pytest.raises(ValueError):
                prime_power(q)
    assert prime_power(1_000_000_000_039) == (1_000_000_000_039, 1)
    # Large primes and their powers are split at once, without trial division.
    start = time.perf_counter()
    assert prime_power(10**16 + 61) == (10**16 + 61, 1)
    assert prime_power((10**16 + 61) ** 2) == (10**16 + 61, 2)
    assert time.perf_counter() - start < 0.5
    # Composites that pass Miller-Rabin to leading prime bases: 3215031751
    # to 2, 3, 5 and 7, the next one to 2..37, so 12 bases would accept it.
    # psi_13, the least composite that passes all 13 bases 2..41, is refused
    # as undecidable.
    for q in (3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)
    with pytest.raises(ValueError, match=str(fields.PSI_13)):
        prime_power(fields.PSI_13)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_span_values_of_the_standard_basis_is_product_order(q, n):
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert span_values(Fq(q), basis, n) == list(itertools.product(range(q), repeat=n))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_span_values_entry_i_has_the_digits_of_i(q):
    # Entry i is sum_k d_k * vectors[k], with d_0 d_1 ... the base-q digits
    # of i, most significant first; the vectors need not be independent.
    field = Fq(q)
    rng = random.Random(q)
    for count in range(4):
        width = rng.randint(1, 4)
        vectors = [tuple(rng.randrange(q) for _ in range(width)) for _ in range(count)]
        values = span_values(field, vectors, width)
        assert len(values) == q**count
        for i, value in enumerate(values):
            digits = [i // q ** (count - 1 - k) % q for k in range(count)]
            expected = [0] * width
            for d, v in zip(digits, vectors):
                expected = [field.add[x][field.mul[d][y]] for x, y in zip(expected, v)]
            assert value == tuple(expected)


def test_span_values_of_no_vectors_is_one_zero_vector():
    for width in (0, 1, 3):
        assert span_values(Fq(3), [], width) == [(0,) * width]


def test_f4_structure():
    field = Fq(4)
    # x^2 + x + 1 is the modulus, so x * x = x + 1 (encoded 2 * 2 = 3).
    assert field.mul[2][2] == 3
    assert field.add[2][2] == 0  # characteristic 2


def test_f9_has_characteristic_3():
    field = Fq(9)
    assert field.p == 3
    assert field.add[1][field.add[1][1]] == 0


def test_mat_mul_and_inverse():
    field = Fq(2)
    a = (1, 1, 0, 1)
    ainv = mat_inv(field, a, 2)
    assert mat_mul(field, a, ainv, 2) == mat_identity(2)
    assert mat_inv(field, (1, 1, 1, 1), 2) is None  # singular


@pytest.mark.parametrize(
    "q,m", [(q, 1) for q in (2, 3, 4, 5)] + [(q, 2) for q in (2, 3, 4, 5)] + [(2, 3)]
)
def test_det_is_nonzero_exactly_on_invertible_matrices(q, m):
    field = Fq(q)
    for a in itertools.product(range(q), repeat=m * m):
        assert (mat_det(field, a, m) != 0) == (mat_inv(field, a, m) is not None), a


def test_det_signs_in_odd_characteristic():
    # In M_3(F_3) a transposition has determinant -1 = 2, so the Leibniz
    # signs must be right, not merely the zero pattern.
    field = Fq(3)
    for m in range(4):
        assert mat_det(field, mat_identity(m), m) == 1
    assert mat_det(field, (0, 1, 0, 1, 0, 0, 0, 0, 1), 3) == 2
    assert mat_det(field, (1, 1, 0, 0, 1, 1, 1, 0, 1), 3) == 2
    rng = random.Random(11)
    for _ in range(2000):
        a = tuple(rng.randrange(3) for _ in range(9))
        assert (mat_det(field, a, 3) != 0) == (mat_inv(field, a, 3) is not None), a


def test_unit_power_outside_the_set_is_refused():
    # The F_2-span of I and the 3-cycle P in M_3(F_2) holds 1 + P, which is
    # singular, so its units are I and P; but P^-1 = P^2 lies outside it.
    ring = MatRing(Fq(2), 3)
    span = Span(ring.field)
    for a in (ring.identity, (0, 1, 0, 0, 0, 1, 1, 0, 0)):
        span.add(a)
    z = Subalgebra(ring, span.basis)
    with pytest.raises(ArithmeticError, match="escaped"):
        z.unit_orders


def test_centralizer_of_identity_is_everything():
    ring = MatRing(Fq(2), 2)
    full = Subalgebra.full(ring)
    assert centralizer_ring(full, ring.identity).sorted_elements == full.sorted_elements


def test_centralizer_of_idempotent_is_diagonal():
    ring = MatRing(Fq(2), 2)
    z = centralizer_ring(Subalgebra.full(ring), (1, 0, 0, 0))
    assert list(z.sorted_elements) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)
    ]


def test_centralizer_of_nilpotent():
    ring = MatRing(Fq(2), 2)
    z = centralizer_ring(Subalgebra.full(ring), (0, 1, 0, 0))
    # Exactly the polynomials in the nilpotent: span{0, I, a, I+a}.
    assert list(z.sorted_elements) == [
        (0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)
    ]


def test_centralizer_membership_check():
    ring = MatRing(Fq(2), 2)
    z = centralizer_ring(Subalgebra.full(ring), (1, 0, 0, 0))
    with pytest.raises(ElementNotInAlgebraError):
        centralizer_ring(z, (0, 1, 0, 0))


def _brute_subring(ring, seed):
    # Least set holding 0, the scalars c * 1 and seed that is closed under
    # +, * and reversed *: the F_q-subalgebra that seed generates.
    known = {ring.zero, *(tuple(ring.field.mul[c][x] for x in ring.identity)
                          for c in range(ring.field.q)), *seed}
    while True:
        grown = known | {
            c
            for x in known
            for y in known
            for c in (mat_add(ring.field, x, y), ring.mul(x, y), ring.mul(y, x))
        }
        if grown == known:
            return known
        known = grown


def _closure_elements(ring, seed):
    # The ring elements in the F_q-span of the words in seed; its
    # dimension must count them.  Span rows are word + coordinates, so an
    # element is in the span when it reduces to zero in its first half.
    span, _presentation = _word_basis(ring, seed)
    members = {
        x for x in Subalgebra.full(ring).sorted_elements
        if not any(span.reduce(x + ring.zero)[: len(x)])
    }
    assert len(members) == ring.field.q ** len(span)
    return members


def test_subring_closure_matches_brute_force():
    m2f2 = MatRing(Fq(2), 2)
    for seed in itertools.combinations_with_replacement(Subalgebra.full(m2f2).sorted_elements, 2):
        assert _closure_elements(m2f2, seed) == _brute_subring(m2f2, seed), seed
    m2f4 = MatRing(Fq(4), 2)
    for a in Subalgebra.full(m2f4).sorted_elements[::5]:
        assert _closure_elements(m2f4, [a]) == _brute_subring(m2f4, [a]), a
    # The span is over F_4: the idempotent E11 generates its 16-element
    # F_4-span with 1, not the prime ring's {0, 1, E11, 1 + E11}.
    assert len(_closure_elements(m2f4, [(1, 0, 0, 0)])) == 16


def test_unit_classes_of_full_m1():
    for q in (2, 3):
        ring = MatRing(Fq(q), 1)
        classes = unit_conjugacy_classes(Subalgebra.full(ring))
        assert len(classes) == q
        assert all(size == 1 for _, size in classes)


def test_unit_classes_of_full_m2f2():
    ring = MatRing(Fq(2), 2)
    classes = unit_conjugacy_classes(Subalgebra.full(ring))
    assert len(classes) == 6
    assert sum(size for _, size in classes) == 16


def test_commutative_subalgebra_classes_are_singletons():
    ring = MatRing(Fq(2), 2)
    diag = _diagonal_subalgebra(ring)
    classes = unit_conjugacy_classes(diag)
    assert len(classes) == diag.size
    assert all(size == 1 for _, size in classes)


def test_units_inverses_stay_inside():
    ring = MatRing(Fq(2), 2)
    full = Subalgebra.full(ring)
    for rep, _ in unit_conjugacy_classes(full):
        z = centralizer_ring(full, rep)
        for u in z.units:
            assert mat_inv(ring.field, u, ring.m) in z


def _f4_subalgebra(ring):
    # Generated by the companion matrix of x^2 + x + 1.
    return _listed(ring, [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)])


def _diagonal_subalgebra(ring):
    return _listed(ring, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)])


def test_ring_iso_separates_field_from_product():
    ring = MatRing(Fq(2), 2)
    f4 = _f4_subalgebra(ring)
    diag = _diagonal_subalgebra(ring)
    assert len(f4.units) == 3 and len(diag.units) == 1
    assert not ring_is_isomorphic(f4, diag)
    reg = RingKeyRegistry()
    assert reg.key_for(f4) != reg.key_for(diag)


def test_ring_iso_separates_nilpotent_from_split():
    ring = MatRing(Fq(2), 2)
    dual = centralizer_ring(Subalgebra.full(ring), (0, 1, 0, 0))
    diag = _diagonal_subalgebra(ring)
    assert not ring_is_isomorphic(dual, diag)


def test_ring_iso_conjugate_subalgebras():
    ring = MatRing(Fq(2), 2)
    diag = _diagonal_subalgebra(ring)
    u = (1, 1, 0, 1)
    uinv = mat_inv(ring.field, u, ring.m)
    conj = _listed(ring, [ring.mul(ring.mul(u, a), uinv) for a in diag.sorted_elements])
    assert ring_is_isomorphic(diag, conj)
    reg = RingKeyRegistry()
    assert reg.key_for(diag) == reg.key_for(conj)


def test_ring_iso_profiles_each_subring_once(monkeypatch):
    ring = MatRing(Fq(2), 2)
    diag = _diagonal_subalgebra(ring)
    u = (1, 1, 0, 1)
    uinv = mat_inv(ring.field, u, ring.m)
    conj = _listed(ring, [ring.mul(ring.mul(u, a), uinv) for a in diag.sorted_elements])
    calls = []
    profile = matrixalg._element_profile
    monkeypatch.setattr(matrixalg, "_element_profile", lambda z, a: calls.append(z) or profile(z, a))
    assert ring_is_isomorphic(diag, conj) and ring_is_isomorphic(diag, conj)
    # conj's elements once, and diag's generators once per test.
    gens = len(diag.ring_generators)
    assert calls.count(conj) == conj.size and calls.count(diag) == 2 * gens
    assert conj.element_profiles == tuple(profile(conj, b) for b in conj.sorted_elements)


def test_ring_fingerprint_fields():
    ring = MatRing(Fq(2), 2)
    f4 = _f4_subalgebra(ring)
    center, units = ring_fingerprint(f4)
    assert f4.size == 4 and units == 3
    assert center == f4.size  # commutative


def test_module_process_m1():
    bm = build_branching(module_process(2, 1))
    assert bm.matrix == ((2,),)


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (7, 2), (8, 2), (9, 2)])
def test_module_gf_closed_forms(q, m):
    assert module_gf(q, m) == fixture_ratfun(module_gf_closed(q, m))


def test_module_gf_dim3_at_q3_is_the_unit_constant_form():
    # A second prime for the form M_3(F_2) supports.
    expected = module_gf_dim3_candidates(3)["unit-constant"]
    assert module_gf(3, 3) == fixture_ratfun(expected)


def test_level_one_counts_similarity_classes():
    # Level 1 of the tree over M_m(F_q) counts the root's classes, the
    # rational canonical forms: the similarity classes of M_m(F_q).  Every
    # admitted ring of up to 2^16 elements is checked.
    rings = 0
    for q in range(2, matrixalg.FIELD_SIZE_LIMIT + 1):
        try:
            prime_power(q)
        except ValueError:
            continue
        field = Fq(q)
        m = 0
        while q ** (m * m) <= 2**16:
            classes = similarity_classes(MatRing(field, m))
            assert sum(map(len, classes.values())) == similarity_class_count(q, m), (q, m)
            rings += 1
            m += 1
    assert rings == 247


def _plain_module_process(q, m):
    # The tower with no special root and no commutative step: one pair per
    # unit-conjugacy orbit of every state, M_m(F_q) included.
    return centralizer_tower(
        Subalgebra.full(MatRing(Fq(q), m)),
        RingKeyRegistry(),
        lambda z: [(centralizer_ring(z, rep), 1) for rep, _size in unit_conjugacy_classes(z)],
    )


@pytest.mark.parametrize("q,m", [(2, 3), (3, 3), (5, 2)])
def test_rational_canonical_root_matches_the_unit_orbit_root(q, m):
    # Class discovery order differs, so the class gfs compare as multisets.
    plain = build_branching(_plain_module_process(q, m))
    typed = build_branching(module_process(q, m))
    assert Counter(class_gfs(typed)) == Counter(class_gfs(plain))
    assert gf_total(typed) == gf_total(plain)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 3), (5, 2)])
def test_classes_of_one_type_have_isomorphic_centralizers(q, m):
    full = Subalgebra.full(MatRing(Fq(q), m))
    for reps in similarity_classes(full.ring).values():
        first = centralizer_ring(full, reps[0])
        assert all(ring_is_isomorphic(first, centralizer_ring(full, rep)) for rep in reps)


def test_root_lists_no_elements(monkeypatch):
    roots = []
    full = Subalgebra.full

    def recorded(cls, ring):
        roots.append(full(ring))
        return roots[-1]

    monkeypatch.setattr(Subalgebra, "full", classmethod(recorded))
    build_branching(module_process(2, 3))
    (root,) = roots
    assert not {"sorted_elements", "units", "unit_generators"} & set(vars(root))


def test_commutative_states_and_root_types_are_keyed_once(monkeypatch):
    # M_2(F_4): the root, its four class types, and three commutative
    # states, each one pair; listing classes one by one took 69 calls.
    calls = []
    key_for = RingKeyRegistry.key_for

    def counted(self, z):
        calls.append(z)
        return key_for(self, z)

    monkeypatch.setattr(RingKeyRegistry, "key_for", counted)
    bm = build_branching(module_process(4, 2))
    assert bm.size == 4
    assert len(calls) <= 8


def test_module_tree_class_order_is_pinned():
    # Discovery order, keys and tags of M_3(F_2), as breadth-first search
    # over the root's class types has always found them.
    bm = build_branching(module_process(2, 3))
    assert bm.labels == (
        "r512.0", "r8.1", "r8.2", "r32.3", "r8.4", "r8.5", "r32.6", "r8.7", "r8.8"
    )
    assert bm.matrix == (
        (2, 0, 0, 0, 0, 0, 0, 0, 0),
        (2, 8, 0, 0, 0, 0, 0, 0, 0),
        (2, 0, 8, 2, 0, 0, 0, 0, 0),
        (2, 0, 0, 4, 0, 0, 0, 0, 0),
        (2, 0, 0, 0, 8, 0, 2, 0, 0),
        (2, 0, 0, 4, 0, 8, 4, 0, 0),
        (2, 0, 0, 0, 0, 0, 4, 0, 0),
        (0, 0, 0, 4, 0, 0, 0, 8, 0),
        (0, 0, 0, 0, 0, 0, 2, 0, 8),
    )


@pytest.mark.parametrize("q", [4, 5])
def test_module_gf_dim3_past_the_old_ring_rule(q):
    assert module_gf(q, 3) == fixture_ratfun(module_gf_dim3_candidates(q)["unit-constant"])


def test_module_gf_m4_q2_first_coefficients():
    # The keyless level counts of M_4(F_2) to n = 2.
    assert module_gf(2, 4).series(2) == [1, 34, 788]


def test_module_gf_first_coefficients():
    # Coefficient 0 is 1; coefficient 1 counts similarity classes.
    assert module_gf(2, 2).series(1) == [1, 6]
    assert module_gf(3, 2).series(1) == [1, 12]


def test_module_oracle_values():
    assert module_orbit_counts(2, 2, 2) == [1, 6, 28]
    assert module_orbit_counts(3, 2, 2) == [1, 12, 117]


def test_module_oracle_matches_series():
    assert module_gf(2, 2).series(3) == module_orbit_counts(2, 2, 3)
    assert module_gf(3, 2).series(2) == module_orbit_counts(3, 2, 2)


def test_module_oracle_on_zero_by_zero_matrices():
    # M_0(F_2) has one element, the empty matrix, which is its 0 and its 1.
    assert module_orbit_counts(2, 0, 3) == [1, 1, 1, 1]


def test_module_oracle_reaches_no_tree_code(monkeypatch):
    # The oracle reads the full subring's elements, units and unit tables,
    # but none of the tree's centralizers, classes, keys or engine.
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the tree code")

    engine_names = [
        name for name, value in vars(matrixalg).items()
        if getattr(value, "__module__", None) == "branchgf.engine"
    ]
    assert {"build_branching", "centralizer_tower", "gf_total"} <= set(engine_names)
    for name in engine_names + [
        "centralizer_ring", "unit_conjugacy_classes", "ring_is_isomorphic",
        "ring_fingerprint", "RingKeyRegistry", "similarity_classes",
    ]:
        monkeypatch.setattr(matrixalg, name, forbidden)
    assert module_orbit_counts(2, 3, 2) == [1, 14, 144]


def test_module_oracle_budget():
    with pytest.raises(WorkBudgetError, match="level 1 of 2"):
        module_orbit_counts(2, 2, 2, budget=5)


def test_stretch_gate(monkeypatch):
    # Three rules, each checked before a field is built: the tree's rings
    # M_m(F_q) whose proper centralizers, of up to q^((m-1)^2+1) elements,
    # have at most 20000, fields up to 512 elements, and the brute-force
    # oracle's rings up to 512 elements.
    assert MatRing(Fq(7), 3).size == 7**9
    with pytest.raises(SizeLimitError):
        MatRing(Fq(8), 3)

    def no_field(q):
        raise AssertionError(f"F_{q} built for a refused ring")

    monkeypatch.setattr(matrixalg, "Fq", no_field)
    ring_rule = r"M_3\(F_8\) has proper centralizers of 8\^5 elements; the supported bound is 20000"
    with pytest.raises(SizeLimitError, match=ring_rule):
        module_process(8, 3)
    with pytest.raises(SizeLimitError, match=r"M_2\(F_149\) has proper centralizers of 149\^2 "):
        module_process(149, 2)
    with pytest.raises(SizeLimitError, match=r"M_5\(F_2\) has proper centralizers of 2\^17 "):
        module_process(2, 5)
    with pytest.raises(SizeLimitError, match="the brute-force oracle's bound is 512"):
        module_orbit_counts(3, 3, 1)
    field_rule = "F_1009 has 1009 elements; the supported field bound is 512"
    with pytest.raises(SizeLimitError, match=field_rule):
        module_gf(1009, 1)
    with pytest.raises(SizeLimitError, match=r"M_1000\(F_2\) has proper centralizers of 2\^998002 "):
        module_gf(2, 1000)


def test_verify_tree_module_processes():
    assert verify_tree(module_process(2, 2), 6)
    assert verify_tree(module_process(3, 2), 6)


def _reference_extends_to_ring_isomorphism(z1, z2, gens, images):
    # The former quadratic check: close {0, 1, gens} under +, * and reversed *
    # pair by pair, mapping every sum and product alongside.
    r1, r2 = z1.ring, z2.ring
    mapping = {r1.zero: r2.zero, r1.identity: r2.identity}
    for g, img in zip(gens, images):
        if mapping.get(g, img) != img:
            return False
        mapping[g] = img
    pending = list(mapping.keys())
    while pending:
        x = pending.pop()
        fx = mapping[x]
        for y in list(mapping.keys()):
            fy = mapping[y]
            for combined, image in (
                (mat_add(r1.field, x, y), mat_add(r2.field, fx, fy)),
                (r1.mul(x, y), r2.mul(fx, fy)),
                (r1.mul(y, x), r2.mul(fy, fx)),
            ):
                known = mapping.get(combined)
                if known is None:
                    mapping[combined] = image
                    pending.append(combined)
                elif known != image:
                    return False
    if len(mapping) != z1.size:
        return False
    return len(set(mapping.values())) == z2.size


def _reached_subrings(q, conjugates, rng, m=2):
    """M_m(F_q), every centralizer subring its tree reaches, and conjugates of each."""
    ring = MatRing(Fq(q), m)
    seen = {}
    full = Subalgebra.full(ring)
    todo = [full]
    while todo:
        z = todo.pop()
        if z.basis in seen:
            continue
        seen[z.basis] = z
        todo += [centralizer_ring(z, rep) for rep, _ in unit_conjugacy_classes(z)]
    corpus = list(seen.values())
    for z in list(corpus):
        for u in rng.sample(full.units, conjugates):
            uinv = mat_inv(ring.field, u, ring.m)
            conjugates_of_z = [ring.mul(ring.mul(u, a), uinv) for a in z.sorted_elements]
            corpus.append(_listed(ring, conjugates_of_z))
    return corpus


def _filtered_centralizer(z, a):
    # The former centralizer_ring: the elements of z commuting with a.
    ring = z.ring
    return _listed(ring, (b for b in z.sorted_elements if ring.mul(a, b) == ring.mul(b, a)))


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_null_space_centralizer_matches_element_filter(q, m):
    rng = random.Random(q + m)
    corpus = _reached_subrings(q, 1, rng, m)
    for z in corpus:
        reps = [rep for rep, _ in unit_conjugacy_classes(z)]
        for a in reps + rng.sample(z.sorted_elements, min(3, z.size)):
            spanned = centralizer_ring(z, a)
            listed = _filtered_centralizer(z, a)
            assert spanned.basis == listed.basis
            assert list(spanned.sorted_elements) == sorted(spanned.sorted_elements)
    assert len(corpus) == {(2, 2): 10, (3, 2): 18, (4, 2): 30, (2, 3): 52}[q, m]


def _commutes_with_basis(z, a):
    ring = z.ring
    return all(ring.mul(a, b) == ring.mul(b, a) for b in z.basis)


def _rank_formula_center_size(z):
    # The former center_size: q**(dim - rank) of x -> (xb - bx for b in basis).
    ring, basis, field = z.ring, z.basis, z.ring.field
    span = Span(field)
    rank = 0
    for a in basis:
        row = [field.add[x][field.neg[y]] for b in basis
               for x, y in zip(ring.mul(a, b), ring.mul(b, a))]
        rank += span.add(row)
    return field.q ** (len(basis) - rank)


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (2, 3)])
def test_center_matches_element_products(q, m):
    for z in _reached_subrings(q, 1, random.Random(q + 10 * m), m):
        central = {a for a in z.sorted_elements if _commutes_with_basis(z, a)}
        assert set(z.center.sorted_elements) == central
        assert all((a in z.center) == (a in central) for a in z.sorted_elements)
        assert ring_fingerprint(z)[0] == _rank_formula_center_size(z)


def test_element_list_and_null_space_basis_get_one_key(monkeypatch):
    ring = MatRing(Fq(3), 2)
    a = (0, 1, 0, 0)
    spanned = centralizer_ring(Subalgebra.full(ring), a)
    listed = _filtered_centralizer(Subalgebra.full(ring), a)
    assert "sorted_elements" not in vars(spanned)
    first, second = RingKeyRegistry(), RingKeyRegistry()
    keys = (first.key_for(spanned), second.key_for(listed))

    def no_fingerprint(z):
        raise AssertionError("fingerprint computed for a subring seen before")

    monkeypatch.setattr(matrixalg, "ring_fingerprint", no_fingerprint)
    assert (first.key_for(listed), second.key_for(spanned)) == keys


def test_ring_fingerprint_only_inside_the_iso_test(monkeypatch):
    # The registry buckets by size; ring_is_isomorphic alone calls
    # ring_fingerprint, at most once per side.
    fingerprint, iso = matrixalg.ring_fingerprint, matrixalg.ring_is_isomorphic
    per_test, stray, open_tests = [], [], []

    def counting_fingerprint(z):
        (open_tests[-1] if open_tests else stray).append(z)
        return fingerprint(z)

    def counting_iso(z1, z2):
        open_tests.append([])
        try:
            return iso(z1, z2)
        finally:
            per_test.append(len(open_tests.pop()))

    monkeypatch.setattr(matrixalg, "ring_fingerprint", counting_fingerprint)
    monkeypatch.setattr(matrixalg, "ring_is_isomorphic", counting_iso)
    build_branching(module_process(2, 3))
    assert per_test and max(per_test) <= 2 and stray == []


def _extension_check_outcomes():
    # Reference outcome -> count, and the samples where _ring_map_extends
    # disagrees with the reference.
    rng = random.Random(6)
    outcomes, mismatches = Counter(), []
    for q in (2, 3):
        corpus = _reached_subrings(q, 1, rng)
        for z1, z2 in itertools.product(corpus, repeat=2):
            if z1.size != z2.size:
                continue
            gens = [g for g, _presentation in z1.ring_generators]
            profiles = [_element_profile(z1, g) for g in gens]
            profiled = [
                [b for b in z2.sorted_elements if _element_profile(z2, b) == p] for p in profiles
            ]
            tuples = list(itertools.product(*profiled))
            tries = 3 if z1.size > 9 else 12
            samples = rng.sample(tuples, min(tries, len(tuples)))
            samples += [tuple(rng.choice(z2.sorted_elements) for _ in gens) for _ in range(tries)]
            for images in samples:
                expected = _reference_extends_to_ring_isomorphism(z1, z2, gens, images)
                if _ring_map_extends(z1, z2, images) != expected:
                    mismatches.append((z1, z2, images))
                outcomes[expected] += 1
    return outcomes, mismatches


def test_ring_extension_check_matches_reference():
    outcomes, mismatches = _extension_check_outcomes()
    assert mismatches == []
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def test_ring_extension_check_needs_every_relation(monkeypatch):
    # A presentation that drops its last relation accepts maps that are
    # not ring maps, and the reference comparison catches it.
    word_basis = matrixalg._word_basis

    def dropping(*args):
        span, (steps, relations) = word_basis(*args)
        return span, (steps, relations[:-1])

    monkeypatch.setattr(matrixalg, "_word_basis", dropping)
    assert _extension_check_outcomes()[1]


def test_words_are_walked_once_per_generator_prefix(monkeypatch):
    # While M_4(F_2) is built, each registry representative walks the words
    # of each prefix of its ring generators once, the empty one included.
    # Walking them again for every image prefix and for every candidate
    # generator took 2774 walks.
    walks, prefixes = [0], [0]
    word_basis, ring_generators = matrixalg._word_basis, matrixalg._ring_generators

    def counted_walk(*args):
        walks[0] += 1
        return word_basis(*args)

    def counted_choice(z):
        gens = ring_generators(z)
        prefixes[0] += len(gens) + 1
        return gens

    monkeypatch.setattr(matrixalg, "_word_basis", counted_walk)
    monkeypatch.setattr(matrixalg, "_ring_generators", counted_choice)
    assert build_branching(module_process(2, 4)).size == 33
    assert 0 < walks[0] <= prefixes[0]


@pytest.mark.parametrize(
    "q,m,size", [(q, 2, 4) for q in (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128)]
    + [(4, 3, 9)],
)
def test_class_counts_over_non_prime_fields(q, m, size):
    # Subrings are keyed as F_q-algebras, which could only split a ring
    # isomorphism class; the counts are those of keys by ring isomorphism.
    assert build_branching(module_process(q, m)).size == size


def test_ring_iso_is_equivalence_on_corpus():
    corpus = _reached_subrings(2, 2, random.Random(7)) + _reached_subrings(3, 1, random.Random(8))
    relation = {
        (i, j): ring_is_isomorphic(a, b)
        for i, a in enumerate(corpus)
        for j, b in enumerate(corpus)
    }
    for i in range(len(corpus)):
        assert relation[i, i]
        for j in range(len(corpus)):
            assert relation[i, j] == relation[j, i]
            for k in range(len(corpus)):
                if relation[i, j] and relation[j, k]:
                    assert relation[i, k]
    # Per field: the full ring, F_{q^2}, F_q x F_q and F_q[e] with e^2 = 0.
    indices = range(len(corpus))
    classes = {frozenset(j for j in indices if relation[i, j]) for i in indices}
    assert len(corpus) > 30 and len(classes) == 8


def test_ring_iso_candidate_count(monkeypatch):
    # ring_is_isomorphic checks each image prefix it tries once, and never
    # extends a rejected one: the four CLI rings need 51 checks.
    calls = []

    def counting(*args):
        calls.append(args)
        return _ring_map_extends(*args)

    monkeypatch.setattr(matrixalg, "_ring_map_extends", counting)
    for q, m in [(2, 2), (3, 2), (4, 2), (2, 3)]:
        build_branching(module_process(q, m))
    assert 0 < len(calls) <= 51


def _direct_conjugation_tables(ring):
    # Every unit conjugates every element as matrices, u a u^-1, with the
    # elements in itertools.product order and the units among them.
    elements = list(itertools.product(range(ring.field.q), repeat=ring.m * ring.m))
    idx = {a: i for i, a in enumerate(elements)}
    inverses = {u: mat_inv(ring.field, u, ring.m) for u in elements}
    return tuple(
        tuple(idx[ring.mul(ring.mul(u, a), uinv)] for a in elements)
        for u, uinv in inverses.items() if uinv is not None
    )


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2)])
def test_unit_conjugation_tables_match_direct_construction(q, m):
    # The m = 1 rings have central units only; M_1(F_2) has no unit
    # generator at all, so the identity table alone covers its 2 elements.
    # M_2(F_4) has 180 units over 256 elements of a non-prime field; its
    # tables fix the composition order table_u o table_g.
    ring = MatRing(Fq(q), m)
    tables = unit_conjugation_tables(Subalgebra.full(ring))
    assert set(tables) == set(_direct_conjugation_tables(ring))
    assert tables == _direct_conjugation_tables(ring)


def test_unit_conjugation_tables_of_a_one_element_ring():
    # M_0(F_2) = {()} has no unit generator; given its identity as one, the
    # one-entry table still composes to a tuple, not to a scalar.
    z = Subalgebra.full(MatRing(Fq(2), 0))
    assert unit_conjugation_tables(z) == ((0,),)
    z.unit_generators = ((z.ring.identity, (0,)),)
    assert unit_conjugation_tables(z) == ((0,),)


def test_unit_conjugation_tables_need_generators_of_the_unit_group(monkeypatch):
    # One element of order 3 generates only C3 inside GL_2(F_2) = S3.
    monkeypatch.setattr(matrixalg, "greedy_generators", lambda *args: ((0, 1, 1, 1),))
    with pytest.raises(ArithmeticError, match="do not generate"):
        unit_conjugation_tables(Subalgebra.full(MatRing(Fq(2), 2)))


def _looped_sorted_elements(z):
    # The former Subalgebra.sorted_elements: every multiple of each basis
    # row, the last first, added to everything listed so far.
    field = z.ring.field
    out = [z.ring.zero]
    for b in reversed(z.basis):
        multiples = [tuple(field.mul[c][x] for x in b) for c in range(1, field.q)]
        out += [mat_add(field, cb, e) for cb in multiples for e in out]
    return tuple(out)


def _element_conjugacy_classes(z):
    # The former unit_conjugacy_classes: the orbits of z's elements under
    # conjugation by the same generators, each product formed as matrices.
    ring = z.ring
    gens = matrixalg.greedy_generators(
        z.units, ring.identity, ring.mul, lambda u: (z.unit_orders[u], tuple(-c for c in u))
    )

    def conjugate(x, g):
        return ring.mul(ring.mul(g, x), mat_inv(ring.field, g, ring.m))

    return [
        (min(o), len(o)) for o in matrixalg.orbit_partition(z.sorted_elements, gens, conjugate)
    ]


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_span_based_element_lists_and_classes_match_element_loops(q, m):
    for z in _reached_subrings(q, 1, random.Random(q * m), m):
        assert z.sorted_elements == _looped_sorted_elements(z)
        assert unit_conjugacy_classes(z) == _element_conjugacy_classes(z)


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_oracle_commutant_matches_element_filter(q, m):
    ring = MatRing(Fq(q), m)
    full = Subalgebra.full(ring)
    elements = full.sorted_elements
    for a in elements:
        commuting = {i for i, c in enumerate(elements) if ring.mul(c, a) == ring.mul(a, c)}
        assert _commutant(full, a) == commuting


def test_module_mat_mul_count(monkeypatch):
    # Linear maps on element lists are evaluated from basis images: the
    # oracle's commutants and conjugation tables and the tree's unit
    # classes form no product per element.  Per-element products took
    # 17610 and 6182 calls; unit orders read off cyclic groups, shared
    # with the tree, brought the oracle from 1514 to 1142.
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return mat_mul(*args)

    monkeypatch.setattr(matrixalg, "mat_mul", counting)
    assert module_orbit_counts(2, 3, 2) == [1, 14, 144]
    assert calls[0] <= 1142
    calls[0] = 0
    assert module_gf(2, 3).series(3) == [1, 14, 144, 1296]
    assert calls[0] <= 3894


def test_subring_invariants_work_count(monkeypatch):
    # Units are read off determinants, so matrices are inverted only for the
    # unit generators' conjugation tables; the center is one null space,
    # and a central element's centralizer and class need no products; and
    # each registry representative chooses its ring generators once.
    # Per-element inverses, dim^2 commutators per center and generators
    # chosen per isomorphism test took 1462 inverses and 8052 products, and
    # chose generators 29 times for 14 representatives.
    calls, chosen, generators = Counter(), [], [0]

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(matrixalg, name, counted)

    def counted_generators(*args):
        gens = greedy_generators(*args)
        generators[0] += len(gens)
        return gens

    def counted_choice(z):
        chosen.append(z)
        return ring_generators(z)

    greedy_generators, ring_generators = matrixalg.greedy_generators, _ring_generators
    counting("mat_mul", mat_mul)
    counting("mat_inv", mat_inv)
    monkeypatch.setattr(matrixalg, "greedy_generators", counted_generators)
    monkeypatch.setattr(matrixalg, "_ring_generators", counted_choice)
    for q, m in [(2, 2), (3, 2), (4, 2), (2, 3)]:
        build_branching(module_process(q, m))
    assert 0 < calls["mat_inv"] <= generators[0]
    assert calls["mat_mul"] <= 4400
    assert chosen and max(Counter(map(id, chosen)).values()) == 1
