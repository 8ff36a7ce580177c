"""Finite fields, subalgebras, and module-count series."""

import itertools
import random
from collections import Counter

import pytest

from branchgf import matrixalg
from branchgf.engine import build_branching, verify_tree
from branchgf.errors import ElementNotInAlgebraError, SizeLimitError, WorkBudgetError
from branchgf.fixtures import fixture_ratfun, module_gf_closed
from branchgf.matrixalg import (
    Fq,
    MatRing,
    RingKeyRegistry,
    Subalgebra,
    centralizer_ring,
    mat_add,
    mat_identity,
    mat_inv,
    mat_mul,
    module_gf,
    module_orbit_counts,
    module_orbit_oracle,
    module_process,
    prime_power,
    _element_profile,
    _is_ring_isomorphism,
    _ring_generators,
    _subring_closure,
    ring_fingerprint,
    ring_is_isomorphic,
    unit_conjugacy_classes,
)
from branchgf.polyring import ratfun_eq


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_constructs_and_inverts(q):
    field = Fq(q)
    for a in range(1, q):
        assert field.mul[a][field.inv[a]] == 1


def test_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        Fq(6)


# The moduli c_0, ..., c_{k-1}, 1 that Fq used while it chose the first
# polynomial without roots (and, for k >= 4, without factors of degree <= k/2).
FIELD_MODULI = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
}


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


@pytest.mark.parametrize("q", sorted(FIELD_MODULI))
def test_field_tables_are_pinned(q):
    field = Fq(q)
    assert (field.add, field.mul) == _residue_tables(q, FIELD_MODULI[q])


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


def test_centralizer_of_identity_is_everything():
    ring = MatRing(Fq(2), 2)
    full = Subalgebra.full(ring)
    assert centralizer_ring(full, ring.identity).elements == full.elements


def test_centralizer_of_idempotent_is_diagonal():
    ring = MatRing(Fq(2), 2)
    z = centralizer_ring(Subalgebra.full(ring), (1, 0, 0, 0))
    assert sorted(z.elements) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 1)
    ]


def test_centralizer_of_nilpotent():
    ring = MatRing(Fq(2), 2)
    z = centralizer_ring(Subalgebra.full(ring), (0, 1, 0, 0))
    # Exactly the polynomials in the nilpotent: span{0, I, a, I+a}.
    assert sorted(z.elements) == [
        (0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)
    ]


def test_centralizer_membership_check():
    ring = MatRing(Fq(2), 2)
    z = centralizer_ring(Subalgebra.full(ring), (1, 0, 0, 0))
    with pytest.raises(ElementNotInAlgebraError):
        centralizer_ring(z, (0, 1, 0, 0))


def test_subalgebra_size_must_be_a_field_power():
    ring = MatRing(Fq(2), 2)
    broken = Subalgebra(ring, [(0, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 0)])
    with pytest.raises(ValueError):
        broken.basis
    # Size 4 is a field power, but (0,0,0,1) + (0,0,1,0) is missing.
    not_closed = Subalgebra(ring, [(0, 0, 0, 0), (1, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0)])
    with pytest.raises(ValueError):
        not_closed.basis


def _brute_subring(ring, seed):
    # Least set holding 0, 1 and seed that is closed under +, * and reversed *.
    known = {ring.zero, ring.identity, *seed}
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


def test_subring_closure_matches_brute_force():
    m2f2 = MatRing(Fq(2), 2)
    for seed in itertools.combinations_with_replacement(m2f2.elements, 2):
        assert _subring_closure(m2f2, seed) == _brute_subring(m2f2, seed), seed
    m2f4 = MatRing(Fq(4), 2)
    for a in m2f4.elements[::5]:
        assert _subring_closure(m2f4, [a]) == _brute_subring(m2f4, [a]), a
    # The span is additive, over F_2: the idempotent E11 generates
    # {0, 1, E11, 1 + E11}, not the 16-element F_4-span.
    assert len(_subring_closure(m2f4, [(1, 0, 0, 0)])) == 4


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
    diag = Subalgebra(ring, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)])
    classes = unit_conjugacy_classes(diag)
    assert len(classes) == diag.size
    assert all(size == 1 for _, size in classes)


def test_units_inverses_stay_inside():
    ring = MatRing(Fq(2), 2)
    full = Subalgebra.full(ring)
    for rep, _ in unit_conjugacy_classes(full):
        z = centralizer_ring(full, rep)
        for u in z.units:
            assert ring.inv(u) in z.elements


def _f4_subalgebra(ring):
    # Generated by the companion matrix of x^2 + x + 1.
    return Subalgebra(ring, [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)])


def _diagonal_subalgebra(ring):
    return Subalgebra(ring, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)])


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
    uinv = ring.inv(u)
    conj = Subalgebra(
        ring, [ring.mul(ring.mul(u, a), uinv) for a in diag.elements]
    )
    assert ring_is_isomorphic(diag, conj)
    reg = RingKeyRegistry()
    assert reg.key_for(diag) == reg.key_for(conj)


def test_ring_fingerprint_fields():
    ring = MatRing(Fq(2), 2)
    fp = ring_fingerprint(_f4_subalgebra(ring))
    size, units, center, add_exp, unit_orders, commutative = fp
    assert size == 4 and units == 3 and center == 4 and add_exp == 2
    assert unit_orders == ((1, 1), (3, 2))
    assert commutative


def test_module_process_m1():
    bm = build_branching(module_process(2, 1))
    assert bm.matrix == ((2,),)


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_module_gf_closed_forms(q, m):
    assert ratfun_eq(module_gf(q, m), fixture_ratfun(module_gf_closed(q, m)))


def test_module_gf_first_coefficients():
    # Coefficient 0 is 1; coefficient 1 counts similarity classes.
    assert module_gf(2, 2).series(1) == [1, 6]
    assert module_gf(3, 2).series(1) == [1, 12]


def test_module_oracle_values():
    assert module_orbit_oracle(2, 2, 0) == 1
    assert module_orbit_oracle(2, 2, 1) == 6
    assert module_orbit_oracle(2, 2, 2) == 28
    assert module_orbit_counts(3, 2, 2) == [1, 12, 117]


def test_module_oracle_matches_series():
    assert module_gf(2, 2).series(3) == module_orbit_counts(2, 2, 3)
    assert module_gf(3, 2).series(2) == module_orbit_counts(3, 2, 2)


def test_module_oracle_budget():
    with pytest.raises(WorkBudgetError, match="level 1 of 2"):
        module_orbit_counts(2, 2, 2, budget=5)


def test_stretch_gate(monkeypatch):
    # One rule: M_m(F_q) runs up to 512 elements; larger rings are refused
    # before their field is built.
    assert MatRing(Fq(2), 3).size == 512
    with pytest.raises(SizeLimitError):
        MatRing(Fq(3), 3)

    def no_field(q):
        raise AssertionError(f"F_{q} built for a refused ring")

    monkeypatch.setattr(matrixalg, "Fq", no_field)
    with pytest.raises(SizeLimitError):
        module_process(3, 3)
    with pytest.raises(SizeLimitError):
        module_orbit_counts(3, 3, 1)
    with pytest.raises(SizeLimitError, match="1009"):
        module_gf(1009, 1)
    with pytest.raises(SizeLimitError, match=r"M_1000\(F_2\) has 2\^1000000 elements"):
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


def _reached_subrings(q, conjugates, rng):
    """M_2(F_q), every centralizer subring its tree reaches, and conjugates of each."""
    ring = MatRing(Fq(q), 2)
    seen = {}
    todo = [Subalgebra.full(ring)]
    while todo:
        z = todo.pop()
        if z.elements in seen:
            continue
        seen[z.elements] = z
        todo += [centralizer_ring(z, rep) for rep, _ in unit_conjugacy_classes(z)]
    corpus = list(seen.values())
    for z in list(corpus):
        for u in rng.sample(ring.units, conjugates):
            uinv = ring.inv(u)
            corpus.append(Subalgebra(ring, [ring.mul(ring.mul(u, a), uinv) for a in z.elements]))
    return corpus


def test_ring_extension_check_matches_reference():
    rng = random.Random(6)
    outcomes = Counter()
    for q in (2, 3):
        corpus = _reached_subrings(q, 1, rng)
        for z1, z2 in itertools.product(corpus, repeat=2):
            if z1.size != z2.size:
                continue
            gens = _ring_generators(z1)
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
                assert _is_ring_isomorphism(z1, z2, gens, images) == expected, (z1, z2, images)
                outcomes[expected] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


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
    # Each generator tries its profiled candidates in sorted order; the four
    # CLI rings then need 55 candidate tuples.
    calls = []

    def counting(*args):
        calls.append(args)
        return _is_ring_isomorphism(*args)

    monkeypatch.setattr(matrixalg, "_is_ring_isomorphism", counting)
    for q, m in [(2, 2), (3, 2), (4, 2), (2, 3)]:
        build_branching(module_process(q, m))
    assert 0 < len(calls) <= 55


def _direct_conjugation_tables(ring):
    # Every unit conjugates every element as matrices: u a u^-1.
    idx = ring.element_index
    return tuple(
        tuple(idx[ring.mul(ring.mul(u, a), ring.inv(u))] for a in ring.elements)
        for u in ring.units
    )


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_unit_conjugation_tables_match_direct_construction(q, m):
    ring = MatRing(Fq(q), m)
    tables = ring.unit_conjugation_tables
    assert len(tables) == len(ring.units)
    assert set(tables) == set(_direct_conjugation_tables(ring))
    assert tables == _direct_conjugation_tables(ring)


def test_unit_conjugation_tables_need_generators_of_the_unit_group(monkeypatch):
    # One element of order 3 generates only C3 inside GL_2(F_2) = S3.
    monkeypatch.setattr(matrixalg, "greedy_generators", lambda *args: ((0, 1, 1, 1),))
    with pytest.raises(ArithmeticError, match="do not generate"):
        MatRing(Fq(2), 2).unit_conjugation_tables
