"""Finite fields, subalgebras, and module-count series."""

import pytest

from branchgf.engine import build_branching, verify_tree
from branchgf.errors import ElementNotInAlgebraError, SizeLimitError, WorkBudgetError
from branchgf.fixtures import fixture_ratfun, module_gf_closed
from branchgf.matrixalg import (
    Fq,
    MatRing,
    RingKeyRegistry,
    Subalgebra,
    centralizer_ring,
    mat_identity,
    mat_inv,
    mat_mul,
    module_gf,
    module_orbit_counts,
    module_orbit_oracle,
    module_process,
    prime_power,
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


def test_stretch_gate():
    with pytest.raises(SizeLimitError):
        module_process(2, 3)
    with pytest.raises(SizeLimitError):
        module_orbit_counts(2, 3, 1)
    with pytest.raises(SizeLimitError):
        MatRing(Fq(3), 3)


def test_verify_tree_module_processes():
    assert verify_tree(module_process(2, 2), 6)
    assert verify_tree(module_process(3, 2), 6)
