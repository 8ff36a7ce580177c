"""Permutation kernel: closure, centralizers, conjugacy, isomorphism keys."""

import math
import operator
import random
from collections import Counter

import pytest

from branchgf import orbits, perms
from branchgf.cli import parse_group_name
from branchgf.commuting import burnside_gf, commuting_process
from branchgf.engine import build_branching
from branchgf.errors import ElementNotInGroupError, OrderLimitError
from branchgf.orbits import extend_map
from branchgf.perms import (
    KeyRegistry,
    Perm,
    PermGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    is_isomorphic,
    parse_cycles,
    partitions,
    symmetric_group,
    wreath_c2_s2,
    zlambda,
)


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 0])


def test_perm_composition_and_inverse():
    a = parse_cycles("(1,2,3)", 3)
    b = parse_cycles("(1,2)", 3)
    assert (a * b).images == (2, 1, 0)  # apply b first, then a
    assert (a * a.inverse()).is_identity()
    assert a.conjugate(b) == a * b * a.inverse()
    # Products skip the permutation check, so mixed degrees are refused.
    for c in (Perm.identity(2), Perm.identity(4)):
        with pytest.raises(ValueError):
            a * c
        with pytest.raises(ValueError):
            a.conjugate(c)


def test_perm_order_and_cycle_type():
    p = parse_cycles("(1,2)(3,4,5)", 5)
    assert p.order() == 6
    assert p.cycle_type() == (3, 2)
    assert Perm.identity(4).cycle_type() == (1, 1, 1, 1)


@pytest.mark.parametrize(
    "text,degree",
    [("(1,2)(3,4)", 5), ("()", 3), ("(1,2,3)", 3), ("(2,4)", 4)],
)
def test_cycle_notation_roundtrip(text, degree):
    p = parse_cycles(text, degree)
    assert parse_cycles(str(p), degree) == p


def test_cycle_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1,2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1,8)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1,2)(2,3)", 3)


def test_closure_s3():
    g = PermGroup.from_generators(3, [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    assert g.order == 6


def test_closure_trivial():
    assert PermGroup.from_generators(4, []).order == 1


def test_closure_s5_from_two_generators():
    g = PermGroup.from_generators(5, [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])
    assert g.order == 120


def test_closure_order_limit():
    with pytest.raises(OrderLimitError):
        PermGroup.from_generators(
            5,
            [parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)],
            order_limit=100,
        )


def test_centralizer_of_double_transposition():
    s4 = symmetric_group(4)
    z = s4.centralizer([parse_cycles("(1,2)(3,4)", 4)])
    expected = {
        "()", "(1,2)(3,4)", "(1,2)", "(3,4)",
        "(1,3)(2,4)", "(1,4)(2,3)", "(1,4,2,3)", "(1,3,2,4)",
    }
    assert {str(p) for p in z.elements} == expected


def test_centralizer_of_identity_is_whole_group():
    s4 = symmetric_group(4)
    z = s4.centralizer([s4.identity])
    assert z.order == 24


def test_centralizer_of_three_cycle_in_s3():
    z = symmetric_group(3).centralizer([parse_cycles("(1,2,3)", 3)])
    assert z.order == 3
    assert z.is_abelian
    assert is_isomorphic(z, cyclic_group(3))


def test_centralizer_requires_membership():
    with pytest.raises(ElementNotInGroupError):
        cyclic_group(4).centralizer([parse_cycles("(1,2)", 4)])


def test_conjugacy_classes_s3():
    sizes = sorted(c.size for c in symmetric_group(3).conjugacy_classes)
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_trivial():
    assert [c.size for c in PermGroup.trivial().conjugacy_classes] == [1]


def test_conjugacy_classes_of_centralizer():
    z = symmetric_group(4).centralizer([parse_cycles("(1,2)(3,4)", 4)])
    assert sorted(c.size for c in z.conjugacy_classes) == [1, 1, 2, 2, 2]


def test_class_reps_are_least_members():
    for group in (symmetric_group(4), dihedral_group(4)):
        for cls in group.conjugacy_classes:
            orbit = {g.conjugate(cls.rep) for g in group.elements}
            assert cls.rep == min(orbit)
            assert len(orbit) == cls.size


def test_orbit_stabilizer_identity():
    for group in (
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        wreath_c2_s2(),
        direct_product(cyclic_group(2), symmetric_group(3)),
    ):
        for x in group.elements:
            assert group.class_size_of[x] * group.centralizer([x]).order == group.order


def test_class_sizes_partition_group():
    for group in (symmetric_group(4), dihedral_group(6)):
        assert sum(c.size for c in group.conjugacy_classes) == group.order


def test_iso_distinguishes_c4_from_klein():
    assert not is_isomorphic(cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2)))


def test_iso_centralizer_is_wreath():
    z = symmetric_group(4).centralizer([parse_cycles("(1,2)(3,4)", 4)])
    assert is_isomorphic(z, wreath_c2_s2())
    assert is_isomorphic(z, dihedral_group(4))


def test_iso_conjugate_subgroups():
    s5 = symmetric_group(5)
    h = s5.centralizer([parse_cycles("(1,2)", 5)])
    g = parse_cycles("(1,3,5)", 5)
    conj = PermGroup(5, [g.conjugate(x) for x in h.elements])
    assert is_isomorphic(h, conj)
    reg = KeyRegistry()
    assert reg.key_for(h) == reg.key_for(conj)


def test_iso_s3_vs_c6():
    assert not is_isomorphic(symmetric_group(3), cyclic_group(6))


def test_iso_c2xs3_vs_d6():
    assert is_isomorphic(direct_product(cyclic_group(2), symmetric_group(3)), dihedral_group(6))


def test_iso_reflexive():
    g = symmetric_group(4)
    assert is_isomorphic(g, g)


def test_iso_is_equivalence_on_corpus():
    corpus = [
        symmetric_group(3),
        cyclic_group(6),
        dihedral_group(6),
        direct_product(cyclic_group(2), symmetric_group(3)),
        dihedral_group(4),
        wreath_c2_s2(),
        cyclic_group(8),
        direct_product(cyclic_group(2), cyclic_group(4)),
    ]
    relation = {
        (i, j): is_isomorphic(a, b)
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


def test_iso_order_limit():
    s6 = symmetric_group(6)
    with pytest.raises(OrderLimitError):
        is_isomorphic(s6, s6)
    # The registry keys a group it has seen by its element set, with no
    # iso test; only a new element set whose order and fingerprint match a
    # known group reaches the order limit inside is_isomorphic.
    reg = KeyRegistry()
    assert reg.key_for(s6) == reg.key_for(symmetric_group(6))
    with pytest.raises(OrderLimitError):
        reg.key_for(direct_product(s6, symmetric_group(1)))


def test_iso_order_limit_after_the_fingerprint_screen():
    # Order 720, above the limit, but the fingerprints differ: the screen
    # answers before the limit is checked.
    s6 = symmetric_group(6)
    s3xs5 = direct_product(symmetric_group(3), symmetric_group(5))
    assert s3xs5.order == s6.order == 720
    assert not is_isomorphic(s6, s3xs5)
    with pytest.raises(OrderLimitError):
        is_isomorphic(s6, s6)
    reg = KeyRegistry()
    keys = [reg.key_for(s6), reg.key_for(s3xs5)]
    assert [str(k) for k in keys] == ["g720.0", "g720.1"]


def test_fingerprint_only_for_a_shared_order():
    # The registry buckets by order, so a representative's fingerprint is
    # computed exactly when another element set of its order was keyed.
    reg = KeyRegistry()
    build_branching(commuting_process(symmetric_group(5), reg))
    keyed_sets = Counter(key.size for key in reg._by_same_set.values())
    fingerprinted = {
        key.size: "fingerprint" in vars(rep) for key, rep in reg.representatives.items()
    }
    assert fingerprinted == {size: keyed_sets[size] > 1 for size in fingerprinted}
    assert {size for size, done in fingerprinted.items() if not done} == {120, 12, 8, 5}


def test_key_conjugation_invariance_randomized():
    rng = random.Random(11)
    s5 = symmetric_group(5)
    reg = KeyRegistry()
    for _ in range(10):
        x = rng.choice(s5.elements)
        h = s5.centralizer([x])
        g = rng.choice(s5.elements)
        conj = PermGroup(5, [g.conjugate(e) for e in h.elements])
        assert reg.key_for(h) == reg.key_for(conj)


def test_keys_separate_nonisomorphic():
    reg = KeyRegistry()
    assert reg.key_for(cyclic_group(4)) != reg.key_for(
        direct_product(cyclic_group(2), cyclic_group(2))
    )
    assert reg.key_for(symmetric_group(3)) != reg.key_for(cyclic_group(6))


def test_element_order_statistics():
    assert symmetric_group(3).element_order_counts == ((1, 1), (2, 3), (3, 2))
    assert cyclic_group(4).element_order_counts == ((1, 1), (2, 1), (4, 2))


def test_dihedral_small_cases():
    assert dihedral_group(1).order == 2
    assert dihedral_group(2).order == 4
    assert dihedral_group(4).order == 8
    assert not dihedral_group(4).is_abelian


def test_dihedral_and_product_order_caps():
    # D_n uses the default closure cap, as C_k does; a direct product is
    # refused by its order before any element is built.
    assert dihedral_group(256).order == 512
    with pytest.raises(OrderLimitError):
        dihedral_group(257)
    s6 = symmetric_group(6)
    assert direct_product(s6, cyclic_group(8)).order == 5760
    with pytest.raises(OrderLimitError, match="518400"):
        direct_product(s6, s6)


def test_symmetric_group_range():
    assert symmetric_group(8).order == 40320
    for m in (0, 9):
        with pytest.raises(ValueError):
            symmetric_group(m)


@pytest.mark.parametrize("m", range(1, 7))
def test_cycle_type_classes_and_centralizers_match_the_element_list(m):
    # One conjugacy class per partition of m, of size m!/z_lambda, and the
    # class representative's centralizer has order z_lambda.
    sym = symmetric_group(m)
    types = [c.rep.cycle_type() for c in sym.conjugacy_classes]
    assert sorted(types) == sorted(partitions(m))
    for c, lam in zip(sym.conjugacy_classes, types):
        assert c.size * zlambda(lam) == sym.order == math.factorial(m)
        assert sym.centralizer([c.rep]).order == zlambda(lam)
    assert sym.is_abelian == (m <= 2)


def _refuse_greedy_scans(monkeypatch) -> None:
    def refused(*args, **kwargs):
        raise RuntimeError("greedy generator scan")

    monkeypatch.setattr(perms, "greedy_generators", refused)


@pytest.mark.parametrize("m", range(1, 7))
def test_listed_symmetric_groups_need_no_greedy_scan(m, monkeypatch):
    # S_m closes its classes under its own transposition and m-cycle (none
    # for S1), which generate the listed elements; a copy given without
    # generators reaches the greedy scan and finds the same classes.
    reference = PermGroup(m, symmetric_group(m).elements)
    expected = reference.conjugacy_classes, burnside_gf(reference)
    _refuse_greedy_scans(monkeypatch)
    group = symmetric_group(m)
    assert (group.conjugacy_classes, burnside_gf(group)) == expected
    assert len(group.generators) == (2 if m > 1 else 0)
    assert set(group.elements) == orbits.closure(group.identity, group.generators, operator.mul)
    with pytest.raises(RuntimeError, match="greedy"):
        PermGroup(m, group.elements).conjugacy_classes


@pytest.mark.parametrize("name", [*(f"D{n}" for n in range(1, 13)), "C6", "C2wrS2", "C2xS3"])
def test_listed_classes_need_no_greedy_scan(name, monkeypatch):
    listed = parse_group_name(name)
    expected = PermGroup(listed.degree, listed.elements).conjugacy_classes
    _refuse_greedy_scans(monkeypatch)
    assert parse_group_name(name).conjugacy_classes == expected


def test_subgroup_orders_divide_degree_factorial():
    import math

    for group in (
        symmetric_group(4).centralizer([parse_cycles("(1,2)(3,4)", 4)]),
        dihedral_group(5),
        wreath_c2_s2(),
    ):
        assert math.factorial(group.degree) % group.order == 0


def test_cycle_parser_accepts_spaces():
    assert parse_cycles("(1 2)(3 4)", 4) == parse_cycles("(1,2)(3,4)", 4)


def _brute_derived_order(group):
    """Order of the subgroup generated by all pairwise commutators."""
    commutators = {a.inverse() * b.inverse() * a * b for a in group for b in group}
    return PermGroup.from_generators(group.degree, sorted(commutators), group.order).order


def _reached_centralizers(group):
    """Every centralizer the commuting-tuple tree of group computes."""
    reg = KeyRegistry()
    build_branching(commuting_process(group, reg))
    return [
        z.centralizer([cls.rep])
        for z in reg.representatives.values()
        for cls in z.conjugacy_classes
    ]


def test_derived_subgroup_matches_brute_force():
    groups = [symmetric_group(m) for m in range(1, 6)]
    groups += [cyclic_group(k) for k in range(1, 7)]
    groups += [dihedral_group(n) for n in range(3, 9)]
    groups += [
        wreath_c2_s2(),
        direct_product(cyclic_group(2), symmetric_group(3)),
        direct_product(dihedral_group(8), cyclic_group(2)),
        direct_product(symmetric_group(5), cyclic_group(2)),
    ]
    c2wrs2xs4 = direct_product(wreath_c2_s2(), symmetric_group(4))
    groups.append(c2wrs2xs4)
    groups += _reached_centralizers(symmetric_group(5))
    groups += _reached_centralizers(c2wrs2xs4)
    distinct = {(g.degree, g._element_set): g for g in groups}
    assert len(distinct) > 50
    for g in distinct.values():
        assert g.derived_subgroup_order == _brute_derived_order(g), g


def test_iso_search_order_candidate_count(monkeypatch):
    # is_isomorphic extends each image prefix it tries once, and never a
    # prefix that begins with a rejected one: these trees need 55 extensions.
    calls = []

    def counting(*args):
        calls.append(args)
        return extend_map(*args)

    monkeypatch.setattr(perms, "extend_map", counting)
    for name in ("S5", "D8xC2", "S5xC2", "C2wrS2xS4", "S6"):
        build_branching(commuting_process(parse_group_name(name)))
    assert 0 < len(calls) <= 55


def _quaternion_group():
    # Q8 acting on itself by left multiplication, quaternions as 4-tuples.
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    elements = units + [tuple(-c for c in u) for u in units]

    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def left(x):
        return Perm([elements.index(mul(x, y)) for y in elements])

    return PermGroup.from_generators(8, [left(units[1]), left(units[2])])


def _c4_semidirect_c4():
    # Left-regular action of (i, j)(k, l) = (i + (-1)^j k, j + l) mod 4.
    points = [(i, j) for i in range(4) for j in range(4)]

    def left(x):
        i, j = x
        return Perm([points.index(((i + (-1) ** j * k) % 4, (j + l) % 4)) for k, l in points])

    return PermGroup.from_generators(16, [left((1, 0)), left((0, 1))])


def test_iso_search_rejects_q8xc2_against_c4_semidirect_c4(monkeypatch):
    q8xc2 = direct_product(_quaternion_group(), cyclic_group(2))
    c4c4 = _c4_semidirect_c4()
    assert q8xc2.order == c4c4.order == 16
    assert q8xc2.fingerprint == c4c4.fingerprint
    # An invariant the fingerprint misses: the number of distinct squares.
    assert [len({x * x for x in g}) for g in (q8xc2, c4c4)] == [2, 3]

    searched = []

    def recording(candidates, extends):
        def checked(images):
            accepted = extends(images)
            searched.append((images, accepted))
            return accepted

        return orbits.search_images(candidates, checked)

    monkeypatch.setattr(perms, "search_images", recording)
    for g, h in ((q8xc2, c4c4), (c4c4, q8xc2)):
        searched.clear()
        assert not is_isomorphic(g, h)
        rejected = [images for images, accepted in searched if not accepted]
        assert rejected and len(rejected) < len(searched)
        for images, _accepted in searched:
            assert not any(images[: len(r)] == r for r in rejected if len(r) < len(images))
    # The prime ring has no generators: the empty tuple of images is the answer.
    assert orbits.search_images([], lambda images: False)
