"""Commuting-tuple conjugacy classes and tuple-orbit series."""

import hashlib
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from branchgf import wreaths
from branchgf.commuting import (
    _centralizer_sum,
    burnside_gf,
    burnside_gf_elementwise,
    commuting_gf,
    commuting_orbit_counts,
    commuting_process,
    partitions,
    symmetric_burnside_gf,
    zlambda,
)
from branchgf.cli import factor_trees, parse_group_factors, parse_group_name
from branchgf.engine import (
    bfs_level_counts,
    build_branching,
    class_product,
    gf_total,
    product_process,
    verify_tree,
)
from branchgf.errors import WorkBudgetError
from branchgf.fixtures import (
    COMMUTING_BRANCHING,
    COMMUTING_ORBIT_GF,
    TUPLE_ORBIT_GF,
    fixture_ratfun,
)
from branchgf.perms import (
    KeyRegistry,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
    wreath_c2_s2,
)
from branchgf.polyring import Poly, RatFun, one_minus, ratfun_sum
from branchgf.zsets import symmetric_commuting_counts


def matrices_match_up_to_reordering(a, b) -> bool:
    """Equality of branching matrices up to renumbering the non-root classes."""
    n = len(a)
    if len(b) != n:
        return False
    for perm in itertools.permutations(range(1, n)):
        mapping = (0,) + perm
        if all(
            a[mapping[i]][mapping[j]] == b[i][j] for i in range(n) for j in range(n)
        ):
            return True
    return False


def test_s3_branching_matrix_exact():
    bm = build_branching(commuting_process(symmetric_group(3)))
    assert bm.matrix == COMMUTING_BRANCHING[3]


def test_s4_branching_matrix_up_to_order():
    bm = build_branching(commuting_process(symmetric_group(4)))
    assert bm.size == 5
    assert matrices_match_up_to_reordering(bm.matrix, COMMUTING_BRANCHING[4])


def test_s5_branching_matrix_up_to_order():
    bm = build_branching(commuting_process(symmetric_group(5)))
    assert bm.size == 7  # two cycle types club into one centralizer class
    assert matrices_match_up_to_reordering(bm.matrix, COMMUTING_BRANCHING[5])


def test_abelian_group_single_class():
    bm = build_branching(commuting_process(cyclic_group(6)))
    assert bm.matrix == ((6,),)


def test_abelian_states_are_keyed_once(monkeypatch):
    # D8 (order 16): the root, its 7 classes, and one key for each of its
    # two abelian states; listing their elements took 20 calls.
    calls = []
    key_for = KeyRegistry.key_for

    def counted(self, group):
        calls.append(group)
        return key_for(self, group)

    monkeypatch.setattr(KeyRegistry, "key_for", counted)
    bm = build_branching(commuting_process(dihedral_group(8)))
    assert bm.size == 3
    assert len(calls) <= 10


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_commuting_gf_matches_reference(m):
    got = commuting_gf(symmetric_group(m))
    assert got == fixture_ratfun(COMMUTING_ORBIT_GF[m])


def test_commuting_gf_abelian_is_geometric():
    assert commuting_gf(cyclic_group(2)) == RatFun(Poly([1]), one_minus(2))
    for k in (3, 4, 6):
        group = cyclic_group(k)
        assert commuting_gf(group) == RatFun(Poly([1]), one_minus(k))
        assert commuting_gf(group) == burnside_gf(group)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_burnside_gf_matches_reference(m):
    assert burnside_gf(symmetric_group(m)) == fixture_ratfun(TUPLE_ORBIT_GF[m])


def test_burnside_gf_trivial_group():
    assert burnside_gf(cyclic_group(1)) == RatFun(Poly([1]), one_minus(1))


def test_burnside_elementwise_agrees():
    for name in ("S1", "S3", "S4", "S5", "D4", "D5", "C6", "C2wrS2", "C2xS3"):
        group = parse_group_name(name)
        assert burnside_gf(group) == burnside_gf_elementwise(group), name


def _term_by_term(tally: dict[int, int]) -> RatFun:
    # The centralizer sum with one reduced term c/(z (1 - zt)) per z, added
    # by ratfun_sum's lcm merging.
    return ratfun_sum(RatFun(Poly([count]), Poly([z, -z * z])) for z, count in tally.items())


def _product_tally(name: str) -> Counter:
    factors = parse_group_factors(name)
    return class_product(1, (f.centralizer_orders.items() for f in factors), operator.mul)


def _random_tally(seed: int) -> Counter:
    rng = random.Random(seed)
    zs = rng.sample(range(1, 5000), rng.randint(1, 40))
    return Counter({z: rng.randint(1, 10**6) for z in zs})


LISTED_NAMES = [*(f"S{m}" for m in range(1, 7)), *(f"D{n}" for n in range(1, 13)),
                *(f"C{k}" for k in range(1, 13)), "C2wrS2"]


@pytest.mark.parametrize("tally", [
    *(pytest.param(lambda name=name: parse_group_name(name).centralizer_orders, id=name)
      for name in LISTED_NAMES),
    *(pytest.param(lambda m=m: wreaths.symmetric(m).centralizer_orders, id=f"zset-S{m}")
      for m in range(1, 21)),
    *(pytest.param(lambda name=name: _product_tally(name), id=name)
      for name in ("S8xS8xS4", "D200xD200")),
    *(pytest.param(lambda seed=seed: _random_tally(seed), id=f"random-{seed}")
      for seed in range(50)),
])
def test_centralizer_sum_matches_the_term_by_term_sum(tally):
    tally = tally()
    assert _centralizer_sum(tally) == _term_by_term(tally)


@pytest.mark.parametrize("m,digest", [
    (12, "dbcf14986e6acbc5d63e350c3f1629d6a1db685180102f889908d610deaec159"),
    (14, "3f27844c6b3c67f15a077b125de9a5aea356118bc3149efa5450a71dd5e7c673"),
    (16, "365bda078b6961a007cbbb1c90977a010de16aeec0e78562d550d34fe0e5f13b"),
])
def test_burnside_display_is_pinned(m, digest):
    # sha256 of str(burnside_gf(S_m)) as the term-by-term sum printed it.
    text = str(burnside_gf(wreaths.symmetric(m)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_partition_formula_agrees_with_group_sum(m):
    assert symmetric_burnside_gf(m) == burnside_gf(symmetric_group(m))


def test_partitions_lexicographic():
    assert list(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert list(partitions(0)) == [()]


def test_zlambda_values():
    assert zlambda((1, 1, 1)) == 6
    assert zlambda((2, 1)) == 2
    assert zlambda((3, 2)) == 6
    assert zlambda((5,)) == 5


def test_class_sizes_match_cycle_type_formula():
    import math

    for m in range(1, 6):
        group = symmetric_group(m)
        by_type = {}
        for cls in group.conjugacy_classes:
            by_type[cls.rep.cycle_type()] = cls.size
        for lam in partitions(m):
            assert by_type[lam] == math.factorial(m) // zlambda(lam)


def test_oracle_trivial_cases():
    assert commuting_orbit_counts(symmetric_group(3), 0)[0] == 1
    assert commuting_orbit_counts(symmetric_group(4), 1)[1] == 5


def test_oracle_s3_pairs():
    assert commuting_orbit_counts(symmetric_group(3), 2)[2] == 8


def test_oracle_matches_series_small_groups():
    cases = [
        (symmetric_group(1), 4),
        (symmetric_group(2), 4),
        (symmetric_group(3), 4),
        (symmetric_group(4), 4),
        (symmetric_group(5), 3),
        (cyclic_group(6), 4),
        (dihedral_group(4), 4),
        (wreath_c2_s2(), 4),
        (direct_product(cyclic_group(2), symmetric_group(3)), 3),
    ]
    for group, depth in cases:
        series = commuting_gf(group).series(depth)
        assert commuting_orbit_counts(group, depth) == series


def test_product_rule_for_a_group_of_order_128():
    # Commuting tuples in G x H up to conjugacy are pairs of such tuples.
    factor = commuting_gf(wreath_c2_s2()).series(8)
    assert factor[:5] == commuting_orbit_counts(wreath_c2_s2(), 4)
    group = parse_group_name("C2wrS2xC2wrS2xC2")
    assert group.order == 128
    assert commuting_gf(group).series(8) == [h * h * 2**n for n, h in enumerate(factor)]


def product_tree(name):
    """The process of an x-joined name from its factors' trees, as the group
    command builds them (Z-set labels for S, C and CwrS, one registry)."""
    return product_process(*factor_trees(parse_group_factors(name)))


def listed_product_tree(name):
    """The process of an x-joined name from every factor's listed tree, as
    factor_trees builds a listed factor's: commuting_process, all factors
    keyed by one KeyRegistry."""
    return product_process(*factor_trees([parse_group_name(part) for part in name.split("x")]))


@pytest.mark.parametrize(
    "name",
    ["D8xC2", "S5xC2", "C2wrS2xS4", "C2xC2xS3", "S3xS3xC2", "D4xD4", "D3xD6xD2", "C6xS3"],
)
def test_product_tree_matches_the_element_list_tree(name):
    # Both the command's factor trees and listed factor trees under one
    # registry; a registry per factor would key listed C6 and S3 both g6.0.
    expected = commuting_gf(parse_group_name(name))
    for process in (product_tree(name), listed_product_tree(name)):
        assert gf_total(build_branching(process)) == expected
        assert verify_tree(process, 8)


def test_s6xs6_series_is_the_square_of_s6():
    factor = commuting_gf(symmetric_group(6)).series(8)
    product = gf_total(build_branching(product_tree("S6xS6"))).series(8)
    assert product == [h * h for h in factor]


@pytest.mark.parametrize("name", ["C2xS3", "D8xC2", "S5xC2", "C2wrS2xS4"])
def test_product_burnside_from_class_tuples(name):
    assert burnside_gf(*parse_group_factors(name)) == burnside_gf(parse_group_name(name))


def test_product_burnside_over_many_centralizer_orders():
    # S8xS8xS4 has 244 distinct centralizer orders; the sum has no term
    # bound.  Tuple orbits of a product are tuples of orbits, so f_n multiplies.
    got = burnside_gf(*parse_group_factors("S8xS8xS4"))
    assert len(got.den.coeffs) - 1 == 244
    s8, s4 = symmetric_burnside_gf(8).series(4), symmetric_burnside_gf(4).series(4)
    assert got.series(4) == [a * a * b for a, b in zip(s8, s4)]


def test_oracle_budget():
    with pytest.raises(WorkBudgetError, match="level 1 of 3"):
        commuting_orbit_counts(symmetric_group(4), 3, budget=10)


def test_commuting_at_most_tuple_orbits():
    # Coefficientwise h <= f: commuting tuples are a subset of all tuples.
    for group in (symmetric_group(3), symmetric_group(4), dihedral_group(4)):
        h = commuting_gf(group).series(5)
        f = burnside_gf(group).series(5)
        assert all(a <= b for a, b in zip(h, f))


def test_first_coefficients_count_classes():
    for group in (symmetric_group(3), symmetric_group(4), dihedral_group(6)):
        k = len(group.conjugacy_classes)
        assert commuting_gf(group).series(1) == [1, k]
        assert burnside_gf(group).series(1) == [1, k]


def test_verify_tree_commuting_processes():
    for group in (symmetric_group(3), symmetric_group(4), cyclic_group(6)):
        assert verify_tree(commuting_process(group), 6)


def test_level_counts_s3():
    assert bfs_level_counts(commuting_process(symmetric_group(3)), 3).totals == (1, 3, 8, 21)


def test_level_counts_match_series():
    group = symmetric_group(4)
    process = commuting_process(group)
    totals = bfs_level_counts(process, 5).totals
    assert list(totals) == gf_total(build_branching(process)).series(5)


# -- Bryan-Fulman closed form ----------------------------------------------------


def _ordered_factorizations(k, n):
    """Tuples (d_1, ..., d_n) of positive integers with product k."""
    if n == 0:
        if k == 1:
            yield ()
        return
    for d in range(1, k + 1):
        if k % d == 0:
            for rest in _ordered_factorizations(k // d, n - 1):
                yield (d,) + rest


def bryan_fulman_count(m, n):
    """Orbits of S_m on commuting n-tuples (Bryan and Fulman, Ann. Comb. 2, 1998).

    The count is the coefficient of x^m in prod_k (1 - x^k)^(-a_n(k)) with
    a_n(k) = sum over d_1...d_n = k of d_1^(n-1) d_2^(n-2) ... d_(n-1).
    """
    series = [1] + [0] * m
    for k in range(1, m + 1):
        a = sum(
            math.prod(d ** (n - 1 - i) for i, d in enumerate(ds))
            for ds in _ordered_factorizations(k, n)
        )
        # (1 - x^k)^(-a) = sum_j C(a + j - 1, j) x^(kj)
        factor = [0] * (m + 1)
        factor[0] = 1
        for j in range(1, m // k + 1):
            factor[k * j] = math.comb(a + j - 1, j)
        series = [sum(series[i] * factor[s - i] for i in range(s + 1)) for s in range(m + 1)]
    return series[m]


def test_bryan_fulman_formula_s6_values():
    values = [1, 11, 92, 717, 5512, 42601, 333012, 2635637, 21102992]
    assert [bryan_fulman_count(6, n) for n in range(9)] == values
    assert symmetric_commuting_counts(6, 8) == values


def test_closed_form_recursion_matches_the_factorization_sum():
    # a_n(d) by the divisor recursion, against its expansion over ordered
    # factorizations d_1...d_n = d.
    for m in range(8):
        assert symmetric_commuting_counts(m, 5) == [bryan_fulman_count(m, n) for n in range(6)]


@pytest.mark.parametrize("m", range(1, 9))
def test_commuting_gf_matches_bryan_fulman(m):
    series = commuting_gf(symmetric_group(m)).series(8)
    assert series == symmetric_commuting_counts(m, 8)


def test_product_rule_on_s7xc2_matches_the_closed_form():
    # h_n(G x H) = h_n(G) h_n(H), and h_n(C2) = 2^n.
    series = gf_total(build_branching(product_tree("S7xC2"))).series(8)
    assert series == [h * 2**n for n, h in enumerate(symmetric_commuting_counts(7, 8))]


def _minimal_recurrence(seq):
    """Berlekamp-Massey over the rationals: the shortest c with
    seq[k] = sum_i c[i] seq[k-1-i] for every k >= len(c)."""
    c, b, order, shift, last = [], [], 0, 1, Fraction(1)
    for k, value in enumerate(seq):
        discrepancy = value - sum(ci * seq[k - 1 - i] for i, ci in enumerate(c))
        if discrepancy == 0:
            shift += 1
            continue
        scale = discrepancy / last
        update = [0] * (shift - 1) + [scale] + [-scale * bi for bi in b]
        new = [x + y for x, y in itertools.zip_longest(c, update, fillvalue=0)]
        if 2 * order <= k:
            b, order, last, shift = c, k + 1 - order, discrepancy, 1
        else:
            shift += 1
        c = new
    return (c + [0] * order)[:order]


def test_s5_fixture_row_computed_from_the_closed_form():
    # The gf of a sequence with a recurrence of order L is P(t) / (1 - sum
    # c_i t^i) with deg P < L; 30 terms fix a recurrence of order <= 15.
    series = symmetric_commuting_counts(5, 29)
    c = _minimal_recurrence(series)
    assert len(c) <= 15 and all(x.denominator == 1 for x in c)
    den = Poly([1, *(-int(x) for x in c)])
    num = Poly((den * Poly(series)).coeffs[: len(c)])
    assert RatFun(num, den) == fixture_ratfun(COMMUTING_ORBIT_GF[5])
