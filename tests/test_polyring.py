"""Exact polynomial / rational-function arithmetic."""

import itertools
import math
import operator
import random
from functools import reduce

import pytest

from branchgf.errors import (
    NonIntegerCoefficientError,
    NonUnitConstantTermError,
    ZeroDenominatorError,
)
from branchgf import polyring
from branchgf.configs import point_config_process, vector_config_process
from branchgf.engine import build_branching
from branchgf.polyring import (
    ONE,
    ZERO,
    Poly,
    RatFun,
    bareiss_det,
    geometric_factors,
    one_minus,
    poly_gcd,
    poly_product,
    ratfun_sum,
    resolvent_column,
)


def test_poly_mul_identity():
    assert (Poly([1, -3, 1]) * Poly([1])).coeffs == (1, -3, 1)


def test_poly_mul_distributes():
    assert (Poly([1, -1]) * Poly([1, -2])).coeffs == (1, -3, 2)


def test_poly_add_cancellation():
    assert (Poly([1, -8, 14]) + Poly([0, 8, -14])).coeffs == (1,)


def test_poly_canonical_length():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().is_zero


def test_poly_eval():
    p = Poly([1, -3, 2])
    assert p(0) == 1 and p(1) == 0 and p(3) == 10


def test_poly_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        Poly([1, 1]).divexact(Poly([1, -1]))


def _divides_by_division(d, p):
    try:
        p.divexact(d)
    except ValueError:
        return False
    return True


def test_divides_matches_exact_division():
    # Every polynomial of degree <= 2 with coefficients in -2..2 (zero,
    # constants, negative leading coefficients and d(0) = 0 among them) as
    # divisor and dividend, and their products with three cofactors.
    grid = {Poly(c) for k in range(4) for c in itertools.product(range(-2, 3), repeat=k)}
    divisors = [d for d in grid if d]
    cofactors = [Poly([-1, 1]), Poly([0, 2]), Poly([3, 0, -1])]
    dividends = grid | {d * e for d in divisors for e in cofactors}
    for d in divisors:
        for p in dividends:
            assert polyring._divides(d, p) == _divides_by_division(d, p), (d, p)
    with pytest.raises(ZeroDivisionError):
        polyring._divides(ZERO, ONE)


@pytest.mark.parametrize(
    "a,b,g",
    [
        ([0, 2], [2, -4], [2]),
        ([1, -4, 4], [1, -2], [1, -2]),
        ([1, -3, 2], [1, -1], [1, -1]),
        ([6], [4], [2]),
        ([4, 0, -6], [6], [2]),
        ([1, -2], [-1], [1]),
    ],
)
def test_poly_gcd(a, b, g):
    assert poly_gcd(Poly(a), Poly(b)) == Poly(g)


def _random_poly(rng, degree, digits):
    bound = 10**digits
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return Poly(coeffs + [rng.choice([-1, 1]) * rng.randint(1, bound)])


def _gcd_cases():
    """Seeded pairs in five shapes: f*g and f*h sharing a factor f, the same
    with integer content on one or both sides, coprime pairs, f beside a multiple
    f*g, and a constant beside f*g; either side may be negated or swapped."""
    rng = random.Random(1989)
    # Coprime, but at the first point, xi = 6, both values 8 and 40 are
    # multiples of 8 = 6 + 2, whose digits read back as t + 2.
    cases = [(Poly([2, 1]), Poly([4, 0, 1]))]
    for i in range(150):
        digits = (2, 40, 110)[i % 3]
        f = _random_poly(rng, rng.randint(1, 4), digits)
        g, h = (_random_poly(rng, rng.randint(0, 4), digits) for _ in range(2))
        shape = i // 3 % 5
        if shape == 0:
            a, b = f * g, f * h
        elif shape == 1:
            k = rng.choice([6, 10**25 + 13])
            a, b = (f * g).scale(k * rng.randint(1, 30)), (f * h).scale(rng.choice([1, k]))
        elif shape == 2:
            a, b = _random_poly(rng, rng.randint(1, 5), digits), g * h
        elif shape == 3:
            a, b = f, f * g
        else:
            a, b = Poly([rng.randint(1, 10**digits)]), f * g
        a, b = (-a if rng.random() < 0.5 else a), (-b if rng.random() < 0.5 else b)
        cases.append((a, b) if rng.random() < 0.5 else (b, a))
    return cases


def _prs_reference(a, b):
    """poly_gcd's content split and sign normalisation around the PRS alone."""
    c = math.gcd(a.content(), b.content())
    if a.degree == 0 or b.degree == 0:
        return Poly([c])
    g = polyring._prs_gcd(a.primitive_part(), b.primitive_part()).scale(c)
    return g if next(x for x in g.coeffs if x) > 0 else -g


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(polyring, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(polyring, name, counting)
    return calls


def test_gcd_cases_cover_every_shape():
    cases = _gcd_cases()
    polys = [p for pair in cases for p in pair]
    assert max(abs(c) for p in polys for c in p.coeffs) > 10**100
    assert sum(p.coeffs[-1] < 0 for p in polys) >= 20
    assert sum(p.coeffs[0] < 0 for p in polys) >= 20
    assert sum(min(a.degree, b.degree) == 0 for a, b in cases) >= 20
    assert sum(math.gcd(a.content(), b.content()) > 10**25 for a, b in cases) >= 5
    assert sum((a.content() == 1) != (b.content() == 1) for a, b in cases) >= 20
    assert sum(_prs_reference(a, b) == ONE for a, b in cases) >= 20


def test_heuristic_gcd_matches_prs(monkeypatch):
    cases = _gcd_cases()
    expected = [_prs_reference(a, b) for a, b in cases]
    fallbacks = _count_calls(monkeypatch, "_prs_gcd")
    for (a, b), g in zip(cases, expected):
        assert poly_gcd(a, b) == g == poly_gcd(b, a), (a, b)
    assert fallbacks[0] == 0


def test_gcd_fallback_gives_the_same_gcds(monkeypatch):
    cases = _gcd_cases()
    expected = [_prs_reference(a, b) for a, b in cases]
    monkeypatch.setattr(polyring, "_HEU_TRIES", 0)
    fallbacks = _count_calls(monkeypatch, "_prs_gcd")
    assert [poly_gcd(a, b) for a, b in cases] == expected
    assert fallbacks[0] == sum(min(a.degree, b.degree) > 0 for a, b in cases)


def test_chain_gcds_need_no_fallback(monkeypatch):
    # The point and vector chains of the benchmark's chains workload.
    matrices = [build_branching(process).matrix for process in (
        point_config_process(16), point_config_process(24), point_config_process(32),
        vector_config_process(2, 12), vector_config_process(3, 8))]
    heuristic = _count_calls(monkeypatch, "_heu_gcd")
    fallbacks = _count_calls(monkeypatch, "_prs_gcd")
    for matrix in matrices:
        ratfun_sum(resolvent_column(matrix))
    assert heuristic[0] > 0 and fallbacks[0] == 0


def test_normalize_common_content():
    f = RatFun(Poly([0, 2]), Poly([2, -4]))
    assert f.num == Poly([0, 1]) and f.den == Poly([1, -2])


def test_normalize_gcd_cancellation():
    f = RatFun(Poly([1, -4, 4]), Poly([1, -2]))
    assert f.num == Poly([1, -2]) and f.den == ONE


def test_normalize_zero_numerator():
    f = RatFun(Poly(), Poly([1, -6]))
    assert f.is_zero and f.den == ONE


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        RatFun(Poly([1]), Poly())


def test_normalize_zero_constant_term():
    with pytest.raises(NonUnitConstantTermError):
        RatFun(Poly([1]), Poly([0, 1]))


def test_ratfun_additive_identity():
    f = RatFun(Poly([1]), Poly([1, -1]))
    assert f + RatFun(Poly()) == f


def test_ratfun_partial_fraction_sum():
    # 1/(6(1-6t)) + 1/(2(1-2t)) + 1/(3(1-3t))
    total = ratfun_sum(
        [
            RatFun(Poly([1]), Poly([6]) * one_minus(6)),
            RatFun(Poly([1]), Poly([2]) * one_minus(2)),
            RatFun(Poly([1]), Poly([3]) * one_minus(3)),
        ]
    )
    expected = RatFun(
        Poly([1, -8, 14]), poly_product([one_minus(2), one_minus(3), one_minus(6)])
    )
    assert total == expected


def test_ratfun_monomial_product():
    f = RatFun(Poly([0, 1]), one_minus(1)) * RatFun(Poly([0, 1]), one_minus(2))
    assert f == RatFun(Poly([0, 0, 1]), one_minus(1) * one_minus(2))


def test_series_two_factor():
    f = RatFun(Poly([1]), one_minus(1) * one_minus(2))
    assert f.series(4) == [1, 3, 7, 15, 31]


def test_series_three_factor():
    f = RatFun(Poly([1, -3, 1]), poly_product([one_minus(1), one_minus(2), one_minus(3)]))
    assert f.series(3) == [1, 3, 8, 21]


def test_series_constant():
    assert RatFun(Poly([1])).series(4) == [1, 0, 0, 0, 0]


def test_series_non_integer_coefficient():
    f = RatFun(Poly([1]), Poly([2, -1]))
    with pytest.raises(NonIntegerCoefficientError, match="t\\^0 is the non-integer 1/2$"):
        f.series(3)
    # (2 + 3t)/(2 + t) = 1 + t - t^2/2 + ...: two exact steps, then a remainder.
    f = RatFun(Poly([2, 3]), Poly([2, 1]))
    assert f.series(1) == [1, 1]
    with pytest.raises(NonIntegerCoefficientError, match="t\\^2 is the non-integer -1/2$"):
        f.series(3)


def test_series_roundtrip_recurrence():
    # den * series must reproduce num coefficientwise.
    f = RatFun(Poly([1, -3, 1]), poly_product([one_minus(1), one_minus(2), one_minus(3)]))
    coeffs = f.series(12)
    den, num = f.den, f.num
    for k in range(13):
        acc = sum(den[i] * coeffs[k - i] for i in range(min(k, den.degree) + 1))
        assert acc == num[k]


def test_series_reads_coefficients_without_indexing(monkeypatch):
    # The commuting-tuple gf of S3: 1, 3, 8, 21, 56, 153, ...
    f = RatFun(Poly([1, -3, 1]), poly_product([one_minus(1), one_minus(2), one_minus(3)]))

    def no_getitem(self, n):
        raise AssertionError("series indexed a Poly")

    monkeypatch.setattr(Poly, "__getitem__", no_getitem)
    assert f.series(5) == [1, 3, 8, 21, 56, 153]


def test_resolvent_two_class_example():
    col = resolvent_column([[1, 0], [2, 2]])
    assert col[0] == RatFun(Poly([1]), one_minus(1))
    assert col[1] == RatFun(Poly([0, 2]), one_minus(1) * one_minus(2))
    assert ratfun_sum(col) == RatFun(Poly([1]), one_minus(1) * one_minus(2))


def test_resolvent_single_zero_class():
    assert resolvent_column([[0]]) == [RatFun(Poly([1]))]


def test_resolvent_three_class_column_sum():
    col = resolvent_column([[1, 0, 0], [1, 2, 0], [1, 0, 3]])
    total = ratfun_sum(col)
    expected = RatFun(
        Poly([1, -3, 1]), poly_product([one_minus(1), one_minus(2), one_minus(3)])
    )
    assert total == expected


def test_resolvent_rejects_bad_input():
    with pytest.raises(ValueError):
        resolvent_column([[1, 0], [2, -1]])
    with pytest.raises(ValueError):
        resolvent_column([[1, 0]])


def test_bareiss_det_matches_cofactor_expansion(monkeypatch):
    rng = random.Random(7)
    cases = [
        [[Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) for _ in range(n)]
         for _ in range(n)]
        for n in (rng.randint(1, 4) for _ in range(25))]

    def poly():  # degree up to 4, coefficients up to 10^9 in absolute value
        return _random_poly(rng, rng.randint(0, 4), 9)

    for n in range(1, 6):
        mat = [[poly() for _ in range(n)] for _ in range(n)]
        cases.append(mat)
        cases.append([[ZERO] * n if i == n // 2 else row for i, row in enumerate(mat)])
        if n > 1:
            h = poly()
            cases.append([mat[0], [x * h for x in mat[0]], *mat[2:]])  # singular
            cases.append([[ZERO, *row[1:]] for row in mat])  # no pivot in column 0
        if n > 2:
            cases.append([[ZERO, *mat[0][1:]], *mat[1:]])  # first pivot 0
            # The leading 2 x 2 minor is 0, so the second pivot is 0.
            cases.append([mat[0], [*(x * h for x in mat[0][:2]), *mat[1][2:]], *mat[2:]])
    signs = []
    eliminate = polyring._bareiss_eliminate
    monkeypatch.setattr(polyring, "_bareiss_eliminate",
                        lambda a, n: signs.append(eliminate(a, n)) or signs[-1])
    for mat in cases:
        assert bareiss_det(mat) == _naive_det(mat), mat
    assert signs.count(-1) >= 6 and signs.count(0) >= 4
    assert sum(bareiss_det(mat).is_zero for mat in cases) >= 12


def _naive_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Poly()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * _naive_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_geometric_factors():
    den = poly_product([one_minus(2), one_minus(3), one_minus(6)])
    c, factors, rest = geometric_factors(den)
    assert (c, factors, rest) == (1, [(2, 1), (3, 1), (6, 1)], ONE)
    c, factors, rest = geometric_factors(one_minus(2) * one_minus(2))
    assert factors == [(2, 2)]
    # Negative k, a content, a factor t and a part that does not split.
    quadratic = Poly([1, 1, 1])
    p = poly_product([Poly([-3]), one_minus(-2), one_minus(-2), one_minus(5), Poly([0, 1]), quadratic])
    assert geometric_factors(p) == (3, [(-2, 2), (5, 1)], Poly([0, -1]) * quadratic)
    # Large roots, and roots above the square root of the leading coefficient.
    big = 1000000007
    assert geometric_factors(one_minus(big)) == (1, [(big, 1)], ONE)
    p = one_minus(-2) * one_minus(big) * one_minus(10007) * one_minus(10009)
    assert geometric_factors(p) == (1, [(-2, 1), (10007, 1), (10009, 1), (big, 1)], ONE)
    huge = 10**16 + 61
    assert geometric_factors(one_minus(1) * one_minus(huge)) == (1, [(1, 1), (huge, 1)], ONE)
    assert geometric_factors(Poly([2, 2 * huge])) == (2, [(-huge, 1)], ONE)
    assert geometric_factors(Poly([2, huge])) == (1, [], Poly([2, huge]))
    # The vector-configuration denominator at q = huge, m = 2: lead q^3.
    p = poly_product([one_minus(1), one_minus(huge), one_minus(huge**2)])
    assert geometric_factors(p) == (1, [(1, 1), (huge, 1), (huge**2, 1)], ONE)


def test_geometric_factors_recovers_seeded_products():
    rng = random.Random(11)
    for _ in range(200):
        ks = [rng.choice([1, -1]) * rng.randint(1, 10**rng.randint(1, 7)) for _ in range(rng.randint(1, 5))]
        ks += rng.sample([-2, -1, 1, 2, 3], rng.randint(0, 3))
        rest = poly_product(rng.sample([Poly([0, 1]), Poly([1, 0, 5])], rng.randint(0, 2)))
        c = rng.choice([1, 6, 7])
        p = poly_product([one_minus(k) for k in ks]).scale(c) * rest
        expected = sorted((k, ks.count(k)) for k in set(ks))
        assert geometric_factors(p) == (c, expected, rest)


def test_display_strings():
    f = RatFun(
        Poly([1, -3, 1]), poly_product([one_minus(1), one_minus(2), one_minus(3)])
    )
    assert str(f) == "(1 - 3*t + t^2)/((1 - t)*(1 - 2*t)*(1 - 3*t))"
    assert str(RatFun(Poly([1]), one_minus(2))) == "1/(1 - 2*t)"
    assert str(RatFun(Poly([1]))) == "1"
    assert str(RatFun(Poly([0, 2]), one_minus(1) * one_minus(2))) == "2*t/((1 - t)*(1 - 2*t))"


def _random_ratfun(rng):
    num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))])
    while True:
        den = Poly(
            [rng.choice([1, 1, 2, 3, -1, -2])]
            + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        )
        if not den.is_zero and den[0] != 0:
            return RatFun(num, den)


def test_randomized_normalization_invariants():
    # 10^4 random arithmetic results all stay canonical.
    rng = random.Random(20260810)
    for i in range(10_000):
        a, b = _random_ratfun(rng), _random_ratfun(rng)
        f = a + b if i % 2 else a * b
        assert not f.den.is_zero
        assert f.den[0] >= 1
        g = poly_gcd(f.num, f.den)
        assert g == ONE or (f.num.is_zero and f.den == ONE)


def test_randomized_add_commutative_associative():
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (_random_ratfun(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a


def test_ratfun_sum_matches_left_fold():
    rng = random.Random(11)
    fixed = [
        RatFun(Poly([1]), Poly([6]) * one_minus(6)),
        RatFun(Poly([5]), Poly([3, -1])),
        RatFun(Poly([-2, 1]), Poly([2]) * one_minus(2) * one_minus(2)),
    ]
    cases = [[], [RatFun(ZERO)], fixed, fixed + fixed]
    for _ in range(150):
        terms = [_random_ratfun(rng) for _ in range(rng.randint(1, 6))]
        terms += [RatFun(ZERO)] * rng.randint(0, 2)
        terms += [RatFun(Poly([rng.randint(-4, 4)]), rng.choice(terms).den)
                  for _ in range(rng.randint(0, 2))]
        terms += rng.sample(fixed, rng.randint(0, 2))
        rng.shuffle(terms)
        cases.append(terms)
    for terms in cases:
        assert ratfun_sum(terms) == reduce(operator.add, terms, RatFun(ZERO))
    assert ratfun_sum([]) == RatFun(ZERO) and ratfun_sum(iter(fixed)) == ratfun_sum(fixed)


def test_ratfun_sum_of_a_shared_denominator_needs_no_lcm(monkeypatch):
    den = one_minus(1) * one_minus(2)
    terms = [RatFun(Poly([1, k]), den) for k in (0, 1, 3, 4, 5)]
    expected = reduce(operator.add, terms, RatFun(ZERO))

    def no_lcm(polys):
        raise AssertionError("an lcm formed for one shared denominator")

    monkeypatch.setattr(polyring, "_lcm", no_lcm)
    assert ratfun_sum(terms) == expected == RatFun(Poly([5, 13]), den)


def _cofactor_column(b):
    """Entry i of (I - B*t)^-1 e_0 as adj[i][0] / det, both by Faddeev-LeVerrier
    in integers, sharing no code with the resolvent: A_0 = I, then
    p_d = -tr(B A_(d-1)) / d and A_d = B A_(d-1) + p_d I, so that
    det(I - B*t) = sum p_d t^d and adj(I - B*t) = sum over d < n of t^d A_d."""
    n = len(b)
    a, p, adj_column = [[int(i == j) for j in range(n)] for i in range(n)], [1], []
    for d in range(1, n + 1):
        adj_column.append([row[0] for row in a])
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in b]
        trace, remainder = divmod(-sum(m[i][i] for i in range(n)), d)
        assert remainder == 0
        p.append(trace)
        a = [[x + trace * (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    return [RatFun(Poly(entry), Poly(p)) for entry in zip(*adj_column)]


def _strongly_connected(rng, n, top=2):
    # With top = 2, built like the benchmark's random chains: a weighted
    # cycle through every class plus n extra weighted edges, up to top each.
    cycle = [0] + rng.sample(range(1, n), n - 1)
    b = [[0] * n for _ in range(n)]
    for parent, child in zip(cycle, cycle[1:] + cycle[:1]):
        b[child][parent] = rng.randint(1, top)
    for _ in range(n):
        b[rng.randrange(n)][rng.randrange(n)] += rng.randint(1, top)
    return b


def _fed_blocks(rng, chain, sizes, top):
    """A path of chain singleton classes with self-loops, then cyclic blocks
    of the given sizes.  Each block is fed by the class just before it and by
    every earlier class with probability 1/2, so its right-hand sides carry
    numerators of degree up to about chain."""
    n = chain + sum(sizes)
    b = [[0] * n for _ in range(n)]
    for i in range(chain):
        b[i][i] = rng.randint(1, top)
        if i:
            b[i][i - 1] = rng.randint(1, top)
    lo = chain
    for k in sizes:
        for j in range(lo):
            if j == lo - 1 or rng.random() < 0.5:
                b[lo + rng.randrange(k)][j] += rng.randint(1, top)
        for c in range(k):
            b[lo + (c + 1) % k][lo + c] = rng.randint(1, top)
        for _ in range(k):
            b[lo + rng.randrange(k)][lo + rng.randrange(k)] += rng.randint(1, top)
        lo += k
    return b


def _block_dag(rng, n, singletons=False, loops=True):
    """Consecutive blocks of classes, each a weighted cycle or one class,
    with extra edges only from a class to a later one; the non-root classes
    are then relabelled at random."""
    k = n - 1 if singletons else rng.randint(0, n - 1)
    cuts = sorted(rng.sample(range(1, n), k))
    b = [[0] * n for _ in range(n)]
    for lo, hi in zip([0] + cuts, cuts + [n]):
        if hi - lo > 1:
            for parent in range(lo, hi):
                b[lo + (parent + 1 - lo) % (hi - lo)][parent] = rng.randint(1, 2)
        for i in range(lo, hi):
            if loops and rng.random() < 0.5:
                b[i][i] = rng.randint(1, 3)
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        j, i = sorted(rng.sample(range(n), 2))
        b[i][j] += rng.randint(1, 2)
    perm = [0] + rng.sample(range(1, n), n - 1)
    return [[b[perm.index(i)][perm.index(j)] for j in range(n)] for i in range(n)]


def _reach(b):
    """reach[j][i]: class i is reachable from class j (every class reaches itself)."""
    n = len(b)
    reach = [[i == j or b[i][j] != 0 for i in range(n)] for j in range(n)]
    for k in range(n):
        for j in range(n):
            if reach[j][k]:
                reach[j] = [x or y for x, y in zip(reach[j], reach[k])]
    return reach


def _resolvent_cases():
    rng = random.Random(2026)
    cases = []
    for seed in range(40):
        n = 1 + seed % 8
        cases.append(_block_dag(rng, n))
        cases.append(_block_dag(rng, n, singletons=True, loops=False))
        cases.append(_strongly_connected(rng, n))
        b = _block_dag(rng, n)
        for j in rng.sample(range(n), rng.randint(1, n)):
            for row in b:
                row[j] = 0
        cases.append(b)
        b = _block_dag(rng, n)
        b[0] = [0] * n
        cases.append(b)  # no edge into the root, not even a self-loop
        b = _block_dag(rng, n)
        unreached = rng.sample(range(1, n), rng.randint(1, n - 1)) if n > 1 else []
        for i in unreached:
            b[i] = [x if j in unreached else 0 for j, x in enumerate(b[i])]
        for j in unreached:
            b[0][j] += rng.randint(0, 2)
        cases.append(b)  # classes no edge leads into from the root's side
    return cases


def test_resolvent_cases_cover_every_shape():
    shapes = dict.fromkeys(
        ("cyclic block in a dag", "unreached", "edge into root from unreached",
         "singleton without loop", "zero column", "strongly connected"), 0)
    for b in _resolvent_cases():
        n, reach = len(b), _reach(b)
        blocks = {frozenset(i for i in range(n) if reach[j][i] and reach[i][j])
                  for j in range(n)}
        shapes["cyclic block in a dag"] += len(blocks) > 1 and max(map(len, blocks)) > 1
        shapes["unreached"] += not all(reach[0])
        shapes["edge into root from unreached"] += any(
            b[0][j] and not reach[0][j] for j in range(n))
        shapes["singleton without loop"] += any(
            c == {i} and not b[i][i] and reach[0][i] for c in blocks for i in c)
        shapes["zero column"] += any(not any(row[j] for row in b) for j in range(n))
        shapes["strongly connected"] += n > 1 and len(blocks) == 1
    assert min(shapes.values()) >= 10, shapes


def test_resolvent_matches_cofactor_formula():
    cases = _resolvent_cases()
    assert len(cases) >= 200 and {len(b) for b in cases} == set(range(1, 9))
    for b in cases:
        assert resolvent_column(b) == _cofactor_column(b), b


def test_resolvent_matches_cofactor_formula_at_many_bit_lengths(monkeypatch):
    rng = random.Random(1407)
    cases = [_strongly_connected(rng, n, top) for n in range(12, 17) for top in (2, 10**3, 10**6)]
    cases += [_fed_blocks(rng, rng.randint(6, 12), [rng.randint(2, 6), rng.randint(2, 6)], top)
              for top in (2, 10**3, 10**6) for _ in range(5)]
    points = []
    point_above = polyring._point_above
    monkeypatch.setattr(polyring, "_point_above",
                        lambda bound: points.append(point_above(bound)) or points[-1])
    for b in cases:
        assert resolvent_column(b) == _cofactor_column(b), b
    bits = {xi.bit_length() for xi in points}
    assert min(bits) <= 16 and max(bits) >= 300 and len(bits) >= 25, sorted(bits)


def _count_poly_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(self, *args, _name=name, _original=getattr(Poly, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Poly, name, counting)
    return calls


def test_resolvent_and_sum_multiplication_count(monkeypatch):
    matrix = build_branching(point_config_process(32)).matrix
    calls = _count_poly_calls(monkeypatch, "__mul__")
    ratfun_sum(resolvent_column(matrix))
    assert 0 < calls["__mul__"] <= 300


def test_resolvent_work_on_one_strongly_connected_component(monkeypatch):
    # Shaped like the benchmark's largest random matrix: one 16-class
    # component, solved by one integer elimination, not over Z[t].  Its 64
    # divisibility checks all test a constant gcd, so none divides.
    b = _strongly_connected(random.Random(7), 16)
    calls = _count_poly_calls(monkeypatch, "__mul__", "divexact")
    resolvent_column(b)
    assert 0 < calls["__mul__"] <= 100 and calls["divexact"] == 0, calls


def test_resolvent_long_path_without_recursion():
    n = 2000
    b = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        b[i + 1][i] = 1
    column = resolvent_column(b)
    assert column == [RatFun(Poly([0] * i + [1])) for i in range(n)]
