"""Commuting trees from Z^n-set labels (branchgf.wreaths) against independent counts.

The label tree of S_m is held to the Z^n-set closed form (branchgf.zsets)
and to the listed tree (commuting_process on an element-listed group); the
trees of C_k wr S_j to the listed tree of a group built here from its
generators; and the groups B = (A x Z)/<(-x, l)> to a brute-force count of
element orders, which fix a finite abelian group.
"""

import io
import itertools
import math
from collections import Counter

import pytest

from branchgf import wreaths
from branchgf.cli import (
    factor_trees,
    main,
    parse_group_factors,
    parse_group_name,
    parse_ratfun_record,
)
from branchgf.commuting import burnside_gf_elementwise, commuting_gf, commuting_process
from branchgf.engine import build_branching, gf_total, product_process, verify_tree
from branchgf.errors import StateExplosionError
from branchgf.perms import Perm, PermGroup, symmetric_group
from branchgf.zsets import symmetric_commuting_counts


def run_cli(argv):
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


def label_gf(group):
    return gf_total(build_branching(group.process(wreaths.LabelTable())))


def listed_cyclic_wreath(k, j):
    """C_k wr S_j on kj points, block i = {ik, ..., ik + k - 1}: a k-cycle on
    block 0, the swap of blocks 0 and 1, and the cycle of the blocks."""
    n = k * j
    gens = [Perm([(p + 1) % k if p < k else p for p in range(n)])]
    if j > 1:
        gens.append(Perm([(p + k) % (2 * k) if p < 2 * k else p for p in range(n)]))
        gens.append(Perm([(p + k) % n for p in range(n)]))
    return PermGroup.from_generators(n, gens, order_limit=k**j * math.factorial(j))


WREATHS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (5, 2)]


@pytest.mark.parametrize("m", range(1, 13))
def test_symmetric_tree_matches_the_closed_form(m):
    assert label_gf(wreaths.symmetric(m)).series(5) == symmetric_commuting_counts(m, 5)


@pytest.mark.parametrize("m", range(1, 8))
def test_symmetric_tree_matches_the_listed_tree(m):
    assert label_gf(wreaths.symmetric(m)) == commuting_gf(symmetric_group(m))


@pytest.mark.parametrize("k,j", WREATHS)
def test_wreath_tree_matches_the_listed_tree(k, j):
    listed = listed_cyclic_wreath(k, j)
    group = wreaths.cyclic_wreath(k, j)
    assert listed.order == group.order == k**j * math.factorial(j)
    assert label_gf(group) == commuting_gf(listed)
    assert verify_tree(group.process(wreaths.LabelTable()), 6)


@pytest.mark.parametrize("k,j", WREATHS)
def test_wreath_burnside_matches_the_element_sum(k, j):
    status, text = run_cli(["group", "--name", f"C{k}wrS{j}", "--kind", "burnside",
                            "--format", "records", "--terms", "6"])
    assert status == 0
    got = parse_ratfun_record(text.splitlines()[0])
    assert got == burnside_gf_elementwise(listed_cyclic_wreath(k, j))


def test_cyclic_and_trivial_names():
    assert label_gf(wreaths.cyclic(6)) == commuting_gf(PermGroup.from_generators(
        6, [Perm([1, 2, 3, 4, 5, 0])]))
    assert wreaths.cyclic(1) == wreaths.symmetric(1) == wreaths.cyclic_wreath(1, 1)
    assert wreaths.cyclic_wreath(1, 5) == wreaths.symmetric(5)
    assert wreaths.cyclic_wreath(7, 1) == wreaths.cyclic(7)


def _elements(a):
    return list(itertools.product(*(range(d) for d in a)))


def _order_counts(invariants):
    return Counter(
        math.lcm(1, *(d // math.gcd(d, y) for d, y in zip(invariants, x)))
        for x in _elements(invariants)
    )


def _brute_extensions(a, l):
    """Per x in A, the element orders of (A x Z)/<(-x, l)>, listed as the pairs
    (y, t) with 0 <= t < l: adding carries l into x."""
    out = Counter()
    for x in _elements(a):
        def add(p, q):
            y = tuple((u + v) % d for u, v, d in zip(p[0], q[0], a))
            t = p[1] + q[1]
            if t >= l:
                y, t = tuple((u + v) % d for u, v, d in zip(y, x, a)), t - l
            return y, t

        zero = ((0,) * len(a), 0)
        orders = Counter()
        for g in itertools.product(_elements(a), range(l)):
            n, h = 1, g
            while h != zero:
                h, n = add(h, g), n + 1
            orders[n] += 1
        out[frozenset(orders.items())] += 1
    return out


@pytest.mark.parametrize("a", [(), (2,), (4,), (6,), (2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2)])
@pytest.mark.parametrize("l", range(1, 7))
def test_extensions_match_element_orders(a, l):
    got = Counter()
    for b, n in wreaths._extensions(a, l):
        assert math.prod(b) == l * math.prod(a)
        assert all(y % x == 0 for x, y in zip(b, b[1:]))
        got[frozenset(_order_counts(b).items())] += n
    assert got == _brute_extensions(a, l)


def test_z_keys_never_equal_group_keys():
    status, text = run_cli(["group", "--name", "D4xC2", "--show-matrix", "--format", "records"])
    assert status == 0
    labels = text.splitlines()[1]
    assert '"g8.0xz2.0"' in labels


def test_listed_d4_and_labelled_c2_wr_s2_give_one_product_tree():
    # D4 is C2 wr S2, but a D4 factor is keyed by the KeyRegistry and a
    # C2wrS2 factor by the LabelTable; the products must still agree, and
    # each with the tree of its element-listed group.
    gfs = {}
    for name in ("D4xC2wrS2", "C2wrS2xC2wrS2"):
        product = product_process(*factor_trees(parse_group_factors(name)))
        listed = commuting_process(parse_group_name(name))
        assert verify_tree(product, 8) and verify_tree(listed, 8)
        gfs[name] = gf_total(build_branching(product))
        assert gfs[name] == gf_total(build_branching(listed))
    assert gfs["D4xC2wrS2"] == gfs["C2wrS2xC2wrS2"]
    assert gfs["D4xC2wrS2"].series(8) == gfs["C2wrS2xC2wrS2"].series(8)


def test_label_limit_says_how_far_it_got(monkeypatch, capsys):
    # S8 has 27 labels, at most 19 of them below one state.
    monkeypatch.setattr(wreaths, "LABEL_LIMIT", 19)
    wreaths._wreath_classes.cache_clear()
    with pytest.raises(StateExplosionError, match="19 labels found so far, the last z"):
        label_gf(wreaths.symmetric(8))
    for name in ("S8", "S8xC2"):
        assert main(["group", "--name", name]) == 3
        err = capsys.readouterr().err
        assert "more than 19 labels, the label limit: 19 labels found so far, the last z" in err
        assert "Traceback" not in err
    # One state with too many classes stops before its classes are all listed.
    assert main(["group", "--name", "S100", "--kind", "burnside"]) == 3
    assert "the classes of S100 have more than 19 centralizer labels" in capsys.readouterr().err
