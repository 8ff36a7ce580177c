"""Acceptance suite: every exit criterion, exact values, stated time bounds.

Each test prints one summary line; run with -s (or check the captured
output on failure) to see them.  All comparisons are exact integer or
exact rational-function equality; there are no tolerances to tune.
"""

import math
import random
import time

from branchgf.commuting import (
    burnside_gf,
    commuting_gf,
    commuting_orbit_counts,
    commuting_process,
    symmetric_burnside_gf,
)
from branchgf.configs import (
    bell,
    gaussian_binom,
    point_config_process,
    point_orbit_counts,
    q_bell,
    q_stirling,
    row_space_bijection_check,
    stirling2,
    vector_config_process,
    vector_orbit_counts,
)
from branchgf.engine import build_branching, verify_tree
from branchgf.fixtures import (
    COMMUTING_BRANCHING,
    COMMUTING_ORBIT_GF,
    TUPLE_ORBIT_GF,
    fixture_ratfun,
    module_gf_dim3_candidates,
)
from branchgf.matrixalg import module_gf, module_orbit_counts, module_process
from branchgf.perms import (
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
    wreath_c2_s2,
)
from branchgf.polyring import ONE, Poly, RatFun, poly_gcd

from test_commuting import matrices_match_up_to_reordering


def _report(name: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    print(f"PASS {name} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.2f}s)"


def test_criterion_1_tuple_orbit_tables():
    """Reference tuple-orbit gf for S_1..S_5, via group sum and cycle-type sum."""
    started = time.time()
    for m in range(1, 6):
        expected = fixture_ratfun(TUPLE_ORBIT_GF[m])
        assert burnside_gf(symmetric_group(m)) == expected, f"group sum, m={m}"
        assert symmetric_burnside_gf(m) == expected, f"cycle-type sum, m={m}"
    _report("criterion 1: tuple-orbit table, both routes, m=1..5", started, 10)


def test_criterion_2_commuting_tables_and_matrices():
    """Reference commuting-orbit gf for S_1..S_5 plus discovered matrices."""
    started = time.time()
    for m in range(1, 6):
        group = symmetric_group(m)
        assert commuting_gf(group) == fixture_ratfun(COMMUTING_ORBIT_GF[m]), f"gf mismatch, m={m}"
        if m in COMMUTING_BRANCHING:
            bm = build_branching(commuting_process(group))
            assert matrices_match_up_to_reordering(
                bm.matrix, COMMUTING_BRANCHING[m]
            ), f"branching matrix mismatch, m={m}"
    _report("criterion 2: commuting-orbit table and matrices, m=1..5", started, 60)


def test_criterion_3_group_oracles():
    """Series coefficients equal brute-force orbit counts."""
    started = time.time()
    cases = [
        (symmetric_group(3), 4),
        (symmetric_group(4), 3),
        (symmetric_group(5), 2),
        (cyclic_group(6), 4),
        (dihedral_group(4), 4),
    ]
    for group, depth in cases:
        series = commuting_gf(group).series(depth)
        counts = commuting_orbit_counts(group, depth)
        assert series == counts, f"{group}: {series} != {counts}"
    _report("criterion 3: commuting oracles S3/S4/S5/C6/D4", started, 300)


def test_criterion_4_matrix_algebra():
    """Closed forms at m=1,2; the m=3 series equals its oracle."""
    started = time.time()
    for q in (2, 3):
        assert module_gf(q, 1) == RatFun(Poly([1]), Poly([1, -q]))
        assert module_gf(q, 2) == RatFun(
            Poly([1]), Poly([1, -q]) * Poly([1, -(q**2)])
        )
    dim3_gf = module_gf(2, 3)
    series = dim3_gf.series(2)
    counts = module_orbit_counts(2, 3, 2)
    assert series == counts, f"dim-3 series {series} != oracle {counts}"
    supported = [
        name
        for name, fixture in module_gf_dim3_candidates(2).items()
        if dim3_gf == fixture_ratfun(fixture)
    ]
    assert supported == ["unit-constant"], supported
    print(
        f"  dim-3 closed-form reading supported by the computation: {supported[0]} "
        f"(denominator factor (1 - q^2 t), not (q - q^2 t))"
    )
    _report("criterion 4: module-count closed forms and dim-3 oracle", started, 600)


def test_criterion_5_configuration_identities():
    """Stirling/Gaussian identities and enumeration oracles."""
    started = time.time()
    for q in (2, 3, 4):
        for n in range(13):
            for i in range(13):
                assert q_stirling(n, i, q) == gaussian_binom(n, i, q)
    point_totals, point_types = point_orbit_counts(8, 8)
    for n in range(9):
        assert point_totals[n] == bell(n)
        assert point_types[n] == [stirling2(n, i) for i in range(9)]
    assert point_orbit_counts(3, 3)[0][3] == 5  # five 3-point configurations
    for n in range(4):
        assert vector_orbit_counts(2, 3, 3)[0][n] == q_bell(n, 2)
    assert vector_orbit_counts(3, 2, 2)[0][2] == q_bell(2, 3)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            assert row_space_bijection_check(2, m, n), f"bijection failed m={m} n={n}"
    _report("criterion 5: Stirling/Gaussian/Bell identities and oracles", started, 30)


def test_criterion_6_engine_self_consistency():
    """verify_tree at depth 6 for every process family the suite builds."""
    started = time.time()
    processes = {
        "two-class": _two_class(),
        "S3": commuting_process(symmetric_group(3)),
        "S4": commuting_process(symmetric_group(4)),
        "S5": commuting_process(symmetric_group(5)),
        "C6": commuting_process(cyclic_group(6)),
        "D4": commuting_process(dihedral_group(4)),
        "C2wrS2": commuting_process(wreath_c2_s2()),
        "C2xS3": commuting_process(direct_product(cyclic_group(2), symmetric_group(3))),
        "module(2,1)": module_process(2, 1),
        "module(2,2)": module_process(2, 2),
        "module(3,1)": module_process(3, 1),
        "module(3,2)": module_process(3, 2),
        "module(2,3)": module_process(2, 3),
        **{f"point(m={m})": point_config_process(m) for m in range(6)},
        **{
            f"vector(q={q},m={m})": vector_config_process(q, m)
            for q in (2, 3)
            for m in range(4)
        },
    }
    for name, process in processes.items():
        assert verify_tree(process, 6), f"verify_tree failed for {name}"
    _report(
        f"criterion 6: resolvent vs iteration, depth 6, {len(processes)} processes",
        started,
        60,
    )


def _two_class():
    from branchgf.engine import BranchingProcess

    return BranchingProcess(
        root="a", children=lambda k: {"a": 1, "b": 2} if k == "a" else {"b": 2}
    )


def test_criterion_7_property_suites():
    """Orbit-stabilizer, randomized normalization invariants, q=1 degeneration."""
    started = time.time()
    groups = [
        symmetric_group(3),
        symmetric_group(4),
        symmetric_group(5),
        cyclic_group(6),
        dihedral_group(4),
        dihedral_group(6),
        wreath_c2_s2(),
        direct_product(cyclic_group(2), symmetric_group(3)),
    ]
    for group in groups:
        for x in group.elements:
            assert group.class_size_of[x] * group.centralizer([x]).order == group.order
    rng = random.Random(97)
    for i in range(10_000):
        a = _random_ratfun(rng)
        b = _random_ratfun(rng)
        f = a + b if i % 2 else a * b
        assert f.den[0] >= 1
        assert f.num.is_zero and f.den == ONE or poly_gcd(f.num, f.den) == ONE
    for n in range(13):
        for i in range(n + 1):
            assert gaussian_binom(n, i, 1) == math.comb(n, i)
    _report("criterion 7: property suites", started, 120)


def _random_ratfun(rng):
    num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))])
    while True:
        den = Poly(
            [rng.choice([1, 1, 2, 3, -1, -2])]
            + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        )
        if not den.is_zero and den[0] != 0:
            return RatFun(num, den)
