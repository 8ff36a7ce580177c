"""Point/vector configurations, Stirling and Gaussian triangles, oracles."""

import itertools
from functools import partial

import pytest

from branchgf.configs import (
    _field,
    _gl_action_tables,
    _point_rate,
    _type_gf,
    _vector_list,
    all_subspaces,
    bell,
    brute_point_orbit_count,
    gaussian_binom,
    point_config_gf,
    point_config_process,
    point_orbit_counts,
    q_bell,
    q_stirling,
    row_space_bijection_check,
    stirling2,
    vector_config_gf,
    vector_config_process,
    vector_orbit_counts,
)
from branchgf.engine import bfs_level_counts, build_branching, class_gfs, gf_total, verify_tree
from branchgf import configs
from branchgf.errors import SizeLimitError, WorkBudgetError
from branchgf.polyring import ONE, Poly, RatFun, one_minus, ratfun_sum


def test_point_process_matrix_m3():
    bm = build_branching(point_config_process(3))
    assert bm.matrix == (
        (0, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 1, 2, 0),
        (0, 0, 1, 3),
    )


def test_point_level_totals():
    assert bfs_level_counts(point_config_process(3), 3).totals == (1, 1, 2, 5)
    assert bfs_level_counts(point_config_process(2), 2).totals[2] == 2
    assert bfs_level_counts(point_config_process(0), 3).totals == (1, 0, 0, 0)


def test_point_gf_m0_and_m1():
    assert point_config_gf(0) == RatFun(Poly([1]))
    assert point_config_gf(1) == RatFun(Poly([1]), one_minus(1))


def test_point_gf_matches_engine():
    for m in range(6):
        assert point_config_gf(m) == gf_total(build_branching(point_config_process(m)))


def test_point_gf_series_m3():
    assert point_config_gf(3).series(5) == [1, 1, 2, 5, 14, 41]


def test_point_class_gf_is_type_product():
    # Coordinate i of the resolvent is t^i * prod_{r=1..i} 1/(1-r*t).
    gfs = class_gfs(build_branching(point_config_process(4)))
    assert gfs == [_type_gf(i, _point_rate) for i in range(5)]


def test_point_type_series_are_stirling_columns():
    for i in range(5):
        series = _type_gf(i, _point_rate).series(9)
        assert series == [stirling2(n, i) for n in range(10)]


@pytest.mark.xfail(
    strict=True,
    reason="alternate index convention: an extra factor of t per summand "
    "makes the constant coefficient 0 instead of 1",
)
def test_point_gf_alternate_convention_disagrees():
    # Summand prod_{r=0..i} t/(1-r*t) instead of t^i prod_{r=1..i} 1/(1-r*t).
    total = ratfun_sum(
        RatFun(Poly([0] * (i + 1) + [1]), _falling_den(i)) for i in range(4)
    )
    assert total.series(3) == [1, 1, 2, 5]


def _falling_den(i):
    den = ONE
    for r in range(1, i + 1):
        den = den * one_minus(r)
    return den


@pytest.mark.xfail(
    strict=True,
    reason="alternate display with a constant exponent in every factor, "
    "prod 1/(1-q^i t) instead of prod 1/(1-q^r t)",
)
def test_q_binomial_gf_constant_exponent_disagrees():
    q, i = 2, 2
    den = ONE
    for _ in range(i + 1):
        den = den * one_minus(q**i)
    series = RatFun(Poly([0] * i + [1]), den).series(6)
    assert series == [gaussian_binom(n, i, q) for n in range(7)]


def test_stirling_recurrence_table():
    assert stirling2(4, 2) == 7
    assert stirling2(6, 3) == 90
    for n in range(8):
        assert stirling2(n, n) == 1
        for i in range(n + 1, 10):
            assert stirling2(n, i) == 0


def test_stirling_against_partition_enumeration():
    # Count set partitions of {0..n-1} into i blocks directly.
    def partitions_into(n, i):
        count = 0
        for assignment in itertools.product(range(i), repeat=n):
            blocks = [set() for _ in range(i)]
            for elem, b in enumerate(assignment):
                blocks[b].add(elem)
            if all(blocks) and _is_canonical(assignment):
                count += 1
        return count

    def _is_canonical(assignment):
        seen = []
        for b in assignment:
            if b not in seen:
                if b != len(seen):
                    return False
                seen.append(b)
        return True

    for n in range(1, 8):
        for i in range(1, n + 1):
            assert stirling2(n, i) == partitions_into(n, i)


def test_bell_values():
    assert [bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_bell_stability_of_point_totals():
    for n in range(7):
        for m in range(n, 8):
            assert point_config_gf(m).series(n)[n] == bell(n)


def test_vector_process_matrix():
    bm = build_branching(vector_config_process(2, 2))
    assert bm.matrix == ((1, 0, 0), (1, 2, 0), (0, 1, 4))
    assert build_branching(vector_config_process(5, 0)).matrix == ((1,),)


def test_vector_m0_totals_all_one():
    assert bfs_level_counts(vector_config_process(3, 0), 5).totals == (1,) * 6


def test_vector_m1_totals_are_powers():
    assert bfs_level_counts(vector_config_process(2, 1), 4).totals == (1, 2, 4, 8, 16)


def test_vector_gf_matches_engine():
    for q in (2, 3):
        for m in range(4):
            assert vector_config_gf(q, m) == gf_total(build_branching(vector_config_process(q, m)))


@pytest.mark.parametrize(
    "process, closed_form",
    [
        (lambda: point_config_process(80), lambda: point_config_gf(80)),
        (lambda: vector_config_process(2, 24), lambda: vector_config_gf(2, 24)),
    ],
    ids=["point_m80", "vector_q2m24"],
)
def test_closed_forms_match_engine_past_brute_force(process, closed_form):
    # The closed forms are sums of type gfs and never call the resolvent.
    assert gf_total(build_branching(process())) == closed_form()


def test_config_size_rules_are_checked_before_any_type_gf(monkeypatch):
    # An admitted case reaches _type_gf and a refused one does not.  The
    # vector bound is (m + 1) * m(m + 1)/2 * ceil(log2 q) <= 200000.
    def no_type_gf(*args):
        raise AssertionError("type gf built")

    monkeypatch.setattr(configs, "_type_gf", no_type_gf)
    for admitted in (lambda: point_config_gf(150), lambda: vector_config_gf(2, 73),
                     lambda: vector_config_gf(10**16 + 61, 18)):
        with pytest.raises(AssertionError, match="type gf built"):
            admitted()
    with pytest.raises(SizeLimitError, match="the supported bound is m <= 150"):
        point_config_gf(151)
    for q, m in ((2, 74), (10**16 + 61, 19)):
        with pytest.raises(SizeLimitError, match="the supported bound is 200000"):
            vector_config_gf(q, m)


def test_vector_class_gf_is_type_product():
    gfs = class_gfs(build_branching(vector_config_process(2, 3)))
    assert gfs == [_type_gf(i, partial(pow, 2)) for i in range(4)]


def test_vector_type_series_are_q_stirling_columns():
    for q in (2, 3):
        for i in range(4):
            series = _type_gf(i, partial(pow, q)).series(8)
            assert series == [q_stirling(n, i, q) for n in range(9)]


def test_gaussian_binom_values():
    assert gaussian_binom(2, 1, 2) == 3
    assert gaussian_binom(4, 2, 2) == 35
    assert gaussian_binom(3, 1, 2) == 7
    assert gaussian_binom(3, 5, 2) == 0


def test_gaussian_binom_q1_is_pascal():
    import math

    for n in range(13):
        for i in range(n + 1):
            assert gaussian_binom(n, i, 1) == math.comb(n, i)


def test_gaussian_binom_counts_subspaces():
    for q in (2, 3):
        for n in range(1, 4):
            by_dim = {}
            for space in all_subspaces(q, n):
                dim = 0
                while q**dim < len(space):
                    dim += 1
                by_dim[dim] = by_dim.get(dim, 0) + 1
            for i in range(n + 1):
                assert by_dim.get(i, 0) == gaussian_binom(n, i, q)


def test_q_stirling_equals_gaussian_binom():
    for q in (2, 3, 4):
        for n in range(13):
            for i in range(13):
                assert q_stirling(n, i, q) == gaussian_binom(n, i, q)


def test_q_stirling_boundaries():
    for q in (2, 3):
        for n in range(9):
            assert q_stirling(n, n, q) == 1
            for i in range(n + 1, 10):
                assert q_stirling(n, i, q) == 0


def test_q_bell_values():
    assert q_bell(0, 2) == 1
    assert q_bell(2, 2) == 5
    assert q_bell(3, 2) == 16  # 1 + 7 + 7 + 1


def test_point_oracle_splits():
    totals, by_type = point_orbit_counts(3, 3)
    assert totals[3] == 5
    assert by_type[3] == [0, 1, 3, 1]
    assert point_orbit_counts(4, 0) == ([1], [[1, 0, 0, 0, 0]])


def test_point_oracle_matches_gf_up_to_n8():
    for m in (2, 3, 5, 8):
        totals, by_type = point_orbit_counts(m, 8)
        assert totals == point_config_gf(m).series(8)
        for n in range(9):
            # The type-i split is the Stirling triangle truncated at m.
            assert by_type[n] == [stirling2(n, i) for i in range(m + 1)]


def test_point_canonicalization_agrees_with_group_minimum():
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            assert brute_point_orbit_count(m, n) == point_orbit_counts(m, n)[0][n]


def test_vector_oracle_matches_gf():
    totals, by_type = vector_orbit_counts(2, 2, 4)
    assert totals == vector_config_gf(2, 2).series(4)
    assert totals[2] == q_bell(2, 2)
    totals3, _ = vector_orbit_counts(2, 3, 3)
    assert totals3 == [1, 2, 5, 16]
    totals_q3, _ = vector_orbit_counts(3, 2, 2)
    assert totals_q3 == vector_config_gf(3, 2).series(2)


def test_vector_totals_stable_for_m_at_least_n():
    assert vector_orbit_counts(2, 2, 2)[0][2] == q_bell(2, 2)
    assert vector_orbit_counts(2, 3, 3)[0][3] == q_bell(3, 2)
    assert vector_orbit_counts(3, 2, 2)[0][2] == q_bell(2, 3)


def test_vector_oracle_type_split_is_q_stirling():
    _, by_type = vector_orbit_counts(2, 3, 3)
    for n in range(4):
        for i in range(4):
            assert by_type[n][i] == q_stirling(n, i, 2)


def test_oracle_budget():
    with pytest.raises(WorkBudgetError, match="level 1 of 6"):
        point_orbit_counts(5, 6, budget=3)
    with pytest.raises(WorkBudgetError, match="level 1 of 3"):
        vector_orbit_counts(2, 2, 3, budget=3)


def test_oracles_on_zero_dimensional_vectors():
    # F_q^0 has one vector, the empty tuple, so every level has one orbit.
    assert vector_orbit_counts(2, 0, 3) == ([1, 1, 1, 1], [[1], [1], [1], [1]])
    assert row_space_bijection_check(2, 0, 2) is True


def _looped_gl_action_tables(q, m):
    # Every matrix applied to every vector, entry by entry, then indexed in
    # _vector_list; the invertible matrices are those that permute.
    field = _field(q)
    vectors = _vector_list(q, m)
    index = {v: i for i, v in enumerate(vectors)}
    tables = []
    for mat in itertools.product(range(q), repeat=m * m):
        images = []
        for v in vectors:
            out = []
            for i in range(m):
                acc = 0
                for j in range(m):
                    acc = field.add[acc][field.mul[mat[i * m + j]][v[j]]]
                out.append(acc)
            images.append(index[tuple(out)])
        if len(set(images)) == len(vectors):
            tables.append(tuple(images))
    return tuple(tables)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_gl_action_tables_match_entrywise_products(q, m):
    assert _gl_action_tables(q, m) == _looped_gl_action_tables(q, m)


def _looped_subspaces(q, n):
    # Every subset of at most n vectors, spanned by all coefficient tuples.
    field = _field(q)
    spaces = set()
    for dim in range(n + 1):
        for gens in itertools.combinations(_vector_list(q, n), dim):
            span = set()
            for coeffs in itertools.product(range(q), repeat=dim):
                vec = (0,) * n
                for c, g in zip(coeffs, gens):
                    vec = tuple(field.add[a][field.mul[c][b]] for a, b in zip(vec, g))
                span.add(vec)
            spaces.add(frozenset(span))
    return spaces


def test_all_subspaces_matches_coefficient_loop():
    for q, n in [(2, 3), (3, 2)]:
        spaces = all_subspaces(q, n)
        assert isinstance(spaces, frozenset) and spaces == _looped_subspaces(q, n)


def test_all_subspaces_counts():
    assert len(all_subspaces(2, 2)) == 5
    assert len(all_subspaces(2, 3)) == 16
    assert len(all_subspaces(3, 2)) == 6  # 1 + 4 + 1


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_space_bijection(m, n):
    assert row_space_bijection_check(2, m, n)


@pytest.mark.parametrize(
    "alter", [lambda reps: reps[1:], lambda reps: reps + reps[-1:]], ids=["dropped", "repeated"]
)
def test_row_space_check_fails_on_altered_representatives(monkeypatch, alter):
    # One orbit representative missing leaves a subspace unmatched; one
    # listed twice meets its row space twice.
    levels = configs._vector_rep_levels

    def altered(*args):
        *earlier, reps = levels(*args)
        return [*earlier, alter(reps)]

    monkeypatch.setattr(configs, "_vector_rep_levels", altered)
    assert row_space_bijection_check(2, 2, 2) is False


def test_row_space_example_dims():
    # m=1, n=3: orbits correspond to subspaces of F_2^3 of dimension <= 1.
    totals, _ = vector_orbit_counts(2, 1, 3)
    assert totals[3] == 1 + 7  # zero space and the seven lines


def test_verify_tree_config_processes():
    for m in range(5):
        assert verify_tree(point_config_process(m), 6)
    for q in (2, 3):
        for m in range(3):
            assert verify_tree(vector_config_process(q, m), 6)
