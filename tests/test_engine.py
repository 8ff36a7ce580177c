"""Branching engine: class discovery, resolvent vs direct iteration."""

import ast
from pathlib import Path

import pytest

import branchgf.engine
from branchgf.engine import (
    BranchingMatrix,
    BranchingProcess,
    IsoKey,
    IsoRegistry,
    bfs_level_counts,
    build_branching,
    centralizer_tower,
    class_gfs,
    denominators_divide_det,
    gf_class,
    gf_total,
    render_dot,
    verify_tree,
)
from branchgf.errors import StateExplosionError
from branchgf.matrixalg import Fq, MatRing, RingKeyRegistry, Subalgebra
from branchgf.perms import KeyRegistry, symmetric_group
from branchgf.polyring import Poly, RatFun, one_minus, ratfun_sum, resolvent_column


def two_class_process():
    # Class "a" nodes: one child of class a, two of class b; class "b"
    # nodes: two children of class b.
    return BranchingProcess(
        root="a",
        children=lambda k: {"a": 1, "b": 2} if k == "a" else {"b": 2},
    )


def test_two_class_matrix():
    bm = build_branching(two_class_process())
    assert bm.keys == ("a", "b")
    assert bm.matrix == ((1, 0), (2, 2))


def test_two_class_gfs():
    bm = build_branching(two_class_process())
    assert gf_class(bm, 0) == RatFun(Poly([1]), one_minus(1))
    assert gf_class(bm, 1) == RatFun(Poly([0, 2]), one_minus(1) * one_minus(2))
    assert gf_total(bm) == RatFun(Poly([1]), one_minus(1) * one_minus(2))


def test_two_class_level_counts():
    counts = bfs_level_counts(two_class_process(), 3)
    assert counts.totals == (1, 3, 7, 15)
    assert counts.counts_for("a") == (1, 1, 1, 1)
    assert counts.counts_for("b") == (0, 2, 6, 14)


def test_gf_class_index_range():
    bm = build_branching(two_class_process())
    with pytest.raises(IndexError):
        gf_class(bm, 2)
    with pytest.raises(IndexError):
        gf_class(bm, -1)


def test_childless_root():
    process = BranchingProcess(root="only", children=lambda k: {})
    bm = build_branching(process)
    assert bm.matrix == ((0,),)
    assert gf_total(bm) == RatFun(Poly([1]))
    assert bfs_level_counts(process, 4).totals == (1, 0, 0, 0, 0)


def test_children_accepts_iterables():
    process = BranchingProcess(
        root="a",
        children=lambda k: ["a", "b", "b"] if k == "a" else ["b", "b"],
    )
    assert build_branching(process).matrix == ((1, 0), (2, 2))


def test_depth_zero():
    counts = bfs_level_counts(two_class_process(), 0)
    assert counts.totals == (1,)


def test_state_explosion():
    process = BranchingProcess(
        root=0, children=lambda k: {k + 1: 1}, state_limit=50
    )
    progress = "50 classes found so far, the last '49'"
    with pytest.raises(StateExplosionError, match=progress):
        build_branching(process)
    with pytest.raises(StateExplosionError, match=progress):
        bfs_level_counts(process, 100)


def test_verify_tree_two_class():
    assert verify_tree(two_class_process(), 6)


def test_verify_tree_detects_corruption():
    # A deliberately wrong matrix: series from it cannot match the count
    # iteration of the honest process.
    process = two_class_process()
    bad = BranchingMatrix(keys=("a", "b"), matrix=((1, 0), (3, 2)), labels=("a", "b"))
    honest = bfs_level_counts(process, 5)
    series = ratfun_sum(resolvent_column(bad.matrix, n_check=0)).series(5)
    assert series != list(honest.totals)


def test_total_is_sum_of_classes():
    bm = build_branching(two_class_process())
    assert gf_total(bm) == ratfun_sum(class_gfs(bm))


def test_denominators_divide_det():
    for matrix in [((1, 0), (2, 2)), ((1, 0, 0), (1, 2, 0), (1, 0, 3))]:
        bm = BranchingMatrix(
            keys=tuple(range(len(matrix))),
            matrix=matrix,
            labels=tuple(map(str, range(len(matrix)))),
        )
        assert denominators_divide_det(bm)


def test_level_totals_nondecreasing_when_every_class_has_children():
    # Every class with >= 1 child forces monotone totals.
    process = two_class_process()
    totals = bfs_level_counts(process, 8).totals
    assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_nonnegative_counts_and_unit_start():
    process = two_class_process()
    series = gf_total(build_branching(process)).series(10)
    assert series[0] == 1
    assert all(c >= 0 for c in series)


def test_render_dot():
    bm = build_branching(two_class_process())
    dot = render_dot(bm)
    assert dot.startswith("digraph")
    assert 'c0 -> c1 [label="2"]' in dot
    assert 'c1 -> c1 [label="2"]' in dot
    assert 'c1 -> c0' not in dot
    assert 'doublecircle' in dot  # root is marked


def test_negative_multiplicities_rejected():
    process = BranchingProcess(root="a", children=lambda k: {"a": -1})
    with pytest.raises(ValueError):
        build_branching(process)


class _SizeRegistry:
    """Keys a frozenset by its size; the first set of each size represents it."""

    def __init__(self):
        self.representatives = {}

    def key_for(self, z):
        self.representatives.setdefault(len(z), z)
        return len(z)


def test_centralizer_tower_on_subset_lattice():
    # Toy tower: a node is a set Z, its "classes" are its elements and the
    # "centralizer" of a in Z drops a.  Children of a size-k node: k nodes
    # of size k - 1, so level n has k!/(k-n)! nodes.
    registry = _SizeRegistry()
    process = centralizer_tower(
        frozenset(range(4)),
        registry,
        classes=lambda z: sorted(z),
        centralizer=lambda z, a: z - {a},
    )
    assert process.root == 4
    assert process.child_counts(4) == {3: 4}
    assert process.label_for(4) == "4"
    bm = build_branching(process)
    assert bm.keys == (4, 3, 2, 1, 0)
    assert bfs_level_counts(process, 5).totals == (1, 4, 12, 24, 24, 0)
    assert verify_tree(process, 5)


class _TranslateRegistry(IsoRegistry):
    """Toy structures: finite sets of integers, isomorphic when translates.

    The fingerprint (the size) is coarser than the classes, and every
    fingerprint and isomorphism call is recorded.
    """

    def __init__(self):
        super().__init__()
        self.fingerprinted = []
        self.compared = []

    def fingerprint(self, z):
        self.fingerprinted.append(z)
        return (len(z),)

    def is_translate(self, a, b):
        self.compared.append((a, b))
        return sorted(x - min(a) for x in a) == sorted(x - min(b) for x in b)

    def key_for(self, z):
        return self.lookup(z, frozenset(z), self.fingerprint, self.is_translate, "t")


def test_iso_registry_on_translates():
    reg = _TranslateRegistry()
    first = reg.key_for({0, 1})
    assert first == IsoKey("t", (2,), 0) and str(first) == "t2.0"
    assert reg.compared == []  # an empty bucket needs no test
    assert reg.key_for({5, 6}) == first
    assert reg.compared == [({0, 1}, {5, 6})]
    second = reg.key_for({0, 2})
    assert second == IsoKey("t", (2,), 1)
    third = reg.key_for({0, 1, 2})
    assert third == IsoKey("t", (3,), 2)  # tags count across buckets, first seen first
    assert len(reg.compared) == 2  # {0, 1, 2} met no size-2 representative
    assert reg.key_for({7, 9}) == second
    assert reg.compared[-2:] == [({0, 1}, {7, 9}), ({0, 2}, {7, 9})]
    assert all(len(a) == len(b) for a, b in reg.compared)
    # A repeated element set is answered without a fingerprint or a test.
    calls = len(reg.fingerprinted), len(reg.compared)
    assert [reg.key_for(z) for z in ({6, 5}, {9, 7}, {2, 1, 0})] == [first, second, third]
    assert (len(reg.fingerprinted), len(reg.compared)) == calls
    assert reg.representatives == {first: {0, 1}, second: {0, 2}, third: {0, 1, 2}}


def test_group_and_ring_keys_share_one_type():
    group_key = KeyRegistry().key_for(symmetric_group(5))
    ring_key = RingKeyRegistry().key_for(Subalgebra.full(MatRing(Fq(2), 2)))
    assert type(group_key) is type(ring_key) is IsoKey
    assert (str(group_key), str(ring_key)) == ("g120.0", "r16.0")
    for registry in (KeyRegistry, RingKeyRegistry):
        assert issubclass(registry, IsoRegistry)
        assert [name for name in vars(registry) if not name.startswith("__")] == ["key_for"]


def test_engine_imports_no_instantiation():
    # The engine stays generic: group, ring and configuration code plugs
    # in through centralizer_tower's arguments, never through an import.
    tree = ast.parse(Path(branchgf.engine.__file__).read_text(encoding="utf-8"))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("branchgf")
        ):
            package_imports.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            package_imports.update(
                alias.name for alias in node.names if alias.name.startswith("branchgf")
            )
    assert package_imports == {".errors", ".polyring"}
