"""The shared orbit toolkit: independent of the tree code, and its helpers."""

import ast
import itertools
import operator
from pathlib import Path

import pytest

from branchgf import orbits
from branchgf.cli import parse_group_name
from branchgf.configs import _gl_action_tables
from branchgf.matrixalg import _matrix_ring
from branchgf.perms import Perm, symmetric_group


def test_orbits_imports_only_errors_from_the_package():
    tree = ast.parse(Path(orbits.__file__).read_text(encoding="utf-8"))
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
    assert package_imports == {".errors"}


def _c4_to_klein_step(pair, gen):
    # C4 as integers mod 4 under +, C2 x C2 as bit pairs under xor.
    (x, fx), (g, h) = pair, gen
    return (x + g) % 4, (fx[0] ^ h[0], fx[1] ^ h[1])


def test_extend_map_c4_and_klein():
    # The generator of C4 to an involution extends without conflict, but the
    # map is two-to-one, so an isomorphism test must also count the images.
    mapping = orbits.extend_map((0, (0, 0)), [(1, (1, 0))], _c4_to_klein_step)
    assert mapping == {0: (0, 0), 1: (1, 0), 2: (0, 0), 3: (1, 0)}
    # Sending 1 and 2 to the two Klein generators conflicts: 1 + 1 = 2
    # would need (1, 0) xor (1, 0) = (0, 1).
    assert orbits.extend_map((0, (0, 0)), [(1, (1, 0)), (2, (0, 1))], _c4_to_klein_step) is None


def test_extend_map_of_a_conjugation_is_a_bijection():
    s4 = symmetric_group(4)
    c = Perm([1, 2, 3, 0])
    pairs = [(x, c.conjugate(x)) for x in s4.small_generating_set]
    mapping = orbits.extend_map(
        (s4.identity, s4.identity), pairs, lambda p, q: (p[0] * q[0], p[1] * q[1])
    )
    assert mapping == {x: c.conjugate(x) for x in s4.elements}


def test_orbit_partition_gives_s3_classes_by_least_member():
    s3 = symmetric_group(3)
    parts = orbits.orbit_partition(
        s3.elements, s3.small_generating_set, lambda y, g: g.conjugate(y)
    )
    expected = [
        [(0, 1, 2)],
        [(0, 2, 1), (1, 0, 2), (2, 1, 0)],
        [(1, 2, 0), (2, 0, 1)],
    ]
    assert parts == [frozenset(map(Perm, part)) for part in expected]
    assert [min(p) for p in parts] == sorted(min(p) for p in parts)
    # Without generators every element is its own orbit.
    assert orbits.orbit_partition(s3.elements, [], lambda y, g: y) == [
        frozenset([x]) for x in s3.elements
    ]


# small_generating_set of each group before it moved to greedy_generators.
PINNED_GENERATORS = {
    "S1": [],
    "S2": [(1, 0)],
    "S3": [(1, 2, 0), (0, 2, 1)],
    "S4": [(1, 2, 3, 0), (0, 1, 3, 2)],
    "S5": [(1, 0, 3, 4, 2), (0, 1, 2, 4, 3), (0, 2, 1, 3, 4)],
    "S6": [(0, 2, 1, 4, 5, 3), (0, 1, 2, 3, 5, 4), (0, 1, 3, 2, 4, 5), (1, 0, 2, 3, 4, 5)],
    "C6": [(1, 2, 3, 4, 5, 0)],
    "D8": [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)],
    "C2wrS2": [(2, 3, 1, 0), (0, 1, 3, 2)],
}


@pytest.mark.parametrize("name", sorted(PINNED_GENERATORS))
def test_greedy_generators_pinned(name):
    group = parse_group_name(name)
    gens = orbits.greedy_generators(
        group.elements,
        group.identity,
        operator.mul,
        lambda x: (x.order(), tuple(-i for i in x.images)),
    )
    assert [x.images for x in gens] == PINNED_GENERATORS[name]
    assert gens == group.small_generating_set
    assert len(orbits.closure(group.identity, gens, operator.mul)) == group.order


@pytest.mark.parametrize(
    "tables",
    [
        lambda: _matrix_ring(3, 2).unit_conjugation_tables,
        lambda: symmetric_group(4).conjugation_tables,
        lambda: _gl_action_tables(3, 2),
    ],
    ids=["module_M2F3", "commuting_S4", "vector_GL2F3"],
)
def test_canonical_form_agrees_with_least_image(tables):
    # Every tuple of length 1 or 2, a superset of the oracles' candidates at
    # levels <= 2; without the first table the list is no longer a group.
    tables = tables()
    points = range(len(tables[0]))
    for subset in (tables, tables[1:]):
        canonical = orbits.canonical_form(subset)
        for length in (1, 2):
            for candidate in itertools.product(points, repeat=length):
                assert canonical(candidate) == orbits.least_image(subset, candidate)
