"""Golden reference values used by the verify suite.

Generating functions are stored as (numerator coefficient list, list of
denominator factor coefficient lists); everything is an exact integer.
The dimension-3 matrix-ring series ships under two candidate closed forms
that differ in one denominator factor, (1 - q^2 t) versus (q - q^2 t);
the verify suite reports which candidate the computed series supports.
"""

from __future__ import annotations

from .polyring import Poly, RatFun, poly_product

GfFixture = tuple[list[int], list[list[int]]]

# Orbit generating functions of S_m acting on all n-tuples, m = 1..5.
TUPLE_ORBIT_GF: dict[int, GfFixture] = {
    1: ([1], [[1, -1]]),
    2: ([1], [[1, -2]]),
    3: ([1, -8, 14], [[1, -2], [1, -3], [1, -6]]),
    4: ([1, -34, 276, -584], [[1, -3], [1, -4], [1, -8], [1, -24]]),
    5: (
        [1, -148, 3746, -36984, 159200, -249792],
        [[1, -4], [1, -5], [1, -6], [1, -8], [1, -12], [1, -120]],
    ),
}

# Orbit generating functions of S_m on commuting n-tuples, m = 1..5.
COMMUTING_ORBIT_GF: dict[int, GfFixture] = {
    1: ([1], [[1, -1]]),
    2: ([1], [[1, -2]]),
    3: ([1, -3, 1], [[1, -1], [1, -2], [1, -3]]),
    4: ([1, -5, 6, -1], [[1, -1], [1, -2], [1, -3], [1, -4]]),
    5: (
        [1, -11, 34, -21, 2],
        [[1, -1], [1, -2], [1, -4], [1, -5], [1, -6]],
    ),
}

# Branching matrices the discovery is expected to reproduce (up to
# simultaneous reordering of the non-root classes).
COMMUTING_BRANCHING: dict[int, tuple[tuple[int, ...], ...]] = {
    3: (
        (1, 0, 0),
        (1, 2, 0),
        (1, 0, 3),
    ),
    4: (
        (1, 0, 0, 0, 0),
        (1, 4, 2, 0, 0),
        (1, 0, 2, 0, 0),
        (1, 0, 0, 3, 0),
        (1, 0, 1, 0, 4),
    ),
    5: (
        (1, 0, 0, 0, 0, 0, 0),
        (1, 2, 0, 0, 0, 0, 0),
        (1, 0, 2, 0, 0, 0, 0),
        (2, 2, 0, 6, 0, 0, 0),
        (1, 0, 1, 0, 4, 0, 0),
        (1, 0, 0, 0, 0, 5, 0),
        (0, 2, 2, 0, 0, 0, 4),
    ),
}


def module_gf_closed(q: int, m: int) -> GfFixture:
    """Closed forms for the module-count series at m = 1 and m = 2."""
    if m == 1:
        return [1], [[1, -q]]
    if m == 2:
        return [1], [[1, -q], [1, -(q**2)]]
    raise ValueError("closed forms are stored for m in {1, 2} only")


def module_gf_dim3_candidates(q: int) -> dict[str, GfFixture]:
    """The two candidate m = 3 closed forms (see module docstring)."""
    return {
        "unit-constant": (
            [1, 0, q**2],
            [[1, -q], [1, -(q**2)], [1, -(q**3)]],
        ),
        "nonunit-constant": (
            [1, 0, q**2],
            [[1, -q], [q, -(q**2)], [1, -(q**3)]],
        ),
    }


def similarity_class_count(q: int, m: int) -> int:
    """Similarity classes of M_m(F_q): the coefficient of x^m in
    prod_{i >= 1} 1/(1 - q x^i), q^2 + q for m = 2 and q^3 + q^2 + q for
    m = 3.  It is level 1 of the module-count tree for any q."""
    coeffs = [1] + [0] * m
    for i in range(1, m + 1):
        for n in range(i, m + 1):
            coeffs[n] += q * coeffs[n - i]
    return coeffs[m]


def fixture_ratfun(fixture: GfFixture) -> RatFun:
    num, factors = fixture
    return RatFun(Poly(num), poly_product(Poly(f) for f in factors))
