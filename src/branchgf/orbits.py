"""Canonical-representative orbit enumeration and generator closure.

Every brute-force oracle in the package counts the orbits of a group
acting coordinatewise on n-tuples the same way: level n+1 is reached by
extending each canonical level-n representative by one coordinate and
mapping every candidate to the canonical representative of its orbit.
Because the action is coordinatewise, every level-(n+1) orbit contains
such an extension of its prefix's representative.  The callers supply only
the allowed extensions and the canonical form.

This module deliberately imports nothing from the tree code (engine,
registries, group or ring classes), so the oracles stay an independent
check on it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import OrderLimitError, WorkBudgetError

__all__ = ["DEFAULT_WORK_BUDGET", "canonical_levels", "least_image", "closure"]

DEFAULT_WORK_BUDGET = 10_000_000

Rep = tuple[int, ...]
T = TypeVar("T", bound=Hashable)
G = TypeVar("G")


def least_image(tables: Sequence[Sequence[int]], candidate: Rep) -> Rep:
    """Lexicographic minimum of candidate under a list of index permutations."""
    best = candidate
    for table in tables:
        image = tuple(table[i] for i in candidate)
        if image < best:
            best = image
    return best


def canonical_levels(
    n_max: int,
    extensions: Callable[[Rep], Iterable[int]],
    canonical: Callable[[Rep], Rep],
    budget: int,
) -> Iterator[list[Rep]]:
    """Yield the sorted canonical representatives of levels 0..n_max.

    extensions(rep) lists the coordinates that may follow rep; it is asked
    only for representatives that are extended, so the last level costs
    nothing beyond its own candidates.  Every candidate tuple counts as one
    unit of work; WorkBudgetError is raised when the total exceeds budget.
    """
    reps: list[Rep] = [()]
    yield reps
    work = 0
    for level in range(1, n_max + 1):
        found: set[Rep] = set()
        for rep in reps:
            for b in extensions(rep):
                work += 1
                if work > budget:
                    raise WorkBudgetError(
                        f"orbit enumeration ran out of work at level {level} of "
                        f"{n_max}: {len(found)} representatives found so far, "
                        f"{work - 1} of {budget} work used"
                    )
                found.add(canonical(rep + (b,)))
        reps = sorted(found)
        yield reps


def closure(
    start: T,
    generators: Sequence[G],
    mul: Callable[[T, G], T],
    limit: int | None = None,
) -> set[T]:
    """Everything reachable from start by steps x -> mul(x, g), breadth-first.

    From the identity with group multiplication this is the generated
    group; from an element with conjugation it is the element's orbit.
    With a limit, OrderLimitError is raised once the set would grow past it.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = mul(x, g)
                if y not in seen:
                    if limit is not None and len(seen) >= limit:
                        raise OrderLimitError(f"group order exceeds the limit {limit}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen
