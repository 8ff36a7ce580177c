"""Orbit enumeration, generator closure and map extension for any structure.

Every brute-force oracle in the package counts the orbits of a group
acting coordinatewise on n-tuples the same way: level n+1 is reached by
extending each canonical level-n representative by one coordinate and
mapping every candidate to the canonical representative of its orbit.
Because the action is coordinatewise, every level-(n+1) orbit contains
such an extension of its prefix's representative.  The callers supply only
the allowed extensions and the canonical form.

The closure-based helpers serve the tree code for groups and rings alike
(generating sets, conjugation orbits, map extension, and search_images,
the one prefix-pruned image search of both isomorphism tests) and the
oracles' conjugation tables.  This module still imports nothing from the
tree code (engine, registries, group or ring classes), so the oracles
stay an independent check on it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import OrderLimitError, WorkBudgetError

__all__ = [
    "DEFAULT_WORK_BUDGET", "canonical_levels", "least_image", "canonical_form", "closure",
    "greedy_generators", "orbit_partition", "extend_map", "search_images",
]

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


def canonical_form(tables: Sequence[Sequence[int]]) -> Callable[[Rep], Rep]:
    """The map candidate -> least_image(tables, candidate) for non-empty candidates.

    A lexicographic minimum of prefix + (b,) begins with the least image of
    the prefix, and only the tables that send the prefix there (with the
    identity, which least_image also counts) can give its last entry.  Each
    prefix met is memoised with that image, those tables, and low, the least
    image of every point under them; a prefix's entry comes from its
    parent's.  The canonical form of prefix + (b,) is image + (low[b],).
    When every attaining table of the parent sends b to low[b] (then all of
    them fix b), the tables and low are the parent's, reused, not recomputed.
    """
    identity = range(len(tables[0]))
    entries: dict[Rep, tuple[Rep, list[Sequence[int]], list[int]]] = {}

    def entry(prefix: Rep) -> tuple[Rep, list[Sequence[int]], list[int]]:
        found = entries.get(prefix)
        if found is None:
            if prefix:
                image, attaining, low = entry(prefix[:-1])
                b = prefix[-1]
                image = image + (low[b],)
                kept = [table for table in attaining if table[b] == low[b]]
                if len(kept) < len(attaining):
                    attaining, low = kept, list(map(min, zip(*kept)))
            else:
                attaining = [identity, *tables]
                image, low = (), list(map(min, zip(*attaining)))
            found = entries[prefix] = (image, attaining, low)
        return found

    def canonical(candidate: Rep) -> Rep:
        image, _attaining, low = entry(candidate[:-1])
        return image + (low[candidate[-1]],)

    return canonical


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
    _grow(seen, [start], generators, mul, limit)
    return seen


def _grow(
    seen: set[T],
    frontier: list[T],
    generators: Sequence[G],
    mul: Callable[[T, G], T],
    limit: int | None = None,
) -> None:
    """Add to seen everything reachable from frontier, a part of seen, by steps."""
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


def greedy_generators(
    elements: Sequence[T], identity: T, mul: Callable[[T, T], T], rank: Callable[[T], object]
) -> tuple[T, ...]:
    """Generators of the group of elements: the one of greatest rank, then in
    one walk every element not generated so far (none for a trivial group).

    A new generator x outside the group H generated so far adds the coset
    H x, none of it in H; the rest of the larger group is reached from
    that coset, since a step from H by an old generator stays in H.
    """
    gens: list[T] = []
    generated = {identity}
    for x in (max(elements, key=rank), *elements):
        if x not in generated:
            gens.append(x)
            coset = [mul(h, x) for h in generated]
            generated.update(coset)
            _grow(generated, coset, gens, mul)
    return tuple(gens)


def orbit_partition(
    elements: Sequence[T], generators: Sequence[G], act: Callable[[T, G], T]
) -> list[frozenset[T]]:
    """The orbits under the generators, by closure, in order of first member."""
    remaining = set(elements)
    orbits = []
    for x in elements:
        if x in remaining:
            orbit = closure(x, generators, act)
            remaining -= orbit
            orbits.append(frozenset(orbit))
    return orbits


def extend_map(
    start: tuple[T, object], generator_pairs: Sequence[tuple[G, object]], step: Callable
) -> dict[T, object] | None:
    """The map x -> f(x) reached from the pair start, breadth-first, or None.

    step((x, f(x)), (g, h)) gives the next pair (y, f(y)), typically
    (x*g, f(x)*h).  None comes back as soon as some y is reached with two
    different images; a map that is returned respects every step.
    """
    mapping = {start[0]: start[1]}
    frontier = [start]
    while frontier:
        nxt = []
        for pair in frontier:
            for gen in generator_pairs:
                y, fy = step(pair, gen)
                if y not in mapping:
                    mapping[y] = fy
                    nxt.append((y, fy))
                elif mapping[y] != fy:
                    return None
        frontier = nxt
    return mapping


def search_images(candidates: Sequence[Sequence[T]], extends: Callable[[tuple], bool]) -> bool:
    """Whether some tuple of images, one from each candidate list, passes
    extends(images[:k+1]) for every k, by depth-first search: a rejected
    prefix is never extended.  No candidate lists leave the empty tuple: True.
    """

    def search(prefix: tuple) -> bool:
        return len(prefix) == len(candidates) or any(
            extends(images) and search(images)
            for images in (prefix + (y,) for y in candidates[len(prefix)])
        )

    return search(())
