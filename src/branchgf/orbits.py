"""Orbit enumeration, generator closure and map extension for any structure.

Every brute-force oracle in the package counts the orbits of a group
acting coordinatewise on n-tuples the same way: level n+1 is reached by
extending each canonical (lexicographically least) level-n representative
rep by one coordinate b.  The least image of rep + (b,) is rep + (v,),
with v the least image of b under the stabilizer of rep, so the children
of rep are read off those least images and no candidate tuple is
canonicalised.  Because the action is coordinatewise, every level-(n+1)
orbit contains such an extension of its prefix's representative.  The
callers supply only the allowed extensions and the least images, from
stabilizer_minima over their tables or, for a symmetric group, directly.

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
    "DEFAULT_WORK_BUDGET", "stabilizer_minima", "canonical_levels", "closure",
    "greedy_generators", "orbit_partition", "extend_map", "search_images",
]

DEFAULT_WORK_BUDGET = 10_000_000

Rep = tuple[int, ...]
T = TypeVar("T", bound=Hashable)
G = TypeVar("G")


def stabilizer_minima(tables: Sequence[Sequence[int]]) -> Callable[[Rep], list[int]]:
    """The map rep -> low, for a canonical rep: low[b] is the least image of
    point b under the tables (the identity included) that fix every entry of rep.

    A table keeps a canonical rep least exactly when it fixes it, so the
    least image of rep + (b,) is rep + (low[b],).  Each rep met is memoised
    with its fixing tables and low, from its parent's entry: the tables of
    the parent that fix rep's last entry.  When none drops out, the
    parent's tables and low are reused, not recomputed.
    """
    fixing = [range(len(tables[0])), *tables]
    entries: dict[Rep, tuple[list[Sequence[int]], list[int]]] = {
        (): (fixing, list(map(min, zip(*fixing))))
    }

    def entry(rep: Rep) -> tuple[list[Sequence[int]], list[int]]:
        found = entries.get(rep)
        if found is None:
            fixing, low = entry(rep[:-1])
            v = rep[-1]
            kept = [table for table in fixing if table[v] == v]
            if len(kept) < len(fixing):
                fixing, low = kept, list(map(min, zip(*kept)))
            found = entries[rep] = (fixing, low)
        return found

    return lambda rep: entry(rep)[1]


def canonical_levels(
    n_max: int,
    extensions: Callable[[Rep], Iterable[int]],
    minima: Callable[[Rep], Sequence[int]],
    budget: int,
) -> Iterator[list[Rep]]:
    """Yield the sorted canonical representatives of levels 0..n_max.

    extensions(rep) lists the coordinates that may follow rep, and
    minima(rep) gives each point's least image under the stabilizer of rep
    (stabilizer_minima); rep's children are rep + (v,) for the distinct v
    among those least images, so no candidate tuple is formed.  Both are
    asked only for representatives that are extended, so the last level
    costs nothing beyond its own candidates.  Every candidate coordinate
    counts as one unit of work; WorkBudgetError is raised when the total
    exceeds budget.
    """
    reps: list[Rep] = [()]
    yield reps
    work = 0
    for level in range(1, n_max + 1):
        children: list[Rep] = []
        for rep in reps:
            low = minima(rep)
            last: set[int] = set()
            for b in extensions(rep):
                work += 1
                if work > budget:
                    raise WorkBudgetError(
                        f"orbit enumeration ran out of work at level {level} of "
                        f"{n_max}: {len(children) + len(last)} representatives found "
                        f"so far, {work - 1} of {budget} work used"
                    )
                last.add(low[b])
            children += [rep + (v,) for v in sorted(last)]
        reps = children
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
