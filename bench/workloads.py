"""Workloads of the branchgf benchmark: seeded job lists and their references.

Each workload is a list of jobs the closed loop runs one after another.  A
job returns its raw output; its check compares that output with a
reference that is computed outside the timed region and never through the
code path the job times.  See README.md in this directory for why each
workload exists.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from branchgf import cli, commuting, configs, engine, fixtures, perms, polyring

TERMS = 8  # series depth requested from the CLI jobs


class Job:
    """One unit of closed-loop work plus the check of its output."""

    def __init__(self, name: str, run: Callable[[], object],
                 reference: Callable[[], object],
                 compare: Callable[[object, object], str | None]):
        self.name = name
        self.run = run
        self._reference = reference
        self._compare = compare
        self._ref_cache: list = []

    def check(self, output) -> str | None:
        """None when the output matches the reference, else what differs."""
        if isinstance(output, BaseException):
            return f"raised {type(output).__name__}: {output}"
        if not self._ref_cache:
            self._ref_cache.append(self._reference())
        return self._compare(output, self._ref_cache[0])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: frozenset[str]  # layers whose spans must appear in a traced pass
    make_jobs: Callable[[random.Random], list[Job]]

    def jobs(self, seed: int) -> list[Job]:
        """The job list for a seed; the seed fixes inputs and their order."""
        rng = random.Random(seed)
        jobs = self.make_jobs(rng)
        rng.shuffle(jobs)
        return jobs


# -- exact series helpers for references (plain integers, no polyring) -------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fixture_parts(fixture) -> tuple[list[int], list[int]]:
    num, factors = fixture
    den = [1]
    for factor in factors:
        den = _poly_mul(den, factor)
    return list(num), den


def _fixture_series(fixture, depth: int) -> list[int]:
    num, den = _fixture_parts(fixture)
    if den[0] != 1:
        raise ValueError("reference fixtures have denominator constant term 1")
    out: list[int] = []
    for k in range(depth + 1):
        c = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            c -= den[i] * out[k - i]
        out.append(c)
    return out


def _same_ratfun(num: list[int], den: list[int], fixture) -> bool:
    fnum, fden = _fixture_parts(fixture)
    lhs, rhs = _poly_mul(num, fden), _poly_mul(fnum, den)
    width = max(len(lhs), len(rhs))
    return lhs + [0] * (width - len(lhs)) == rhs + [0] * (width - len(rhs))


def _product(a: list[int], b: list[int]) -> list[int]:
    # h_n(G x H) = h_n(G) * h_n(H): commuting tuples and simultaneous
    # conjugation both split over the two factors.
    return [x * y for x, y in zip(a, b)]


def _commuting_orbits_by_burnside(group: perms.PermGroup, depth: int) -> list[int]:
    """h_n(G) = c_{n+1}(G) / |G| (Burnside), where c_k counts commuting k-tuples
    by the recursion c_k(S) = sum over x in S of c_{k-1}(C_S(x)).

    Plain element sets and a commutation table: no keying, no engine.
    """
    elems = [g.images for g in group.elements]
    order = len(elems)
    commutes = [
        frozenset(j for j, b in enumerate(elems) if all(a[b[i]] == b[a[i]] for i in range(len(a))))
        for a in elems
    ]
    memo: dict[tuple[frozenset, int], int] = {}

    def tuples(s: frozenset, k: int) -> int:
        if k == 0:
            return 1
        key = (s, k)
        if key not in memo:
            memo[key] = sum(tuples(s & commutes[x], k - 1) for x in s)
        return memo[key]

    everything = frozenset(range(order))
    out = []
    for n in range(depth + 1):
        total = tuples(everything, n + 1)
        if total % order:
            raise ArithmeticError("commuting-tuple count not divisible by |G|")
        out.append(total // order)
    return out


def _small_factor_series(group: perms.PermGroup, depth: int) -> list[int]:
    """Burnside counts, cross-checked against the brute-force oracle for n <= 3."""
    counts = _commuting_orbits_by_burnside(group, depth)
    oracle = commuting.commuting_orbit_counts(group, 3)
    if counts[:4] != oracle:
        raise ArithmeticError(f"Burnside counts {counts[:4]} disagree with oracle {oracle}")
    return counts


# -- CLI jobs ---------------------------------------------------------------------


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        try:
            code = cli.main(argv, out)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        return code, out.getvalue()

    return run


def _compare_gf_record(output, reference) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    record = json.loads(text.splitlines()[0])
    series = [int(c) for c in record["series"]]
    expected_series, fixture = reference
    if series != expected_series:
        return f"series {series} != reference {expected_series}"
    if fixture is not None:
        num = [int(c) for c in record["num"]]
        den = [int(c) for c in record["den"]]
        if not _same_ratfun(num, den, fixture):
            return f"{record['display']} differs from the reference closed form"
    return None


def _gf_job(name: str, argv: list[str], reference: Callable[[], tuple]) -> Job:
    return Job(name, _cli_run(argv + ["--terms", str(TERMS), "--format", "records"]),
               reference, _compare_gf_record)


def _verify_job(name: str, argv: list[str], ok_lines: int, must_contain: str = "") -> Job:
    def compare(output, _reference) -> str | None:
        code, text = output
        lines = text.splitlines()
        if code != 0:
            return f"exit code {code}"
        oks = sum(1 for line in lines if line.endswith(": ok"))
        if oks != ok_lines or not lines or lines[-1] != "all checks passed":
            return f"{oks} of {ok_lines} rows ok; last line {lines[-1:]!r}"
        if must_contain and must_contain not in text:
            return f"output lacks {must_contain!r}"
        return None

    return Job(name, _cli_run(argv), lambda: None, compare)


def _group_jobs(rng: random.Random) -> list[Job]:
    s4 = fixtures.COMMUTING_ORBIT_GF[4]
    s5 = fixtures.COMMUTING_ORBIT_GF[5]
    c2 = [2**n for n in range(TERMS + 1)]

    def group(name: str) -> list[str]:
        return ["group", "--name", name, "--kind", "commuting"]

    return [
        _gf_job("group_S5", group("S5"), lambda: (_fixture_series(s5, TERMS), s5)),
        _gf_job("group_D8xC2", group("D8xC2"), lambda: (
            _product(_small_factor_series(perms.dihedral_group(8), TERMS), c2), None)),
        _gf_job("group_S5xC2", group("S5xC2"), lambda: (
            _product(_fixture_series(s5, TERMS), c2), None)),
        _gf_job("group_C2wrS2xS4", group("C2wrS2xS4"), lambda: (
            _product(_small_factor_series(perms.wreath_c2_s2(), TERMS),
                     _fixture_series(s4, TERMS)), None)),
        _verify_job("verify_paper_tables", ["verify", "--suite", "paper-tables"], ok_lines=10),
    ]


def _module_jobs(rng: random.Random) -> list[Job]:
    def matrix_alg(q: int, m: int, fixture) -> Job:
        return _gf_job(f"matrix_alg_q{q}m{m}",
                       ["matrix-alg", "--q", str(q), "--m", str(m), "--stretch"],
                       lambda: (_fixture_series(fixture, TERMS), fixture))

    return [
        *(matrix_alg(q, 2, fixtures.module_gf_closed(q, 2)) for q in (2, 3, 4)),
        matrix_alg(2, 3, fixtures.module_gf_dim3_candidates(2)["unit-constant"]),
        _verify_job("verify_oracles_stretch", ["verify", "--suite", "oracles", "--stretch"],
                    ok_lines=18, must_contain="supports candidate(s): unit-constant\n"),
    ]


# -- library chain jobs ------------------------------------------------------------


def _chain_run(process: engine.BranchingProcess, depth: int) -> Callable[[], tuple]:
    def run() -> tuple:
        bm = engine.build_branching(process)
        gfs = engine.class_gfs(bm)
        total = polyring.ratfun_sum(gfs)
        return bm.keys, gfs, total.series(depth)

    return run


def _compare_chain(output, reference) -> str | None:
    keys, gfs, totals = output
    by_class, expected_totals = reference
    depth = len(expected_totals) - 1
    if sorted(keys) != sorted(by_class):
        return f"classes {sorted(keys)} != reference {sorted(by_class)}"
    for key, gf in zip(keys, gfs):
        got = gf.series(depth)
        if got != by_class[key]:
            return f"class {key}: {got} != reference {by_class[key]}"
    if list(totals) != expected_totals:
        return f"totals {list(totals)} != reference {expected_totals}"
    return None


def _chain_totals(by_class: dict[int, list[int]], bells: list[int]) -> list[int]:
    """Level totals of a chain capped at m types: the type sum, which must
    equal the (q-)Bell numbers up to level m, where the cap cannot bind."""
    totals = [sum(column) for column in zip(*by_class.values())]
    if totals[: len(bells)] != bells:
        raise ArithmeticError(f"type sums {totals[:len(bells)]} != Bell numbers {bells}")
    return totals


def _point_chain(m: int) -> Job:
    depth = 2 * m

    def reference():
        by_class = {i: [configs.stirling2(n, i) for n in range(depth + 1)] for i in range(m + 1)}
        return by_class, _chain_totals(by_class, [configs.bell(n) for n in range(m + 1)])

    return Job(f"point_m{m}", _chain_run(configs.point_config_process(m), depth),
               reference, _compare_chain)


def _vector_chain(q: int, m: int) -> Job:
    depth = 2 * m

    def reference():
        by_class = {i: [configs.q_stirling(n, i, q) for n in range(depth + 1)]
                    for i in range(m + 1)}
        return by_class, _chain_totals(by_class, [configs.q_bell(n, q) for n in range(m + 1)])

    return Job(f"vector_q{q}m{m}", _chain_run(configs.vector_config_process(q, m), depth),
               reference, _compare_chain)


def _random_branching(rng: random.Random, n: int) -> list[list[int]]:
    """Strongly connected n-class matrix: a weighted cycle through every
    class (root first) plus n extra weighted edges."""
    cycle = [0] + rng.sample(range(1, n), n - 1)
    b = [[0] * n for _ in range(n)]
    for parent, child in zip(cycle, cycle[1:] + cycle[:1]):
        b[child][parent] = rng.randint(1, 2)
    for _ in range(n):
        b[rng.randrange(n)][rng.randrange(n)] += rng.randint(1, 2)
    return b


def _random_chain(rng: random.Random, n: int) -> Job:
    b = _random_branching(rng, n)
    process = engine.BranchingProcess(
        root=0, children=lambda j: {i: b[i][j] for i in range(n) if b[i][j]})
    depth = 2 * n

    def reference():
        counts = engine.bfs_level_counts(process, depth)
        by_class = {key: list(counts.counts_for(key)) for key in counts.keys}
        return by_class, list(counts.totals)

    return Job(f"random_n{n}", _chain_run(process, depth), reference, _compare_chain)


def _chain_jobs(rng: random.Random) -> list[Job]:
    return [
        *(_point_chain(m) for m in (16, 24, 32)),
        _vector_chain(2, 12),
        _vector_chain(3, 8),
        *(_random_chain(rng, n) for n in range(12, 17)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "groups",
            "CLI group runs and paper tables; time is perms keying, resolvents stay at 12 classes or fewer",
            frozenset({"cli", "engine", "polyring", "perms", "commuting"}),
            _group_jobs,
        ),
        Workload(
            "modules",
            "CLI matrix-alg runs and the stretch oracle suite; ring keying fast path, mat_mul and oracles",
            frozenset({"cli", "engine", "polyring", "commuting", "matrixalg", "configs"}),
            _module_jobs,
        ),
        Workload(
            "chains",
            "library resolvents of 9 to 33 class chains and random cyclic matrices; Bareiss dominates",
            frozenset({"engine", "polyring"}),
            _chain_jobs,
        ),
    )
}

# Every job name any seed can produce, for the per-layer metric list.
JOB_NAMES = tuple(
    job.name for workload in WORKLOADS.values() for job in workload.make_jobs(random.Random(0))
)
