"""Command-line front end.

Subcommands:
  group       orbit generating functions for a named finite group
  matrix-alg  module-count generating functions over M_m(F_q)
  configs     point / vector configuration series and triangles
  expand      series coefficients of an arbitrary rational function
  verify      golden-table and oracle comparison suites

Output is plain text or line-delimited JSON records (--format records);
records spell every coefficient as a decimal string so consumers never
touch machine integers.  Exit status: 0 ok, 1 verification mismatch,
2 usage error, 3 resource limit hit.  The environment variable
BRANCHGF_WORK_BUDGET overrides the default enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import commuting, configs, fixtures, matrixalg
from .engine import build_branching, gf_total, render_dot
from .errors import (
    NonIntegerCoefficientError,
    NonUnitConstantTermError,
    ResourceLimitError,
    ZeroDenominatorError,
)
from .orbits import DEFAULT_WORK_BUDGET
from .perms import (
    PermGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    symmetric_group,
    wreath_c2_s2,
)
from .polyring import Poly, RatFun, ratfun_eq

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

BUDGET_ENV = "BRANCHGF_WORK_BUDGET"


class UsageError(Exception):
    pass


def _budget(cli_value: int | None) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        if not env.isdecimal():
            raise UsageError(f"{BUDGET_ENV} must be a non-negative integer, got {env!r}")
        return int(env)
    return DEFAULT_WORK_BUDGET


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _prime_power(text: str) -> int:
    """argparse type: a prime power q, the order of the field F_q."""
    try:
        q = int(text)
        matrixalg.prime_power(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a prime power, got {text!r}") from None
    return q


def parse_group_name(name: str) -> PermGroup:
    """Parse names like S4, C6, D4, C2wrS2, and x-joined products (C2xS3)."""
    parts = name.split("x")
    groups = []
    for part in parts:
        part = part.strip()
        if part == "C2wrS2":
            groups.append(wreath_c2_s2())
            continue
        if len(part) < 2 or part[0] not in "SCD" or not part[1:].isdigit():
            raise UsageError(
                f"cannot parse group name {part!r}; use S<m>, C<k>, D<n>, "
                "C2wrS2, or products joined by 'x'"
            )
        k = int(part[1:])
        try:
            if part[0] == "S":
                groups.append(symmetric_group(k))
            elif part[0] == "C":
                groups.append(cyclic_group(k))
            else:
                groups.append(dihedral_group(k))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    out = groups[0]
    for extra in groups[1:]:
        out = direct_product(out, extra)
    return out


def _coeff_list(text: str) -> Poly:
    toks = [t for t in text.replace(",", " ").split() if t]
    if not toks:
        raise UsageError("empty coefficient list")
    try:
        return Poly(int(t) for t in toks)
    except ValueError as exc:
        raise UsageError(f"bad coefficient list {text!r}") from exc


def _emit_record(out, record: str, **fields) -> None:
    """One line-delimited JSON record; the "record" field names its kind."""
    print(json.dumps({"record": record, **fields}), file=out)


def _strings(values) -> list[str]:
    return [str(c) for c in values]


def emit_ratfun(name: str, fn: RatFun, terms: int | None, fmt: str, out) -> None:
    if fmt == "records":
        series = {} if terms is None else {"series": _strings(fn.series(terms))}
        _emit_record(out, "ratfun", name=name, num=_strings(fn.num.coeffs),
                     den=_strings(fn.den.coeffs), display=str(fn), **series)
    else:
        print(f"{name} = {fn}", file=out)
        if terms is not None:
            print(f"  coefficients 0..{terms}: {fn.series(terms)}", file=out)


def parse_ratfun_record(line: str) -> RatFun:
    """Rebuild a RatFun from one emitted record line (round-trip support)."""
    record = json.loads(line)
    return RatFun(
        Poly(int(c) for c in record["num"]),
        Poly(int(c) for c in record["den"]),
    )


# -- subcommands ----------------------------------------------------------------


def cmd_group(args, out) -> int:
    group = parse_group_name(args.name)
    if args.kind == "burnside":
        emit_ratfun(f"f[{args.name}]", commuting.burnside_gf(group), args.terms, args.format, out)
        return EXIT_OK
    bm = build_branching(commuting.commuting_process(group))
    emit_ratfun(f"h[{args.name}]", gf_total(bm), args.terms, args.format, out)
    if args.show_matrix:
        if args.format == "records":
            _emit_record(out, "branching-matrix", name=args.name, labels=list(bm.labels),
                         matrix=[_strings(row) for row in bm.matrix])
        else:
            print(f"branching matrix ({bm.size} classes):", file=out)
            for row in bm.matrix:
                print(f"  {list(row)}", file=out)
    if args.dot:
        print(render_dot(bm), file=out)
    return EXIT_OK


def cmd_matrix_alg(args, out) -> int:
    fn = matrixalg.module_gf(args.q, args.m)
    emit_ratfun(f"h[q={args.q},m={args.m}]", fn, args.terms, args.format, out)
    return EXIT_OK


def cmd_configs(args, out) -> int:
    terms = args.terms if args.terms is not None else 6
    if args.kind == "point":
        fn = configs.point_config_gf(args.m)
        emit_ratfun(f"points[m={args.m}]", fn, args.terms, args.format, out)
        rows = [
            [configs.stirling2(n, i) for i in range(args.m + 1)]
            for n in range(terms + 1)
        ]
        label = "set-partition counts S(n,i)"
    else:
        if args.q is None:
            raise UsageError("--kind vector requires --q")
        fn = configs.vector_config_gf(args.q, args.m)
        emit_ratfun(
            f"vectors[q={args.q},m={args.m}]", fn, args.terms, args.format, out
        )
        rows = [
            [configs.q_stirling(n, i, args.q) for i in range(args.m + 1)]
            for n in range(terms + 1)
        ]
        label = "subspace counts S_q(n,i)"
    if args.format == "records":
        _emit_record(out, "type-triangle", kind=args.kind, rows=[_strings(row) for row in rows])
    else:
        print(f"  {label}, rows n = 0..{terms}, columns i = 0..{args.m}:", file=out)
        for n, row in enumerate(rows):
            print(f"    n={n}: {row}", file=out)
    return EXIT_OK


def cmd_expand(args, out) -> int:
    try:
        fn = RatFun(_coeff_list(args.num), _coeff_list(args.den))
        coeffs = fn.series(args.terms)
    except (ZeroDenominatorError, NonUnitConstantTermError, NonIntegerCoefficientError) as exc:
        raise UsageError(f"no integer power series for this --den: {exc}") from exc
    if args.format == "records":
        _emit_record(out, "series", num=_strings(fn.num.coeffs), den=_strings(fn.den.coeffs),
                     series=_strings(coeffs))
    else:
        print(f"({fn}) = {coeffs} + O(t^{args.terms + 1})", file=out)
    return EXIT_OK


# -- verify suites ----------------------------------------------------------------


def _verify_paper_tables(out) -> list[str]:
    failures = []
    for m in range(1, 6):
        group = symmetric_group(m)
        expected = fixtures.fixture_ratfun(fixtures.TUPLE_ORBIT_GF[m])
        via_elements = commuting.burnside_gf(group)
        via_partitions = commuting.symmetric_burnside_gf(m)
        ok = ratfun_eq(via_elements, expected) and ratfun_eq(via_partitions, expected)
        print(f"tuple-orbit gf S{m}: {'ok' if ok else 'MISMATCH'}", file=out)
        if not ok:
            failures.append(
                f"S{m} tuple-orbit: expected {expected}, "
                f"group sum {via_elements}, cycle-type sum {via_partitions}"
            )
    for m in range(1, 6):
        group = symmetric_group(m)
        expected = fixtures.fixture_ratfun(fixtures.COMMUTING_ORBIT_GF[m])
        got = commuting.commuting_gf(group)
        ok = ratfun_eq(got, expected)
        print(f"commuting-orbit gf S{m}: {'ok' if ok else 'MISMATCH'}", file=out)
        if not ok:
            failures.append(f"S{m} commuting-orbit: expected {expected}, got {got}")
    return failures


def _verify_oracles(budget: int, out) -> list[str]:
    failures = []
    group_cases = [("S3", 3), ("S4", 2), ("C6", 3), ("D4", 3)]
    for name, depth in group_cases:
        group = parse_group_name(name)
        series = commuting.commuting_gf(group).series(depth)
        counts = commuting.commuting_orbit_counts(group, depth, budget)
        ok = series == counts
        print(f"commuting oracle {name} n<={depth}: {'ok' if ok else 'MISMATCH'}", file=out)
        if not ok:
            failures.append(f"{name}: series {series} vs oracle {counts}")
    module_gfs = {}
    for q, m, depth in [(2, 2, 2), (3, 2, 1), (2, 3, 2)]:
        module_gfs[q, m] = matrixalg.module_gf(q, m)
        series = module_gfs[q, m].series(depth)
        counts = matrixalg.module_orbit_counts(q, m, depth, budget)
        ok = series == counts
        print(f"module oracle q={q} m={m} n<={depth}: {'ok' if ok else 'MISMATCH'}", file=out)
        if not ok:
            failures.append(f"module q={q},m={m}: series {series} vs oracle {counts}")
    failures.extend(_report_dim3_reading(module_gfs[2, 3], out))
    point_total, point_split = configs.config_orbit_oracle("point", 3, 3, budget=budget)
    ok = point_total == 5 and point_split == [0, 1, 3, 1]
    print(f"point oracle m=3 n=3: {'ok' if ok else 'MISMATCH'}", file=out)
    if not ok:
        failures.append(f"point oracle m=3 n=3 gave {point_total}, {point_split}")
    vec_total, _ = configs.config_orbit_oracle("vector", 2, 2, q=2, budget=budget)
    ok = vec_total == configs.q_bell(2, 2)
    print(f"vector oracle q=2 m=2 n=2: {'ok' if ok else 'MISMATCH'}", file=out)
    if not ok:
        failures.append(f"vector oracle q=2 m=2 n=2 gave {vec_total}")
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            ok = configs.row_space_bijection_check(2, m, n, budget)
            print(f"row-space bijection q=2 m={m} n={n}: {'ok' if ok else 'MISMATCH'}", file=out)
            if not ok:
                failures.append(f"row-space bijection failed at q=2 m={m} n={n}")
    return failures


def _report_dim3_reading(computed: RatFun, out) -> list[str]:
    """Which recorded closed-form candidate the M_3(F_2) series supports."""
    failures = []
    matches = [
        name
        for name, fixture in fixtures.module_gf_dim3_candidates(2).items()
        if ratfun_eq(computed, fixtures.fixture_ratfun(fixture))
    ]
    print(
        f"dim-3 closed form: computed {computed}; supports candidate(s): "
        f"{', '.join(matches) if matches else 'none'}",
        file=out,
    )
    if matches != ["unit-constant"]:
        failures.append(
            f"dim-3 series supports {matches!r}, expected ['unit-constant']"
        )
    return failures


def cmd_verify(args, out) -> int:
    budget = _budget(args.budget)
    if args.suite == "paper-tables":
        failures = _verify_paper_tables(out)
    else:
        failures = _verify_oracles(budget, out)
    if failures:
        print("verification failed:", file=out)
        for line in failures:
            print(f"  {line}", file=out)
        return EXIT_MISMATCH
    print("all checks passed", file=out)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchgf",
        description="Exact rational generating functions for self-similar rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--terms", type=_count, default=None, metavar="N",
                        help="also print series coefficients 0..N")
    common.add_argument("--format", choices=("text", "records"), default="text")

    p_group = sub.add_parser("group", parents=[common],
                             help="orbit generating functions of a finite group")
    p_group.add_argument("--name", required=True, help="e.g. S4, C6, D4, C2xS3, C2wrS2")
    p_group.add_argument("--kind", choices=("commuting", "burnside"), default="commuting")
    p_group.add_argument("--show-matrix", action="store_true",
                         help="print the discovered branching matrix")
    p_group.add_argument("--dot", action="store_true",
                         help="emit the class graph in DOT format")
    p_group.set_defaults(func=cmd_group)

    p_mat = sub.add_parser("matrix-alg", parents=[common],
                           help="module-count generating functions over M_m(F_q)")
    p_mat.add_argument("--q", type=_prime_power, required=True)
    p_mat.add_argument("--m", type=_count, required=True)
    # Accepted and ignored: every ring up to the size bound runs, but
    # bench/workloads.py passes --stretch; ROADMAP item A removes it there
    # and here together with the benchmark refresh.
    p_mat.add_argument("--stretch", action="store_true", help=argparse.SUPPRESS)
    p_mat.set_defaults(func=cmd_matrix_alg)

    p_cfg = sub.add_parser("configs", parents=[common],
                           help="point / vector configuration series")
    p_cfg.add_argument("--kind", choices=("point", "vector"), required=True)
    p_cfg.add_argument("--m", type=_count, required=True)
    p_cfg.add_argument("--q", type=_prime_power, default=None)
    p_cfg.set_defaults(func=cmd_configs)

    p_exp = sub.add_parser("expand", help="series coefficients of num/den")
    p_exp.add_argument("--num", required=True, metavar="COEFFS",
                       help="numerator coefficients, ascending powers, e.g. '1,-3,1'")
    p_exp.add_argument("--den", required=True, metavar="COEFFS")
    p_exp.add_argument("--terms", type=_count, required=True)
    p_exp.add_argument("--format", choices=("text", "records"), default="text")
    p_exp.set_defaults(func=cmd_expand)

    p_ver = sub.add_parser("verify", help="run golden-table / oracle comparisons")
    p_ver.add_argument("--suite", choices=("paper-tables", "oracles"), required=True)
    p_ver.add_argument("--budget", type=_count, default=None,
                       help=f"enumeration work budget (default {DEFAULT_WORK_BUDGET}; "
                            f"or set {BUDGET_ENV})")
    # Accepted and ignored, as for matrix-alg: the M_3(F_2) rows always run.
    p_ver.add_argument("--stretch", action="store_true", help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"limit exceeded ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
