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
import functools
import json
import os
import re
import sys
from typing import Callable, Sequence

from . import commuting, configs, engine, fixtures, matrixalg, wreaths
from .engine import BranchingMatrix, build_branching, gf_total, product_process, render_dot
from .errors import (
    NonIntegerCoefficientError,
    NonUnitConstantTermError,
    ResourceLimitError,
    SizeLimitError,
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
from .polyring import Poly, RatFun

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
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a prime power, got {text!r}") from None
    try:
        matrixalg.prime_power(q)
    except ValueError as exc:  # not a prime power, or a prime too large to test
        raise argparse.ArgumentTypeError(str(exc)) from None
    return q


_GROUP_FORMS = "S<m>, C<k>, D<n>, C<k>wrS<m> (k, m, n >= 1), or products of these joined by 'x'"
_GROUP_FACTOR = re.compile(r"([SCD])([0-9]+)|C([0-9]+)wrS([0-9]+)")


def _name_parts(name: str) -> list[tuple[str, tuple[int, ...]]]:
    """Each x-joined factor of a group name as its form and numbers: ("S", (m,)),
    ("C", (k,)), ("D", (n,)) or ("CwrS", (k, m))."""
    parts = []
    for part in name.split("x"):
        match = _GROUP_FACTOR.fullmatch(part.strip())
        try:
            numbers = () if match is None else tuple(int(g) for g in match.groups()[1:] if g)
        except ValueError:  # more digits than Python converts to an integer
            match = None
        if match is None or 0 in numbers:
            raise UsageError(f"cannot parse group name {part!r}; use {_GROUP_FORMS}")
        parts.append((match[1] or "CwrS", numbers))
    return parts


def parse_group_factors(name: str) -> list[wreaths.ZSetGroup]:
    """The factors of a group name as the group command reads them: each one,
    S<m>, C<k>, C<k>wrS<m> or D<n>, is given by its label (branchgf.wreaths),
    which lists nothing."""
    forms = {"S": wreaths.symmetric, "C": wreaths.cyclic, "CwrS": wreaths.cyclic_wreath,
             "D": wreaths.dihedral}
    return [forms[form](*numbers) for form, numbers in _name_parts(name)]


def factor_trees(factors: Sequence[wreaths.ZSetGroup]) -> list[BranchingMatrix]:
    """Each factor's commuting tree from its labels, all keyed by one
    LabelTable, so that equal keys name equal factors across a product."""
    table = wreaths.LabelTable()
    return [build_branching(factor.process(table)) for factor in factors]


def parse_group_name(name: str) -> PermGroup:
    """The named group itself, a product listed element by element; of the
    wreath products only C2wrS2 is listed."""
    listed = {"S": symmetric_group, "C": cyclic_group, "D": dihedral_group}
    groups = []
    for form, numbers in _name_parts(name):
        if form == "CwrS" and numbers != (2, 2):
            raise UsageError(f"C{numbers[0]}wrS{numbers[1]} has no element list; only C2wrS2 has")
        groups.append(wreath_c2_s2() if form == "CwrS" else listed[form](*numbers))
    return functools.reduce(direct_product, groups)


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


def _check_printable(*rows: Sequence[int]) -> None:
    """Raise SizeLimitError, before anything is printed, when an integer in rows
    has more decimal digits than Python converts to text."""
    limit = sys.get_int_max_str_digits()
    if limit and max((abs(c) for row in rows for c in row), default=0) >= 10**limit:
        raise SizeLimitError(
            f"a value to print has more than {limit} decimal digits, Python's limit "
            "for converting an integer to text (sys.get_int_max_str_digits())"
        )


def emit_ratfun(name: str, fn: RatFun, terms: int | None, fmt: str, out) -> None:
    series = None if terms is None else fn.series(terms)
    _check_printable(fn.num.coeffs, fn.den.coeffs, series or ())
    if fmt == "records":
        extra = {} if series is None else {"series": _strings(series)}
        _emit_record(out, "ratfun", name=name, num=_strings(fn.num.coeffs),
                     den=_strings(fn.den.coeffs), display=str(fn), **extra)
    else:
        print(f"{name} = {fn}", file=out)
        if series is not None:
            print(f"  coefficients 0..{terms}: {series}", file=out)


def parse_ratfun_record(line: str) -> RatFun:
    """Rebuild a RatFun from one emitted record line (round-trip support)."""
    record = json.loads(line)
    return RatFun(
        Poly(int(c) for c in record["num"]),
        Poly(int(c) for c in record["den"]),
    )


# -- subcommands ----------------------------------------------------------------


def cmd_group(args, out) -> int:
    factors = parse_group_factors(args.name)
    if args.kind == "burnside":
        fn = commuting.burnside_gf(*factors)
        emit_ratfun(f"f[{args.name}]", fn, args.terms, args.format, out)
        return EXIT_OK
    trees = factor_trees(factors)
    bm = trees[0] if len(trees) == 1 else build_branching(product_process(*trees))
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
        if args.format == "records":
            _emit_record(out, "dot", name=args.name, dot=render_dot(bm))
        else:
            print(render_dot(bm), file=out)
    return EXIT_OK


def cmd_matrix_alg(args, out) -> int:
    fn = matrixalg.module_gf(args.q, args.m)
    emit_ratfun(f"h[q={args.q},m={args.m}]", fn, args.terms, args.format, out)
    return EXIT_OK


def cmd_configs(args, out) -> int:
    terms = args.terms if args.terms is not None else 6
    if args.kind == "point":
        if args.q is not None:
            raise UsageError("--q applies only to --kind vector")
        name, fn = f"points[m={args.m}]", configs.point_config_gf(args.m)
        rows = [
            [configs.stirling2(n, i) for i in range(args.m + 1)]
            for n in range(terms + 1)
        ]
        label = "set-partition counts S(n,i)"
    else:
        if args.q is None:
            raise UsageError("--kind vector requires --q")
        name, fn = f"vectors[q={args.q},m={args.m}]", configs.vector_config_gf(args.q, args.m)
        rows = [
            [configs.q_stirling(n, i, args.q) for i in range(args.m + 1)]
            for n in range(terms + 1)
        ]
        label = "subspace counts S_q(n,i)"
    _check_printable(*rows)
    emit_ratfun(name, fn, args.terms, args.format, out)
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
    _check_printable(fn.num.coeffs, fn.den.coeffs, coeffs)
    if args.format == "records":
        _emit_record(out, "series", num=_strings(fn.num.coeffs), den=_strings(fn.den.coeffs),
                     series=_strings(coeffs))
    else:
        print(f"({fn}) = {coeffs} + O(t^{args.terms + 1})", file=out)
    return EXIT_OK


# -- verify suites ----------------------------------------------------------------


def _check(out, failures: list[str], label: str, ok: bool, failure: Callable[[], str]) -> None:
    """Print one verify row, label: ok or MISMATCH, and collect its failure,
    formatted only on a mismatch."""
    print(f"{label}: {'ok' if ok else 'MISMATCH'}", file=out)
    if not ok:
        failures.append(failure())


def _verify_paper_tables(out) -> list[str]:
    failures = []
    for m in range(1, 6):
        # The group sum runs over the listed S_m's conjugation orbits, the
        # other sum over the cycle types.
        group = symmetric_group(m)
        expected = fixtures.fixture_ratfun(fixtures.TUPLE_ORBIT_GF[m])
        via_elements = commuting.burnside_gf(group)
        via_partitions = commuting.symmetric_burnside_gf(m)
        _check(out, failures, f"tuple-orbit gf S{m}",
               via_elements == expected and via_partitions == expected,
               lambda: f"S{m} tuple-orbit: expected {expected}, "
                       f"group sum {via_elements}, cycle-type sum {via_partitions}")
    for m in range(1, 6):
        expected = fixtures.fixture_ratfun(fixtures.COMMUTING_ORBIT_GF[m])
        got = gf_total(factor_trees(parse_group_factors(f"S{m}"))[0])
        _check(out, failures, f"commuting-orbit gf S{m}", got == expected,
               lambda: f"S{m} commuting-orbit: expected {expected}, got {got}")
    return failures


def _verify_oracles(budget: int, out) -> list[str]:
    failures = []
    for name, depth in [("S3", 3), ("S4", 2), ("C6", 3), ("D4", 3)]:
        # The tree as the group command builds it, brute force on the listed group.
        series = gf_total(factor_trees(parse_group_factors(name))[0]).series(depth)
        counts = commuting.commuting_orbit_counts(parse_group_name(name), depth, budget)
        _check(out, failures, f"commuting oracle {name} n<={depth}", series == counts,
               lambda: f"{name}: series {series} vs oracle {counts}")
    module_gfs = {}
    for q, m, depth in [(2, 2, 2), (3, 2, 1), (2, 3, 2)]:
        module_gfs[q, m] = matrixalg.module_gf(q, m)
        series = module_gfs[q, m].series(depth)
        counts = matrixalg.module_orbit_counts(q, m, depth, budget)
        _check(out, failures, f"module oracle q={q} m={m} n<={depth}", series == counts,
               lambda: f"module q={q},m={m}: series {series} vs oracle {counts}")
    failures.extend(_report_dim3_reading(module_gfs[2, 3], out))
    totals, by_type = configs.point_orbit_counts(3, 3, budget)
    _check(out, failures, "point oracle m=3 n=3", totals[3] == 5 and by_type[3] == [0, 1, 3, 1],
           lambda: f"point oracle m=3 n=3 gave {totals[3]}, {by_type[3]}")
    totals, _ = configs.vector_orbit_counts(2, 2, 2, budget)
    _check(out, failures, "vector oracle q=2 m=2 n=2", totals[2] == configs.q_bell(2, 2),
           lambda: f"vector oracle q=2 m=2 n=2 gave {totals[2]}")
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            _check(out, failures, f"row-space bijection q=2 m={m} n={n}",
                   configs.row_space_bijection_check(2, m, n, budget),
                   lambda: f"row-space bijection failed at q=2 m={m} n={n}")
    return failures


def _report_dim3_reading(computed: RatFun, out) -> list[str]:
    """Which recorded closed-form candidate the M_3(F_2) series supports."""
    failures = []
    matches = [
        name
        for name, fixture in fixtures.module_gf_dim3_candidates(2).items()
        if computed == fixtures.fixture_ratfun(fixture)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="branchgf",
        description="Exact rational generating functions for self-similar rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--terms", type=_count, default=None, metavar="N",
                        help="also print series coefficients 0..N")
    common.add_argument("--format", choices=("text", "records"), default="text")

    p_group = sub.add_parser(
        "group", parents=[common],
        help="orbit generating functions of a finite group",
        description=(
            "Orbit generating functions of a finite group: S<m>, C<k>, C<k>wrS<m> and "
            "D<n> (dihedral, order 2n), whose trees come from labels and list no group, "
            "and x-joined direct products such as C2xS3. "
            f"A name whose trees need more than {wreaths.LABEL_LIMIT} labels exits 3 "
            "(on a 2-vCPU machine, S12 takes 0.14 s, D100000 0.1 s, S20 and C2wrS13 "
            "3.5 s, and S21 exits 3). A product lists no elements; its classes are "
            "tuples of its factors' classes, and it runs when the product of its "
            f"factors' tree class counts is at most {engine.STATE_LIMIT} (S6xS6 takes "
            "0.3 s and S6xS6xS6xS6 1.6 s); larger products exit 3. --kind burnside "
            "sums one term per distinct centralizer order, and printing the sum "
            "slows past about 150 terms (S16 takes 1.5 s, S18 7 s)."
        ),
    )
    p_group.add_argument("--name", required=True, help="e.g. S4, C6, D4, C2xS3, C3wrS2")
    p_group.add_argument("--kind", choices=("commuting", "burnside"), default="commuting")
    p_group.add_argument("--show-matrix", action="store_true",
                         help="print the discovered branching matrix")
    p_group.add_argument("--dot", action="store_true",
                         help="emit the class graph in DOT format")
    p_group.set_defaults(func=cmd_group)

    p_mat = sub.add_parser(
        "matrix-alg", parents=[common],
        help="module-count generating functions over M_m(F_q)",
        description=(
            "Module-count generating function over M_m(F_q). The tree lists the "
            "elements of proper centralizers only, the largest of "
            "q^((m-1)^2+1) elements: M_m(F_q) runs when that is at most "
            f"{matrixalg.CENTRALIZER_SIZE_LIMIT} and q at most "
            f"{matrixalg.FIELD_SIZE_LIMIT} (on a 2-vCPU machine, M_4(F_2) and "
            "M_2(F_139) take under a second, M_3(F_7) about 2 s); larger rings exit 3."
        ),
    )
    p_mat.add_argument("--q", type=_prime_power, required=True)
    p_mat.add_argument("--m", type=_count, required=True)
    # Accepted and ignored: every ring up to the size bound runs, but
    # bench/workloads.py passes --stretch; ROADMAP item D removes it there
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
