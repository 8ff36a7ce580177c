"""Command-line surface: output formats, exit codes, record round-trips."""

import io
import json
import re

import pytest

from branchgf import cli, commuting
from branchgf.cli import (
    EXIT_LIMIT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_group_name,
    parse_ratfun_record,
)
from branchgf.polyring import ratfun_eq
from branchgf.commuting import commuting_gf
from branchgf.engine import build_branching
from branchgf.perms import symmetric_group


def run_cli(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


def test_group_commuting_s3_text():
    status, text = run_cli(["group", "--name", "S3", "--kind", "commuting"])
    assert status == EXIT_OK
    assert "(1 - 3*t + t^2)/((1 - t)*(1 - 2*t)*(1 - 3*t))" in text


def test_group_burnside_with_series():
    status, text = run_cli(["group", "--name", "S3", "--kind", "burnside", "--terms", "3"])
    assert status == EXIT_OK
    assert "[1, 3, 11, 49]" in text


def test_group_show_matrix():
    status, text = run_cli(["group", "--name", "S3", "--kind", "commuting", "--show-matrix"])
    assert status == EXIT_OK
    assert "[1, 2, 0]" in text


def test_group_dot_output():
    status, text = run_cli(["group", "--name", "S3", "--dot"])
    assert status == EXIT_OK
    assert "digraph branching" in text


def test_group_matrix_and_dot_build_the_branching_once(monkeypatch):
    calls = []

    def counting(process):
        calls.append(process)
        return build_branching(process)

    for module in (cli, commuting):
        monkeypatch.setattr(module, "build_branching", counting)
    status, _ = run_cli(["group", "--name", "S4", "--show-matrix", "--dot"])
    assert status == EXIT_OK
    assert len(calls) == 1


def test_configs_point_m0():
    status, text = run_cli(["configs", "--kind", "point", "--m", "0"])
    assert status == EXIT_OK
    assert "points[m=0] = 1" in text


def test_configs_vector_requires_q():
    status, _ = run_cli(["configs", "--kind", "vector", "--m", "2"])
    assert status == EXIT_USAGE


def test_expand():
    status, text = run_cli(["expand", "--num", "1", "--den", "1,-3,2", "--terms", "4"])
    assert status == EXIT_OK
    assert "[1, 3, 7, 15, 31]" in text


def test_expand_bad_coefficients():
    status, _ = run_cli(["expand", "--num", "one", "--den", "1", "--terms", "2"])
    assert status == EXIT_USAGE


def test_unknown_group_name_is_usage_error():
    status, _ = run_cli(["group", "--name", "Q8"])
    assert status == EXIT_USAGE


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_stretch_gate_maps_to_limit_exit():
    status, _ = run_cli(["matrix-alg", "--q", "3", "--m", "3"])
    assert status == EXIT_LIMIT


def test_stretch_error_states_the_size_rule(capsys):
    for argv in (["--q", "3", "--m", "3"], ["--q", "3", "--m", "3", "--stretch"]):
        status, _ = run_cli(["matrix-alg", *argv])
        assert status == EXIT_LIMIT
        err = capsys.readouterr().err
        assert "M_3(F_3) has 3^9 elements; the supported bound is 512" in err
        assert "stretch" not in err


@pytest.mark.parametrize("q,m", [(4, 2), (2, 3)])
def test_stretch_flag_is_accepted_and_changes_nothing(q, m):
    # Rings of up to 512 elements always run; --stretch stays accepted.
    for fmt in ("text", "records"):
        argv = ["matrix-alg", "--q", str(q), "--m", str(m), "--terms", "4", "--format", fmt]
        plain, flagged = run_cli(argv), run_cli([*argv, "--stretch"])
        assert plain[0] == EXIT_OK
        assert plain == flagged


def test_stretch_is_left_out_of_the_help(capsys):
    for command in ("matrix-alg", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "stretch" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,factors",
    [
        (["--kind", "point", "--m", "20"], [f"(1 - {k}*t)" for k in (2, 18, 20)]),
        (["--kind", "vector", "--q", "2", "--m", "12"], ["(1 - t)", "(1 - 4096*t)"]),
        (["--kind", "vector", "--q", "3", "--m", "12"], ["(1 - t)", "(1 - 531441*t)"]),
    ],
    ids=["point_m20", "vector_q2m12", "vector_q3m12"],
)
def test_large_configs_print_factored_denominators(argv, factors):
    # The denominators' leading coefficients are 20!/19, 2^78 and 3^78;
    # displaying them must not trial-divide up to their square roots.
    status, text = run_cli(["configs", *argv])
    assert status == EXIT_OK
    den = text.splitlines()[0].split(")/(", 1)[1]
    assert re.fullmatch(r"\(1 - (\d+\*)?t\)(\*\(1 - (\d+\*)?t\))*\)", den), den
    for factor in factors:
        assert factor in den


@pytest.mark.parametrize(
    "argv,line",
    [
        (
            ["expand", "--num", "1", "--den", "1,-1000000007", "--terms", "2"],
            "(1/(1 - 1000000007*t)) = [1, 1000000007, 1000000014000000049] + O(t^3)",
        ),
        (
            ["configs", "--kind", "vector", "--q", "1000000007", "--m", "1", "--terms", "2"],
            "vectors[q=1000000007,m=1] = (1 - 1000000006*t)/((1 - t)*(1 - 1000000007*t))",
        ),
    ],
    ids=["expand", "vector_q1000000007m1"],
)
def test_large_prime_root_is_factored(argv, line):
    # The root 10^9+7 is the cofactor of the divisor 1 of the leading
    # coefficient, so it is found after isqrt(10^9+7) trial divisions.
    status, text = run_cli(argv)
    assert status == EXIT_OK
    assert text.splitlines()[0] == line


def test_budget_exhaustion_maps_to_limit_exit():
    status, _ = run_cli(["verify", "--suite", "oracles", "--budget", "5"])
    assert status == EXIT_LIMIT


def test_records_round_trip():
    status, text = run_cli(
        ["group", "--name", "S4", "--kind", "commuting", "--terms", "4",
         "--format", "records"]
    )
    assert status == EXIT_OK
    rebuilt = parse_ratfun_record(text.splitlines()[0])
    assert ratfun_eq(rebuilt, commuting_gf(symmetric_group(4)))
    record = json.loads(text.splitlines()[0])
    assert all(isinstance(c, str) for c in record["num"] + record["den"] + record["series"])


def test_records_expand_round_trip():
    status, text = run_cli(
        ["expand", "--num", "1,-3,1", "--den", "1,-6,11,-6", "--terms", "3",
         "--format", "records"]
    )
    assert status == EXIT_OK
    record = json.loads(text)
    assert [int(c) for c in record["series"]] == [1, 3, 8, 21]


def test_verify_paper_tables_passes():
    status, text = run_cli(["verify", "--suite", "paper-tables"])
    assert status == EXIT_OK
    assert text.count(": ok") == 10
    # Idempotent: a second run reports the same thing.
    status2, text2 = run_cli(["verify", "--suite", "paper-tables"])
    assert (status2, text2) == (status, text)


def test_verify_oracles_passes_within_default_budget():
    status, text = run_cli(["verify", "--suite", "oracles"])
    assert status == EXIT_OK
    assert "all checks passed" in text
    # The M_3(F_2) rows always run; --stretch is accepted and changes nothing.
    assert "module oracle q=2 m=3 n<=2: ok" in text
    assert "supports candidate(s): unit-constant" in text
    assert run_cli(["verify", "--suite", "oracles", "--stretch"]) == (status, text)


def test_verify_mismatch_exits_1_with_diff(monkeypatch):
    from branchgf import fixtures
    from branchgf.cli import EXIT_MISMATCH

    corrupted = dict(fixtures.TUPLE_ORBIT_GF)
    corrupted[3] = ([1, -8, 15], corrupted[3][1])
    monkeypatch.setattr(fixtures, "TUPLE_ORBIT_GF", corrupted)
    status, text = run_cli(["verify", "--suite", "paper-tables"])
    assert status == EXIT_MISMATCH
    assert "MISMATCH" in text
    assert "expected" in text


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("BRANCHGF_WORK_BUDGET", "5")
    status, _ = run_cli(["verify", "--suite", "oracles"])
    assert status == EXIT_LIMIT
    for bad in ("not-a-number", "-5"):
        monkeypatch.setenv("BRANCHGF_WORK_BUDGET", bad)
        status, _ = run_cli(["verify", "--suite", "oracles"])
        assert status == EXIT_USAGE


def test_parse_group_name_products():
    assert parse_group_name("C2xS3").order == 12
    assert parse_group_name("C2wrS2").order == 8
    assert parse_group_name("D4").order == 8


EXIT_CODE_CASES = [
    (["group", "--name", "S6", "--kind", "commuting", "--terms", "8"], EXIT_OK),
    (["matrix-alg", "--q", "2", "--m", "0", "--terms", "3"], EXIT_OK),
    (["configs", "--kind", "vector", "--q", "1000003", "--m", "1"], EXIT_OK),
    (["expand", "--num", "1", "--den", "1,-1", "--terms", "0"], EXIT_OK),
    (["verify", "--suite", "paper-tables"], EXIT_MISMATCH),
    (["matrix-alg", "--q", "6", "--m", "2"], EXIT_USAGE),
    (["matrix-alg", "--q", "1", "--m", "2"], EXIT_USAGE),
    (["matrix-alg", "--q", "2", "--m", "-1"], EXIT_USAGE),
    (["expand", "--num", "1", "--den", "0,1", "--terms", "4"], EXIT_USAGE),
    (["expand", "--num", "1", "--den", "2,1", "--terms", "4"], EXIT_USAGE),
    (["expand", "--num", "1", "--den", "0", "--terms", "4"], EXIT_USAGE),
    (["configs", "--kind", "point", "--m", "-1"], EXIT_USAGE),
    (["configs", "--kind", "vector", "--q", "6", "--m", "2"], EXIT_USAGE),
    (["group", "--name", "S3", "--terms", "-1"], EXIT_USAGE),
    (["group", "--name", "S7"], EXIT_USAGE),
    (["verify", "--suite", "oracles", "--budget", "-1"], EXIT_USAGE),
    (["matrix-alg", "--q", "4", "--m", "2"], EXIT_OK),
    (["matrix-alg", "--q", "4", "--m", "2", "--stretch", "--terms", "3"], EXIT_OK),
    (["matrix-alg", "--q", "3", "--m", "3"], EXIT_LIMIT),
    (["matrix-alg", "--q", "3", "--m", "3", "--stretch"], EXIT_LIMIT),
    (["matrix-alg", "--q", "1009", "--m", "1"], EXIT_LIMIT),
    (["matrix-alg", "--q", "127", "--m", "2"], EXIT_LIMIT),
    (["group", "--name", "S6xS6xS6"], EXIT_LIMIT),
    (["group", "--name", "D300"], EXIT_LIMIT),
    (["verify", "--suite", "oracles", "--budget", "0"], EXIT_LIMIT),
]


@pytest.mark.parametrize(
    "argv,code", EXIT_CODE_CASES, ids=[" ".join(argv) for argv, _ in EXIT_CODE_CASES]
)
def test_documented_exit_codes(argv, code, monkeypatch, capsys):
    if code == EXIT_MISMATCH:
        from branchgf import fixtures

        corrupted = dict(fixtures.COMMUTING_ORBIT_GF)
        corrupted[2] = ([1, 1], corrupted[2][1])
        monkeypatch.setattr(fixtures, "COMMUTING_ORBIT_GF", corrupted)
    try:
        status = main(argv, out=io.StringIO())
    except SystemExit as exc:  # argparse rejects a bad option value
        status = exc.code
    assert status == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert bool(err) == (code in (EXIT_USAGE, EXIT_LIMIT))
