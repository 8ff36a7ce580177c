"""Command-line surface: output formats, exit codes, record round-trips."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import branchgf
from branchgf import cli, commuting, configs, perms
from branchgf.cli import (
    EXIT_LIMIT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_group_name,
    parse_ratfun_record,
)
from branchgf.commuting import commuting_gf
from branchgf.engine import build_branching
from branchgf.perms import symmetric_group
from branchgf.zsets import symmetric_commuting_counts


def run_cli(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


def _run_module(*argv, timeout=120):
    # `python -m branchgf.cli` in a fresh interpreter, on this checkout's package.
    env = {**os.environ, "PYTHONPATH": str(Path(branchgf.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "branchgf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_module_entry_point_in_a_fresh_interpreter():
    done = _run_module("matrix-alg", "--q", "2", "--m", "2", "--terms", "3")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout == (
        "h[q=2,m=2] = 1/((1 - 2*t)*(1 - 4*t))\n  coefficients 0..3: [1, 6, 28, 120]\n"
    )
    done = _run_module("matrix-alg", "--q", "6", "--m", "2")
    assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
    assert "error: argument --q: 6 is not a prime power" in done.stderr
    assert "Traceback" not in done.stderr


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


def test_group_records_with_matrix_and_dot_are_all_json():
    status, text = run_cli(["group", "--name", "S3", "--show-matrix", "--dot",
                            "--format", "records"])
    assert status == EXIT_OK
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["record"] for r in records] == ["ratfun", "branching-matrix", "dot"]
    assert records[2]["name"] == "S3"
    assert records[2]["dot"].startswith("digraph branching {")
    # Text mode prints the same DOT text as raw lines.
    assert f"\n{records[2]['dot']}\n" in run_cli(["group", "--name", "S3", "--dot"])[1]


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


def test_product_labels_join_factor_keys():
    status, text = run_cli(["group", "--name", "C2xS3", "--show-matrix", "--format", "records"])
    assert status == EXIT_OK
    record = json.loads(text.splitlines()[1])
    assert record["labels"] == ["z2.0xz6.1", "z2.0xz2.0", "z2.0xz3.2"]
    status, dot = run_cli(["group", "--name", "C2xS3", "--dot"])
    assert 'c0 [label="z2.0xz6.1" shape="doublecircle"];' in dot
    assert "(" not in "".join(line for line in dot.splitlines() if "label" in line)


CLASS_ORDER = {
    "S6": (
        ["z720.0", "z48.1", "z18.2", "z16.3", "z8.4", "z6.5", "z5.6", "z8.7", "z9.8"],
        [
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 2, 0, 0, 0, 0, 0, 0, 0],
            [2, 0, 3, 0, 0, 0, 0, 0, 0],
            [1, 2, 0, 4, 0, 0, 0, 0, 0],
            [2, 2, 0, 2, 8, 0, 0, 0, 0],
            [2, 2, 3, 0, 0, 6, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 5, 0, 0],
            [0, 2, 0, 4, 0, 0, 0, 8, 0],
            [0, 0, 3, 0, 0, 0, 0, 0, 9],
        ],
    ),
    "C2wrS2xS4": (
        ["z8.0xz24.3", "z4.1xz24.3", "z4.1xz4.1", "z3.4xz4.1", "z4.1xz8.0", "z4.1xz4.2",
         "z3.4xz8.0", "z8.0xz8.0", "z4.2xz8.0", "z4.2xz24.3", "z3.4xz4.2", "z4.2xz4.2"],
        [
            [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 4, 16, 0, 8, 0, 0, 4, 0, 0, 0, 0],
            [2, 4, 0, 12, 0, 0, 6, 0, 0, 0, 0, 0],
            [4, 4, 0, 0, 8, 0, 0, 8, 0, 0, 0, 0],
            [3, 4, 0, 0, 4, 16, 0, 4, 8, 4, 0, 0],
            [2, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0],
            [2, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0],
            [3, 0, 0, 0, 0, 0, 0, 4, 8, 4, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0],
            [1, 0, 0, 0, 0, 0, 3, 0, 0, 4, 12, 0],
            [1, 0, 0, 0, 0, 0, 0, 1, 4, 4, 0, 16],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CLASS_ORDER))
def test_class_order_is_pinned(name):
    # Discovery order, keys and tags: a change to any of them moves a
    # label or permutes the matrix.
    status, text = run_cli(["group", "--name", name, "--show-matrix", "--format", "records"])
    assert status == EXIT_OK
    record = json.loads(text.splitlines()[1])
    labels, matrix = CLASS_ORDER[name]
    assert record["labels"] == labels
    assert record["matrix"] == [[str(x) for x in row] for row in matrix]


@pytest.mark.parametrize("name,order", [("C2wrS2xS4", 192), ("S6xS6", 518400)])
def test_product_lists_no_elements(name, order, monkeypatch):
    def refused(*groups):
        raise AssertionError("a product's element list was built")

    init = perms.PermGroup.__init__

    def guarded(self, degree, elements):
        init(self, degree, elements)
        if self.order == order:
            raise AssertionError(f"a group of the product's order {order} was built")

    for module in (perms, cli):
        monkeypatch.setattr(module, "direct_product", refused)
    monkeypatch.setattr(perms.PermGroup, "__init__", guarded)
    for kind in ("commuting", "burnside"):
        assert run_cli(["group", "--name", name, "--kind", kind])[0] == EXIT_OK


def _refuse_perms(monkeypatch):
    def refused(*args):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(perms.Perm, "__init__", refused)
    monkeypatch.setattr(perms.Perm, "_trusted", classmethod(refused))


@pytest.mark.parametrize("name", ["S12", "C2wrS8", "C600", "S12xC2", "D1", "D4", "D5", "D256",
                                  "D100000", "D6xD6", "D8xC2", "D4xC2wrS2", "C3wrS2xD7"])
def test_z_set_names_list_no_permutation(name, monkeypatch):
    # Every accepted name form, D<n> and products included, is read from labels.
    _refuse_perms(monkeypatch)
    for kind in ("commuting", "burnside"):
        assert run_cli(["group", "--name", name, "--kind", kind])[0] == EXIT_OK


@pytest.mark.parametrize("name", ["C0wrS2", "C2wrS0", "CwrS2", "C2wrS2wrS2", "S0", "Q8"])
def test_malformed_group_names_list_the_accepted_forms(name, capsys):
    assert run_cli(["group", "--name", name]) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert f"cannot parse group name {name!r}; use S<m>, C<k>, D<n>, C<k>wrS<m>" in err


@pytest.mark.parametrize("name,limit", [("S21", "labels"), ("C2wrS14", "labels"),
                                        ("S40", "centralizer labels")])
def test_over_large_names_say_how_far_they_got(name, limit, capsys):
    assert run_cli(["group", "--name", name]) == (EXIT_LIMIT, "")
    err = capsys.readouterr().err
    assert f"more than 2000 {limit}, the label limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["D300", "D10000000", "D10000000xC2", "C2xD10000000"])
def test_over_large_dihedral_names_build_no_permutation(name, monkeypatch, capsys):
    # D<n> past the listed groups' order limit runs from its label; a
    # permutation of degree 10^7 would not fit.
    _refuse_perms(monkeypatch)
    for kind in ("commuting", "burnside"):
        status, text = run_cli(["group", "--name", name, "--kind", kind])
        assert status == EXIT_OK and text.startswith("h[" if kind == "commuting" else "f[")
        assert capsys.readouterr().err == ""


def test_dihedral_name_too_long_to_print_exits_3(capsys):
    # h_8 of D_n grows like n^8, past Python's 4300-digit limit for a
    # 4000-digit n; a name of more than 4300 digits is not an integer at all.
    n = 10**3999 + 1
    for kind in ("commuting", "burnside"):
        argv = ["group", "--name", f"D{n}", "--kind", kind, "--terms", "8"]
        assert run_cli(argv) == (EXIT_LIMIT, "")
        assert "(SizeLimitError): a value to print has more than 4300" in capsys.readouterr().err
    assert run_cli(["group", "--name", f"D{n}"])[0] == EXIT_OK  # the gf itself prints
    assert run_cli(["group", "--name", "D" + "1" * 4301]) == (EXIT_USAGE, "")
    assert "cannot parse group name" in capsys.readouterr().err


HUGE_NAMES = [["S10000000"], ["S10000000", "--kind", "burnside"], ["C2wrS10000000"]]


@pytest.mark.parametrize("argv", HUGE_NAMES, ids=[" ".join(argv) for argv in HUGE_NAMES])
def test_huge_names_exit_3_at_once(argv):
    # A fresh interpreter with a short timeout: a hang fails here instead of stalling.
    done = _run_module("group", "--name", *argv, timeout=20)
    assert (done.returncode, done.stdout) == (EXIT_LIMIT, "")
    assert done.stderr.startswith("limit exceeded (") and "Traceback" not in done.stderr


@pytest.mark.parametrize("name", ["D10000000", "D10000000xC2"])
def test_huge_dihedral_names_run_at_once(name):
    done = _run_module("group", "--name", name, "--terms", "2", timeout=20)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout.startswith(f"h[{name}] = ")


def test_oracle_suite_checks_the_trees_the_group_command_builds(monkeypatch):
    built = []
    trees = cli.factor_trees

    def recording(factors):
        built.append([type(factor).__name__ for factor in factors])
        return trees(factors)

    monkeypatch.setattr(cli, "factor_trees", recording)
    assert run_cli(["verify", "--suite", "oracles"])[0] == EXIT_OK
    assert built == [["ZSetGroup"], ["ZSetGroup"], ["ZSetGroup"], ["ZSetGroup"]]


def _recorded_symmetric_groups(monkeypatch) -> list:
    built = []

    def recording(m):
        built.append(symmetric_group(m))
        return built[-1]

    monkeypatch.setattr(cli, "symmetric_group", recording)
    return built


def _series(text: str) -> list[int]:
    return [int(c) for c in json.loads(text.splitlines()[0])["series"]]


def test_s7_series_is_the_closed_form():
    status, text = run_cli(["group", "--name", "S7", "--terms", "8", "--format", "records"])
    assert status == EXIT_OK
    assert _series(text) == symmetric_commuting_counts(7, 8)


def test_s9_tree_lists_no_root_element(monkeypatch):
    # S_m's tree comes from Z^n-set labels: no S_m and no permutation at all.
    built = _recorded_symmetric_groups(monkeypatch)
    _refuse_perms(monkeypatch)
    status, text = run_cli(["group", "--name", "S9", "--terms", "6", "--format", "records"])
    assert status == EXIT_OK
    assert _series(text) == symmetric_commuting_counts(9, 6)
    assert built == []


@pytest.mark.parametrize("name", ["S9", "S9xC2"])
def test_burnside_on_s9_reads_class_sizes(name, monkeypatch):
    # f_n = (1/|G|) sum over g of |Z(g)|^n = sum over classes of |Z|^(n-1),
    # with |Z| = z_lambda on S9, times 2 for each of C2's two classes.
    built = _recorded_symmetric_groups(monkeypatch)
    _refuse_perms(monkeypatch)
    status, text = run_cli(["group", "--name", name, "--kind", "burnside", "--terms", "5",
                            "--format", "records"])
    assert status == EXIT_OK
    assert built == []
    factor, copies = (2, 2) if name == "S9xC2" else (1, 1)
    zs = [factor * perms.zlambda(lam) for lam in perms.partitions(9)]
    assert _series(text) == [1] + [copies * sum(z ** (n - 1) for z in zs) for n in range(1, 6)]


def test_product_bound_names_the_class_counts(capsys):
    status, _ = run_cli(["group", "--name", "S6xS6xS6xS6xS6"])
    assert status == EXIT_LIMIT
    assert "class counts 9 * 9 * 9 * 9 * 9 = 59049 exceed the state limit 10000" in (
        capsys.readouterr().err
    )


def test_group_help_states_the_product_rule(capsys):
    with pytest.raises(SystemExit):
        main(["group", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "product of its factors' tree class counts is at most 10000" in help_text


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
    status, _ = run_cli(["matrix-alg", "--q", "8", "--m", "3"])
    assert status == EXIT_LIMIT


def test_stretch_error_states_the_size_rule(capsys):
    rules = {
        ("--q", "8", "--m", "3"):
            "M_3(F_8) has proper centralizers of 8^5 elements; the supported bound is 20000",
        ("--q", "149", "--m", "2"):
            "M_2(F_149) has proper centralizers of 149^2 elements; the supported bound is 20000",
        ("--q", "521", "--m", "1"): "F_521 has 521 elements; the supported field bound is 512",
    }
    for argv, rule in rules.items():
        for flags in ((), ("--stretch",)):
            status, _ = run_cli(["matrix-alg", *argv, *flags])
            assert status == EXIT_LIMIT
            err = capsys.readouterr().err
            assert rule in err
            assert "stretch" not in err


@pytest.mark.parametrize(
    "argv,rule",
    [
        (["--kind", "point", "--m", "151"], "151 points; the supported bound is m <= 150"),
        (["--kind", "point", "--m", "100000"], "the supported bound is m <= 150"),
        (["--kind", "vector", "--q", "2", "--m", "74"], "= 208125; the supported bound is 200000"),
        (["--kind", "vector", "--q", "10000000000000061", "--m", "30"],
         "q = 10000000000000061, m = 30 gives (m + 1) * m(m + 1)/2 * ceil(log2 q) = 778410"),
    ],
)
def test_configs_size_rules_exit_3_before_any_polynomial(argv, rule, monkeypatch, capsys):
    def no_type_gf(*args):
        raise AssertionError("a type gf built for a refused case")

    monkeypatch.setattr(configs, "_type_gf", no_type_gf)
    status, _ = run_cli(["configs", *argv])
    assert status == EXIT_LIMIT
    err = capsys.readouterr().err
    assert rule in err and "Traceback" not in err


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


def test_matrix_alg_help_states_the_size_rule(capsys):
    with pytest.raises(SystemExit):
        main(["matrix-alg", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "q^((m-1)^2+1) elements" in help_text and "at most 20000" in help_text


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
    assert rebuilt == commuting_gf(symmetric_group(4))
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
    (["configs", "--kind", "vector", "--q", "10000000000000061", "--m", "1"], EXIT_OK),
    (["configs", "--kind", "vector", "--q", "10000000000000061", "--m", "2"], EXIT_OK),
    (["expand", "--num", "1", "--den", "1,-1", "--terms", "0"], EXIT_OK),
    (["verify", "--suite", "paper-tables"], EXIT_MISMATCH),
    (["matrix-alg", "--q", "6", "--m", "2"], EXIT_USAGE),
    (["matrix-alg", "--q", "1", "--m", "2"], EXIT_USAGE),
    (["matrix-alg", "--q", "2", "--m", "-1"], EXIT_USAGE),
    (["expand", "--num", "1", "--den", "0,1", "--terms", "4"], EXIT_USAGE),
    (["expand", "--num", "1", "--den", "2,1", "--terms", "4"], EXIT_USAGE),
    (["expand", "--num", "1", "--den", "0", "--terms", "4"], EXIT_USAGE),
    (["configs", "--kind", "point", "--m", "-1"], EXIT_USAGE),
    (["configs", "--kind", "point", "--q", "2", "--m", "2"], EXIT_USAGE),
    (["configs", "--kind", "vector", "--q", "6", "--m", "2"], EXIT_USAGE),
    (["group", "--name", "S3", "--terms", "-1"], EXIT_USAGE),
    (["group", "--name", "S7"], EXIT_OK),
    (["group", "--name", "S10"], EXIT_OK),
    (["group", "--name", "S1000"], EXIT_LIMIT),
    (["group", "--name", "S30", "--kind", "burnside"], EXIT_LIMIT),
    (["group", "--name", "C600"], EXIT_OK),
    (["group", "--name", "C3wrS3xC2"], EXIT_OK),
    (["verify", "--suite", "oracles", "--budget", "-1"], EXIT_USAGE),
    (["matrix-alg", "--q", "4", "--m", "2"], EXIT_OK),
    (["matrix-alg", "--q", "4", "--m", "2", "--stretch", "--terms", "3"], EXIT_OK),
    (["matrix-alg", "--q", "3", "--m", "3"], EXIT_OK),
    (["matrix-alg", "--q", "3", "--m", "3", "--stretch"], EXIT_OK),
    (["matrix-alg", "--q", "4", "--m", "3"], EXIT_OK),
    (["matrix-alg", "--q", "127", "--m", "2"], EXIT_OK),
    (["matrix-alg", "--q", "1009", "--m", "1"], EXIT_LIMIT),
    (["matrix-alg", "--q", "149", "--m", "2"], EXIT_LIMIT),
    (["matrix-alg", "--q", "8", "--m", "3"], EXIT_LIMIT),
    (["configs", "--kind", "point", "--m", "151"], EXIT_LIMIT),
    (["configs", "--kind", "point", "--m", "100000"], EXIT_LIMIT),
    (["configs", "--kind", "vector", "--q", "2", "--m", "74"], EXIT_LIMIT),
    (["configs", "--kind", "vector", "--q", "10000000000000061", "--m", "30"], EXIT_LIMIT),
    (["group", "--name", "S6xS6"], EXIT_OK),
    (["group", "--name", "S6xS6xS6"], EXIT_OK),
    (["group", "--name", "S6xS6xS6xS6xS6"], EXIT_LIMIT),
    (["group", "--name", "D300"], EXIT_OK),
    (["group", "--name", "D300xC2"], EXIT_OK),
    (["verify", "--suite", "oracles", "--budget", "0"], EXIT_LIMIT),
    (["expand", "--num", "1", "--den", "1,-10", "--terms", "5000"], EXIT_LIMIT),
    (["configs", "--kind", "point", "--m", "150", "--terms", "3000"], EXIT_LIMIT),
]


def test_integer_too_long_to_print_prints_nothing(capsys):
    # 10^4300 has 4301 digits, one more than Python converts to text by default.
    for fmt in ("text", "records"):
        argv = ["expand", "--num", "1", "--den", "1,-10", "--terms", "4300", "--format", fmt]
        assert run_cli(argv) == (EXIT_LIMIT, "")
        assert "more than 4300 decimal digits" in capsys.readouterr().err
    argv = ["expand", "--num", "1", "--den", "1,-10", "--terms", "4299"]
    assert run_cli(argv)[0] == EXIT_OK


def test_prime_too_large_to_test_is_a_usage_error(capsys):
    # psi_13 passes Miller-Rabin to every base prime_power uses; the message
    # names the bound instead of "not a prime power".
    bound = "3317044064679887385961981"
    with pytest.raises(SystemExit) as exc:
        main(["configs", "--kind", "vector", "--q", bound, "--m", "1"], out=io.StringIO())
    assert exc.value.code == EXIT_USAGE
    assert f"Miller-Rabin is exact below {bound}" in capsys.readouterr().err


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
