import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hyperchar import cli, harness
from hyperchar.cli import build_parser, main
from hyperchar.harness import ROUTES, load_fixtures, parse_fixture_line, shipped_fixture_path
from hyperchar.hyperfield import QuotientHyperfield, check_axioms

from conftest import oracle_prime_orders

README = Path(__file__).resolve().parent.parent / "README.md"


# exact stdout of `table --p-max 13`, in both formats
TABLE_13_FIXTURE = """\
2,1,{2}
3,1,{3}
3,2,{2 3}
5,1,{5}
5,2,{2 5}
5,4,{2 3}
7,1,{7}
7,2,{2 7}
7,3,{3 4 5}
7,6,{2 3}
11,1,{11}
11,2,{2 11}
11,5,{3 4 5}
11,10,{2 3}
13,1,{13}
13,2,{2 13}
13,3,{3 5 7}
13,4,{2 5}
13,6,{2 3}
13,12,{2 3}
"""
TABLE_13_JSONL = """\
{"generators": [2], "n": 1, "p": 2, "route": "dp"}
{"generators": [3], "n": 1, "p": 3, "route": "dp"}
{"generators": [2, 3], "n": 2, "p": 3, "route": "dp"}
{"generators": [5], "n": 1, "p": 5, "route": "dp"}
{"generators": [2, 5], "n": 2, "p": 5, "route": "dp"}
{"generators": [2, 3], "n": 4, "p": 5, "route": "dp"}
{"generators": [7], "n": 1, "p": 7, "route": "dp"}
{"generators": [2, 7], "n": 2, "p": 7, "route": "dp"}
{"generators": [3, 4, 5], "n": 3, "p": 7, "route": "dp"}
{"generators": [2, 3], "n": 6, "p": 7, "route": "dp"}
{"generators": [11], "n": 1, "p": 11, "route": "dp"}
{"generators": [2, 11], "n": 2, "p": 11, "route": "dp"}
{"generators": [3, 4, 5], "n": 5, "p": 11, "route": "dp"}
{"generators": [2, 3], "n": 10, "p": 11, "route": "dp"}
{"generators": [13], "n": 1, "p": 13, "route": "dp"}
{"generators": [2, 13], "n": 2, "p": 13, "route": "dp"}
{"generators": [3, 5, 7], "n": 3, "p": 13, "route": "dp"}
{"generators": [2, 5], "n": 4, "p": 13, "route": "dp"}
{"generators": [2, 3], "n": 6, "p": 13, "route": "dp"}
{"generators": [2, 3], "n": 12, "p": 13, "route": "dp"}
"""

# exact stdout of `audit --p-max 13`
AUDIT_P_MAX_13 = """\
p=  2 n=  1 classes=  2 ok
p=  3 n=  1 classes=  3 ok
p=  3 n=  2 classes=  2 ok
p=  5 n=  1 classes=  5 ok
p=  5 n=  2 classes=  3 ok
p=  5 n=  4 classes=  2 ok
p=  7 n=  1 classes=  7 ok
p=  7 n=  2 classes=  4 ok
p=  7 n=  3 classes=  3 ok
p=  7 n=  6 classes=  2 ok
p= 11 n=  1 classes= 11 ok
p= 11 n=  2 classes=  6 ok
p= 11 n=  5 classes=  3 ok
p= 11 n= 10 classes=  2 ok
p= 13 n=  1 classes= 13 ok
p= 13 n=  2 classes=  7 ok
p= 13 n=  3 classes=  5 ok
p= 13 n=  4 classes=  4 ok
p= 13 n=  6 classes=  3 ok
p= 13 n= 12 classes=  2 ok
all quotients passed
"""


def readme_commands():
    """(argv, comment) for every line of a README code block that starts with
    `hyperchar `: the command ends at the first | or #, and comment is the
    text after a # that ends it."""
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("hyperchar "):
            command, comment = re.match(r"([^|#]*)(?:#(.*))?", line).groups()
            commands.append((shlex.split(command)[1:], (comment or "").strip()))
    return commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenset:
    def test_plain_dp(self, capsys):
        code, out, _ = run_cli(capsys, "genset", "--p", "7", "--n", "3", "--route", "dp")
        assert code == 0 and out == "{3, 4, 5}\n"

    def test_plain_closed(self, capsys):
        code, out, _ = run_cli(capsys, "genset", "--p", "5", "--n", "4", "--route", "closed")
        assert code == 0 and out == "{2, 3}\n"

    def test_json_norm_includes_witnesses(self, capsys):
        code, out, _ = run_cli(
            capsys, "genset", "--p", "7", "--n", "3", "--route", "norm", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["generators"] == [3, 4, 5]
        assert record["route"] == "norm"
        for s, coeffs in record["witnesses"].items():
            assert sum(coeffs) == int(s)

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "genset", "--p", "13", "--n", "4", "--format", "csv")
        assert code == 0 and out == "13,4,dp,{2 5}\n"

    def test_route_all_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "genset", "--p", "7", "--n", "3", "--route", "all")
        assert code == 0
        assert out.splitlines() == ["closed {3, 4, 5}", "dp {3, 4, 5}", "norm {3, 4, 5}"]

    def test_route_all_disagreement_is_mismatch(self, capsys, wrong_norm_route):
        code, out, err = run_cli(capsys, "genset", "--p", "7", "--n", "3", "--route", "all")
        assert code == 1
        assert out.splitlines() == ["closed {3, 4, 5}", "dp {3, 4, 5}", "norm {3, 4}"]
        assert err == "error: routes disagree for p=7, n=3: [(3, 4), (3, 4, 5)]\n"

    def test_route_all_skips_inapplicable(self, capsys):
        code, out, _ = run_cli(capsys, "genset", "--p", "31", "--n", "6", "--route", "all")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["dp"]

    @pytest.mark.parametrize("p, n, out, skipped", [
        ("1000000000039", "3", "closed {3, 1549316, 1869973}\n", ("dp", "norm")),
        ("240007", "2", "closed {2, 240007}\nnorm {2, 240007}\n", ("dp",)),
    ], ids=["closed_left", "closed_and_norm_left"])
    def test_route_all_skips_routes_past_their_limit(self, capsys, no_walks, p, n, out, skipped):
        code, printed, err = run_cli(capsys, "genset", "--p", p, "--n", n, "--route", "all")
        assert (code, printed) == (0, out)
        assert err.splitlines() == [
            f"note: skipped {name}: the {name} route takes p <= {ROUTES[name].max_p}, got p={p}"
            for name in skipped]

    @pytest.mark.parametrize("route, p, n", [
        ("dp", "1000000000039", "3"),
        ("norm", "1000000000061", "5"),
        ("all", "1000000000061", "5"),  # only dp and norm cover n = 5
        ("dp", "240007", "2"),  # the least prime past dp's max_p
        ("norm", "1500007", "2"),  # the least prime past norm's max_p
    ])
    def test_route_past_its_limit_is_bad_args(self, capsys, no_walks, route, p, n):
        code, out, err = run_cli(capsys, "genset", "--p", p, "--n", n, "--route", route)
        assert (code, out) == (2, "")
        assert err.endswith(f"p <= {ROUTES[route].max_p}, got p={p}\n" if route != "all"
                            else f"error: no route for n={n} takes p={p}\n")

    def test_composite_p_is_bad_args(self, capsys):
        code, _, err = run_cli(capsys, "genset", "--p", "9", "--n", "2")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("p, message", [
        ("9", "--p must be prime, got 9"),
        # 2^64 - 59 is prime, but past the 2^63 limit of the primality test
        ("18446744073709551557", "--p must be a prime below 2^63, got 18446744073709551557"),
    ])
    def test_bad_p_message(self, capsys, p, message):
        code, out, err = run_cli(capsys, "genset", "--p", p, "--n", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_divisor_n_is_bad_args(self, capsys):
        code, _, err = run_cli(capsys, "genset", "--p", "7", "--n", "4")
        assert code == 2 and "divide" in err

    def test_closed_route_out_of_range_order(self, capsys):
        code, _, err = run_cli(capsys, "genset", "--p", "31", "--n", "5", "--route", "closed")
        assert code == 3 and "closed-form" in err

    def test_norm_route_composite_order(self, capsys):
        code, _, err = run_cli(capsys, "genset", "--p", "13", "--n", "4", "--route", "norm")
        assert code == 3 and "prime orders" in err

    def test_json_round_trips_through_fixture_parser(self, capsys):
        code, out, _ = run_cli(
            capsys, "genset", "--p", "31", "--n", "5", "--route", "dp", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        line = f"{record['p']},{record['n']},{{{' '.join(map(str, record['generators']))}}}"
        row = parse_fixture_line(line)
        assert (int(row.p), row.order, list(row.generators)) == (
            record["p"],
            record["n"],
            record["generators"],
        )

    def test_norm_witnesses_built_only_for_json(self, capsys, candidate_sums_calls):
        calls = candidate_sums_calls
        for fmt, expected in (("plain", 0), ("csv", 0), ("json", 1)):
            calls.clear()
            code, _, _ = run_cli(
                capsys, "genset", "--p", "7", "--n", "3", "--route", "norm", "--format", fmt
            )
            assert (code, len(calls)) == (0, expected), fmt

    def test_timing_goes_to_stderr_not_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "genset", "--p", "7", "--n", "3", "--timing"
        )
        assert code == 0 and out == "{3, 4, 5}\n" and "ms" in err

    def test_timing_is_cross_validate_time_of_routes_that_ran(self, capsys, monkeypatch, no_walks):
        comparisons = []

        def recording(*args):
            comparisons.append(harness.cross_validate(*args))
            return comparisons[-1]

        monkeypatch.setattr(cli, "cross_validate", recording)
        code, out, err = run_cli(capsys, "genset", "--p", "1000000000039", "--n", "3",
                                 "--route", "all", "--timing")
        assert (code, out) == (0, "closed {3, 1549316, 1869973}\n")
        assert len(comparisons) == 1
        timed = [line for line in err.splitlines() if line.startswith("# ")]
        assert timed == [f"# closed: {comparisons[0].timings_ms['closed']:.3f} ms"]

    @pytest.mark.parametrize("route", ["dp", "closed", "norm"])
    def test_timing_leaves_json_stdout_unchanged(self, capsys, route):
        argv = ["genset", "--p", "7", "--n", "3", "--route", route, "--format", "json"]
        code, plain, _ = run_cli(capsys, *argv)
        timed_code, timed, err = run_cli(capsys, *argv, "--timing")
        assert code == timed_code == 0
        assert timed == plain and f"# {route}: " in err


class TestTable:
    def test_stdout_smallest(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--p-max", "2")
        assert code == 0 and out == "2,1,{2}\n"

    def test_fixture_rows_parse(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--p-max", "13")
        assert code == 0
        rows = [parse_fixture_line(line) for line in out.splitlines()]
        assert all(rows)
        assert rows[0].as_line() == "2,1,{2}"

    def test_jsonl_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--p-max", "11", "--format", "jsonl")
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            fixture = f"{record['p']},{record['n']},{{{' '.join(map(str, record['generators']))}}}"
            assert parse_fixture_line(fixture) is not None

    def test_exact_stdout_both_formats(self, capsys):
        code, out, err = run_cli(capsys, "table", "--p-max", "13")
        assert (code, out, err) == (0, TABLE_13_FIXTURE, "")
        code, out, err = run_cli(capsys, "table", "--p-max", "13", "--format", "jsonl")
        assert (code, out, err) == (0, TABLE_13_JSONL, "")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.txt"
        code, out, _ = run_cli(capsys, "table", "--p-max", "7", "--output", str(target))
        assert code == 0 and out == ""
        assert len(target.read_text().splitlines()) == 10

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "table", "--p-max", "5", "--output", str(tmp_path / "no" / "dir.txt")
        )
        assert code == 4 and "cannot write" in err

    def test_bad_p_max(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--p-max", "1")
        assert code == 2

    def test_p_max_past_dp_limit_is_bad_args_before_any_row(self, capsys, tmp_path, no_walks):
        p_max = str(ROUTES["dp"].max_p + 1)
        limit = f"error: the dp route takes p <= {ROUTES['dp'].max_p}, got p_max={p_max}\n"
        assert run_cli(capsys, "table", "--p-max", p_max) == (2, "", limit)
        target = tmp_path / "rows.txt"
        assert run_cli(capsys, "table", "--p-max", p_max, "--output", str(target)) == (2, "", limit)
        assert not target.exists()


class TestVerify:
    def test_shipped_fixture_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.startswith("total=354 passed=354 failed=0")

    def test_corrupted_fixture_fails_and_names_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("7,3,{3 4 6}\n13,4,{2 5}\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(bad))
        assert code == 1
        assert "total=2 passed=1 failed=" in out
        assert "7,3,{3 4 6}" in err

    def test_corrupted_fixture_exact_output(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("7,3,{3 4 6}\n13,4,{2 5}\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(bad))
        assert code == 1
        assert out == "total=2 passed=1 failed=3\n"
        assert [line for line in err.splitlines() if not line.endswith(" ms total")] == [
            "mismatch: 7,3,{3 4 6} route=closed computed={3 4 5}",
            "mismatch: 7,3,{3 4 6} route=dp computed={3 4 5}",
            "mismatch: 7,3,{3 4 6} route=norm computed={3 4 5}",
        ]

    @pytest.mark.parametrize("row", ["7,3,{0 3 4 5}", "7,3,{-2 3}"])
    def test_non_positive_generator_is_bad_args(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.txt"
        bad.write_text(row + "\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: line 1: generators must be positive\n"

    def test_missing_fixture_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--fixture", str(tmp_path / "nope.txt"))
        assert code == 4 and "cannot read" in err

    def test_malformed_fixture_is_bad_args(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("7,3,{3 4 5}\nnot a row\n")
        code, _, err = run_cli(capsys, "verify", "--fixture", str(bad))
        assert code == 2 and "line 2" in err

    def test_undecodable_fixture_is_bad_args(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe7,3,{3 4 5}\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err

    def test_empty_fixture_warns_but_passes(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(empty))
        assert code == 0
        assert "total=0" in out and "empty" in err

    def test_routes_past_their_limit_are_skipped_with_notes(self, capsys, tmp_path, no_walks):
        big = tmp_path / "big.txt"
        big.write_text("1000000000039,3,{3 1549316 1869973}\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(big))
        assert (code, out) == (0, "total=1 passed=1 failed=0\n")
        # the skipped routes report no time: only closed ran
        notes = "".join(f"note: skipped {name}: the {name} route takes p <= {ROUTES[name].max_p}, "
                        "got p=1000000000039\n" for name in ("dp", "norm"))
        assert re.fullmatch(re.escape(notes) + r"# closed: \d+\.\d ms total\n", err), err

    def test_wrong_route_is_named_in_a_mismatch(self, capsys, tmp_path, wrong_norm_route):
        small = tmp_path / "small.txt"
        small.write_text("7,3,{3 4 5}\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(small))
        assert (code, out) == (1, "total=1 passed=0 failed=1\n")
        assert [line for line in err.splitlines() if not line.endswith(" ms total")] == [
            "mismatch: 7,3,{3 4 5} route=norm computed={3 4}"]

    def test_row_no_route_takes_is_bad_args_before_any_route_runs(self, capsys, tmp_path, no_walks):
        # under no_walks, dp on the small row would raise if any route ran
        rows = tmp_path / "rows.txt"
        rows.write_text("7,3,{3 4 5}\n1000000000061,5,{2 3}\n")
        assert run_cli(capsys, "verify", "--fixture", str(rows)) == (
            2, "", "error: no route for n=5 takes p=1000000000061\n")

    def test_value_error_inside_a_route_propagates(self, capsys, tmp_path, monkeypatch):
        def boom(p, n):
            raise ValueError("boom")

        monkeypatch.setitem(ROUTES, "dp", ROUTES["dp"]._replace(run=boom))
        small = tmp_path / "small.txt"
        small.write_text("7,3,{3 4 5}\n")
        with pytest.raises(ValueError, match="boom"):
            main(["verify", "--fixture", str(small)])

    def test_timing_summary_on_stderr(self, capsys, tmp_path):
        small = tmp_path / "small.txt"
        small.write_text("7,3,{3 4 5}\n")
        code, out, err = run_cli(capsys, "verify", "--fixture", str(small))
        assert code == 0
        assert "ms" in err and "ms" not in out


class TestConjectureCmd:
    def test_small_scan(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--n-max", "3")
        assert code == 0
        assert out == "n,a,b,prime\n3,2,1,5\n"

    def test_scan_to_101_has_50_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture", "--n-max", "101")
        assert code == 0
        assert len(out.splitlines()) == 51  # header + 50 witnesses

    def test_even_n_max_rejected(self, capsys):
        code, _, err = run_cli(capsys, "conjecture", "--n-max", "4")
        assert code == 2 and "odd" in err


class TestAudit:
    def test_exact_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--p-max", "13")
        assert code == 0
        assert out == AUDIT_P_MAX_13

    def test_failed_quotient(self, capsys, monkeypatch):
        def one_failure(H):
            report = check_axioms(H)
            if (H.p, H.order) != (5, 2):
                return report
            return dataclasses.replace(report, associativity_ok=False,
                                       counterexamples=[("associativity", (1, 2, 2))])

        monkeypatch.setattr(cli, "check_axioms", one_failure)
        code, out, _ = run_cli(capsys, "audit", "--p-max", "5")
        assert code == 1
        assert out == (
            "p=  2 n=  1 classes=  2 ok\n"
            "p=  3 n=  1 classes=  3 ok\n"
            "p=  3 n=  2 classes=  2 ok\n"
            "p=  5 n=  1 classes=  5 ok\n"
            "p=  5 n=  2 classes=  3 FAIL\n"
            "      associativity: (1, 2, 2)\n"
            "p=  5 n=  4 classes=  2 ok\n"
            "1 quotients FAILED\n"
        )

    def test_bad_p_max(self, capsys):
        code, out, err = run_cli(capsys, "audit", "--p-max", "1")
        assert code == 2 and out == ""
        assert "error: --p-max must be at least 2, got 1" in err

    @pytest.mark.parametrize("p_max", [cli.AUDIT_MAX_P + 1, 10**18])
    def test_p_max_past_the_limit_is_bad_args_before_any_quotient(self, capsys, monkeypatch, p_max):
        def refuse(H):
            raise AssertionError(f"a quotient ran at p={H.p}")

        monkeypatch.setattr(cli, "check_axioms", refuse)
        code, out, err = run_cli(capsys, "audit", "--p-max", str(p_max))
        assert code == 2 and out == ""
        assert err == f"error: audit takes --p-max <= {cli.AUDIT_MAX_P}, got {p_max}\n"

    def test_p_max_at_the_limit_runs_every_quotient(self, capsys, monkeypatch):
        # the golden bound 31 and the pinned 61 lie inside the limit
        assert 61 <= cli.AUDIT_MAX_P
        audited, ok = [], check_axioms(QuotientHyperfield(2, 1))

        def passing(H):
            audited.append((H.p, H.order))
            return ok

        monkeypatch.setattr(cli, "check_axioms", passing)
        code, out, _ = run_cli(capsys, "audit", "--p-max", str(cli.AUDIT_MAX_P))
        assert code == 0 and out.endswith("all quotients passed\n")
        assert audited == oracle_prime_orders(cli.AUDIT_MAX_P)


class TestReadme:
    COMMANDS = readme_commands()

    def test_every_command_parses(self):
        parser = build_parser()
        assert {argv[0] for argv, _ in self.COMMANDS} == {
            "genset", "table", "verify", "conjecture", "audit"}
        for argv, _ in self.COMMANDS:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: hyperchar {shlex.join(argv)}")

    def test_genset_examples_print_their_sets(self, capsys):
        examples = [(argv, comment) for argv, comment in self.COMMANDS
                    if argv[0] == "genset" and comment.startswith("{")]
        assert examples
        for argv, comment in examples:
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, comment + "\n"), argv

    def test_library_example_runs_and_shows_its_values(self):
        # a comment that opens with a lowercase word is prose; any other on an
        # expression line opens with the repr of the expression's value
        text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        claims = [line.split("#", 1) for line in block.splitlines() if "#" in line]
        claims = [(code.strip(), comment.strip()) for code, comment in claims
                  if "=" not in code and not re.match(r"[a-z]+\b(?!\()", comment.strip())]
        assert len(claims) >= 6
        for code, comment in claims:
            assert comment.startswith(repr(eval(code, namespace))), (code, comment)


class TestProcessLevel:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperchar", "genset", "--p", "7", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "{3, 4, 5}\n"

    def test_byte_identical_table_runs(self):
        env = dict(os.environ)
        outs = []
        for threads in ("1", "3"):
            env["HYPERCHAR_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "hyperchar", "table", "--p-max", "60"],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_one_worker_loads_no_pool(self, tmp_path):
        # default one-shot calls must not pay for importing the process pool
        fixture = tmp_path / "rows.txt"
        rows = [row for row in load_fixtures(shipped_fixture_path()) if row.p <= 13]
        fixture.write_text("".join(row.as_line() + "\n" for row in rows))
        script = textwrap.dedent("""\
            import sys
            from hyperchar.cli import main
            for argv in (["genset", "--p", "7", "--n", "3"], ["table", "--p-max", "13"],
                         ["verify", "--fixture", sys.argv[1]]):
                assert main(argv) == 0, argv
            print(sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                         or m == "concurrent.futures.process"), file=sys.stderr)
        """)
        env = {k: v for k, v in os.environ.items() if k != "HYPERCHAR_THREADS"}
        proc = subprocess.run([sys.executable, "-c", script, str(fixture)],
                              capture_output=True, env=env, text=True)
        assert proc.returncode == 0, proc.stderr
        assert f"total={len(rows)} passed={len(rows)} failed=0\n" in proc.stdout
        assert proc.stderr.splitlines()[-1] == "[]"

    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperchar", "genset", "--bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_bad_threads_env_is_bad_args(self):
        env = dict(os.environ, HYPERCHAR_THREADS="lots")
        for argv in (["table", "--p-max", "5"], ["verify"]):
            proc = subprocess.run(
                [sys.executable, "-m", "hyperchar", *argv],
                capture_output=True,
                env=env,
                text=True,
            )
            assert proc.returncode == 2 and proc.stdout == "", argv
            assert "HYPERCHAR_THREADS must be an integer, got 'lots'" in proc.stderr
