"""Golden CLI output: exact bytes of `genset` for every route combination.

These pin the `--route all` output order (closed, dp, norm), the
inapplicable-route messages and exit code, and the argparse choices order
(dp, closed, norm, all), so refactoring the route dispatch cannot shift a
byte of what users see.
"""

import hashlib

import pytest

from hyperchar.cli import main
from hyperchar.harness import shipped_fixture_path

WITNESS_7_3 = '"witnesses": {"4": [1, 3], "5": [3, 2], "6": [5, 1]}'
WITNESS_11_5 = (
    '"witnesses": {"10": [8, 0, 1, 1], "3": [2, 0, 0, 1], "4": [2, 1, 1, 0], '
    '"5": [3, 2, 0, 0], "6": [4, 0, 0, 2], "7": [6, 0, 1, 0], "8": [7, 1, 0, 0], '
    '"9": [6, 0, 0, 3]}'
)

GOLDEN_ALL = {
    (7, 3, "plain"): "closed {3, 4, 5}\ndp {3, 4, 5}\nnorm {3, 4, 5}\n",
    (7, 3, "csv"): "7,3,closed,{3 4 5}\n7,3,dp,{3 4 5}\n7,3,norm,{3 4 5}\n",
    (7, 3, "json"): (
        '{"generators": [3, 4, 5], "n": 3, "p": 7, "route": "closed"}\n'
        '{"generators": [3, 4, 5], "n": 3, "p": 7, "route": "dp"}\n'
        '{"generators": [3, 4, 5], "n": 3, "p": 7, "route": "norm", ' + WITNESS_7_3 + "}\n"
    ),
    (13, 4, "plain"): "closed {2, 5}\ndp {2, 5}\n",
    (13, 4, "csv"): "13,4,closed,{2 5}\n13,4,dp,{2 5}\n",
    (13, 4, "json"): (
        '{"generators": [2, 5], "n": 4, "p": 13, "route": "closed"}\n'
        '{"generators": [2, 5], "n": 4, "p": 13, "route": "dp"}\n'
    ),
    (11, 5, "plain"): "dp {3, 4, 5}\nnorm {3, 4, 5}\n",
    (11, 5, "csv"): "11,5,dp,{3 4 5}\n11,5,norm,{3 4 5}\n",
    (11, 5, "json"): (
        '{"generators": [3, 4, 5], "n": 5, "p": 11, "route": "dp"}\n'
        '{"generators": [3, 4, 5], "n": 5, "p": 11, "route": "norm", ' + WITNESS_11_5 + "}\n"
    ),
    (31, 6, "plain"): "dp {2, 3}\n",
    (31, 6, "csv"): "31,6,dp,{2 3}\n",
    (31, 6, "json"): '{"generators": [2, 3], "n": 6, "p": 31, "route": "dp"}\n',
}

# sha256 of the stdout of `genset --route norm --format json` on larger inputs,
# where the witnesses come from the q = 3 formula and, for q >= 5, from the
# offset-distance table; pinned from the earlier kept-mask backtrack
GOLDEN_NORM_JSON_SHA256 = {
    (1021, 3): "d6c2b1f5f112a094f20b4d38c45f5b9a3a6dbc24f34278da88ed525ca01e5e4e",
    (953, 7): "aa833713da8e07c46dc72bccc8bee452e2e3f6605a4950db614fdffe2af05eb3",
    (1907, 953): "ac0f5d271bd1e895a6b2d0eaca3cefe94a14593554bbbd13af2fa164dd1719c2",
    (20011, 5): "b491cbbe9ae90938f4d4342ca3d07667b46e7884e277755078ec4cd40dcbaea0",
}

# sha256 of the stdout of `table --p-max 300` (515 rows, every n | p-1 for p <= 300)
TABLE_300_SHA256 = "bae72773dbe87eb9521b741258d22371adf5b1f3e69df766de9b95c03ad925b2"

# sha256 of the stdout of `audit --p-max 31` (49 quotients and the summary line)
AUDIT_31_SHA256 = "ac39751d4f850a47648fccc256a21093f420b77b7f368744030bbf4bc0a71594"

GENSET_HELP = """\
usage: hyperchar genset [-h] --p P --n N [--route {dp,closed,norm,all}]
                        [--format {plain,csv,json}] [--timing]

options:
  -h, --help            show this help message and exit
  --p P                 prime modulus
  --n N                 subgroup order, must divide p-1
  --route {dp,closed,norm,all}
  --format {plain,csv,json}
  --timing              report timing on stderr
"""


@pytest.mark.parametrize("p,n,fmt", sorted(GOLDEN_ALL))
def test_route_all_exact_stdout(capsys, p, n, fmt):
    code = main(["genset", "--p", str(p), "--n", str(n), "--route", "all", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == GOLDEN_ALL[(p, n, fmt)]
    assert captured.err == ""


@pytest.mark.parametrize("p,n", sorted(GOLDEN_NORM_JSON_SHA256))
def test_large_norm_json_digest(capsys, p, n):
    code = main(["genset", "--p", str(p), "--n", str(n), "--route", "norm", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_NORM_JSON_SHA256[(p, n)]
    assert captured.err == ""


def test_table_300_digest(capsys):
    code = main(["table", "--p-max", "300"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 515
    assert hashlib.sha256(captured.out.encode()).hexdigest() == TABLE_300_SHA256
    assert captured.err == ""


def test_audit_31_digest(capsys):
    code = main(["audit", "--p-max", "31"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.splitlines()) == 50
    assert hashlib.sha256(captured.out.encode()).hexdigest() == AUDIT_31_SHA256
    assert captured.err == ""


def test_table_199_is_the_shipped_fixture(capsys):
    code = main(["table", "--p-max", "199"])
    captured = capsys.readouterr()
    with open(shipped_fixture_path(), encoding="utf-8") as fh:
        shipped = "".join(line for line in fh if not line.startswith("#"))
    assert code == 0
    assert captured.out == shipped
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "31", "--n", "5", "--route", "closed"],
         "error: closed-form route covers orders 1..4 only, got n=5\n"),
        (["--p", "13", "--n", "4", "--route", "norm"],
         "error: norm route covers prime orders only, got n=4\n"),
    ],
)
def test_inapplicable_route_exact_stderr(capsys, argv, message):
    code = main(["genset", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == message


def test_genset_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["genset", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == GENSET_HELP
