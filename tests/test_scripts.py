"""The scripts under scripts/ run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args, **environ):
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def test_reproduce_tables_past_the_fixture_range():
    done = run_script("reproduce_tables.py", "--p-max", "211", "--n-max", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "16 rows past the fixture unchecked" in done.stdout
    assert done.stdout.splitlines()[-1] == "all clear"


@pytest.mark.parametrize("args,environ,message", [
    (["--p-max", "1"], {}, "--p-max must be at least 2, got 1"),
    (["--n-max", "4"], {}, "--n-max must be an odd integer >= 3, got 4"),
    ([], {"HYPERCHAR_THREADS": "two"}, "HYPERCHAR_THREADS must be an integer, got 'two'"),
], ids=["p-max-1", "n-max-even", "threads-not-integer"])
def test_reproduce_tables_rejects_bad_settings_before_work(args, environ, message):
    done = run_script("reproduce_tables.py", *args, **environ)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1].endswith("error: " + message)


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


def test_audit_axioms():
    done = run_script("audit_axioms.py", "--p-max", "13")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all quotients passed"
    assert done.stdout == AUDIT_P_MAX_13
