"""The scripts under scripts/ run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def test_reproduce_tables_past_the_fixture_range():
    done = run_script("reproduce_tables.py", "--p-max", "211", "--n-max", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "16 rows past the fixture unchecked" in done.stdout
    assert done.stdout.splitlines()[-1] == "all clear"


def test_audit_axioms():
    done = run_script("audit_axioms.py", "--p-max", "7")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all quotients passed"
