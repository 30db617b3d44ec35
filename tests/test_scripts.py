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
