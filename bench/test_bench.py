"""Tests of the benchmark itself: its checks catch wrong output.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py

Each test copies the benchmark (and, where needed, the package) into a
temporary checkout and runs bench/run.py there for a minimal run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_program:
        shutil.copytree(REPO / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout: Path, workload: str) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=170)
    return done.returncode, done.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _corrupt_table_row(checkout: Path) -> None:
    path = checkout / "bench" / "reference" / "table.txt"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("211,7,"))
    lines[i] = "211,7,{7 8 9}"
    path.write_text("\n".join(lines) + "\n")


def _corrupt_genset_slot(checkout: Path) -> None:
    """Make every closed-route n = 4 instance of genset-large expect a wrong set."""
    path = checkout / "bench" / "reference" / "genset.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for r in records:
        if r["route"] == "closed" and r["n"] == 4:
            r["generators"][-1] += 2
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


@pytest.mark.parametrize("workload, corrupt, share", [
    ("table", _corrupt_table_row, 1 / 515),
    ("genset-large", _corrupt_genset_slot, 1 / 6),
])
def test_wrong_expected_row_is_counted_and_fails(tmp_path, workload, corrupt, share):
    checkout = _checkout(tmp_path)
    corrupt(checkout)
    code, stdout = _run(checkout, workload)
    result = _result(stdout)
    assert code == run.EXIT_FAILED
    assert result["correct"] is False
    assert result["failed"] == pytest.approx(share * result["attempted"])


def test_clean_run_prints_every_end_to_end_metric(tmp_path):
    code, stdout = _run(_checkout(tmp_path), "genset-large")
    result = _result(stdout)
    assert code == 0
    assert (result["correct"], result["failed"]) == (True, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    code, stdout = _run(_checkout(tmp_path, with_program=False), "table")
    assert code != 0
    assert stdout.strip() == ""


def test_bad_witness_is_rejected():
    from hyperchar import cli

    record = next(r for r in run.load_genset_reference() if r["route"] == "norm")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(run.genset_argv(record))
    assert run.check_genset_call(record, code, buf.getvalue())

    out = json.loads(buf.getvalue())
    witness = next(w for w in out["witnesses"].values() if w[1] > 0)
    witness[0] += 1
    witness[1] -= 1  # same sum, nonzero norm
    assert run.norm_mod_p(witness, record["p"], record["n"]) != 0
    assert not run.check_genset_call(record, code, json.dumps(out, sort_keys=True) + "\n")
