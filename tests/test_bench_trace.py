"""Benchmark passes run against the current package.

The tracer in bench/child.py wraps the package's public functions and reads
their arguments (for instance the membership view of the set handed to the
outermost generator extraction), so an interface change can break a traced
pass while every untraced one still works. An untraced pass counts one item
each time a marked function returns (`ITEM_END` in bench/child.py), so an
interface change can also leave it with no item latencies. These tests run
traced and untraced passes in a fresh interpreter, as the benchmark does.
bench/make_reference.py reads route results directly as well, so the last
tests check its pieces against the reference data it wrote, without calling
its main(), which would rewrite that data.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))
sys.path.insert(0, str(REPO / "src"))

import make_reference  # noqa: E402
from hyperchar import Prime, cross_validate  # noqa: E402


def _run_pass(spec: dict) -> dict:
    spec = dict(spec, src=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "bench" / "child.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("spec,layer", [
    ({"kind": "table", "p_max": 40}, "characteristic.extract_shifts"),
    ({"kind": "genset",
      "calls": [["genset", "--p", "31", "--n", "5", "--route", "norm", "--format", "json"]]},
     "norm_criterion.closure_ms"),
    ({"kind": "genset",
      "calls": [["genset", "--p", "1000000000039", "--n", "3", "--route", "closed",
                 "--format", "plain"]]},
     "modular.quadform_ms"),
    ({"kind": "verify"}, "harness.route_ms.norm"),
], ids=["table", "genset-norm-json", "genset-closed", "verify"])
def test_traced_pass_reports_layers(spec, layer):
    result = _run_pass(dict(spec, traced=True))
    assert result["layers"] is not None
    assert result["layers"][layer] > 0
    if spec["kind"] == "table":
        assert [7, 3, [3, 4, 5]] in result["output"]
    elif spec["kind"] == "verify":
        assert result["output"] == {"total": 354, "passed": 354}
    elif "closed" in spec["calls"][0]:
        assert result["output"] == [[0, "{3, 1549316, 1869973}\n"]]
    else:
        assert [code for code, _ in result["output"]] == [0]
        assert json.loads(result["output"][0][1])["generators"] == [5, 6, 7, 8, 9]


@pytest.mark.parametrize("spec,items", [
    ({"kind": "table", "p_max": 40}, 58),
    ({"kind": "verify"}, 354),
], ids=["table", "verify"])
def test_untraced_pass_times_every_item(spec, items):
    result = _run_pass(dict(spec, traced=False))
    assert result["layers"] is None
    assert len(result["items_ms"]) == items
    if spec["kind"] == "table":
        assert len(result["output"]) == items
        assert [7, 3, [3, 4, 5]] in result["output"]
    else:
        assert result["output"] == {"total": 354, "passed": 354}


def _first_reference_record(slot: int) -> dict:
    with open(REPO / "bench" / "reference" / "genset.jsonl", encoding="utf-8") as fh:
        return next(r for r in map(json.loads, fh) if r["slot"] == slot)


# slots 0 and 1 are left out, as their dp calls take about a second each
@pytest.mark.parametrize("slot", [2, 3, 4, 5])
def test_make_reference_routes_match_genset_reference(slot):
    record = _first_reference_record(slot)
    results = make_reference.route_results(record["p"], record["n"])
    assert record["route"] in results
    assert set(results.values()) == {tuple(record["generators"])}


def test_make_reference_table_line_matches_shipped_row():
    comparison = cross_validate(Prime(211), 7)
    # formatted as make_reference.main() writes each table.txt line
    gens = " ".join(map(str, comparison.results["dp"]))
    line = f"211,7,{{{gens}}}"
    shipped = (REPO / "bench" / "reference" / "table.txt").read_text(encoding="utf-8")
    assert comparison.agree
    assert line in shipped.splitlines()
