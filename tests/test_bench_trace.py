"""A traced benchmark pass runs against the current package.

The tracer in bench/child.py wraps the package's public functions and reads
their arguments (for instance the membership view of the set handed to the
outermost generator extraction), so an interface change can break a traced
pass while every untraced one still works. These tests run one traced pass
per workload kind in a fresh interpreter, as the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


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
    spec = dict(spec, src=str(REPO / "src"), traced=True)
    done = subprocess.run([sys.executable, str(REPO / "bench" / "child.py"), json.dumps(spec)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
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
