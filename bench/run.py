"""hyperchar benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table --seed 1 --seconds 35 --trace 0

Every timed pass runs in a fresh interpreter (bench/child.py) with
HYPERCHAR_THREADS=1, so caches start cold as in a one-shot CLI call. Passes
repeat until --seconds have gone by; every output of every pass is checked
against reference data. Times are scaled by a calibration loop timed next to
them (see child.CALIBRATION_NOMINAL_S) and each pass time is reported as
the first quartile over passes. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Any failed check makes the
exit code 1. Without the package in ./src the run stops with exit code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes nothing into the checkout
from child import CALIBRATION_NOMINAL_S, EXIT_NO_PROGRAM as CHILD_NO_PROGRAM  # noqa: E402
from child import calibration_s  # noqa: E402

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2

TABLE_P_MAX = 300
SHIPPED_BELOW = 200  # the shipped fixture covers every p < 200
SETUP_STARTS = 15
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

# kind of pass each workload runs; a genset workload draws its calls from
# bench/reference/genset.jsonl, one per slot.
WORKLOADS = {"table": "table", "verify": "verify", "genset-large": "genset"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms.p50": "ms",
    "item_ms.p95": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "modular.subgroup_ms": "ms",
    "modular.subgroup_calls": "count",
    "modular.subgroup_cache_hit_ratio": "ratio",
    "modular.quadform_ms": "ms",
    "modular.eisenstein_iters": "count.computed",
    "characteristic.dp_ms": "ms",
    "characteristic.dp_steps": "count.computed",
    "characteristic.dp_shift_ops": "count.computed",
    "characteristic.mask_bits": "bits.computed",
    "characteristic.dp_useful_ratio": "ratio.computed",
    "characteristic.extract_ms": "ms",
    "characteristic.extract_shifts": "count.computed",
    "norm_criterion.candidates_ms": "ms",
    "norm_criterion.candidate_calls": "calls/norm-call",
    "norm_criterion.witnesses_built": "count",
    "norm_criterion.witness_use_ratio": "ratio",
    "norm_criterion.closure_ms": "ms",
    "closed_form.closed_ms": "ms",
    "harness.parse_ms": "ms",
    "harness.self_ms": "ms",
    "harness.route_ms.dp": "ms",
    "harness.route_ms.closed": "ms",
    "harness.route_ms.norm": "ms",
    "cli.self_ms": "ms",
    "genset_ms.dp": "ms",
    "genset_ms.norm": "ms",
    "genset_ms.closed": "ms",
    "trace.other_ms": "ms",
    "trace.calibration_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class NoProgram(Exception):
    """The checkout has no runnable hyperchar package."""


def parse_fixture(path: Path) -> dict[tuple[int, int], tuple[int, ...]]:
    """`p,n,{g1 g2 ...}` rows, skipping blanks and # comments."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            p, n, gens = text.split(",", 2)
            rows[int(p), int(n)] = tuple(int(g) for g in gens.strip()[1:-1].split())
    return rows


def load_genset_reference() -> list[dict]:
    with open(REFERENCE / "genset.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def draw_genset_calls(workload: str, seed: int, reference: list[dict]) -> list[dict]:
    """One reference instance per slot of the workload, drawn by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    slots: dict[int, list[dict]] = {}
    for record in reference:
        if record["workload"] == workload:
            slots.setdefault(record["slot"], []).append(record)
    return [rng.choice(slots[slot]) for slot in sorted(slots)]


def genset_argv(record: dict) -> list[str]:
    return ["genset", "--p", str(record["p"]), "--n", str(record["n"]),
            "--route", record["route"], "--format", record["format"]]


def norm_mod_p(coeffs: list[int], p: int, q: int) -> int:
    """Product of f(x) over the nontrivial q-th roots of unity x in F_p.

    f(x) = sum coeffs[j] x^j. The product runs over the whole set of
    conjugates, so it does not depend on which primitive root the program
    used to write the witness.
    """
    h = 2
    while pow(h, (p - 1) // q, p) == 1:
        h += 1
    g = pow(h, (p - 1) // q, p)
    out = 1
    for i in range(1, q):
        x = pow(g, i, p)
        fx = 0
        for c in reversed(coeffs):
            fx = (fx * x + c) % p
        out = out * fx % p
    return out


def check_genset_call(record: dict, code: int, stdout: str) -> bool:
    gens = record["generators"]
    if code != 0:
        return False
    if record["format"] == "plain":
        return stdout == "{" + ", ".join(map(str, gens)) + "}\n"
    lines = stdout.splitlines()
    if len(lines) != 1 or not stdout.endswith("\n"):
        return False
    out = json.loads(lines[0])
    if json.dumps(out, sort_keys=True) != lines[0]:
        return False
    p, q = record["p"], record["n"]
    expected = {"p": p, "n": q, "route": record["route"], "generators": gens}
    witnesses = out.pop("witnesses", None)
    if out != expected or witnesses is None:
        return False
    if sorted(witnesses, key=int) != [str(s) for s in record["sums"]]:
        return False
    return all(len(w) == q - 1 and all(isinstance(c, int) and 0 <= c < p for c in w)
               and sum(w) == int(s) and norm_mod_p(w, p, q) == 0
               for s, w in witnesses.items())


class Workload:
    """The input of one workload and the check of its outputs."""

    def __init__(self, name: str, seed: int, src: Path) -> None:
        self.name, self.kind = name, WORKLOADS[name]
        self.spec: dict = {"kind": self.kind, "src": str(src)}
        shipped = parse_fixture(src / "hyperchar" / "data" / "reference_sets.txt")
        if self.kind == "table":
            self.spec["p_max"] = TABLE_P_MAX
            extra = parse_fixture(REFERENCE / "table.txt")
            self.expected = {k: v for k, v in shipped.items() if k[0] < SHIPPED_BELOW}
            self.expected.update({k: v for k, v in extra.items()
                                  if SHIPPED_BELOW <= k[0] <= TABLE_P_MAX})
            self.items = len(self.expected)
        elif self.kind == "verify":
            self.items = len(shipped)
        else:
            self.calls = draw_genset_calls(name, seed, load_genset_reference())
            self.spec["calls"] = [genset_argv(r) for r in self.calls]
            self.items = len(self.calls)

    def failures(self, output) -> int:
        """Items of one pass whose output failed its check."""
        if self.kind == "table":
            got = {(p, n): tuple(gens) for p, n, gens in output}
            wrong = sum(got.get(key) != gens for key, gens in self.expected.items())
            return min(self.items, wrong + len(got.keys() - self.expected.keys())
                       + (len(output) - len(got)))
        if self.kind == "verify":
            if output["total"] != self.items:
                return self.items
            return self.items - output["passed"]
        return sum(not check_genset_call(r, code, stdout)
                   for r, (code, stdout) in zip(self.calls, output))


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(src), HYPERCHAR_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def setup_seconds(src: Path) -> float:
    """Median calibrated time of a cold interpreter that imports hyperchar
    and parses the shipped fixture, compiling it from source as no bytecode
    cache is written. The first start, which warms the file cache, is not
    counted."""
    cmd = [sys.executable, "-c",
           "import hyperchar; hyperchar.load_fixtures(hyperchar.shipped_fixture_path())"]
    times = []
    for _ in range(SETUP_STARTS + 1):
        cal_before = calibration_s()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=child_env(src), stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise NoProgram("cold start of hyperchar failed")
        times.append(elapsed * 2 * CALIBRATION_NOMINAL_S / (cal_before + calibration_s()))
    return statistics.median(times[1:])


def low_quartile(values: list[float]) -> float:
    """First quartile of per-pass values: the statistic of every pass time.

    Other tenants of the host only ever slow a pass, and calibration removes
    most but not all of that, so a low quantile is steadier than the median
    while, unlike the minimum, one lucky pass cannot set it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def run_child(spec: dict, src: Path):
    """One pass in a fresh interpreter; None if the program crashed."""
    done = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                          env=child_env(src), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode == CHILD_NO_PROGRAM:
        raise NoProgram("the pass could not import the checkout's hyperchar")
    if done.returncode != 0:
        print(f"bench: pass exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: Workload, seconds: float, traced: bool, src: Path) -> dict:
    """Run passes for `seconds`, alternating untraced and traced ones when
    tracing; return the metrics and the counts of attempted and failed items.

    Set-up time is measured first, and only untraced, as it belongs to the
    end-to-end metrics."""
    setup_s = None if traced else setup_seconds(src)
    modes = [False, True] if traced else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = runs = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or runs < MIN_PASSES:
        runs += 1
        for mode in modes:
            result = run_child(dict(workload.spec, traced=mode), src)
            attempted += workload.items
            failed += workload.items if result is None else workload.failures(result["output"])
            if result is not None:
                passes[mode].append(result)
    plain = passes[False]
    if not plain or (traced and not passes[True]):
        return {"attempted": attempted, "failed": attempted, "metrics": {}}
    wall_s = low_quartile([r["wall_s"] for r in plain])
    if traced:
        # All per-layer values come from one traced pass, the one at the low
        # quartile of traced wall time, so its layer times and trace.other_ms
        # add up to its trace.wall_s.
        ranked = sorted(passes[True], key=lambda r: r["wall_s"])
        chosen = ranked[round((len(ranked) - 1) / 4)]
        values = dict(chosen["layers"], **{"trace.calibration_ms": chosen["calibration_ms"]})
        values["trace.overhead_frac"] = chosen["wall_s"] / wall_s - 1.0
        units = PER_LAYER
    else:
        # Percentiles of each pass's item latencies, then the low quartile over passes.
        cuts = [statistics.quantiles(r["items_ms"], n=20, method="inclusive") for r in plain]
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "item_ms.p50": low_quartile([c[9] for c in cuts]),
            "item_ms.p95": low_quartile([c[18] for c in cuts]),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    try:
        if not (src / "hyperchar" / "__init__.py").is_file():
            raise NoProgram(f"no hyperchar package under {src}")
        workload = Workload(args.workload, args.seed, src)
        result = measure(workload, args.seconds, bool(args.trace), src)
    except NoProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    correct = result["failed"] == 0 and bool(result["metrics"])
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
