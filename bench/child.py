"""One timed pass of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/child.py '<spec as JSON>'

The spec names the workload kind ("table", "verify" or "genset"), its input,
the checkout's `src` directory and whether to trace. A fresh process per pass
means every pass starts with cold caches, as a one-shot `hyperchar` call does.
The pass prints one JSON object on stdout: its wall time, per-item latencies,
outputs for the parent to check, its peak RSS and, when traced, per-layer
self times and counts.

Tracing wraps public functions from outside the package. `from .x import y`
copies a name into the importing module, so each function is rebound in every
`hyperchar` module whose namespace holds it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

# Exit code for a pass that could not start: the package is missing or not the
# checkout's own copy. The parent then stops without printing a result.
EXIT_NO_PROGRAM = 3

# Each traced function and the per-layer time metric its self time goes to.
LAYERS = {
    "modular.find_primitive_root": "modular.subgroup_ms",
    "modular.subgroup_of_order": "modular.subgroup_ms",
    "modular.eisenstein_solutions": "modular.quadform_ms",
    "modular.cornacchia_two_squares": "modular.quadform_ms",
    "characteristic.characteristic_bitset": "characteristic.dp_ms",
    "characteristic.minimal_generating_set": "characteristic.extract_ms",
    "characteristic.monoid_minimal_generators": "characteristic.extract_ms",
    "norm_criterion.candidate_sums": "norm_criterion.candidates_ms",
    "norm_criterion.generating_set_via_norm": "norm_criterion.closure_ms",
    "closed_form.gen_set_closed_form": "closed_form.closed_ms",
    "harness.load_fixtures": "harness.parse_ms",
    "harness.table_rows": "harness.self_ms",
    "harness.validate_fixture": "harness.self_ms",
    "harness.cross_validate": "harness.self_ms",
    "cli.main": "cli.self_ms",
}
EXTRACT = ("characteristic.minimal_generating_set", "characteristic.monoid_minimal_generators")

# The call whose every return completes one item of a library workload.
ITEM_END = {"table": "characteristic.minimal_generating_set", "verify": "harness.cross_validate"}

CACHED = ("modular.find_primitive_root", "modular.subgroup_of_order")

CALIBRATION_LOOPS = 200_000
# The calibration loop's time on an idle core of the reference machine (a
# 2-vCPU VM running Python 3.11.7). Times are scaled by this over the loop's
# time measured next to them, so they read as seconds on that machine at that
# speed: other tenants of a shared host slow a run by 20% or more, changing
# within seconds, and the scaling removes most of that.
CALIBRATION_NOMINAL_S = 0.016
# Untraced passes pause to calibrate at the first item end after this much
# time, so each stretch of work is scaled by calibrations taken close to it.
SEGMENT_NS = 250_000_000


def calibration_s() -> float:
    """Seconds taken by a fixed pure-Python loop: the benchmark's yardstick of
    how fast the machine runs at the moment. It uses no program code."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times one pass in reference seconds.

    The pass is cut into segments at item ends; the clock stops while it
    calibrates between segments, and each segment's items are scaled by the
    mean of the calibrations on either side of it.
    """

    def __init__(self, segment_ns: float) -> None:
        self.segment_ns = segment_ns
        self.cals = [calibration_s()]
        self.items_ms: list[float] = []
        self.wall_s = 0.0
        self._pending: list[int] = []
        self.start = self._resume = self._segment_start = time.perf_counter_ns()

    def item_end(self) -> None:
        now = time.perf_counter_ns()
        self._pending.append(now - self._resume)
        self._resume = now
        if now - self._segment_start >= self.segment_ns:
            self._calibrate(now)

    def stop(self) -> None:
        self.end = time.perf_counter_ns()
        self._calibrate(self.end)

    def _calibrate(self, now: int) -> None:
        self.cals.append(calibration_s())
        factor = 2 * CALIBRATION_NOMINAL_S / (self.cals[-2] + self.cals[-1])
        self.items_ms += [ns / 1e6 * factor for ns in self._pending]
        self.wall_s += (now - self._segment_start) / 1e9 * factor
        self._pending = []
        self._resume = self._segment_start = time.perf_counter_ns()


def import_program(src: str):
    """Import the checkout's package; return its modules and functions by `module.name`."""
    sys.path.insert(0, src)
    try:
        import hyperchar
        from hyperchar import characteristic, cli, closed_form, harness, modular, norm_criterion
    except ImportError as exc:
        print(f"bench: cannot import hyperchar from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if Path(hyperchar.__file__).resolve().parent.parent != Path(src).resolve():
        print(f"bench: imported {hyperchar.__file__}, not the copy in {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in
               (characteristic, cli, closed_form, harness, modular, norm_criterion)}
    fns = {}
    for qual in LAYERS:
        mod, name = qual.split(".")
        fn = getattr(modules[mod], name, None)
        if fn is None:
            print(f"bench: {qual} is gone; its time falls to its caller", file=sys.stderr)
        else:
            fns[qual] = fn
    return modules, fns


def rebind(original, replacement) -> None:
    """Replace `original` in every hyperchar module namespace that binds it."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("hyperchar"):
            for name in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, name, replacement)


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, args, kwargs, result].

    Span 0 is the pass itself; a span's parent is the index of the span open
    when it started.
    """

    def __init__(self) -> None:
        self.spans: list = [["pass", 0, 0, -1, (), {}, None]]
        self._stack = [0]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1], args, kwargs, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                span[6] = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return span[6]

        return traced

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans[1:]:
            child_ns[parent] += end - start
        return [end - start - child_ns[i] for i, (_, start, end, *_) in enumerate(self.spans)]


def _arguments(fn, span) -> dict:
    bound = inspect.signature(fn).bind(*span[4], **span[5])
    bound.apply_defaults()
    return bound.arguments


def _members(arg) -> int:
    """Members in [1, bound] of a CharacteristicSet or a membership sequence."""
    member = getattr(arg, "member", arg)
    return sum(map(bool, member)) - bool(member[0])


def layer_metrics(tracer: Tracer, fns: dict, printed_witnesses: int, route_ms: dict) -> dict:
    """Per-layer self times and counts of one traced pass.

    The counts named computed are derived from the inputs of the traced calls,
    not measured inside the program: a DP call on p bits with bound B is
    charged B steps whether or not it could have stopped earlier.
    """
    spans = tracer.spans
    out = {metric: 0.0 for metric in LAYERS.values()}
    for span, ns in zip(spans[1:], tracer.self_ns()[1:]):
        out[LAYERS[span[0]]] += ns / 1e6
    out["trace.other_ms"] = tracer.self_ns()[0] / 1e6
    out["trace.wall_s"] = (spans[0][2] - spans[0][1]) / 1e9

    calls = {qual: [s for s in spans[1:] if s[0] == qual] for qual in LAYERS}
    steps = shift_ops = useful = mask_bits = 0
    for span in calls["characteristic.characteristic_bitset"]:
        a = _arguments(fns["characteristic.characteristic_bitset"], span)
        p, n = int(a["p"]), int(a["n"])
        bound = 2 * p if a.get("bound") is None else int(a["bound"])
        steps += bound
        shift_ops += n * (bound - 1)
        # Cauchy-Davenport: |kG| >= min(p, k(n-1)+1), so the reachable set is
        # full by step ceil((p-1)/(n-1)); the trivial group never saturates.
        useful += bound if n <= 1 else min(bound, -(-(p - 1) // (n - 1)))
        mask_bits = max(mask_bits, p)
    extract_shifts = sum(_members(s[4][0] if s[4] else next(iter(s[5].values())))
                         for qual in EXTRACT for s in calls[qual]
                         if spans[s[3]][0] not in EXTRACT)
    iters = sum(math.isqrt(4 * int(_arguments(fns["modular.eisenstein_solutions"], s)["p"]) // 3)
                for s in calls["modular.eisenstein_solutions"])
    info = getattr(fns.get("modular.subgroup_of_order"), "cache_info", None)
    hits, misses = (info().hits, info().misses) if info else (0, 0)
    built = sum(len(getattr(s[6], "witnesses", ())) for s in calls["norm_criterion.candidate_sums"])
    norm_calls = len(calls["norm_criterion.generating_set_via_norm"])
    out.update({
        "modular.subgroup_calls": len(calls["modular.subgroup_of_order"]),
        "modular.subgroup_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "modular.eisenstein_iters": iters,
        "characteristic.dp_steps": steps,
        "characteristic.dp_shift_ops": shift_ops,
        "characteristic.mask_bits": mask_bits,
        "characteristic.dp_useful_ratio": useful / steps if steps else 0.0,
        "characteristic.extract_shifts": extract_shifts,
        "norm_criterion.candidate_calls": (len(calls["norm_criterion.candidate_sums"]) / norm_calls
                                           if norm_calls else 0.0),
        "norm_criterion.witnesses_built": built,
        "norm_criterion.witness_use_ratio": printed_witnesses / built if built else 0.0,
        "harness.route_ms.dp": route_ms.get("dp", 0.0),
        "harness.route_ms.closed": route_ms.get("closed", 0.0),
        "harness.route_ms.norm": route_ms.get("norm", 0.0),
    })
    return out


def _printed_witnesses(calls: list, outputs: list) -> int:
    return sum(len(json.loads(line).get("witnesses", {}))
               for argv, (_, stdout) in zip(calls, outputs)
               if argv[argv.index("--format") + 1] == "json" for line in stdout.splitlines())


def run_pass(spec: dict) -> dict:
    modules, fns = import_program(spec["src"])
    harness, cli = modules["harness"], modules["cli"]
    kind, traced = spec["kind"], spec["traced"]
    tracer = Tracer() if traced else None
    if traced:
        for qual, fn in fns.items():
            rebind(fn, tracer.wrap(qual, fn))
    elif kind in ITEM_END and ITEM_END[kind] in fns:
        end_fn = fns[ITEM_END[kind]]

        def marked(*args, **kwargs):
            result = end_fn(*args, **kwargs)
            clock.item_end()
            return result

        rebind(end_fn, marked)
    clears = [getattr(fns.get(qual), "cache_clear", lambda: None) for qual in CACHED]

    route_ms: dict = {}
    # A traced pass is timed as one segment, so no calibration falls inside its spans.
    clock = Clock(math.inf if traced else SEGMENT_NS)
    if kind == "table":
        rows = harness.table_rows(spec["p_max"], workers=1)
        clock.stop()
        output = [[int(r.p), r.order, list(r.generators)] for r in rows]
    elif kind == "verify":
        report = harness.validate_fixture(harness.load_fixtures(harness.shipped_fixture_path()),
                                          workers=1)
        clock.stop()
        route_ms = dict(report.route_ms)
        output = {"total": report.total, "passed": report.passed}
    else:
        output = []
        for argv in spec["calls"]:
            for clear in clears:
                clear()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
                clock.item_end()
            output.append([code, buf.getvalue()])
        clock.stop()

    result = {
        "wall_s": clock.wall_s,
        "items_ms": clock.items_ms,
        "calibration_ms": statistics.median(clock.cals) * 1000,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": output,
        "layers": None,
    }
    if tracer:
        tracer.spans[0][1:3] = clock.start, clock.end
        printed = _printed_witnesses(spec["calls"], output) if kind == "genset" else 0
        factor = 2 * CALIBRATION_NOMINAL_S / (clock.cals[0] + clock.cals[-1])
        layers = {name: value * factor if "_ms" in name or name.endswith("_s") else value
                  for name, value in layer_metrics(tracer, fns, printed, route_ms).items()}
        # summed CLI time per route of the genset calls
        for route in ("dp", "norm", "closed"):
            layers[f"genset_ms.{route}"] = sum(
                ms for argv, ms in zip(spec.get("calls", []), clock.items_ms)
                if argv[argv.index("--route") + 1] == route)
        result["layers"] = layers
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
