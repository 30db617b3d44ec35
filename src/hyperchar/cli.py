"""Command-line surface: generating sets, table regeneration, fixture
verification, the conjecture scan, and the hyperfield axiom audit.

Exit codes: 0 success, 1 result mismatch, conjecture failure or failed
audit, 2 invalid arguments, 3 route not applicable to the requested order,
4 I/O failure.
Data streams are byte-deterministic: stdout never carries timing; --timing
writes it to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .harness import (
    ROUTES,
    FixtureParseError,
    FixtureRow,
    RouteLimitError,
    braced,
    conjecture_scan,
    cross_validate,
    load_fixtures,
    prime_orders,
    shipped_fixture_path,
    table_rows,
    validate_fixture,
)
from .hyperfield import QuotientHyperfield, check_axioms
from .modular import MAX_INPUT, Prime

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_ARGS = 2
EXIT_INAPPLICABLE = 3
EXIT_IO = 4

# audit checks each axiom on every triple of classes, so the trivial group
# alone costs about p^3 steps. The limit is where a whole run takes about 10 s
# (Python 3.11.7, 2 cores): --p-max 61 took 4.7 s, 79 took 9.9 s, 83 took 11.5 s.
AUDIT_MAX_P = 80

# conjecture searches a witness for every odd n up to the bound, and its cost
# grows faster than the bound. The limit is where a whole run takes about 10 s
# (Python 3.11.7, 2 cores): --n-max 200001 took 5.9-6.1 s, 300001 took
# 9.0-10.3 s, 350001 took 13.9 s.
CONJECTURE_MAX_N = 300001


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _worker_count() -> int:
    """Worker processes for `table` and `verify`: HYPERCHAR_THREADS, else 1."""
    raw = os.environ.get("HYPERCHAR_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HYPERCHAR_THREADS must be an integer, got {raw!r}") from None


def _record(fmt: str, row: FixtureRow, route: str = "dp", label: str = "", **extra) -> str:
    """One output line for row: genset's plain, csv and json, or table's fixture and
    jsonl. label prefixes a plain line; extra adds JSON fields."""
    if fmt == "plain":
        return label + braced(row.generators, ", ")
    if fmt == "fixture":
        return row.as_line()
    if fmt == "csv":
        return f"{int(row.p)},{row.order},{route},{braced(row.generators)}"
    record = {"p": int(row.p), "n": row.order, "route": route, "generators": list(row.generators)}
    return json.dumps({**record, **extra}, sort_keys=True)


def cmd_genset(args: argparse.Namespace) -> int:
    if args.p > MAX_INPUT:
        return _fail(EXIT_BAD_ARGS, f"--p must be a prime below 2^63, got {args.p}")
    try:
        p = Prime(args.p)
    except ValueError:
        return _fail(EXIT_BAD_ARGS, f"--p must be prime, got {args.p}")
    n = args.n
    if n < 1 or (p - 1) % n != 0:
        return _fail(EXIT_BAD_ARGS, f"--n must divide p-1 = {p - 1}, got {n}")

    if args.route != "all" and not ROUTES[args.route].applies(n):
        return _fail(EXIT_INAPPLICABLE, ROUTES[args.route].inapplicable.format(n=n))
    comparison = cross_validate(p, n, () if args.route == "all" else (args.route,))
    for note in comparison.notes:
        print(f"note: {note}", file=sys.stderr)
    for name, row in sorted(comparison.rows.items()):  # printed in name order
        witnesses = ROUTES[name].witnesses if args.format == "json" else None
        extra = {"witnesses": {str(s): c for s, c in witnesses(p, n).items()}} if witnesses else {}
        print(_record(args.format, row, name, f"{name} " if args.route == "all" else "", **extra))
        if args.timing:
            print(f"# {name}: {comparison.timings_ms[name]:.3f} ms", file=sys.stderr)
    if not comparison.agree:
        distinct = sorted({row.generators for row in comparison.rows.values()})
        return _fail(EXIT_MISMATCH, f"routes disagree for p={int(p)}, n={n}: {distinct}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    if args.p_max < 2:
        return _fail(EXIT_BAD_ARGS, f"--p-max must be at least 2, got {args.p_max}")
    try:
        workers = _worker_count()
    except ValueError as exc:
        return _fail(EXIT_BAD_ARGS, str(exc))
    payload = "".join(_record(args.format, row) + "\n" for row in table_rows(args.p_max, workers))
    if args.output == "-":
        sys.stdout.write(payload)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.output}: {exc}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    path = args.fixture if args.fixture else shipped_fixture_path()
    try:
        rows = load_fixtures(path)
    except FixtureParseError as exc:
        return _fail(EXIT_BAD_ARGS, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {path}: {exc}")
    if not rows:
        print("warning: fixture is empty, nothing to verify", file=sys.stderr)
    try:
        workers = _worker_count()
    except ValueError as exc:
        return _fail(EXIT_BAD_ARGS, str(exc))
    report = validate_fixture(rows, workers)
    print(f"total={report.total} passed={report.passed} failed={len(report.failures)}")
    for row, computed, route in report.failures:
        print(
            f"mismatch: {row.as_line()} route={route} computed={braced(computed.generators)}",
            file=sys.stderr,
        )
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    for route, ms in sorted(report.route_ms.items()):
        print(f"# {route}: {ms:.1f} ms total", file=sys.stderr)
    return EXIT_OK if not report.failures else EXIT_MISMATCH


def cmd_conjecture(args: argparse.Namespace) -> int:
    if args.n_max % 2 == 0 or args.n_max < 3:
        return _fail(EXIT_BAD_ARGS, f"--n-max must be odd and at least 3, got {args.n_max}")
    if args.n_max > CONJECTURE_MAX_N:
        return _fail(EXIT_BAD_ARGS, f"conjecture takes --n-max <= {CONJECTURE_MAX_N}, got {args.n_max}")
    report = conjecture_scan(args.n_max)
    print("n,a,b,prime")
    for w in report.verified:
        print(f"{w.n},{w.a},{w.b},{w.prime}")
    if report.failures:
        for n in report.failures:
            print(f"COUNTEREXAMPLE: no witness for n={n}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"# verified {len(report.verified)} odd values up to {report.n_max}", file=sys.stderr)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    if args.p_max < 2:
        return _fail(EXIT_BAD_ARGS, f"--p-max must be at least 2, got {args.p_max}")
    if args.p_max > AUDIT_MAX_P:
        return _fail(EXIT_BAD_ARGS, f"audit takes --p-max <= {AUDIT_MAX_P}, got {args.p_max}")
    failures = 0
    for p, n in prime_orders(args.p_max):
        H = QuotientHyperfield(p, n)
        report = check_axioms(H)
        verdict = "ok" if report.all_ok else "FAIL"
        print(f"p={p:>3} n={n:>3} classes={len(H.classes):>3} {verdict}")
        failures += not report.all_ok
        for axiom, witness in report.counterexamples:
            print(f"      {axiom}: {witness}")
    print(f"{failures} quotients FAILED" if failures else "all quotients passed")
    return EXIT_MISMATCH if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperchar",
        description="Generating sets of characteristic submonoids of quotient hyperfields F_p/G.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_genset = sub.add_parser("genset", help="compute one generating set")
    p_genset.add_argument("--p", type=int, required=True, help="prime modulus")
    p_genset.add_argument("--n", type=int, required=True, help="subgroup order, must divide p-1")
    p_genset.add_argument("--route", choices=(*ROUTES, "all"), default="dp")
    p_genset.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p_genset.add_argument("--timing", action="store_true", help="report timing on stderr")
    p_genset.set_defaults(func=cmd_genset)

    p_table = sub.add_parser("table", help="emit rows for all primes up to a bound")
    p_table.add_argument("--p-max", type=int, required=True)
    p_table.add_argument("--format", choices=("fixture", "jsonl"), default="fixture")
    p_table.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="cross-validate a fixture file")
    p_verify.add_argument("--fixture", default=None, help="fixture path (default: shipped reference)")
    p_verify.set_defaults(func=cmd_verify)

    p_conj = sub.add_parser("conjecture", help="scan odd n for Gaussian-prime witnesses")
    p_conj.add_argument("--n-max", type=int, required=True)
    p_conj.set_defaults(func=cmd_conjecture)

    p_audit = sub.add_parser("audit", help="check the hyperfield axioms on every F_p/G")
    p_audit.add_argument("--p-max", type=int, required=True)
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RouteLimitError as exc:  # raised before any route runs
        return _fail(EXIT_BAD_ARGS, str(exc))


if __name__ == "__main__":
    sys.exit(main())
