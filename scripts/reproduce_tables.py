#!/usr/bin/env python3
"""Recompute the shipped reference tables from scratch and report every
discrepancy, then run the witness scan.

Typical run (about a second):

    python scripts/reproduce_tables.py

Push the table bound or the scan bound up for a longer sitting; rows past
the shipped fixture's range are recomputed and counted, not checked:

    python scripts/reproduce_tables.py --p-max 500 --n-max 89441

Worker processes come from HYPERCHAR_THREADS (default 1), as for the CLI.
"""

import argparse
import sys
import time

from hyperchar.harness import (
    conjecture_scan,
    load_fixtures,
    shipped_fixture_path,
    table_rows,
    validate_fixture,
    worker_count,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-max", type=int, default=199, help="regenerate rows up to this prime")
    parser.add_argument("--n-max", type=int, default=10001, help="witness scan bound (odd)")
    args = parser.parse_args()
    if args.p_max < 2:
        parser.error(f"--p-max must be at least 2, got {args.p_max}")
    if args.n_max < 3 or args.n_max % 2 == 0:
        parser.error(f"--n-max must be an odd integer >= 3, got {args.n_max}")
    try:
        worker_count()
    except ValueError as exc:
        parser.error(str(exc))

    t0 = time.perf_counter()
    fresh = {(int(r.p), r.order): r.generators for r in table_rows(args.p_max)}
    rows = load_fixtures(shipped_fixture_path())
    covered = max(int(r.p) for r in rows)
    shipped = {(int(r.p), r.order): r.generators for r in rows if r.p <= args.p_max}
    diffs = [
        key
        for key in sorted(set(fresh) | set(shipped))
        if key[0] <= covered and fresh.get(key) != shipped.get(key)
    ]
    unchecked = sum(p > covered for p, _ in fresh)
    print(f"table rows recomputed: {len(fresh)} (p <= {args.p_max}) "
          f"in {time.perf_counter() - t0:.2f}s; diffs vs shipped fixture (p <= {covered}): "
          f"{len(diffs)}; {unchecked} rows past the fixture unchecked")
    for key in diffs:
        print(f"  {key}: shipped={shipped.get(key)} fresh={fresh.get(key)}")

    t0 = time.perf_counter()
    report = validate_fixture(rows)
    print(f"route cross-validation: {report.passed}/{report.total} rows passed "
          f"in {time.perf_counter() - t0:.2f}s")
    for row, computed, route in report.failures:
        print(f"  MISMATCH {row.as_line()} via {route}: {computed.generators}")

    t0 = time.perf_counter()
    scan = conjecture_scan(args.n_max)
    print(f"witness scan to {args.n_max}: {len(scan.verified)} witnesses, "
          f"{len(scan.failures)} failures in {time.perf_counter() - t0:.2f}s")
    for n in scan.failures:
        print(f"  COUNTEREXAMPLE: no witness for n={n}")

    ok = not diffs and not report.failures and not scan.failures
    print("all clear" if ok else "DISCREPANCIES FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
