"""Fixture-driven verification and the Gaussian-witness conjecture scan.

The shipped fixtures are the single transcription point for reference data;
nothing else in the package hardcodes table rows. A row is the FixtureRow
that every route returns (defined in characteristic and re-exported here,
with braced). cross_validate alone selects, bounds (by max_p), runs, times and
compares routes; genset prints its rows, validate_fixture checks them.
Work items are independent and are built in (p, n) order; results come back
in input order, serially or from the pool, so output is deterministic no
matter how many workers ran. The pool and its imports load only when more
than one worker will run, so default one-shot calls do not pay for them.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .characteristic import FixtureRow, braced, characteristic_bitset, minimal_generating_set
from .closed_form import gen_set_closed_form
from .modular import MAX_INPUT, Prime, is_prime
from .norm_criterion import candidate_sums, generating_set_via_norm


class Route(NamedTuple):
    """Which orders n a route covers, how it runs (to the row of (p, n)), the
    error text (formatted with n) for an order it does not cover, any JSON
    audit witnesses, and the largest p it takes (by default every p < 2^63)."""

    applies: Callable[[int], bool]
    run: Callable[[Prime, int], FixtureRow]
    inapplicable: str = ""
    witnesses: Optional[Callable[[Prime, int], dict]] = None
    max_p: int = MAX_INPUT


# Each walking route takes p up to where its small orders finish `genset` in
# about 10 s (Python 3.11.7, 2 cores). dp: n = 2 took 9.3 s at p = 239999 and
# 14 s at 250007. norm: JSON output, which builds a witness per residue, took
# 8.1-9.0 s at q = 5, 7, 11, 13 near p = 1.5e6 and 11-14 s near 2e6; plain
# output at q = 2, 3, 5, 7 took under 0.5 s near 1.5e6. Both limits bound p
# alone: a dp step shifts once per subgroup element and a norm BFS level once
# per step 1 - g^j, so large orders cost more (norm at q = (p-1)/2 took 4.1 s
# at p = 240587 and 135 s at 1000667). A cost limit per (p, n) waits for the
# dp's level mask, fewer than 2p shifts for any n (ROADMAP item 2, after 1a).
DP_MAX_P = 240_000
NORM_MAX_P = 1_500_000

# The one table of routes. The lambdas look the route functions up at call
# time, so rebinding a module name (as a tracer does) reaches every caller.
ROUTES = {
    "dp": Route(lambda n: True, lambda p, n: minimal_generating_set(characteristic_bitset(p, n)),
                max_p=DP_MAX_P),
    "closed": Route(lambda n: n in (1, 2, 3, 4), lambda p, n: gen_set_closed_form(p, n),
                    "closed-form route covers orders 1..4 only, got n={n}"),
    "norm": Route(is_prime, lambda p, n: generating_set_via_norm(p, Prime(n)),
                  "norm route covers prime orders only, got n={n}",
                  lambda p, n: candidate_sums(p, Prime(n)).witnesses, NORM_MAX_P),
}


class FixtureParseError(ValueError):
    """Malformed fixture content; message names the offending line."""


class RouteLimitError(ValueError):
    """No requested route takes p; raised before any route runs."""


@dataclass
class RouteComparison:
    """cross_validate's rows and times (ms) by route, their agreement and notes."""

    rows: dict[str, FixtureRow]
    agree: bool
    notes: tuple[str, ...]
    timings_ms: dict[str, float]

    @property
    def results(self) -> dict[str, tuple[int, ...]]:
        return {name: row.generators for name, row in self.rows.items()}


@dataclass
class ValidationReport:
    total: int
    passed: int
    failures: list[tuple[FixtureRow, FixtureRow, str]]
    notes: tuple[str, ...] = ()
    route_ms: dict[str, float] = field(default_factory=dict)


class ConjectureWitness(NamedTuple):
    n: int
    a: int
    b: int
    prime: int


@dataclass
class ConjectureReport:
    n_max: int
    verified: tuple[ConjectureWitness, ...]
    failures: tuple[int, ...]


def parse_fixture_line(line: str, lineno: int = 0) -> Optional[FixtureRow]:
    """One `p,n,{g1 g2 ... gk}` row, or None for blanks and # comments."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    where = f"line {lineno}" if lineno else "input"
    parts = text.split(",", 2)
    if len(parts) != 3:
        raise FixtureParseError(f"{where}: expected 'p,n,{{...}}', got {text!r}")
    p_text, n_text, set_text = (part.strip() for part in parts)
    if not (set_text.startswith("{") and set_text.endswith("}")):
        raise FixtureParseError(f"{where}: generator set must be brace-delimited, got {set_text!r}")
    try:
        p = Prime(int(p_text))
        n = int(n_text)
        gens = tuple(int(tok) for tok in set_text[1:-1].split())
        return FixtureRow(p=p, order=n, generators=gens)
    except ValueError as exc:
        raise FixtureParseError(f"{where}: {exc}") from exc


def load_fixtures(source: Union[str, Path, Iterable[str]]) -> list[FixtureRow]:
    """Parse a fixture file (or iterable of lines) into rows.

    Errors carry the 1-based line number of the first malformed row, or the
    file name if the file is not UTF-8 text.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise FixtureParseError(f"{source}: not UTF-8 text ({exc})") from exc
    else:
        lines = list(source)
    rows = []
    for lineno, line in enumerate(lines, start=1):
        row = parse_fixture_line(line, lineno)
        if row is not None:
            rows.append(row)
    return rows


def shipped_fixture_path(name: str = "reference_sets.txt") -> Path:
    """Path of a reference fixture bundled with the package."""
    return Path(__file__).parent / "data" / name


def _select_routes(p: int, n: int, names=()) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """names (default: the routes that apply to n) that take p, and a note per route skipped."""
    names = tuple(names) or tuple(name for name, route in ROUTES.items() if route.applies(n))
    limits = {r: f"the {r} route takes p <= {ROUTES[r].max_p}, got p={p}" for r in names}
    chosen = tuple(name for name in names if p <= ROUTES[name].max_p)
    if not chosen:
        raise RouteLimitError(f"no route for n={n} takes p={p}" if names[1:] else limits[names[0]])
    return chosen, tuple(f"skipped {name}: {limits[name]}" for name in names if name not in chosen)


def cross_validate(p: Prime, n: int, names: Iterable[str] = ()) -> RouteComparison:
    """Run and compare the named routes (default: all that apply to n). One past
    its max_p is skipped with a note, or if none is left RouteLimitError is raised.

    Disagreements are reported, never raised. A note records p itself among
    the generators when n is not 1 or 2, the only orders that have p there.
    """
    chosen, notes = _select_routes(int(p), n, names)
    rows: dict[str, FixtureRow] = {}
    timings: dict[str, float] = {}
    for name in chosen:
        t0 = time.perf_counter()
        rows[name] = ROUTES[name].run(p, n)
        timings[name] = (time.perf_counter() - t0) * 1000.0
    distinct = {row.generators for row in rows.values()}
    if n not in (1, 2) and any(int(p) in gens for gens in distinct):
        notes += (f"p={int(p)} appears as a generator (unexpected for n={n})",)
    return RouteComparison(rows, len(distinct) == 1, notes, timings)


def _validate_row(row: FixtureRow) -> RouteComparison:
    return cross_validate(row.p, row.order)


def _table_row(item: tuple[int, int]) -> FixtureRow:
    p, n = item
    return ROUTES["dp"].run(Prime(p), n)


def _map_items(fn, items, workers: int):
    # the fork start method launches every worker up front, so never ask for
    # more than there are CPUs or items
    workers = min(workers, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def validate_fixture(rows: list[FixtureRow], workers: int = 1) -> ValidationReport:
    """Cross-validate every fixture row (RouteLimitError, before any route runs, if
    no route takes one); a row passes only if all routes that ran agree with the
    fixture. Rows run in `workers` processes; 1 or less runs them in this one."""
    rows = sorted(rows, key=lambda row: (row.p, row.order, row.generators))
    for row in rows:
        _select_routes(int(row.p), row.order)
    comparisons = _map_items(_validate_row, rows, workers)

    failures: list[tuple[FixtureRow, FixtureRow, str]] = []
    notes: list[str] = []
    route_ms: dict[str, float] = {}
    passed = 0
    for row, comparison in zip(rows, comparisons):
        wrong = [(row, computed, route) for route, computed in sorted(comparison.rows.items())
                 if computed.generators != row.generators]
        failures.extend(wrong)
        passed += not wrong
        for route, ms in comparison.timings_ms.items():
            route_ms[route] = route_ms.get(route, 0.0) + ms
        notes.extend(comparison.notes)
    return ValidationReport(total=len(rows), passed=passed, failures=failures,
                            notes=tuple(notes), route_ms=route_ms)


def table_rows(p_max: int, workers: int = 1) -> list[FixtureRow]:
    """DP-route generating sets for every prime p <= p_max and every n | p-1,
    sorted by (p, n), computed in `workers` processes as for validate_fixture."""
    if p_max < 2:
        raise ValueError(f"p_max must be at least 2, got {p_max}")
    if p_max > ROUTES["dp"].max_p:
        raise RouteLimitError(f"the dp route takes p <= {ROUTES['dp'].max_p}, got p_max={p_max}")
    return _map_items(_table_row, prime_orders(p_max), workers)


def prime_orders(p_max: int) -> list[tuple[int, int]]:
    """Every (p, n) with p <= p_max prime and n | p-1, in (p, n) order: each
    divisor d <= sqrt(p-1) and its cofactor (p-1)/d."""
    pairs = []
    for p in filter(is_prime, range(2, p_max + 1)):
        small = [d for d in range(1, math.isqrt(p - 1) + 1) if (p - 1) % d == 0]
        large = [(p - 1) // d for d in reversed(small) if d * d != p - 1]
        pairs += [(p, n) for n in small + large]
    return pairs


def find_witness(n: int) -> Optional[ConjectureWitness]:
    """First (a, b), a >= b >= 1, a + b = n, with a^2 + b^2 prime, scanning a
    upward; None if no split of n works."""
    for a in range((n + 1) // 2, n):
        b = n - a
        candidate = a * a + b * b
        if is_prime(candidate):
            return ConjectureWitness(n=n, a=a, b=b, prime=candidate)
    return None


def conjecture_scan(n_max: int) -> ConjectureReport:
    """Search a Gaussian-prime witness for every odd n in [3, n_max].

    A witness a + b = n with a^2 + b^2 prime exhibits, through the order-4
    closed form, a quotient hyperfield whose generating set is {2, n}. Any
    n with no witness at all is recorded as a failure (a counterexample).
    """
    if n_max < 3 or n_max % 2 == 0:
        raise ValueError(f"n_max must be an odd integer >= 3, got {n_max}")
    verified = []
    failures = []
    for n in range(3, n_max + 1, 2):
        witness = find_witness(n)
        if witness is None:
            failures.append(n)
        else:
            verified.append(witness)
    return ConjectureReport(n_max=n_max, verified=tuple(verified), failures=tuple(failures))
