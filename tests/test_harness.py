import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchar import harness
from hyperchar.harness import (
    ROUTES,
    ConjectureWitness,
    FixtureParseError,
    FixtureRow,
    conjecture_scan,
    cross_validate,
    find_witness,
    load_fixtures,
    parse_fixture_line,
    prime_orders,
    shipped_fixture_path,
    table_rows,
    validate_fixture,
)
from hyperchar.modular import Prime, is_prime

from conftest import oracle_is_prime, oracle_prime_orders, regenerate, subgroup_pairs

BENCH_TABLE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "table.txt"


def _shipped_lines() -> list[str]:
    text = shipped_fixture_path().read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


# each malformed row and the words its error must carry
MALFORMED_ROWS = [
    ("7,3", "expected 'p,n,{...}'"),  # missing set
    ("7,3,[3 4 5]", "brace-delimited"),  # wrong delimiters
    ("8,1,{8}", "8 is not prime"),
    ("7,4,{2}", "does not divide"),
    ("15,4,{2}", "does not divide"),  # the order rule before primality
    ("7,3,{5 4 3}", "strictly increasing"),  # not sorted
    ("7,3,{3 3 4}", "strictly increasing"),  # duplicate generator
    ("x,3,{3}", "invalid literal"),  # not an integer
    ("7,3,{0 3 4 5}", "positive"),  # zero generator
    ("7,3,{-2 3}", "positive"),  # negative generator
]
ROUTE_CASES = [(line, name) for line in _shipped_lines()
               for name in ROUTES if ROUTES[name].applies(parse_fixture_line(line).order)]


class TestFixtureParsing:
    @pytest.mark.parametrize(
        "line,expected",
        [
            ("7,3,{3 4 5}", (7, 3, (3, 4, 5))),
            ("5,2,{2 5}", (5, 2, (2, 5))),
            ("2,1,{2}", (2, 1, (2,))),
        ],
    )
    def test_well_formed_rows(self, line, expected):
        row = parse_fixture_line(line)
        assert (int(row.p), row.order, row.generators) == expected

    def test_comments_and_blanks_skipped(self):
        assert parse_fixture_line("# header") is None
        assert parse_fixture_line("   ") is None

    @pytest.mark.parametrize("line,message", MALFORMED_ROWS, ids=[line for line, _ in MALFORMED_ROWS])
    def test_malformed_rows_raise(self, line, message):
        # the row checks run in a fixed order: order, then sorted, then positive
        with pytest.raises(FixtureParseError, match="^line 17: .*" + re.escape(message)):
            parse_fixture_line(line, lineno=17)

    def test_error_names_the_line(self):
        with pytest.raises(FixtureParseError, match="line 17"):
            parse_fixture_line("oops", lineno=17)

    def test_load_from_lines(self):
        rows = load_fixtures(["# c", "7,3,{3 4 5}", "", "5,2,{2 5}"])
        assert len(rows) == 2

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("7,3,{3 4 5}\nbad line\n")
        with pytest.raises(FixtureParseError, match="line 2"):
            load_fixtures(path)

    @given(st.sampled_from(subgroup_pairs(61)))
    @settings(max_examples=50, deadline=None)
    def test_row_round_trips_through_its_own_line(self, pair):
        p, n = pair
        from hyperchar.characteristic import characteristic_bitset, minimal_generating_set

        gens = minimal_generating_set(characteristic_bitset(Prime(p), n)).generators
        row = FixtureRow(p=Prime(p), order=n, generators=gens)
        assert parse_fixture_line(row.as_line()) == row


class TestShippedFixtures:
    def test_shipped_fixture_covers_every_pair_exactly_once(self):
        rows = load_fixtures(shipped_fixture_path())
        keys = [(int(r.p), r.order) for r in rows]
        expected = subgroup_pairs(199)
        assert keys == expected  # sorted, complete, no duplicates
        assert len(keys) == 354

    def test_small_orders_fixture_agrees_with_the_full_one(self):
        full_table = {
            (int(r.p), r.order): r.generators
            for r in load_fixtures(shipped_fixture_path())
        }
        small = load_fixtures(shipped_fixture_path("small_orders.txt"))
        assert len(small) == 64
        for row in small:
            assert full_table[(int(row.p), row.order)] == row.generators

    def test_small_orders_fixture_has_orders_one_through_four(self):
        small = load_fixtures(shipped_fixture_path("small_orders.txt"))
        assert {r.order for r in small} == {1, 2, 3, 4}

    @pytest.mark.parametrize("line,name", ROUTE_CASES,
                             ids=[f"{line.split(',{')[0]}-{name}" for line, name in ROUTE_CASES])
    def test_route_returns_the_fixture_row(self, line, name):
        # a route's answer is the row itself, which prints as the fixture line
        row = parse_fixture_line(line)
        computed = ROUTES[name].run(row.p, row.order)
        assert computed == row
        assert computed.as_line() == line

    @pytest.mark.parametrize("path", [shipped_fixture_path(), BENCH_TABLE],
                             ids=["reference_sets", "bench_table"])
    def test_even_orders_have_two_generators(self, path):
        """Every even-n row is {2, m} with m odd.

        For even n the cyclic group (Z/pZ)^x puts its one element of order 2,
        -1, in G, so 1 + (-1) = 0 makes 2 a member, and the least one, since
        a single element of G is never 0. Every even s is then a member. Let
        m be the least odd member (p copies of 1 make p one). Adding 2 to a
        member gives a member, so the odd members are exactly m + 2k, k >= 0,
        and S = <2, m>. m is odd, so no sum of 2s: the minimal generators are
        (2, m).
        """
        even = [row for row in load_fixtures(path) if row.order % 2 == 0]
        assert len(even) > 50
        for row in even:
            assert len(row.generators) == 2 and row.generators[0] == 2, row.as_line()
            assert row.generators[1] % 2 == 1, row.as_line()



# Forty primes drawn once from [2000, 6000] (random.Random(2018).sample) and
# kept as literals, so a failure replays exactly.
LARGE_PRIMES = (
    2087, 2111, 2131, 2153, 2267, 2311, 2467, 2521, 2677, 2767, 2797, 2897, 2939, 3221,
    3331, 3373, 3643, 3767, 3779, 3853, 3881, 3931, 4091, 4177, 4211, 4217, 4259, 4451,
    4517, 4547, 4567, 4637, 4657, 4663, 4801, 4861, 5153, 5233, 5273, 5657,
)
# order 4 and every prime order up to 37 that divides p - 1; orders 2 and 3
# run the closed route too
LARGE_CASES = [(p, n) for p in LARGE_PRIMES for n in range(2, 38)
               if (p - 1) % n == 0 and (n == 4 or is_prime(n))]

# every (p, n) with p <= 500: 894 pairs
SWEEP_PAIRS = subgroup_pairs(500)


class TestCrossValidate:
    @pytest.mark.parametrize("p,n", LARGE_CASES)
    def test_routes_agree_past_the_fixture(self, p, n):
        # closed against dp for n <= 4, norm against dp for prime n, at p
        # beyond the fixture and the brute-force oracles
        comparison = cross_validate(Prime(p), n)
        assert comparison.agree, comparison.results

    @pytest.mark.parametrize("p,n", SWEEP_PAIRS)
    def test_routes_agree_and_obey_theorems_that_need_no_route(self, p, n):
        # every route that applies agrees with dp; then p ones sum to 0; the
        # q-th roots of unity in G sum to 0 for a prime q | n; and by
        # Cauchy-Davenport every s >= ceil((p-1)/(n-1)) is a member, so a
        # generator g past that plus the least one m is m + (g - m)
        comparison = cross_validate(Prime(p), n)
        assert comparison.agree, comparison.results
        generators = comparison.results["dp"]
        member = regenerate(generators, p)
        assert member[p]
        assert all(member[q] for q in range(2, n + 1) if n % q == 0 and oracle_is_prime(q))
        if n >= 2:
            assert max(generators) < -(-(p - 1) // (n - 1)) + min(generators)

    def test_example_13_4(self):
        comparison = cross_validate(Prime(13), 4)
        assert comparison.agree
        assert comparison.results["dp"] == (2, 5)
        assert set(comparison.results) == {"dp", "closed"}

    def test_example_61_3(self):
        comparison = cross_validate(Prime(61), 3)
        assert comparison.agree
        assert all(gens == (3, 13, 14) for gens in comparison.results.values())
        assert set(comparison.results) == {"dp", "closed", "norm"}

    def test_example_3_1(self):
        comparison = cross_validate(Prime(3), 1)
        assert comparison.agree
        assert comparison.results["dp"] == (3,)

    def test_routes_past_their_limit_are_skipped(self, no_walks):
        comparison = cross_validate(Prime(1000000000039), 3)
        assert comparison.results == {"closed": (3, 1549316, 1869973)}
        assert comparison.agree
        assert comparison.notes == tuple(
            f"skipped {name}: the {name} route takes p <= {ROUTES[name].max_p}, got p=1000000000039"
            for name in ("dp", "norm"))

    def test_an_unknown_route_is_refused_before_any_route_runs(self, monkeypatch):
        def refuse(p, n):
            raise AssertionError(f"a route ran at p={p}, n={n}")

        monkeypatch.setitem(harness.ROUTES, "dp", harness.ROUTES["dp"]._replace(run=refuse))
        with pytest.raises(ValueError, match="^unknown route 'bogus': the routes are dp, closed, norm$"):
            cross_validate(Prime(7), 3, ("dp", "bogus"))

    def test_notes_mark_p_as_generator(self):
        # p is a generator for n in {1, 2} as expected, so no note
        assert cross_validate(Prime(7), 2).notes == ()
        assert cross_validate(Prime(7), 3).notes == ()

    def test_a_wrong_route_disagrees(self, wrong_norm_route):
        comparison = cross_validate(Prime(7), 3)
        assert comparison.agree is False
        assert comparison.results == {"closed": (3, 4, 5), "dp": (3, 4, 5), "norm": (3, 4)}

    def test_note_for_unexpected_p_generator(self, monkeypatch):
        monkeypatch.setitem(harness.ROUTES, "dp", harness.Route(
            lambda n: True, lambda p, n: FixtureRow(p, n, (3, 7))))
        assert cross_validate(Prime(7), 3).notes == (
            "p=7 appears as a generator (unexpected for n=3)",)


class TestValidateFixture:
    def test_clean_rows_pass(self):
        rows = load_fixtures(["7,3,{3 4 5}", "13,4,{2 5}", "3,1,{3}"])
        report = validate_fixture(rows)
        assert (report.total, report.passed, report.failures) == (3, 3, [])

    def test_corrupted_row_is_named(self):
        rows = load_fixtures(["7,3,{3 4 6}"])
        report = validate_fixture(rows)
        assert report.passed == 0 and report.total == 1
        bad_row, computed, route = report.failures[0]
        assert bad_row.as_line() == "7,3,{3 4 6}"
        assert computed.generators == (3, 4, 5)

    def test_passed_plus_failures_accounts_for_total(self):
        rows = load_fixtures(["7,3,{3 4 6}", "13,4,{2 5}"])
        report = validate_fixture(rows)
        failing_rows = {(int(f[0].p), f[0].order) for f in report.failures}
        assert report.passed + len(failing_rows) == report.total

    def test_norm_rows_build_no_witnesses(self, candidate_sums_calls):
        rows = [r for r in load_fixtures(shipped_fixture_path()) if r.p < 40 and is_prime(r.order)]
        report = validate_fixture(rows, workers=1)
        assert report.total == report.passed == len(rows) > 5
        assert report.route_ms["norm"] > 0
        assert candidate_sums_calls == []

    def test_parallel_and_serial_agree(self):
        rows = load_fixtures(shipped_fixture_path())[:40]
        # every seventh row made wrong, so that the order of failures shows
        rows[3::7] = [FixtureRow(r.p, r.order, r.generators + (10**6,)) for r in rows[3::7]]
        serial = validate_fixture(rows, workers=1)
        parallel = validate_fixture(rows, workers=2)
        assert serial.total == parallel.total == 40
        assert serial.passed == parallel.passed == 40 - len(rows[3::7])
        assert serial.failures == parallel.failures
        failed = [(int(row.p), row.order) for row, _, _ in serial.failures]
        assert failed == sorted(failed) and len(set(failed)) == len(rows[3::7])


class TestWorkerCap:
    """The pool never gets more workers than CPUs or items. A fake pool
    records the requested size, so no process is started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created = []

        class FakePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # _map_items imports the pool class only when it starts one, so the
        # fake goes where that import reads it
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        return created

    @pytest.mark.parametrize(
        "requested,cpus,items,expected",
        [
            (64, 4, 10, [4]),
            (64, 4, 3, [3]),
            (2, 4, 10, [2]),
            (64, None, 10, []),
            (64, 4, 1, []),
            (1, 4, 10, []),
        ],
    )
    def test_pool_size_is_capped(self, pools, monkeypatch, requested, cpus, items, expected):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        out = harness._map_items(abs, list(range(-items, 0)), requested)
        assert out == list(range(items, 0, -1))
        assert pools == expected

    def test_library_ignores_threads_env(self, pools, monkeypatch):
        # HYPERCHAR_THREADS is read by the CLI; library callers pass workers=
        monkeypatch.setenv("HYPERCHAR_THREADS", "2")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        rows = table_rows(13)
        assert validate_fixture(rows).passed == len(rows)
        assert pools == []
        assert table_rows(13, workers=2) == rows
        assert validate_fixture(rows, workers=2).passed == len(rows)
        assert pools == [2, 2]


class TestTableRows:
    def test_smallest_table(self):
        rows = table_rows(2)
        assert [r.as_line() for r in rows] == ["2,1,{2}"]

    def test_p_max_7_has_ten_rows(self):
        rows = table_rows(7)
        assert len(rows) == 10  # divisor counts of p-1: 1+2+3+4
        assert [r.as_line() for r in rows][:3] == ["2,1,{2}", "3,1,{3}", "3,2,{2 3}"]

    def test_matches_shipped_fixture(self):
        rows = table_rows(199)
        shipped = load_fixtures(shipped_fixture_path())
        assert rows == shipped

    def test_rejects_tiny_p_max(self):
        with pytest.raises(ValueError):
            table_rows(1)

    def test_prime_orders_match_every_n_oracle(self):
        assert prime_orders(2000) == oracle_prime_orders(2000)


class TestConjecture:
    def test_witness_examples(self):
        assert find_witness(3) == ConjectureWitness(3, 2, 1, 5)
        assert find_witness(7) == ConjectureWitness(7, 5, 2, 29)

    def test_scan_small(self):
        report = conjecture_scan(101)
        assert report.failures == ()
        assert len(report.verified) == 50

    def test_witness_invariants(self):
        report = conjecture_scan(301)
        for w in report.verified:
            assert w.a + w.b == w.n and w.a >= w.b >= 1
            assert w.a * w.a + w.b * w.b == w.prime
            assert is_prime(w.prime) and oracle_is_prime(w.prime)

    def test_rejects_even_or_tiny(self):
        with pytest.raises(ValueError):
            conjecture_scan(100)
        with pytest.raises(ValueError):
            conjecture_scan(1)
