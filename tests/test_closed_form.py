import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchar.characteristic import characteristic_bitset, minimal_generating_set
from hyperchar.closed_form import ClosedFormUnavailable, gen_set_closed_form
from hyperchar.modular import Prime, cornacchia_two_squares, eisenstein_solutions, is_prime

from conftest import oracle_is_prime

BENCH_GENSET = Path(__file__).resolve().parent.parent / "bench" / "reference" / "genset.jsonl"

# The largest prime below 2^63, the top of the `Prime` range, that is 1 (mod 12),
# so both quadratic forms apply.
TOP_PRIME_1_MOD_12 = 9223372036854775549


def applicable_pairs(p_cap):
    return [
        (p, n)
        for p in range(2, p_cap)
        if oracle_is_prime(p)
        for n in (1, 2, 3, 4)
        if (p - 1) % n == 0
    ]


class TestKnownValues:
    @pytest.mark.parametrize(
        "p,n,expected",
        [
            (7, 3, (3, 4, 5)),
            (29, 4, (2, 7)),
            (3, 2, (2, 3)),
            (5, 4, (2, 3)),
            (2, 1, (2,)),
            (13, 3, (3, 5, 7)),
            (151, 3, (3, 19, 23)),
            (149, 4, (2, 17)),
        ],
    )
    def test_reference_sets(self, p, n, expected):
        assert gen_set_closed_form(Prime(p), n).generators == expected


class TestAgainstTableRoute:
    @pytest.mark.parametrize("p,n", applicable_pairs(200))
    def test_matches_dp(self, p, n):
        prime = Prime(p)
        closed = gen_set_closed_form(prime, n)
        dp = minimal_generating_set(characteristic_bitset(prime, n))
        assert closed == dp, (p, n)


class TestFormulaProperties:
    def test_order_four_sum_is_odd(self):
        for p, n in applicable_pairs(500):
            if n == 4:
                gens = gen_set_closed_form(Prime(p), n).generators
                assert gens[0] == 2
                assert all(g % 2 == 1 for g in gens[1:]), p

    def test_order_three_generators_below_two_sqrt_p(self):
        for p, n in applicable_pairs(500):
            if n == 3:
                gens = gen_set_closed_form(Prime(p), n).generators
                assert gens[0] == 3
                assert all(g <= math.isqrt(4 * p) for g in gens[1:]), p


class TestErrors:
    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            gen_set_closed_form(Prime(7), 4)

    def test_rejects_unsupported_order(self):
        with pytest.raises(ClosedFormUnavailable):
            gen_set_closed_form(Prime(11), 5)
        with pytest.raises(ClosedFormUnavailable):
            gen_set_closed_form(Prime(31), 6)

    def test_unsupported_order_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            gen_set_closed_form(Prime(11), 5)


def check_closed_route(p):
    sq = cornacchia_two_squares(Prime(p))
    assert sq.a * sq.a + sq.b * sq.b == p and sq.a > sq.b > 0
    first, second = eisenstein_solutions(Prime(p))
    for sol in (first, second):
        assert sol.a * sol.a - sol.a * sol.b + sol.b * sol.b == p and sol.a > sol.b > 0
    assert first.companion == second and first.b < second.b
    three = gen_set_closed_form(Prime(p), 3).generators
    four = gen_set_closed_form(Prime(p), 4).generators
    assert three[0] == 3 and four[0] == 2 and len(four) == 2 and four[1] % 2 == 1
    assert all(g <= math.isqrt(4 * p) for g in three + four), p


class TestWholePrimeRange:
    """Both quadratic forms, hence the closed route, cover every p below 2^63."""

    @given(st.integers(min_value=2**62 - 2**40, max_value=2**62 + 2**40))
    @settings(max_examples=25, deadline=None)
    def test_primes_near_two_to_the_62(self, start):
        p = start + (1 - start) % 12
        while not is_prime(p):
            p += 12
        check_closed_route(p)

    def test_top_prime(self):
        assert is_prime(TOP_PRIME_1_MOD_12) and TOP_PRIME_1_MOD_12 % 12 == 1
        assert not any(is_prime(m) for m in range(TOP_PRIME_1_MOD_12 + 12, 2**63, 12))
        check_closed_route(TOP_PRIME_1_MOD_12)

    def test_benchmark_reference_instances(self):
        rows = [json.loads(line) for line in BENCH_GENSET.read_text().splitlines()]
        closed = [r for r in rows if r["route"] == "closed"]
        assert len(closed) == 14
        for r in closed:
            assert gen_set_closed_form(Prime(r["p"]), r["n"]).generators == tuple(r["generators"]), r
