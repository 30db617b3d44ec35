import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchar import (
    QuotientHyperfield,
    characteristic_bitset,
    gen_set_closed_form,
    generating_set_via_norm,
    kp_representation_check,
    minimal_generating_set,
)
from hyperchar.characteristic import CharacteristicSet, FixtureRow
from hyperchar.modular import (
    EisensteinPair,
    Prime,
    TwoSquares,
    _cornacchia,
    check_order,
    cornacchia_two_squares,
    eisenstein_solutions,
    find_primitive_root,
    is_prime,
    subgroup_generator,
    subgroup_of_order,
)
from hyperchar.norm_criterion import candidate_sums, tuple_bound

from conftest import (
    SMALL_PRIMES,
    divisors,
    oracle_eisenstein_search,
    oracle_is_prime,
    oracle_subgroup,
    subgroup_pairs,
)

ORACLE_PRIMES = [p for p in range(2, 20000) if oracle_is_prime(p)]


class TestIsPrime:
    def test_agrees_with_trial_division_exhaustively(self):
        for m in range(0, 5000):
            assert is_prime(m) == oracle_is_prime(m), m

    @given(st.integers(min_value=0, max_value=10**7))
    def test_agrees_with_trial_division(self, m):
        assert is_prime(m) == oracle_is_prime(m)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)
        assert is_prime(2147483647)
        # 149491 * 747451 * 34233211, a strong pseudoprime to many small bases
        assert not is_prime(3825123056546413051)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(-1)
        with pytest.raises(ValueError):
            is_prime(2**63 + 1)


class TestPrime:
    def test_accepts_primes_and_is_an_int(self):
        p = Prime(13)
        assert p == 13 and p + 1 == 14 and isinstance(p, int)

    @pytest.mark.parametrize("bad", [0, 1, 4, 91, 561])
    def test_rejects_composites(self, bad):
        with pytest.raises(ValueError):
            Prime(bad)

    def test_the_order_rule_hands_on_a_prime(self):
        assert type(check_order(7, 3)) is Prime
        assert type(FixtureRow(7, 3, (3, 4, 5)).p) is Prime

    def test_a_prime_is_tested_once(self, monkeypatch):
        # building a Prime tests it; a Prime passed on is not tested again
        tested = []

        def counting(m):
            tested.append(m)
            return is_prime(m)

        for name, module in list(sys.modules.items()):
            if name.startswith("hyperchar") and getattr(module, "is_prime", None) is is_prime:
                monkeypatch.setattr(module, "is_prime", counting)
        primes = {m: Prime(m) for m in (13, 29, 31, 97, 2, 3, 5, 7)}
        assert tested == list(primes)
        for p in primes.values():
            assert Prime(p) is p
            for n in divisors(p - 1):
                minimal_generating_set(characteristic_bitset(p, n))
                if n <= 4:
                    gen_set_closed_form(p, n)
                if n in primes:  # the norm route at q = n
                    candidate_sums(p, primes[n])
                    generating_set_via_norm(p, primes[n])
        assert tested == list(primes)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_is_smallest_full_order_element(self, p):
        g = find_primitive_root(Prime(p))
        orders = {x: next(k for k in range(1, p) if pow(x, k, p) == 1) for x in range(1, p)}
        smallest = min(x for x, order in orders.items() if order == p - 1)
        assert g == smallest

    def test_p_equals_two(self):
        assert find_primitive_root(Prime(2)) == 1


# a composite p is a caller's error, so every route raises ValueError for it;
# AssertionError is kept for broken internal invariants
@pytest.mark.parametrize("route,p,n", [
    (gen_set_closed_form, 15, 2),
    (gen_set_closed_form, 25, 4),
    (gen_set_closed_form, 9, 1),
    (gen_set_closed_form, 21, 4),
    (gen_set_closed_form, 91, 3),
    (generating_set_via_norm, 15, 7),
    (characteristic_bitset, 15, 2),
    (subgroup_of_order, 9, 2),
    (FixtureRow, 15, 2),
    (characteristic_bitset, 9, 1),
], ids=lambda v: getattr(v, "__name__", None))
def test_composite_p_is_rejected(route, p, n):
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        route(p, n, (2,)) if route is FixtureRow else route(p, n)


# F_p/G exists only for n | p - 1; every entry point raises modular.check_order's
# one message for any other n; for a composite p too, as each checks n first
ORDER_RULE_CALLS = {
    "FixtureRow": lambda p, n: FixtureRow(p, n, (2,)),
    "CharacteristicSet": lambda p, n: CharacteristicSet(p, n, 1),
    "QuotientHyperfield": QuotientHyperfield,
    "kp_representation_check": lambda p, n: kp_representation_check(p, n, 0),
    "subgroup_of_order": subgroup_of_order,
    "subgroup_generator": subgroup_generator,
    "characteristic_bitset": characteristic_bitset,
    "gen_set_closed_form": gen_set_closed_form,
    "candidate_sums": candidate_sums,
    "generating_set_via_norm": generating_set_via_norm,
    "tuple_bound": tuple_bound,
}


@pytest.mark.parametrize("p,n", [(7, 4), (13, 5), (15, 4)])
def test_order_rule_has_one_message(p, n):
    messages = {}
    for name, call in ORDER_RULE_CALLS.items():
        with pytest.raises(ValueError) as raised:
            call(p, n)
        messages[name] = str(raised.value)
    expected = f"no subgroup of order {n} in (Z/{p}Z)^x: {n} does not divide {p - 1}"
    assert messages == dict.fromkeys(ORDER_RULE_CALLS, expected)


# past the order rule, each entry point tests p, and the norm functions q too
@pytest.mark.parametrize("p,n,names,composite", [
    (15, 7, tuple(ORDER_RULE_CALLS), 15),  # 7 divides 14
    (13, 4, ("tuple_bound", "candidate_sums", "generating_set_via_norm"), 4),  # q = 4
], ids=["15-7", "13-4"])
def test_a_composite_past_the_order_rule_is_refused(p, n, names, composite):
    messages = {}
    for name in names:
        with pytest.raises(ValueError) as raised:
            ORDER_RULE_CALLS[name](p, n)
        messages[name] = str(raised.value)
    assert messages == dict.fromkeys(names, f"{composite} is not prime")


class TestSubgroup:
    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_matches_order_filter_oracle(self, p, n):
        assert list(subgroup_of_order(Prime(p), n)) == oracle_subgroup(p, n)

    @given(st.sampled_from(subgroup_pairs(97)))
    @settings(max_examples=60)
    def test_closed_under_multiplication_and_inverse(self, pair):
        p, n = pair
        G = subgroup_of_order(Prime(p), n)
        members = set(G)
        assert 1 in members and len(members) == n
        for a in G:
            assert pow(a, n, p) == 1
            assert all(a * b % p in members for b in G)

    def test_rejects_non_divisor_order(self):
        with pytest.raises(ValueError):
            subgroup_of_order(Prime(7), 4)

    def test_trivial_subgroup(self):
        assert subgroup_of_order(Prime(11), 1) == (1,)

    @pytest.mark.parametrize("p,n", subgroup_pairs(97))
    def test_generator_without_the_elements(self, p, n):
        g = subgroup_generator(Prime(p), n)
        assert sorted(pow(g, k, p) for k in range(n)) == list(subgroup_of_order(Prime(p), n))

    def test_generator_rejects_non_divisor_order(self):
        with pytest.raises(ValueError):
            subgroup_generator(Prime(7), 4)

    def test_no_subgroup_outlives_a_table(self):
        # run in a fresh interpreter, so no cache filled by another test hides
        # a call; every tuple subgroup_of_order returns is kept, and one that
        # something else still holds has a refcount above 3 (the list, the loop
        # variable and getrefcount's argument)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = ("import gc, sys\n"
                "from hyperchar import characteristic\n"
                "from hyperchar.harness import table_rows\n"
                "built, build = [], characteristic.subgroup_of_order\n"
                "characteristic.subgroup_of_order = lambda p, n: built.append(build(p, n)) or built[-1]\n"
                "assert len(table_rows(300, workers=1)) == 515\n"
                "gc.collect()\n"
                "print(sum(sys.getrefcount(t) > 3 for t in built), len(built))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        held, total = map(int, done.stdout.split())
        assert held == 0 < total


class TestCornacchia:
    @pytest.mark.parametrize("p", [p for p in range(2, 600) if oracle_is_prime(p) and p % 4 in (1, 2)])
    def test_matches_exhaustive_search(self, p):
        sol = cornacchia_two_squares(Prime(p))
        expected = [
            (a, b)
            for a in range(1, p)
            if a * a < p
            for b in range(1, a + 1)
            if a * a + b * b == p
        ]
        assert len(expected) == 1
        assert (sol.a, sol.b) == expected[0]
        assert sol.a * sol.a + sol.b * sol.b == p

    def test_examples(self):
        assert cornacchia_two_squares(Prime(2)) == TwoSquares(1, 1)
        assert cornacchia_two_squares(Prime(5)) == TwoSquares(2, 1)
        assert cornacchia_two_squares(Prime(29)) == TwoSquares(5, 2)

    def test_rejects_three_mod_four(self):
        with pytest.raises(ValueError):
            cornacchia_two_squares(Prime(7))

    @pytest.mark.parametrize("p", [21, 25])  # 21 is no sum of two squares; 25 = 4^2 + 3^2
    def test_rejects_a_composite(self, p):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            cornacchia_two_squares(p)

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 3), (3, 3)])
    def test_root_search_ends_where_no_root_of_minus_d_has_order_k(self, p, d):
        # no unit mod 2 or 3 has order 3 or 4, so the search over c in [2, p) ends empty
        with pytest.raises(AssertionError, match=f"^no element of order {4 if d == 1 else 3} mod p={p}$"):
            _cornacchia(p, d)

    def test_matches_isqrt_scan_below_20000(self):
        for p in ORACLE_PRIMES:
            if p % 4 == 1:
                b = next(b for b in range(1, p) if math.isqrt(p - b * b) ** 2 == p - b * b)
                assert cornacchia_two_squares(Prime(p)) == TwoSquares(math.isqrt(p - b * b), b), p


class TestEisenstein:
    @pytest.mark.parametrize("p", [p for p in range(7, 600) if oracle_is_prime(p) and p % 3 == 1])
    def test_matches_exhaustive_search(self, p):
        first, second = eisenstein_solutions(Prime(p))
        expected = sorted(
            (a, b)
            for a in range(1, p)
            if a * a <= 2 * p
            for b in range(1, a)
            if a * a - a * b + b * b == p
        )
        assert [(first.a, first.b), (second.a, second.b)] == sorted(expected, key=lambda s: s[1])
        assert first.a == second.a and second.b == first.a - first.b

    def test_examples_ordering(self):
        assert eisenstein_solutions(Prime(7)) == (EisensteinPair(3, 1), EisensteinPair(3, 2))
        assert eisenstein_solutions(Prime(13)) == (EisensteinPair(4, 1), EisensteinPair(4, 3))
        assert eisenstein_solutions(Prime(19)) == (EisensteinPair(5, 2), EisensteinPair(5, 3))

    def test_rejects_wrong_congruence(self):
        with pytest.raises(ValueError):
            eisenstein_solutions(Prime(11))

    # 1 and 4, the only p = 1 (mod 3) below 7, are refused as not prime too
    @pytest.mark.parametrize("p", [1, 4, 25, 91])
    def test_rejects_a_composite(self, p):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            eisenstein_solutions(p)

    @given(st.sampled_from([p for p in range(7, 2000) if oracle_is_prime(p) and p % 3 == 1]))
    @settings(max_examples=40)
    def test_both_solutions_stay_under_two_sqrt_p(self, p):
        for sol in eisenstein_solutions(Prime(p)):
            assert sol.a + sol.b <= math.isqrt(4 * p)

    def test_matches_bounded_search_oracle_below_20000(self):
        for p in ORACLE_PRIMES:
            if p % 3 == 1 and p >= 7:
                assert eisenstein_solutions(Prime(p)) == oracle_eisenstein_search(p), p
