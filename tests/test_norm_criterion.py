import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchar import characteristic, norm_criterion
from hyperchar.characteristic import FixtureRow, characteristic_bitset, minimal_generating_set
from hyperchar.harness import load_fixtures, shipped_fixture_path
from hyperchar.modular import Prime, subgroup_generator
from hyperchar.norm_criterion import candidate_sums, generating_set_via_norm, tuple_bound

from conftest import (as_mask, coin_mask, fp_norm, oracle_candidate_sums,
                      oracle_convolution_generators, oracle_is_prime,
                      oracle_kept_mask_candidate_sums, oracle_saturating_walk,
                      reduce_cyclotomic_coeffs, regenerate)

PRIME_ORDER_PAIRS = [
    (p, q)
    for q in (2, 3, 5, 7, 11)
    for p in range(3, 200)
    if oracle_is_prime(p) and (p - 1) % q == 0
]

# every prime q | p-1 for every prime p < 400
ALL_PRIME_ORDERS_400 = [
    (p, q)
    for p in range(3, 400)
    if oracle_is_prime(p)
    for q in range(2, p)
    if oracle_is_prime(q) and (p - 1) % q == 0
]

# every prime q | p-1 for every prime p < 1000, except q = 3: its formula is
# checked against the full walk above, and its kept-mask walk is O(p^2) per pair
KEPT_MASK_PAIRS_1000 = [
    (p, q)
    for p in range(3, 1000)
    if oracle_is_prime(p)
    for q in range(2, p)
    if q != 3 and oracle_is_prime(q) and (p - 1) % q == 0
]

# every prime q >= 5 dividing p - 1 for every prime p < 2000
SATURATING_PAIRS_2000 = [
    (p, q)
    for p in range(3, 2000)
    if oracle_is_prime(p)
    for q in range(5, p)
    if oracle_is_prime(q) and (p - 1) % q == 0
]

# the rows of the shipped fixture whose order is prime
PRIME_ORDER_ROWS = [row for row in load_fixtures(shipped_fixture_path()) if oracle_is_prime(row.order)]

# the norm-route instances of the genset-large benchmark workload
GENSET_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "genset.jsonl"
BENCH_NORM_PAIRS = sorted({
    (record["p"], record["n"])
    for record in map(json.loads, GENSET_REFERENCE.read_text().splitlines())
    if record["route"] == "norm"
})


@pytest.fixture
def closure_coins(monkeypatch):
    """Coin masks the norm route hands to the closing loop, one per call."""
    original = norm_criterion._generate
    coins = []

    def recording(given):
        coins.append(given)
        return original(given)

    monkeypatch.setattr(norm_criterion, "_generate", recording)
    return coins


class TestFpNorm:
    def test_zero_polynomial(self):
        assert fp_norm([0, 0], Prime(7), Prime(3)) == 0

    def test_vanishing_example(self):
        # f(x) = 1 + 3x at the canonical cube root g=2: f(2) = 7 = 0 mod 7
        assert fp_norm([1, 3], Prime(7), Prime(3)) == 0

    def test_nonvanishing_example(self):
        # f(2) = 3, f(4) = 5, product 15 = 1 mod 7
        assert fp_norm([1, 1], Prime(7), Prime(3)) == 1

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            fp_norm([1, 2, 3], Prime(7), Prime(3))

    def test_rejects_invalid_q(self):
        with pytest.raises(ValueError):
            fp_norm([1, 1, 1], Prime(7), 4)
        with pytest.raises(ValueError):
            fp_norm([1, 1], Prime(11), Prime(3))  # 3 does not divide 10

    def test_constant_polynomial_norm_is_a_power(self):
        # f = c has norm c^(q-1)
        p, q = Prime(31), Prime(5)
        for c in range(1, 7):
            coeffs = [c] + [0] * (q - 2)
            assert fp_norm(coeffs, p, q) == pow(c, q - 1, p)

    @given(
        st.sampled_from([(7, 3), (13, 3), (31, 5), (11, 5), (29, 7)]),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_multiplicative_on_reduced_products(self, pq, data):
        p, q = Prime(pq[0]), Prime(pq[1])
        left = data.draw(st.lists(st.integers(0, p - 1), min_size=q - 1, max_size=q - 1))
        right = data.draw(st.lists(st.integers(0, p - 1), min_size=q - 1, max_size=q - 1))
        # multiply as polynomials mod x^q - 1, then reduce back to q-1 coefficients
        product = [0] * q
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                product[(i + j) % q] = (product[(i + j) % q] + a * b) % p
        reduced = reduce_cyclotomic_coeffs(product, p)
        assert fp_norm(reduced, p, q) == fp_norm(left, p, q) * fp_norm(right, p, q) % p


class TestReduction:
    def test_preserves_conjugate_evaluations(self):
        p, q = Prime(13), Prime(3)
        g = subgroup_generator(p, 3)
        full = [5, 7, 11]
        reduced = reduce_cyclotomic_coeffs(full, p)
        for i in range(1, q):
            x = pow(g, i, p)
            val_full = sum(c * pow(x, j, p) for j, c in enumerate(full)) % p
            val_red = sum(c * pow(x, j, p) for j, c in enumerate(reduced)) % p
            assert val_full == val_red


class TestCandidateSums:
    def test_example_7_3(self):
        cand = candidate_sums(Prime(7), Prime(3))
        assert set(cand.sums) >= {4, 5, 6}
        assert cand.witnesses[4] in {(1, 3), (3, 1)} or sum(cand.witnesses[4]) == 4

    def test_example_13_3_contains_5_and_7(self):
        cand = candidate_sums(Prime(13), Prime(3))
        assert {5, 7} <= set(cand.sums)

    def test_example_31_5_contains_7_8_9(self):
        cand = candidate_sums(Prime(31), Prime(5))
        assert {7, 8, 9} <= set(cand.sums)

    @pytest.mark.parametrize("p,q", [(7, 3), (13, 3), (31, 5), (23, 11), (29, 7), (11, 2)])
    def test_witnesses_are_valid(self, p, q):
        p, q = Prime(p), Prime(q)
        cand = candidate_sums(p, q)
        for s in cand.sums:
            witness = cand.witnesses[s]
            assert len(witness) == q - 1
            assert all(0 <= a <= p - 1 for a in witness)
            assert sum(witness) == s
            assert fp_norm(witness, p, q) == 0

    def test_sums_stay_in_range(self):
        for p, q in [(31, 5), (43, 7), (23, 11)]:
            cand = candidate_sums(Prime(p), Prime(q))
            assert all(1 <= s <= p - 1 for s in cand.sums)

    def test_conjugate_invariance(self):
        # replacing g by any other generator of the same subgroup leaves the
        # candidate set unchanged
        for p, q in [(31, 5), (29, 7), (13, 3)]:
            h = subgroup_generator(Prime(p), q)
            base = set(candidate_sums(Prime(p), Prime(q)).sums)
            for i in range(2, q):
                powers = [pow(h, i * j, p) for j in range(q - 1)]
                reach = {0}
                hits = set()
                for s in range(1, p):
                    reach = {(r + g) % p for r in reach for g in powers}
                    if 0 in reach:
                        hits.add(s)
                assert hits == base, (p, q, i)

    def test_rejects_composite_order(self):
        with pytest.raises(ValueError):
            candidate_sums(Prime(13), 4)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            candidate_sums(Prime(13), Prime(5))

    def test_order_two_has_no_sums(self):
        cand = candidate_sums(Prime(11), Prime(2))
        assert cand.sums == ()

    @pytest.mark.parametrize("p,q", ALL_PRIME_ORDERS_400 + BENCH_NORM_PAIRS)
    def test_matches_full_walk_oracle(self, p, q):
        # sums and every witness tuple, against the backtrack through all p masks
        assert candidate_sums(Prime(p), Prime(q)) == oracle_candidate_sums(p, q)

    @pytest.mark.parametrize("p,q", KEPT_MASK_PAIRS_1000)
    def test_matches_kept_mask_oracle(self, p, q):
        # sums and every witness tuple, against the backtrack through the k0 + 1
        # masks of the saturating walk
        assert candidate_sums(Prime(p), Prime(q)) == oracle_kept_mask_candidate_sums(p, q)

    def test_peak_memory_near_the_result(self):
        # one witness tuple per residue, shared by the result: at large q the
        # peak must not hold a second copy of the witnesses
        tracemalloc.start()
        try:
            cand = candidate_sums(Prime(1907), Prime(953))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cand.sums) > 0 and peak <= 1.25 * retained, (peak, retained)


class TestLevelBfs:
    @pytest.mark.parametrize("p,q", SATURATING_PAIRS_2000)
    def test_candidates_match_saturating_walk(self, closure_coins, p, q):
        generating_set_via_norm(Prime(p), Prime(q))
        sums = oracle_saturating_walk(p, q)[2]
        assert closure_coins == [coin_mask((p, q, *sums))]

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in SATURATING_PAIRS_2000 if p < 1000])
    def test_ends_by_the_cauchy_davenport_level(self, monkeypatch, p, q):
        # the q - 1 sums 0, e_1, ..., e_{q-2} of at most one step are distinct,
        # so by Cauchy-Davenport level k covers min(p, k(q-2)+1) residues
        original, drawn = norm_criterion._levels, []

        def counting(*args):
            count = 0
            for level in original(*args):
                count += 1
                yield level
            drawn.append(count)

        monkeypatch.setattr(norm_criterion, "_levels", counting)
        generating_set_via_norm(Prime(p), Prime(q))
        candidate_sums(Prime(p), Prime(q))
        assert len(drawn) == 2
        assert max(drawn) <= math.ceil((p - 1) / (q - 2)), (drawn, p, q)

    @pytest.mark.parametrize("row", PRIME_ORDER_ROWS, ids=FixtureRow.as_line)
    def test_no_route_runs_the_residue_walk(self, monkeypatch, row):
        # the norm route shares no kernel with the dp, so the two routes agree
        # as independent computations
        def forbidden(*args):
            raise AssertionError("the norm route ran the dp's residue walk")

        original = characteristic.characteristic_bitset
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("hyperchar"):
                for name in [k for k, v in vars(module).items() if v is original]:
                    monkeypatch.setattr(module, name, forbidden)
        p, q = row.p, Prime(row.order)
        assert generating_set_via_norm(p, q) == row
        coins = (p, q, *candidate_sums(p, q).sums)
        assert oracle_convolution_generators(as_mask(regenerate(coins, 2 * p))) == row.generators


class TestGeneratingSetViaNorm:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (7, 3, (3, 4, 5)),
            (31, 5, (5, 6, 7, 8, 9)),
            (11, 2, (2, 11)),
            (13, 3, (3, 5, 7)),
        ],
    )
    def test_reference_sets(self, p, q, expected):
        assert generating_set_via_norm(Prime(p), Prime(q)).generators == expected

    def test_rejects_composite_order(self):
        with pytest.raises(ValueError):
            generating_set_via_norm(Prime(13), 4)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            generating_set_via_norm(Prime(13), Prime(5))

    @pytest.mark.parametrize("p,q", ALL_PRIME_ORDERS_400 + BENCH_NORM_PAIRS)
    def test_candidacy_matches_full_walk_oracle(self, closure_coins, p, q):
        coins = (p, q, *oracle_candidate_sums(p, q).sums)
        expected = oracle_convolution_generators(as_mask(regenerate(coins, 2 * p)))
        assert generating_set_via_norm(Prime(p), Prime(q)).generators == expected
        assert closure_coins == [coin_mask(coins)]

    @pytest.mark.parametrize("p,q", ALL_PRIME_ORDERS_400 + BENCH_NORM_PAIRS)
    def test_closes_once_per_generator(self, monkeypatch, p, q):
        original, calls = characteristic._close, []

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(characteristic, "_close", counting)
        generators = generating_set_via_norm(Prime(p), Prime(q)).generators
        assert tuple(calls) == generators

    @pytest.mark.parametrize("p,q", ALL_PRIME_ORDERS_400 + BENCH_NORM_PAIRS)
    def test_builds_no_witness(self, monkeypatch, p, q):
        # candidacy is read straight into the coin mask; witnesses are for JSON audits only
        def forbidden(*args):
            raise AssertionError("the norm route built a witness")

        monkeypatch.setattr(norm_criterion, "candidate_sums", forbidden)
        monkeypatch.setattr(norm_criterion, "_offset_descent", forbidden)
        generating_set_via_norm(Prime(p), Prime(q))

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in PRIME_ORDER_PAIRS if p < 80])
    def test_agrees_with_dp_route(self, p, q):
        prime = Prime(p)
        via_norm = generating_set_via_norm(prime, Prime(q))
        dp = minimal_generating_set(characteristic_bitset(prime, q))
        assert via_norm == dp, (p, q)

    @pytest.mark.parametrize("p,q", [(p, q) for p, q in PRIME_ORDER_PAIRS if q in (3, 5, 7) and p < 80])
    def test_dp_generators_within_candidate_superset(self, p, q):
        prime = Prime(p)
        dp = minimal_generating_set(characteristic_bitset(prime, q))
        allowed = {p, q, *candidate_sums(prime, Prime(q)).sums}
        assert set(dp.generators) <= allowed, (p, q)


class TestTupleBound:
    def test_reference_values(self):
        assert tuple_bound(Prime(7), Prime(3)) == 23
        assert tuple_bound(Prime(13), Prime(3)) == 69

    @pytest.mark.parametrize("p,q", PRIME_ORDER_PAIRS)
    def test_never_exceeds_naive_enumeration(self, p, q):
        bound = tuple_bound(Prime(p), Prime(q))
        assert 0 <= bound <= p ** (q - 1)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            tuple_bound(Prime(13), Prime(5))
