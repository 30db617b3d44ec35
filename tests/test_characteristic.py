from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchar import characteristic
from hyperchar.characteristic import (
    CharacteristicSet,
    _levels,
    characteristic_bitset,
    kp_representation_check,
    minimal_generating_set,
)
from hyperchar.closed_form import gen_set_closed_form
from hyperchar.modular import Prime, subgroup_generator, subgroup_of_order

from conftest import (
    SMALL_PRIMES,
    as_mask,
    coin_mask,
    oracle_bfs_levels,
    oracle_continuity_threshold,
    oracle_convolution_generators,
    oracle_is_prime,
    oracle_kp_check,
    oracle_member_enumerate,
    oracle_members_setwalk,
    oracle_minimal_generators,
    oracle_residue_steps,
    oracle_subgroup,
    regenerate,
    subgroup_pairs,
)


class TestMembershipTable:
    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_matches_setwalk_oracle(self, p, n):
        S = characteristic_bitset(Prime(p), n)
        assert list(S.member) == oracle_members_setwalk(p, n, S.bound)

    @pytest.mark.parametrize("p,n", subgroup_pairs(13))
    def test_matches_multiset_enumeration_for_small_counts(self, p, n):
        S = characteristic_bitset(Prime(p), n)
        for s in range(0, min(8, S.bound) + 1):
            assert S.member[s] == oracle_member_enumerate(p, n, s), (p, n, s)

    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_p_is_always_a_member(self, p, n):
        S = characteristic_bitset(Prime(p), n)
        assert S.member[p]
        assert not S.member[1]

    def test_trivial_subgroup_gives_multiples_of_p(self):
        S = characteristic_bitset(Prime(7), 1)
        assert [s for s in range(S.bound + 1) if S.member[s]] == [0, 7, 14]

    def test_contains_protocol(self):
        S = characteristic_bitset(Prime(7), 3)
        assert 0 in S and 4 in S and 1 not in S and 9999 in S and -1 not in S

    @pytest.mark.parametrize("p,n", subgroup_pairs(60))
    def test_contains_is_exact_past_the_window(self, p, n):
        # the 2p window answers `in` for every s; the oracle walks to 5p
        S = characteristic_bitset(Prime(p), n)
        assert [s in S for s in range(5 * p + 1)] == oracle_members_setwalk(p, n, 5 * p)

    def test_member_is_a_read_only_view_of_the_mask(self):
        S = characteristic_bitset(Prime(7), 3)
        assert as_mask(list(S.member)) == S.mask and len(S.member) == S.bound + 1
        with pytest.raises(AttributeError):
            S.member = (True,) * (S.bound + 1)

    @pytest.mark.parametrize("mask", [
        1 << 15 | 1,  # a member past the window [0, 14]
        0b10010,  # 0 missing
        -1,
    ])
    def test_rejects_malformed_mask(self, mask):
        with pytest.raises(ValueError):
            CharacteristicSet(p=Prime(7), order=3, mask=mask)


class TestMinimalGeneratingSet:
    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_matches_definitional_oracle(self, p, n):
        S = characteristic_bitset(Prime(p), n)
        assert list(minimal_generating_set(S).generators) == oracle_minimal_generators(
            list(S.member)
        )

    @pytest.mark.parametrize(
        "p,n,expected",
        [(7, 3, (3, 4, 5)), (13, 4, (2, 5)), (31, 5, (5, 6, 7, 8, 9)), (3, 1, (3,))],
    )
    def test_known_sets(self, p, n, expected):
        S = characteristic_bitset(Prime(p), n)
        assert minimal_generating_set(S).generators == expected

    @given(st.sampled_from(subgroup_pairs(61)))
    @settings(max_examples=80, deadline=None)
    def test_generators_regenerate_the_monoid(self, pair):
        p, n = pair
        S = characteristic_bitset(Prime(p), n)
        gens = minimal_generating_set(S).generators
        assert regenerate(gens, S.bound) == list(S.member)

    @given(st.sampled_from(subgroup_pairs(61)))
    @settings(max_examples=80, deadline=None)
    def test_every_generator_is_necessary(self, pair):
        p, n = pair
        S = characteristic_bitset(Prime(p), n)
        gens = minimal_generating_set(S).generators
        for drop in gens:
            kept = [g for g in gens if g != drop]
            assert regenerate(kept, S.bound) != list(S.member)

    @pytest.mark.parametrize("p,n", [(p, n) for p, n in subgroup_pairs(61) if n > 1])
    def test_nontrivial_generators_stay_below_twice_p_minus_one(self, p, n):
        S = characteristic_bitset(Prime(p), n)
        assert max(minimal_generating_set(S).generators) < 2 * (p - 1)

    def test_extraction_helper_on_plain_table(self):
        mask = as_mask(regenerate([4, 9], 30))
        assert characteristic._generate(mask) == (4, 9)

    @pytest.mark.parametrize("p,n", subgroup_pairs(199))
    def test_matches_convolution_oracle(self, p, n):
        mask = characteristic_bitset(Prime(p), n).mask
        assert characteristic._generate(mask) == oracle_convolution_generators(mask)

    def test_mask_not_closed_gives_generators_of_its_monoid(self):
        # 6 = 2 + 2 + 2 although 4 is missing from the mask
        assert characteristic._generate(0b1000101) == (2,)
        assert characteristic._generate(0) == ()
        with pytest.raises(ValueError):
            characteristic._generate(-1)

    def test_closes_once_per_generator(self, monkeypatch):
        mask = as_mask(regenerate([2, 20011], 40022))
        original, calls = characteristic._close, []

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(characteristic, "_close", counting)
        assert characteristic._generate(mask) == (2, 20011)
        assert calls == [2, 20011]


@st.composite
def coin_sets(draw):
    # some coins are sums of others, so the closure must skip them correctly
    coins = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    pairs = draw(st.lists(st.tuples(st.sampled_from(coins), st.sampled_from(coins)), max_size=3))
    return coins + [a + b for a, b in pairs]


class TestGenerate:
    """The closing loop on a coin mask, as the norm route runs it: its window
    ends at the top coin."""

    @given(coin_sets(), st.integers(0, 80))
    @settings(max_examples=400, deadline=None)
    def test_generators_regenerate_the_coins_monoid(self, coins, bound):
        generators = characteristic._generate(coin_mask(coins))
        assert set(generators) <= set(coins)
        assert regenerate(generators, bound) == regenerate(coins, bound)

    @given(coin_sets(), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    def test_matches_extraction_oracles(self, coins, bound):
        # a table on [0, bound] has the coins' generators up to bound
        member = regenerate(coins, bound)
        mask = as_mask(member)
        generators = characteristic._generate(mask)
        assert generators == oracle_convolution_generators(mask)
        assert generators == tuple(g for g in characteristic._generate(coin_mask(coins)) if g <= bound)
        if bound <= 120:
            assert list(generators) == oracle_minimal_generators(member)

    def test_zero_coin_adds_nothing_and_negative_mask_raises(self):
        generate = characteristic._generate
        assert generate(coin_mask([3, 0])) == generate(coin_mask([3])) == (3,)
        with pytest.raises(ValueError):
            generate(-8)


class TestContinuityThreshold:
    @pytest.mark.parametrize(
        "p,n,expected",
        [(5, 2, 4), (7, 3, 3), (3, 1, None)],
    )
    def test_reference_values(self, p, n, expected):
        S = characteristic_bitset(Prime(p), n)
        assert S.continuity_threshold == expected

    @pytest.mark.parametrize("p,n", [(p, n) for p, n in subgroup_pairs(61) if n > 1])
    def test_nontrivial_subgroups_are_continuous_by_p_minus_one(self, p, n):
        S = characteristic_bitset(Prime(p), n)
        assert S.continuity_threshold is not None
        assert S.continuity_threshold <= p - 1
        assert all(S.member[s] for s in range(S.continuity_threshold, S.bound + 1))
        # the dp sets bits p-1..2p without stepping, so the walked oracle checks the theorem
        member = oracle_members_setwalk(p, n, 2 * p)
        threshold = oracle_continuity_threshold(member, p)
        assert threshold is not None
        assert threshold <= p - 1
        assert all(member[threshold:])

    @pytest.mark.parametrize("p", [3, 5, 11, 31])
    def test_trivial_subgroup_never_certifies(self, p):
        S = characteristic_bitset(Prime(p), 1)
        assert S.continuity_threshold is None

    def test_short_tail_does_not_certify(self):
        # members of a run shorter than p prove nothing about the integers
        # beyond the window [0, 22], so no threshold is reported
        short = CharacteristicSet(p=Prime(11), order=2, mask=0b11111111 << 15 | 1)  # 0, 15..22
        assert short.continuity_threshold is None
        assert oracle_continuity_threshold(list(short.member), 11) is None
        run_of_p = CharacteristicSet(p=Prime(11), order=2, mask=0b11111111111 << 12 | 1)  # 0, 12..22
        assert run_of_p.continuity_threshold == 12
        assert oracle_continuity_threshold(list(run_of_p.member), 11) == 12

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_matches_list_scan_oracle(self, p):
        # every mask on the window [0, 2p] with 0 a member, the all-ones one
        # included, up to p = 7; at p = 11 every low 15 bits under each run of
        # ones that ends the window
        width = 2 * p + 1
        low = min(width, 15)
        runs = [(1 << width) - (1 << k) for k in range(low, width + 1)]
        for mask in (bits | run for bits in range(1, 1 << low, 2) for run in runs):
            S = CharacteristicSet(p=Prime(p), order=1, mask=mask)
            assert S.continuity_threshold == oracle_continuity_threshold(list(S.member), p), (mask, p)


# the unsorted norm powers g^0..g^(q-2) of a primitive q-th root g, q | p-1
NORM_POWERS_300 = [
    (p, q)
    for q in (5, 7, 11)
    for p in range(3, 300)
    if oracle_is_prime(p) and (p - 1) % q == 0
]


def assert_levels_match_rotation(p, steps):
    """_levels' new residues at each level are those the rotation oracle's
    k-th reach mask first holds at k, 0 aside, up to the first empty level."""
    seen, expected = 1, []
    for reach in islice(oracle_residue_steps(p, steps), p):
        if not (new := reach & ~seen):
            break
        seen |= new
        expected.append((len(expected) + 1, new))
    levels = [(level, new) for level, _, new in _levels(Prime(p), list(steps))]
    assert levels == expected, (p, steps)


class TestResidueSteps:
    @pytest.mark.parametrize("p,n", subgroup_pairs(199))
    def test_subgroup_steps_match_rotation_oracle(self, p, n):
        assert_levels_match_rotation(p, subgroup_of_order(Prime(p), n))

    @pytest.mark.parametrize("p,q", NORM_POWERS_300)
    def test_norm_power_steps_match_rotation_oracle(self, p, q):
        g = subgroup_generator(Prime(p), q)
        assert_levels_match_rotation(p, [pow(g, j, p) for j in range(q - 1)])

    @pytest.mark.parametrize("p,n", subgroup_pairs(199) + [
        (1009, 1), (1009, 2), (1009, 504), (1009, 1008), (1019, 509)])
    def test_bitset_mask_matches_per_step_assembly(self, p, n):
        # the oracle walks all 2p steps; the dp stops after p-2 for nontrivial G
        # and reads the masks of the trivial group and of index 1 or 2 (n >= 3)
        # off formulas; (1019, 509) has index 2 and odd n, generators {3, 4, 5}
        S = characteristic_bitset(Prime(p), n)
        mask = 1
        steps = oracle_residue_steps(p, subgroup_of_order(Prime(p), n))
        for s, reach in enumerate(islice(steps, S.bound), 1):
            mask |= (reach & 1) << s
        assert S.mask == mask

    @pytest.mark.parametrize("p,n,walk", [
        (7, 3, None), (13, 6, None), (13, 12, None), (31, 1, None),
        (13, 4, 11), (31, 10, 29), (1009, 2, 1007)])
    def test_bitset_draws_p_minus_two_steps_unless_trivial(self, monkeypatch, p, n, walk):
        # a step is one pass over the subgroup's elements; the formula rows, the
        # trivial group and index 1 or 2 at n >= 3, build no subgroup at all
        elements = []

        def counted(p, n):
            elements.append(Passes(subgroup_of_order(p, n)))
            return elements[-1]

        monkeypatch.setattr(characteristic, "subgroup_of_order", counted)
        characteristic_bitset(Prime(p), n)
        assert [e.count for e in elements] == ([] if walk is None else [walk])


class Passes(tuple):
    """A tuple that counts the passes made over it."""

    count = 0

    def __iter__(self):
        self.count += 1
        return super().__iter__()


def as_set(mask: int) -> set[int]:
    return {s for s in range(mask.bit_length()) if mask >> s & 1}


class TestLevels:
    @pytest.mark.parametrize("p", SMALL_PRIMES + [1009])
    def test_no_steps_yield_no_level(self, p):
        assert list(_levels(Prime(p), [])) == []

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_every_step_list_matches_set_bfs_within_p_minus_one_levels(self, p):
        # each level reaches a new residue, so no step list gets past p - 1
        for k in range(p):
            for steps in combinations(range(1, p), k):
                levels = list(_levels(Prime(p), list(steps)))
                expected = oracle_bfs_levels(p, steps)
                assert [as_set(new) for _, _, new in levels] == expected, (p, steps)
                assert [level for level, _, _ in levels] == list(range(1, len(expected) + 1))
                news = [new for _, _, new in levels]
                assert [frontier for _, frontier, _ in levels] == ([1] + news)[:len(news)]
                assert len(levels) <= p - 1

    @pytest.mark.parametrize("p,n", [(13, 12), (13, 3), (31, 5), (1009, 2), (1009, 504)])
    def test_stops_on_the_level_that_fills_z_p(self, p, n):
        # nonzero steps reach every residue; no pass over them follows the last one found
        steps = Passes((1 - g) % p for g in subgroup_of_order(Prime(p), n) if g != 1)
        levels = list(_levels(Prime(p), steps))
        assert sum(new for _, _, new in levels) == (1 << p) - 2
        assert steps.count == len(levels)


class TestIndexTwoLemma:
    @pytest.mark.parametrize("p,n", [(p, n) for p, n in subgroup_pairs(499) if n >= 3 and 2 * n >= p - 1])
    def test_every_unit_is_a_sum_of_two_subgroup_elements(self, p, n):
        G = oracle_subgroup(p, n)
        assert {(a + b) % p for a in G for b in G} - {0} == set(range(1, p))

    def test_order_two_at_five_misses_a_coset(self):
        G = oracle_subgroup(5, 2)
        assert {(a + b) % 5 for a in G for b in G} == {0, 2, 3}


class TestSaturationBound:
    @pytest.mark.parametrize("p,n", [(p, n) for p, n in subgroup_pairs(199) if n >= 2])
    def test_every_residue_reachable_by_cauchy_davenport_step(self, p, n):
        # |kG| >= min(p, k(n-1)+1), so the reach mask is full at k = ceil((p-1)/(n-1))
        k = -(-(p - 1) // (n - 1))
        steps = oracle_residue_steps(p, subgroup_of_order(Prime(p), n))
        assert next(islice(steps, k - 1, None)) == (1 << p) - 1, (p, n, k)


class TestKpRepresentation:
    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_matches_membership_table(self, p, n):
        prime = Prime(p)
        S = characteristic_bitset(prime, n)
        for s in range(0, 2 * (p - 1) + 1):
            assert kp_representation_check(prime, n, s) == S.member[s], (p, n, s)

    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_matches_setwalk_oracle(self, p, n):
        prime = Prime(p)
        oracle = oracle_members_setwalk(p, n, 2 * (p - 1))
        for s, expected in enumerate(oracle):
            assert kp_representation_check(prime, n, s) == expected, (p, n, s)

    @pytest.mark.parametrize("p,n", subgroup_pairs(59))
    def test_matches_list_table_oracle(self, p, n):
        prime = Prime(p)
        G = oracle_subgroup(p, n)
        for s in range(0, 3 * p):
            expected = oracle_kp_check(p, G, s)
            assert kp_representation_check(prime, n, s) == expected, (p, n, s)

    @pytest.mark.parametrize(
        "p,n", [(509, 4), (1009, 3), (1009, 7), (1009, 9), (2003, 7), (2003, 11), (2003, 13)]
    )
    def test_matches_membership_near_threshold_at_large_p(self, p, n):
        prime = Prime(p)
        S = characteristic_bitset(prime, n)
        threshold = S.continuity_threshold
        assert threshold - 1 not in S
        # ceil((p-1)/(n-1)) - 1 is the largest s below the Cauchy-Davenport shortcut
        last_tabled = -(-(p - 1) // (n - 1)) - 1
        for s in (threshold - 1, threshold, last_tabled - 1, last_tabled):
            assert kp_representation_check(prime, n, s) == (s in S), (p, n, s)

    def test_level_walk_stops_by_the_cauchy_davenport_level(self, monkeypatch):
        # the largest s below the shortcut draws at most ceil((p-1)/(n-1))
        # levels of p bits, so large p is cheap
        original, drawn = characteristic._levels, []

        def counting(*args):  # kp leaves the walk unfinished, so count as it goes
            drawn.append(0)
            for level in original(*args):
                drawn[-1] += 1
                yield level

        monkeypatch.setattr(characteristic, "_levels", counting)
        for p, n in [(p, n) for p, n in subgroup_pairs(199) if n >= 2]:
            last_tabled = -(-(p - 1) // (n - 1)) - 1
            drawn.clear()
            kp_representation_check(Prime(p), n, last_tabled)
            assert len(drawn) == 1 and 1 <= drawn[0] <= last_tabled + 1, (p, n, drawn)
        for p, n in [(10007, 2), (20011, 2), (10009, 3), (10009, 4)]:
            prime = Prime(p)
            last_tabled = -(-(p - 1) // (n - 1)) - 1
            member = regenerate(gen_set_closed_form(prime, n).generators, last_tabled)
            for s in (last_tabled - 1, last_tabled):
                assert kp_representation_check(prime, n, s) == member[s], (p, n, s)

    def test_large_count_needs_no_table(self, monkeypatch):
        # without the Cauchy-Davenport shortcut this builds the subgroup and
        # runs the level BFS over Z/421 until the level passes s
        original, calls = characteristic._levels, []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(characteristic, "_levels", counting)
        monkeypatch.setattr(characteristic, "subgroup_of_order", None)
        assert kp_representation_check(Prime(421), 210, 840)
        assert calls == []

    def test_trivial_subgroup(self):
        assert kp_representation_check(Prime(7), 1, 14)
        assert not kp_representation_check(Prime(7), 1, 13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kp_representation_check(Prime(7), 3, -1)
