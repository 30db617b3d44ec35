"""Shared brute-force oracles, deliberately written with different algorithms
than the package (trial division, set-walks, multiset enumeration) so that
agreement between the two is evidence rather than tautology. Also prints the
one-line acceptance checklist as those tests finish."""

from __future__ import annotations

import functools
import itertools
import math
import sys

import pytest

ACCEPTANCE_LABELS = {
    "test_criterion_01_small_orders_reproduction": "small-orders table reproduction",
    "test_criterion_02_full_table_reproduction": "full table reproduction",
    "test_criterion_03_closed_form_agreement": "closed form vs table route, p < 500",
    "test_criterion_04_norm_agreement": "norm criterion vs table route, q in {3,5,7,11}, p < 200",
    "test_criterion_05_axiom_suite": "hyperfield axioms, p <= 31",
    "test_criterion_06_continuity": "continuity at p-1 for nontrivial subgroups",
    "test_criterion_07_kp_representation": "multiple-of-p representation matches the table, p <= 31",
    "test_criterion_08_conjecture_scan": "conjecture scan to 10001",
    "test_criterion_09_tuple_bound": "tuple bound values",
    "test_criterion_10_determinism": "byte-identical table output",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    test_name = report.nodeid.split("::")[-1]
    label = ACCEPTANCE_LABELS.get(test_name)
    if label is None:
        return
    number = int(test_name.split("_")[2])
    verdict = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    print(f"\nACCEPTANCE {number:2d} {label}: {verdict}", flush=True)


@pytest.fixture
def candidate_sums_calls(monkeypatch):
    """Arguments of every norm_criterion.candidate_sums call, by every caller."""
    from hyperchar import norm_criterion

    original = norm_criterion.candidate_sums
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hyperchar") and getattr(module, "candidate_sums", None) is original:
            monkeypatch.setattr(module, "candidate_sums", counting)
    return calls


@pytest.fixture
def no_walks(monkeypatch):
    """characteristic_bitset raises, and _levels raises when given any step, in
    every hyperchar module that binds them, so a route run past its max_p fails
    before it walks a p-bit mask. A step-less _levels call (norm at q = 2) runs:
    it reaches nothing, so it yields no level."""
    def refuse_dp(p, n):
        raise AssertionError(f"a residue walk ran at p={p}")

    def refusing(walk):
        def refuse(p, steps):
            if steps:
                raise AssertionError(f"a residue walk ran at p={p}")
            return walk(p, steps)
        return refuse

    for name, module in list(sys.modules.items()):
        if name.startswith("hyperchar"):
            if hasattr(module, "characteristic_bitset"):
                monkeypatch.setattr(module, "characteristic_bitset", refuse_dp)
            if hasattr(module, "_levels"):
                monkeypatch.setattr(module, "_levels", refusing(module._levels))


@pytest.fixture
def wrong_norm_route(monkeypatch):
    """ROUTES["norm"] returns the valid but wrong row {3 4} for every (p, n)."""
    from hyperchar.harness import ROUTES, FixtureRow

    monkeypatch.setitem(ROUTES, "norm", ROUTES["norm"]._replace(
        run=lambda p, n: FixtureRow(p, n, (3, 4))))


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def oracle_is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def subgroup_pairs(p_cap: int) -> list[tuple[int, int]]:
    """All (p, n) with p <= p_cap prime and n | p-1."""
    return [
        (p, n)
        for p in range(2, p_cap + 1)
        if oracle_is_prime(p)
        for n in divisors(p - 1)
    ]


def oracle_prime_orders(p_max: int) -> list[tuple[int, int]]:
    """Every (p, n) with p <= p_max prime and n | p-1, by trying every n < p."""
    return [(p, n) for p in range(2, p_max + 1) if oracle_is_prime(p)
            for n in range(1, p) if (p - 1) % n == 0]


def oracle_subgroup(p: int, n: int) -> list[int]:
    """Order-n subgroup of (Z/pZ)^x found by element-order search, no primitive root."""
    members = [x for x in range(1, p) if pow(x, n, p) == 1]
    assert len(members) == n
    return members


def oracle_members_setwalk(p: int, n: int, bound: int) -> list[bool]:
    """Characteristic membership by plain set-valued residue walk."""
    G = oracle_subgroup(p, n)
    member = [False] * (bound + 1)
    member[0] = True
    reach = {0}
    for k in range(1, bound + 1):
        reach = {(r + g) % p for r in reach for g in G}
        member[k] = 0 in reach
    return member


def oracle_bfs_levels(p: int, steps) -> list[set[int]]:
    """The residues first reached at BFS levels 1, 2, ... from 0 by the steps
    mod p, as sets, up to the last level that reaches a new residue."""
    seen, frontier, levels = {0}, {0}, []
    while frontier := {(r + e) % p for r in frontier for e in steps} - seen:
        seen |= frontier
        levels.append(frontier)
    return levels


def oracle_folds(H, count: int) -> list:
    """Folds 0..count-1 of the unit sums of a QuotientHyperfield, every fold
    kept: fold k + 1 is the union of hyperadd(x, one) over fold k, with no stop."""
    folds = [frozenset([H.zero])]
    while len(folds) < count:
        folds.append(frozenset().union(*(H.hyperadd(x, H.one) for x in folds[-1])))
    return folds


def oracle_min_summands_table(elements, cap: int) -> list[int]:
    """mc[t] = least number of terms g-1 (over g in elements, g > 1) summing to t, or cap+1."""
    denoms = [g - 1 for g in elements if g > 1]
    inf = cap + 1
    mc = [0] + [inf] * cap
    for t in range(1, cap + 1):
        best = inf
        for d in denoms:
            if d <= t and mc[t - d] + 1 < best:
                best = mc[t - d] + 1
        mc[t] = best
    return mc


def oracle_kp_check(p: int, elements, s: int) -> bool:
    """The kp criterion read off a list table of least term counts: s is a
    member iff some deficit t = kp - s >= 0 has mc[t] <= s. Keeps the trivial
    subgroup rule and the Cauchy-Davenport shortcut, which bound the table."""
    n = len(elements)
    if s == 0:
        return True
    if n == 1:
        return s % p == 0
    if s * (n - 1) >= p - 1:
        return True
    cap = s * (max(elements) - 1)
    mc = oracle_min_summands_table(elements, cap)
    return any(mc[t] <= s for t in range(-s % p, cap + 1, p))


def oracle_member_enumerate(p: int, n: int, s: int) -> bool:
    """Characteristic membership by exhaustive multiset enumeration (tiny s only)."""
    if s == 0:
        return True
    G = oracle_subgroup(p, n)
    return any(
        sum(combo) % p == 0
        for combo in itertools.combinations_with_replacement(G, s)
    )


def oracle_minimal_generators(member: list[bool]) -> list[int]:
    """Minimal generators straight from the definition, quadratic loop."""
    bound = len(member) - 1
    gens = []
    for s in range(1, bound + 1):
        if member[s] and not any(member[i] and member[s - i] for i in range(1, s)):
            gens.append(s)
    return gens


def oracle_convolution_generators(mask: int) -> tuple[int, ...]:
    """Minimal generators of a monoid membership mask: the members that are not
    a sum of two smaller positive members, found with one bitmask convolution."""

    def set_bits(mask: int):
        return (i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")

    positive = mask & ~1
    decomposable = 0
    for i in set_bits(positive):
        decomposable |= positive << i
    return tuple(set_bits(positive & ~decomposable))


def regenerate(generators, bound: int) -> list[bool]:
    """Monoid generated by the given set, as a membership table."""
    member = [False] * (bound + 1)
    member[0] = True
    for v in range(1, bound + 1):
        member[v] = any(g <= v and member[v - g] for g in generators)
    return member


def as_mask(member: list[bool]) -> int:
    """A membership table packed into a bitmask, bit s for member[s]."""
    return sum(1 << s for s, flag in enumerate(member) if flag)


def coin_mask(coins) -> int:
    """A coin list as a bitmask, bit c for every coin c."""
    coins = set(coins)
    return as_mask([s in coins for s in range(max(coins, default=0) + 1)])


def oracle_continuity_threshold(member: list[bool], p: int):
    """Start of the trailing run of members (not before 1) if it is at least p
    long, else None; by a scan down the table."""
    bound = len(member) - 1
    if not member[bound]:
        return None
    k = bound
    while k > 1 and member[k - 1]:
        k -= 1
    if bound - k + 1 < p:
        return None
    return k


def oracle_eisenstein_search(p: int):
    """Both solutions of a^2 - ab + b^2 = p with a > b > 0, ordered by b, by a
    bounded search over b with 3b^2 <= 4p (O(sqrt p); p = 1 (mod 3), p >= 7)."""
    from hyperchar.modular import EisensteinPair

    found = []
    b = 1
    while 3 * b * b <= 4 * p:
        disc = 4 * p - 3 * b * b
        t = math.isqrt(disc)
        if t * t == disc and (b + t) % 2 == 0:
            a = (b + t) // 2
            if a > b:
                found.append(EisensteinPair(a, b))
        b += 1
    if len(found) != 2:
        raise AssertionError(f"expected exactly two solutions for p={p}, found {found}")
    first, second = sorted(found, key=lambda s: s.b)
    if second != EisensteinPair(first.a, first.a - first.b):
        raise AssertionError(f"solutions for p={p} are not (a, b) and (a, a - b): {first}, {second}")
    return first, second


def oracle_residue_steps(p: int, elements):
    """Reach masks of the residue DP for k = 1, 2, ..., without end, by a cyclic
    rotation per element: residue r moves to (r + g) mod p through two shifts,
    masked at every step."""
    mask = (1 << p) - 1
    reach = 1
    while True:
        nxt = 0
        for g in elements:
            nxt |= (reach << g) | (reach >> (p - g))
        reach = nxt & mask
        yield reach


def fp_norm(coeffs, p: int, q: int) -> int:
    """Norm of f(zeta_q) = sum coeffs[j] zeta^j, evaluated inside F_p.

    Returns the product of f(g^i) over i = 1..q-1 for g the canonical
    primitive q-th root mod p; this is congruent mod p to the cyclotomic
    norm, so norm-vanishing can be tested without leaving F_p.
    """
    from hyperchar.modular import subgroup_generator

    if q < 2 or not oracle_is_prime(q) or (p - 1) % q != 0:
        raise ValueError(f"q must be a prime divisor of p-1, got q={q}, p={p}")
    coeffs = list(coeffs)
    if len(coeffs) != q - 1:
        raise ValueError(f"expected {q - 1} coefficients, got {len(coeffs)}")
    g = subgroup_generator(p, int(q))
    out = 1
    for i in range(1, q):
        x = pow(g, i, p)
        fx = 0
        for c in reversed(coeffs):
            fx = (fx * x + c) % p
        out = out * fx % p
    return out


def reduce_cyclotomic_coeffs(coeffs, p: int) -> tuple[int, ...]:
    """Rewrite q coefficients (exponents 0..q-1) as q-1 (exponents 0..q-2).

    Subtracting the top coefficient from all q coefficients leaves every
    conjugate evaluation unchanged, because each g^i with i in 1..q-1 is a
    nontrivial q-th root of unity and so sums the full power run to zero.
    """
    coeffs = [c % p for c in coeffs]
    top = coeffs[-1]
    return tuple((c - top) % p for c in coeffs[:-1])


@functools.lru_cache(maxsize=None)
def oracle_candidate_sums(p: int, q: int):
    """Norm candidates with greedy witnesses, by walking all p-1 residue steps,
    keeping every mask and backtracking each candidate s through s of them.
    Cached: several tests check the same pairs; callers must not mutate it."""
    from hyperchar.modular import Prime, subgroup_generator
    from hyperchar.norm_criterion import NormCandidateSet

    g = subgroup_generator(p, q)
    powers = [pow(g, j, p) for j in range(q - 1)]
    masks = [1, *itertools.islice(oracle_residue_steps(p, powers), p - 1)]

    sums = [s for s in range(1, p) if masks[s] & 1]
    witnesses = {s: oracle_backtrack(p, powers, masks, s) for s in sums}
    return NormCandidateSet(p=Prime(p), q=Prime(q), witnesses=witnesses)


def oracle_backtrack(p: int, powers, masks, s: int) -> tuple[int, ...]:
    """Greedy witness for candidate s: at each step back from s, the first
    power g^j that leaves a residue the step before can reach.

    masks[k] is the step-k mask for k = 0..k0, the last one full when k0 < s.
    Every masks[k-1] with k > k0 is full, so the greedy takes g^0 at those
    s - k0 steps: they are added in one jump.
    """
    jump = max(s - (len(masks) - 1), 0)
    counts = [jump] + [0] * (len(powers) - 1)
    residue = -jump % p
    for k in range(s - jump, 0, -1):
        for j, power in enumerate(powers):
            prev = (residue - power) % p
            if (masks[k - 1] >> prev) & 1:
                counts[j] += 1
                residue = prev
                break
        else:
            raise AssertionError(f"backtrack failed at ({p}, {len(powers) + 1}), s={s}")
    return tuple(counts)


def oracle_saturating_walk(p: int, q: int):
    """(powers, masks, sums) of the saturating residue walk over the powers
    g^0..g^{q-2}: masks[k] is the step-k mask for k = 0..k0, ending at the
    first full mask or after p - 1 steps, and sums are the candidates s in
    [1, p-1], bit 0 of masks[s] or any s past the full mask, since full +
    powers = full."""
    from hyperchar.modular import subgroup_generator

    g = subgroup_generator(p, q)
    powers = [pow(g, j, p) for j in range(q - 1)]
    full = (1 << p) - 1
    masks = [1]
    for reach in itertools.islice(oracle_residue_steps(p, powers), p - 1):
        masks.append(reach)
        if reach == full:
            break
    sums = [s for s in range(1, p) if s >= len(masks) or masks[s] & 1]
    return powers, masks, sums


def oracle_kept_mask_candidate_sums(p: int, q: int):
    """Norm candidates with greedy witnesses, by the saturating walk
    and a backtrack through its k0 + 1 kept masks, the last one full.

    This is the argument for why the level BFS of the norm route agrees with
    the residue walk. Put e_j = 1 - g^j for j = 1..q-2 and let level(s) be the
    least number of steps e_j summing to s mod p. A multiset of k powers with
    counts a_j sums to k - sum_{j>=1} a_j e_j, so residue r is in masks[k] iff
    level(k - r) <= k. Stepping back from (k, r), the greedy takes g^0 iff
    r - 1 is in masks[k-1], that is iff level(k - r) <= k - 1, which leaves
    t = k - r unchanged. Otherwise level(t) = k, and it takes the least j >= 1
    with r - g^j in masks[k-1], that is with level(t - e_j) = level(t) - 1. So
    s is a candidate iff level(s) <= s, a_0 = s - level(s), and a_1..a_{q-2}
    count the first-j descent from s: each step depends on t alone.
    """
    from hyperchar.modular import Prime
    from hyperchar.norm_criterion import NormCandidateSet

    powers, masks, sums = oracle_saturating_walk(p, q)
    witnesses = {s: oracle_backtrack(p, powers, masks, s) for s in sums}
    return NormCandidateSet(p=Prime(p), q=Prime(q), witnesses=witnesses)
