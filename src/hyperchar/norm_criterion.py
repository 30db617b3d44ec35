"""Norm-vanishing route to generating sets for prime subgroup order q.

A sum s < p is a candidate generator when some coefficient tuple (a_0, ...,
a_{q-2}) with total s makes the cyclotomic norm of sum a_i zeta^i vanish
mod p. The norm is a product of conjugate evaluations at the powers of a
primitive q-th root g in F_p, and a product over a field vanishes iff one
factor does, so candidacy reduces to: can exactly s terms drawn from
{g^0, ..., g^{q-2}} sum to 0 mod p. That is a residue DP, not a tuple
enumeration, which keeps q = 11 near p = 200 cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .characteristic import (CharacteristicSet, GeneratingSet, minimal_generating_set,
                             monoid_closure, residue_steps)
from .modular import Prime, subgroup_of_order


@dataclass(frozen=True)
class NormCandidateSet:
    """Candidate generator sums for (p, q), with one audit witness per sum.

    witnesses[s] is a coefficient tuple (a_0, ..., a_{q-2}), each in
    [0, p-1], with sum s and sum a_i g^i = 0 mod p.
    """

    p: Prime
    q: Prime
    sums: tuple[int, ...]
    witnesses: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        if list(self.sums) != sorted(set(self.sums)):
            raise ValueError("sums must be strictly increasing")
        if set(self.witnesses) != set(self.sums):
            raise ValueError("every sum needs exactly one stored witness")


def _norm_powers(p: Prime, q: int) -> list[int]:
    """The allowed powers g^0..g^{q-2}, where g is the canonical primitive q-th
    root mod p.

    Raises ValueError unless q is a prime divisor of p - 1.
    """
    q = Prime(q)
    if (p - 1) % q != 0:
        raise ValueError(f"q = {q} does not divide p - 1 = {p - 1}")
    g = subgroup_of_order(p, int(q)).generator
    return [pow(g, j, p) for j in range(q - 1)]


def _saturating_walk(p: Prime, powers: list[int]) -> Iterator[int]:
    """Residue-DP masks for s = 1, 2, ..., ending at the first full mask or at s = p-1.

    The q-1 powers are distinct, so by Cauchy-Davenport the s-fold sumset has
    at least min(p, s(q-2)+1) residues: for q >= 5 the walk ends by step
    ceil((p-1)/(q-2)). Full + A = full, so every s past the last mask drawn
    is a candidate.
    """
    full = (1 << p) - 1
    for reach in islice(residue_steps(p, powers), p - 1):
        yield reach
        if reach == full:
            return


def _walk_sums(p: Prime, masks: Iterable[int]) -> list[int]:
    """Candidate sums of a saturating walk: every s whose mask has bit 0, then
    every s in (last step drawn, p-1], all candidates after a full mask."""
    sums, k = [], 0
    for k, reach in enumerate(masks, 1):
        if reach & 1:
            sums.append(k)
    return sums + list(range(k + 1, p))


def _small_order_witnesses(p: Prime, powers: list[int]) -> dict[int, tuple[int, ...]]:
    """Candidates and witnesses for q <= 3, from a formula instead of a walk.

    For q = 2 the only power is 1, and 0 < s < p ones never sum to 0 mod p.
    For q = 3, a_0 + a_1 = s and a_0 + a_1 g = 0 force a_1 (g - 1) = -s mod p,
    so a_1 = -s (g-1)^{-1} mod p is the only solution with a_1 in [0, p-1],
    and s is a candidate iff a_1 <= s, with witness (s - a_1, a_1).
    """
    if len(powers) == 1:
        return {}
    inverse = pow(powers[1] - 1, -1, p)
    witnesses = {}
    for s in range(1, p):
        a1 = -s * inverse % p
        if a1 <= s:
            witnesses[s] = (s - a1, a1)
    return witnesses


def _backtrack(p: Prime, powers: list[int], masks: list[int], s: int) -> tuple[int, ...]:
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
        for j, g in enumerate(powers):
            prev = (residue - g) % p
            if (masks[k - 1] >> prev) & 1:
                counts[j] += 1
                residue = prev
                break
        else:
            raise AssertionError(f"backtrack failed at ({p}, {len(powers) + 1}), s={s}")
    return tuple(counts)


def candidate_sums(p: Prime, q: Prime) -> NormCandidateSet:
    """All s in [1, p-1] whose norm condition holds, with audit witnesses.

    A sum qualifies iff residue 0 is reachable by exactly s allowed powers
    g^0..g^{q-2}. Each witness is the greedy (lexicographically largest)
    count vector. For q <= 3 the witnesses come from a formula and no DP runs.
    For q >= 5 the walk stops at its first full mask, step k0 <=
    ceil((p-1)/(q-2)); only masks 0..k0 are kept (still about p^2/(8(q-2))
    bytes), and the backtrack for s > k0 jumps over its s - k0 g^0 steps.
    Conjugating (replacing g by g^i) permutes the same subgroup, so the
    answer does not depend on which primitive root generated g.
    """
    powers = _norm_powers(p, q)
    if q <= 3:
        witnesses = _small_order_witnesses(p, powers)
    else:
        # masks[k] bit r set iff some multiset of exactly k allowed powers sums to r
        masks = [1, *_saturating_walk(p, powers)]
        witnesses = {s: _backtrack(p, powers, masks, s) for s in _walk_sums(p, masks[1:])}
    return NormCandidateSet(p=p, q=Prime(q), sums=tuple(witnesses), witnesses=witnesses)


def generating_set_via_norm(p: Prime, q: Prime) -> GeneratingSet:
    """Minimal generating set from the norm route alone.

    Closes {p, q} and the candidate sums into a bitmask on [0, 2p] and
    extracts minimal generators as the dp route does. Every explicit generator
    is at most p, so the 2p window sees all of their pairwise sums and the
    extraction is sound without assuming anything about the table route.

    Candidacy for q <= 3 comes from the same formula as candidate_sums; for
    q >= 5 it is read from bit 0 of each mask of the walk, which stops at its
    first full mask. No mask is kept and no witness is built. Audit
    witnesses come from candidate_sums, which only JSON output calls.
    """
    powers = _norm_powers(p, q)
    if q <= 3:
        sums = list(_small_order_witnesses(p, powers))
    else:
        sums = _walk_sums(p, _saturating_walk(p, powers))
    mask = monoid_closure((int(p), int(q), *sums), 2 * p)
    return minimal_generating_set(CharacteristicSet(p=p, order=int(q), bound=2 * p, mask=mask))


def tuple_bound(p: Prime, q: Prime) -> int:
    """Size bound for the naive coefficient-tuple enumeration.

    C(p+q-2, q-1) minus the count of tuples whose total is a positive
    multiple of p too small to reach, summed in closed form. Exact integer
    arithmetic throughout.
    """
    if (p - 1) % q != 0:
        raise ValueError(f"q = {q} does not divide p - 1 = {p - 1}")
    total = math.comb(p + q - 2, q - 1)
    removed = sum(math.comb(q - 2 + k * q, q - 2) for k in range(0, (p - q - 1) // q + 1))
    return total - removed
