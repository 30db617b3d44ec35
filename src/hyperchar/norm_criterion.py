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
from itertools import islice, takewhile

from .characteristic import FixtureRow, _generate, residue_steps
from .modular import Prime, subgroup_generator


@dataclass(frozen=True)
class NormCandidateSet:
    """Candidate generator sums for (p, q), the keys of `witnesses` in order.

    witnesses[s] is a coefficient tuple (a_0, ..., a_{q-2}), each in
    [0, p-1], with sum s and sum a_i g^i = 0 mod p.
    """

    p: Prime
    q: Prime
    witnesses: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        if list(self.witnesses) != sorted(self.witnesses):
            raise ValueError("sums (the witness keys) must be increasing")

    @property
    def sums(self) -> tuple[int, ...]:
        return tuple(self.witnesses)


def _norm_powers(p: Prime, q: int) -> list[int]:
    """The allowed powers g^0..g^{q-2}, where g is the canonical primitive q-th
    root mod p.

    Raises ValueError unless q is a prime divisor of p - 1.
    """
    q = Prime(q)
    if (p - 1) % q != 0:
        raise ValueError(f"q = {q} does not divide p - 1 = {p - 1}")
    g = subgroup_generator(p, int(q))
    return [pow(g, j, p) for j in range(q - 1)]


def _walk_candidates(p: Prime, powers: list[int]) -> int:
    """Candidate mask from the residue-DP masks for s = 1, 2, ...: bit s is
    bit 0 of the s-th mask, the walk ending at its first full mask or at s = p-1.

    The q-1 powers are distinct, so by Cauchy-Davenport the s-fold sumset has
    at least min(p, s(q-2)+1) residues: for q >= 5 the walk ends by step
    ceil((p-1)/(q-2)). Full + A = full, so past the k0 steps before the full
    mask every s in (k0, p) is a candidate; s = 0 is none.
    """
    full = (1 << p) - 1
    steps = takewhile(lambda reach: reach != full, islice(residue_steps(p, powers), p - 1))
    bits = "".join("1" if reach & 1 else "0" for reach in steps)
    k0 = len(bits)
    return int(bits[::-1] + "0", 2) | full >> (k0 + 1) << (k0 + 1)


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
    return {s: (s - a1, a1) for s in range(1, p) if (a1 := -s * inverse % p) <= s}


def _offset_descent(p: Prime, powers: list[int]) -> list[tuple[int, ...]]:
    """BFS over residues by the offsets d_j = g^j - 1 (j = 1..q-2): the level
    dist(u) that reaches u is the least number of offsets summing to u mod p.
    wit[u] is the witness of s = -u mod p: a_0 = s - dist(u), negative if s is
    no candidate, and a_j counts d_j along the first-j descent, which steps from
    u to the u - d_j with the least j and dist(u - d_j) = dist(u) - 1. Ends once
    every residue is reached; d_1 != 0 generates Z/p, so within p - 1 levels.

    Each level is an int bitmask, like the residue walk: the residues first
    reached by d_j are the frontier rotated by d_j, less every residue reached
    so far. j runs in order, so each residue takes its least j. The work is
    levels x (q-2) mask steps plus one tuple per residue.
    """
    offsets = [(g - 1) % p for g in powers[1:]]
    wit = [(0,) * len(powers)] + [()] * (p - 1)
    frontier, unseen, level = 1, (1 << p) - 2, 0
    while unseen:
        level, reached = level + 1, 0
        for j, d in enumerate(offsets, 1):
            new = (frontier << d | frontier >> (p - d)) & unseen
            if not new:
                continue
            unseen ^= new
            reached |= new
            bits = format(new, "b")  # bit u of new is bits[top - u]
            top = len(bits) - 1
            i = bits.find("1")
            while i >= 0:
                u = top - i
                w = list(wit[u - d])  # u - d < 0 indexes u - d + p
                w[0], w[j] = p - u - level, w[j] + 1  # s = -u mod p = p - u
                wit[u] = tuple(w)
                i = bits.find("1", i + 1)
        frontier = reached
    return wit


def candidate_sums(p: Prime, q: Prime) -> NormCandidateSet:
    """All s in [1, p-1] whose norm condition holds, with audit witnesses.

    A sum qualifies iff residue 0 is reachable by exactly s allowed powers
    g^0..g^{q-2}. Each witness is the greedy (lexicographically largest)
    count vector. For q <= 3 the witnesses come from a formula and no DP runs.
    For q >= 5 they come from one offset-distance BFS: sum a_j g^j = s +
    sum_{j>=1} a_j d_j when the a_j sum to s, so s is a candidate iff
    dist(-s) <= s, and the greedy takes a_0 = s - dist(-s) steps of g^0, then
    the first-j descent from -s. The BFS takes levels x (q-2) bitmask steps
    plus one tuple per residue, and each witness is the BFS's tuple for -s,
    not a copy.
    Conjugating (replacing g by g^i) permutes the same subgroup, so the
    answer does not depend on which primitive root generated g.
    """
    powers = _norm_powers(p, q)
    if q <= 3:
        witnesses = _small_order_witnesses(p, powers)
    else:
        wit = _offset_descent(p, powers)
        witnesses = {s: w for s in range(1, p) if (w := wit[-s % p])[0] >= 0}
    return NormCandidateSet(p=p, q=Prime(q), witnesses=witnesses)


def generating_set_via_norm(p: Prime, q: Prime) -> FixtureRow:
    """The row (p, q, minimal generators) from the norm route alone.

    The generators of the monoid spanned by p, q and the candidate sums,
    passed as one coin mask to the closing loop (one _close pass per
    generator). Every coin is at most p, so a coin is a generator iff the
    closure of the smaller coins on [0, p] misses it; no member past p is
    needed, and nothing is assumed about the table route.

    No witness is built for any q. q = 2 has no candidates. For q = 3 bit s
    is a_1 <= s, the formula of _small_order_witnesses; for q >= 5 it is bit
    0 of the s-th mask of the walk, which stops at its first full mask. Audit
    witnesses come from candidate_sums, which only JSON output calls.
    """
    powers = _norm_powers(p, q)
    if q == 2:
        candidates = 0
    elif q == 3:
        inverse = pow(powers[1] - 1, -1, p)
        bits = "".join("1" if -s * inverse % p <= s else "0" for s in range(p - 1, 0, -1))
        candidates = int(bits + "0", 2)
    else:
        candidates = _walk_candidates(p, powers)
    return FixtureRow(p, q, _generate(candidates | 1 << p | 1 << q, p))


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
