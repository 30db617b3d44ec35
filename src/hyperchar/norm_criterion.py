"""Norm-vanishing route to generating sets for prime subgroup order q.

A sum s < p is a candidate generator when some coefficient tuple (a_0, ...,
a_{q-2}) with total s makes the cyclotomic norm of sum a_i zeta^i vanish
mod p. The norm is a product of conjugate evaluations at the powers of a
primitive q-th root g in F_p, and a product over a field vanishes iff one
factor does, so candidacy reduces to: can exactly s terms drawn from
{g^0, ..., g^{q-2}} sum to 0 mod p. When the a_j total s, sum a_j g^j =
s - sum_{j>=1} a_j e_j with steps e_j = 1 - g^j, so that holds iff s is a
sum of at most s steps e_j mod p, the rest of the s terms being g^0. One
BFS over Z/p from 0 by the steps gives level(s), the fewest steps that sum
to s: s is a candidate iff level(s) <= s. The same level loop decides
candidacy and builds the witnesses, and no residue walk of the dp runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characteristic import FixtureRow, _generate, _levels
from .modular import Prime, check_order, subgroup_generator


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


def _norm_steps(p: int, q: int) -> tuple[Prime, Prime, list[int]]:
    """p and q as Primes, and the steps e_j = 1 - g^j mod p for j = 1..q-2,
    where g is the canonical primitive q-th root mod p.

    Raises ValueError unless p is prime and q is a prime divisor of p - 1.
    """
    p, q = check_order(p, q), Prime(q)
    g = subgroup_generator(p, q)
    return p, q, [(1 - pow(g, j, p)) % p for j in range(1, q - 1)]


def _order_three(p: Prime, step: int):
    """(s, level(s)) for s = 1..p-1 when q = 3, from a formula instead of a BFS.

    a_0 + a_1 = s and a_0 + a_1 g = 0 force a_1 (g - 1) = -s mod p, so a_1 =
    -s (g-1)^{-1} = s / e_1 mod p is the only solution with a_1 in [0, p-1].
    It is level(s): s is a candidate iff a_1 <= s, with witness (s - a_1, a_1).
    """
    inverse = pow(step, -1, p)
    return ((s, s * inverse % p) for s in range(1, p))


def _offset_descent(p: Prime, steps: list[int]) -> list[tuple[int, ...]]:
    """wit[s] for every s in Z/p: a_0 = s - level(s), negative if s is no
    candidate, and a_j counts e_j along the first-j descent, which steps from s
    to the s - e_j with the least j and level(s - e_j) = level(s) - 1.

    The new sums of a level that e_j reaches are the frontier rotated by e_j,
    less those a smaller j reached, so each s takes its least j and wit[s] is
    wit[s - e_j] with one more e_j. The work is levels x (q-2) mask steps on
    top of the BFS's, plus one tuple per residue.
    """
    wit = [(0,) * (len(steps) + 1)] + [()] * (p - 1)
    for level, frontier, new in _levels(p, steps):
        for j, e in enumerate(steps, 1):
            first = (frontier << e | frontier >> (p - e)) & new
            new ^= first
            bits = format(first, "b")  # bit s of first is bits[top - s]
            top = len(bits) - 1
            i = bits.find("1")
            while i >= 0:
                s = top - i
                w = list(wit[s - e])  # s - e < 0 indexes s - e + p
                w[0], w[j] = s - level, w[j] + 1
                wit[s] = tuple(w)
                i = bits.find("1", i + 1)
    return wit


def candidate_sums(p: Prime, q: Prime) -> NormCandidateSet:
    """All s in [1, p-1] whose norm condition holds, with audit witnesses.

    Each witness is the greedy (lexicographically largest) count vector: a_0 =
    s - level(s) terms g^0, then the first-j descent from s. For q <= 3 the
    witnesses come from a formula and no BFS runs. For q >= 5 each witness is
    the BFS's tuple for s, not a copy.
    Conjugating (replacing g by g^i) permutes the same subgroup, so the
    answer does not depend on which primitive root generated g.
    """
    p, q, steps = _norm_steps(p, q)
    if q == 2:
        witnesses = {}
    elif q == 3:
        witnesses = {s: (s - a1, a1) for s, a1 in _order_three(p, steps[0]) if a1 <= s}
    else:
        wit = _offset_descent(p, steps)
        witnesses = {s: wit[s] for s in range(1, p) if wit[s][0] >= 0}
    return NormCandidateSet(p=p, q=q, witnesses=witnesses)


def generating_set_via_norm(p: Prime, q: Prime) -> FixtureRow:
    """The row (p, q, minimal generators) from the norm route alone.

    The generators of the monoid spanned by p, q and the candidate sums,
    passed as one coin mask to the closing loop (one _close pass per
    generator). Every coin is at most p, so a coin is a generator iff the
    closure of the smaller coins on [0, p] misses it; no member past p is
    needed, and nothing is assumed about the table route.

    No witness is built for any q. For q = 3 bit s is a_1 <= s. Otherwise the
    candidates are the s >= level(s), each BFS level's new sums at or above
    it. q = 2 has no steps, so the BFS reaches nothing: 0 < s < p ones never
    sum to 0 mod p. Audit witnesses come from candidate_sums, which only JSON
    output calls.
    """
    p, q, steps = _norm_steps(p, q)
    candidates = 0
    if q == 3:
        bits = "".join("1" if a1 <= s else "0" for s, a1 in _order_three(p, steps[0]))
        candidates = int(bits[::-1] + "0", 2)
    else:
        for level, _, new in _levels(p, steps):
            candidates |= new >> level << level
    return FixtureRow(p, q, _generate(candidates | 1 << p | 1 << q))


def tuple_bound(p: Prime, q: Prime) -> int:
    """Size bound for the naive coefficient-tuple enumeration.

    C(p+q-2, q-1) minus the count of tuples whose total is a positive
    multiple of p too small to reach, summed in closed form. Exact integer
    arithmetic throughout. Raises ValueError unless p is prime and q is a
    prime divisor of p - 1.
    """
    p, q = check_order(p, q), Prime(q)
    total = math.comb(p + q - 2, q - 1)
    removed = sum(math.comb(q - 2 + k * q, q - 2) for k in range(0, (p - q - 1) // q + 1))
    return total - removed
