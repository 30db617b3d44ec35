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
from typing import Iterator

from .characteristic import GeneratingSet, monoid_minimal_generators, residue_steps
from .modular import Prime, is_prime, subgroup_of_order


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


def _norm_steps(p: Prime, q: int) -> tuple[list[int], Iterator[int]]:
    """The allowed powers g^0..g^{q-2} and the residue-DP masks over them for
    s = 1..p-1, where g is the canonical primitive q-th root mod p.

    Raises ValueError unless q is a prime divisor of p - 1.
    """
    q = Prime(q)
    if (p - 1) % q != 0:
        raise ValueError(f"q = {q} does not divide p - 1 = {p - 1}")
    g = subgroup_of_order(p, int(q)).generator
    powers = [pow(g, j, p) for j in range(q - 1)]
    return powers, islice(residue_steps(p, powers), p - 1)


def fp_norm(coeffs, p: Prime, q: Prime) -> int:
    """Norm of f(zeta_q) = sum coeffs[j] zeta^j, evaluated inside F_p.

    Returns the product of f(g^i) over i = 1..q-1 for g the canonical
    primitive q-th root mod p; this is congruent mod p to the cyclotomic
    norm, so norm-vanishing can be tested without leaving F_p.
    """
    if q < 2 or not is_prime(q) or (p - 1) % q != 0:
        raise ValueError(f"q must be a prime divisor of p-1, got q={q}, p={p}")
    coeffs = list(coeffs)
    if len(coeffs) != q - 1:
        raise ValueError(f"expected {q - 1} coefficients, got {len(coeffs)}")
    g = subgroup_of_order(p, int(q)).generator
    out = 1
    for i in range(1, q):
        x = pow(g, i, p)
        fx = 0
        for c in reversed(coeffs):
            fx = (fx * x + c) % p
        out = out * fx % p
    return out


def reduce_cyclotomic_coeffs(coeffs, p: Prime) -> tuple[int, ...]:
    """Rewrite q coefficients (exponents 0..q-1) as q-1 (exponents 0..q-2).

    Subtracting the top coefficient from all q coefficients leaves every
    conjugate evaluation unchanged, because each g^i with i in 1..q-1 is a
    nontrivial q-th root of unity and so sums the full power run to zero.
    """
    coeffs = [c % p for c in coeffs]
    top = coeffs[-1]
    return tuple((c - top) % p for c in coeffs[:-1])


def candidate_sums(p: Prime, q: Prime) -> NormCandidateSet:
    """All s in [1, p-1] whose norm condition holds, with audit witnesses.

    Runs the exact-count reachable-residue DP over the allowed powers
    g^0..g^{q-2}; a sum qualifies iff residue 0 is reachable in exactly s
    steps. Conjugating (replacing g by g^i) permutes the same subgroup, so
    the answer does not depend on which primitive root generated g.
    """
    powers, steps = _norm_steps(p, q)
    # masks[k] bit r set iff some multiset of exactly k allowed powers sums to
    # r; all p masks are kept for the witness backtracking below
    masks = [1, *steps]

    sums = [s for s in range(1, p) if masks[s] & 1]
    witnesses: dict[int, tuple[int, ...]] = {}
    for s in sums:
        counts = [0] * (q - 1)
        residue = 0
        for k in range(s, 0, -1):
            for j, g in enumerate(powers):
                prev = (residue - g) % p
                if (masks[k - 1] >> prev) & 1:
                    counts[j] += 1
                    residue = prev
                    break
            else:
                raise AssertionError(f"backtrack failed at ({p}, {q}), s={s}")
        witnesses[s] = tuple(counts)
    return NormCandidateSet(p=p, q=Prime(q), sums=tuple(sums), witnesses=witnesses)


def generating_set_via_norm(p: Prime, q: Prime) -> GeneratingSet:
    """Minimal generating set from the norm route alone.

    Forms the monoid generated by {p, q} and the candidate sums on [0, 2p]
    and extracts minimal generators. Every explicit generator is at most p,
    so the 2p window sees all of their pairwise sums and the extraction is
    sound without assuming anything about the table route.

    Candidacy is read from bit 0 of each forward residue-DP mask; no mask is
    kept and no witness is built. Audit witnesses come from candidate_sums,
    which only JSON output calls.
    """
    _, steps = _norm_steps(p, q)
    sums = [s for s, reach in enumerate(steps, 1) if reach & 1]
    coins = sorted({int(p), int(q), *sums})
    bound = 2 * p
    member = [False] * (bound + 1)
    member[0] = True
    for v in range(1, bound + 1):
        member[v] = any(c <= v and member[v - c] for c in coins)
    return GeneratingSet(generators=monoid_minimal_generators(member))


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
