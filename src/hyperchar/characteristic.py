"""Characteristic submonoid of a quotient hyperfield F_p/G, computed exactly.

The submonoid is S = {s >= 0 : some multiset of s elements of G sums to 0 mod p}.
Membership is decided by a reachable-residue dynamic program over big-integer
bitmasks: bit r of the step-k mask says "some sum of exactly k subgroup elements
is congruent to r mod p". A step shifts the mask by every element into one
wide int and folds the wrapped bits p..2p-2 back once. For nontrivial G the
walk stops after p-2 steps: by Cauchy-Davenport every s >= p-1 is a member,
so the rest of the window is set without stepping. Three cases take no walk:
for trivial G (n = 1) the members are the multiples of p; for G = {1, -1}
(n = 2) they are the even s and the s >= p, with generators {2, p}; and for G
of index 1 or 2 with n >= 3 they are every s >= 3, and 2 for even n, with
generators {2, 3} (Krasner's hyperfield at n = p - 1) or {3, 4, 5}. Each minimal
generator is the least member outside the closure of the smaller ones,
closed in by doubling shifts; the norm route runs the same loop on its coin
mask. Every route returns its answer as one FixtureRow (p, n, minimal
generators), the row that fixtures and the CLI carry. All results are exact;
no sampling, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Iterable, Optional

from .modular import Prime, check_order, subgroup_of_order


@dataclass(frozen=True)
class CharacteristicSet:
    """Characteristic submonoid: bit s of `mask` says s is a member, for s in
    the window [0, bound], bound = 2p. Past 2(p-1) membership is p-periodic
    (all s >= p-1 for nontrivial G, the multiples of p for trivial G), so the
    window holds every answer and `s in S` is exact for every s >= 0. p and
    the order pass check_order, as in FixtureRow."""

    p: Prime
    order: int
    mask: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_order(self.p, self.order))  # frozen, so set directly
        if self.mask >> (self.bound + 1) or not self.mask & 1:
            raise ValueError("mask needs bit 0 (0 is in every submonoid) and no bits past bound")

    @property
    def bound(self) -> int:
        return 2 * self.p

    @cached_property
    def member(self) -> tuple[bool, ...]:
        """Read-only view of the mask: member[s] for s in [0, bound]."""
        return tuple(bit == "1" for bit in format(self.mask, f"0{self.bound + 1}b")[::-1])

    @property
    def continuity_threshold(self) -> Optional[int]:
        """Start of the certified all-member tail of the window, or None.

        A trailing run of members certifies every larger integer only when the
        run has length >= p: together with p itself (always a member) a run of
        p consecutive members reaches everything beyond it. Shorter trailing
        runs prove nothing about values past the window, so they give None.
        """
        # the tail starts after the highest non-member in [1, bound], or at 1
        start = max((~self.mask & ((1 << (self.bound + 1)) - 2)).bit_length(), 1)
        if not self.mask >> self.bound & 1 or self.bound - start + 1 < self.p:
            return None
        return start

    def __contains__(self, s: int) -> bool:
        if s > self.bound:  # the last period of the window, (p, 2p], repeats
            s = self.bound - (self.bound - s) % self.p
        return s >= 0 and bool(self.mask >> s & 1)


def braced(generators: Iterable[int], sep: str = " ") -> str:
    """The `{g1 g2 ...}` text of a generator list, as fixtures and the CLI print it."""
    return "{" + sep.join(map(str, generators)) + "}"


@dataclass(frozen=True)
class FixtureRow:
    """One (p, n, minimal generators) row: what every route returns, and what
    fixtures, `table` and `verify` carry. Generators are sorted ascending."""

    p: Prime
    order: int
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", check_order(self.p, self.order))  # frozen, so set directly
        if list(self.generators) != sorted(set(self.generators)):
            raise ValueError("generators must be strictly increasing")
        if any(g < 1 for g in self.generators):
            raise ValueError("generators must be positive")

    def as_line(self) -> str:
        return f"{int(self.p)},{self.order},{braced(self.generators)}"


def _levels(p: Prime, steps: list[int]):
    """BFS over Z/p from 0 by the steps: yield (level, frontier, new) for level
    = 1, 2, ..., where new holds the s first reached at that level and frontier
    those of the level before, each as an int bitmask. It stops after the
    level that reaches the last unseen residue, or at the first level that
    reaches nothing, so each level takes a new residue: at most p - 1 levels
    for any steps, none without steps, and no pass over the steps past the
    level that fills Z/p.

    A level shifts the frontier once per step into one wide int and folds it
    once: every step is in [1, p-1], so a sum wraps past p at most once. With
    k distinct nonzero steps the k + 1 sums of at most one step are distinct,
    so by Cauchy-Davenport the sums of at most j steps cover min(p, jk+1)
    residues: the BFS ends by level ceil((p-1)/k). That is k = q - 2 for the
    norm route's steps and k = n - 1 for the kp criterion's.
    """
    frontier, unseen = 1, (1 << p) - 2
    for level in count(1):
        wide = 0
        for e in steps:
            wide |= frontier << e
        if not (new := (wide | wide >> p) & unseen):
            return
        unseen ^= new
        yield level, frontier, new
        if not unseen:
            return
        frontier = new


def characteristic_bitset(p: Prime, n: int) -> CharacteristicSet:
    """Exact membership table of char(F_p/G) for G the order-n unit subgroup,
    on the window [0, 2p].

    For trivial G, s ones sum to 0 mod p iff p | s, so the mask is the
    multiples of p, 0, p and 2p, with no walk; its one generator p lies in the
    window.

    For G = {1, -1} (n = 2) the mask is a formula too, with no walk. A sum of
    s elements is an integer of the parity of s in [-s, s], so it is 0 mod p
    iff it is 0, for even s, or +-p, for odd s >= p; 2p is even, so no odd sum
    reaches it. The mask is the even bits of [0, 2p] and the odd bits of
    [p, 2p], and the generators are {2, p}.

    For n >= 3 and 2n >= p-1, G of index 1 or 2, the mask is also a formula,
    with no walk:
    - (G + G) minus 0 is all of F_p^x. For h in G, c in G + G gives hc in
      G + G, so (G + G) minus 0 is a union of cosets of G. Cauchy-Davenport
      gives |G + G| >= min(p, 2n-1), so the union has at least
      min(p-1, 2n-2) elements. For n >= 3 that is more than n, so more than
      one coset: every coset when the index is 1 or 2. At p = 5, n = 2 the
      union is only {2, 3}, hence n >= 3.
    - Every s >= 3 is a member. Take h in G, h != 1: s-3 ones, h, and two
      elements of G that sum to -(s-3+h). If s-3+h = 0 mod p, then s-2 is not,
      so take s-2 ones and two elements that sum to -(s-2).
    - s = 1 is never a member, and s = 2 is one iff -1 is in G, iff n is even.
    So the mask is bit 0, bit 2 for even n, and bits 3..2p; the generators are
    {2, 3} for even n (Krasner's hyperfield {0, 1} at n = p-1) and {3, 4, 5}
    for odd n.

    For any other G (n >= 3) Cauchy-Davenport gives
    |sG| >= min(p, s(n-1)+1), which is p at s = p-1: every residue, 0
    included, is a sum of s elements for every s >= p-1. So the DP walks only
    steps 1..p-2 and bits p-1..2p are set without stepping. Each s >= 2(p-1)
    then splits as (p-1) + (s-p+1) into two members: no minimal generator
    lives at 2(p-1) or beyond, and the extraction in minimal_generating_set is
    sound. Only this walk builds the subgroup.
    """
    p = check_order(p, n)
    if n == 1:
        return CharacteristicSet(p=p, order=n, mask=1 | 1 << p | 1 << 2 * p)
    if n == 2:  # the even bits of [0, 2p] and the odd bits of [p, 2p]
        evens, odd_tail = ((1 << 2 * p + 2) - 1) // 3, ((1 << p + 1) - 1) // 3 << p
        return CharacteristicSet(p=p, order=n, mask=evens | odd_tail)
    if 2 * n >= p - 1:
        return CharacteristicSet(p=p, order=n, mask=(1 << 2 * p + 1) - (4 if n % 2 == 0 else 8) | 1)
    elements = subgroup_of_order(p, n)
    residues, reach, bits = (1 << p) - 1, 1, []
    for _ in range(p - 2):
        wide = 0
        for g in elements:
            wide |= reach << g
        reach = (wide | wide >> p) & residues  # elements are in [1, p-1]: one fold
        bits.append("1" if reach & 1 else "0")
    # bit 0 of step s becomes bit s of the mask; the trailing "1" is the member 0,
    # and the leading p + 2 ones are the members p-1..2p
    return CharacteristicSet(p=p, order=n, mask=int("1" * (p + 2) + "".join(bits)[::-1] + "1", 2))


def _close(mask: int, c: int, bound: int) -> int:
    """mask plus every multiple of c > 0 added to its members, within [0, bound]:
    after shifts by c, 2c, ..., 2^j c every k c with k < 2^(j+1) is added."""
    window = (1 << (bound + 1)) - 1
    while c <= bound:
        mask |= (mask << c) & window
        c *= 2
    return mask


def _generate(mask: int) -> tuple[int, ...]:
    """Minimal generators of the monoid that the set bits of mask generate.

    A member is a minimal generator iff the monoid of the smaller generators
    misses it, so each generator is the least bit of mask outside the closure
    of those found so far, closed in by one _close pass. Sums only grow, so
    the closure on [0, bound], bound the top bit of mask, decides every bit.
    """
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    bound = mask.bit_length() - 1
    generators, closure = [], 1
    while rest := mask & ~closure:
        g = (rest & -rest).bit_length() - 1
        generators.append(g)
        closure = _close(closure, g, bound)
    return tuple(generators)


def minimal_generating_set(S: CharacteristicSet) -> FixtureRow:
    """The row (p, n, minimal generators) of the characteristic submonoid.

    Sound because the window [0, 2p] of S.mask passes 2(p-1), and no minimal
    generator reaches 2(p-1) (see characteristic_bitset); for the trivial
    subgroup the set is {p}.
    """
    return FixtureRow(S.p, S.order, _generate(S.mask))


def kp_representation_check(p: Prime, n: int, s: int) -> bool:
    """Decide membership of s in char(F_p/G), G the order-n unit subgroup,
    without the residue DP.

    s is a member iff some deficit t = kp - s >= 0 is a sum of at most s terms
    g - 1 (g in G, g > 1): a zero-sum multiset of s elements, b_i copies of
    g_i, sums to some kp, and conversely. Reduced mod p, s is a member iff
    level(s mod p) <= s, where level(r) is the fewest steps 1 - g (g in G,
    g != 1) that sum to r mod p: level 0 for r = 0, else the BFS level of
    _levels that first reaches r, and no level if the BFS ends first. Trivial
    G has no steps, so the BFS reaches nothing and s is a member iff p | s. By
    Cauchy-Davenport the s-fold sumset of G has at least min(p, s(n-1)+1)
    residues, so every s >= ceil((p-1)/(n-1)) is a member with no BFS and no
    subgroup; below it s < p for nontrivial G, and the BFS stops once its
    level passes s, each level a mask of p bits.
    """
    p = check_order(p, n)
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if s % p == 0 or s * (n - 1) >= p - 1:
        return True
    steps = [(1 - g) % p for g in subgroup_of_order(p, n) if g != 1]
    levels = (level for level, _, new in _levels(p, steps) if new >> s & 1 or level > s)
    return next(levels, s + 1) <= s
