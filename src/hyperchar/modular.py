"""Exact modular arithmetic: primality, primitive roots, unit subgroups, and
the two quadratic-form solvers (a^2 + b^2 = p and a^2 - ab + b^2 = p).

All arithmetic is exact integer arithmetic; nothing here touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Witness set proven deterministic for every n < 2^64.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_INPUT = 1 << 63


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for all 0 <= m <= 2^63."""
    if m < 0 or m > MAX_INPUT:
        raise ValueError(f"input out of supported range [0, 2^63]: {m}")
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p

    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % m == 0:
            continue
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """An int that is checked to be prime (and to fit in 64 bits) on construction.
    A Prime argument was checked when it was built, so it is returned as it is."""

    def __new__(cls, value: int) -> "Prime":
        if isinstance(value, Prime):
            return value
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        return super().__new__(cls, value)


@dataclass(frozen=True)
class TwoSquares:
    """Solution of a^2 + b^2 = p with a >= b > 0."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not self.a >= self.b >= 1:
            raise ValueError(f"need a >= b >= 1, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class EisensteinPair:
    """Solution of a^2 - ab + b^2 = p with a > b > 0."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not self.a > self.b >= 1:
            raise ValueError(f"need a > b >= 1, got ({self.a}, {self.b})")

    @property
    def companion(self) -> "EisensteinPair":
        """The second solution sharing the same larger coordinate."""
        return EisensteinPair(self.a, self.a - self.b)


def _prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors by trial division; fine for the desk-scale moduli used here."""
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append(m)
    return tuple(factors)


@lru_cache(maxsize=None)
def find_primitive_root(p: Prime) -> int:
    """Smallest g in [1, p-1] generating all of (Z/pZ)^x: 1 for p = 2 alone.

    Fixing the smallest root keeps every downstream element list reproducible.
    Raises ValueError for a p that is not prime; a Prime was checked when built.
    """
    Prime(p)
    factors = _prime_factors(p - 1)
    for g in range(1, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError(f"no primitive root found for prime {p}")


def check_order(p: int, n: int) -> None:
    """Raise ValueError unless n >= 1 divides p - 1, as F_p/G needs."""
    if n < 1 or (p - 1) % n != 0:
        raise ValueError(f"no subgroup of order {n} in (Z/{p}Z)^x: {n} does not divide {p - 1}")


def subgroup_generator(p: Prime, n: int) -> int:
    """g^((p-1)/n) for g = find_primitive_root(p): the canonical generator of
    the order-n subgroup, without building its elements."""
    check_order(p, n)
    return pow(find_primitive_root(p), (p - 1) // n, p)


def subgroup_of_order(p: Prime, n: int) -> tuple[int, ...]:
    """The sorted elements of the unique order-n subgroup of (Z/pZ)^x, built
    uncached as the powers of subgroup_generator(p, n). The subgroup is named
    by (p, n) alone: F_p^x is cyclic, with one subgroup of each order n | p-1."""
    h = subgroup_generator(p, n)
    elements = []
    x = 1
    for _ in range(n):
        elements.append(x)
        x = x * h % p
    if x != 1 or len(set(elements)) != n:
        raise AssertionError(f"generator {h} has wrong order for subgroup ({p}, {n})")
    return tuple(sorted(elements))


def _cornacchia(p: int, d: int) -> tuple[int, int]:
    """(x, y) with x^2 + d*y^2 = p and y > 0, for d in {1, 3} and -d a square
    mod the prime p, by Euclid's descent (Cohen, Alg. 1.5.2). The root of -d
    needs no factoring of p - 1: it is a primitive k-th root of unity z for
    d = 1 (k = 4), and 2z + 1 for d = 3 (k = 3), as (2z+1)^2 = 4(z^2+z+1) - 3.
    """
    k = 4 if d == 1 else 3
    # z^k = 1, so z has exact order k (3 or 4) iff z^2 != 1; for p = 1 (mod k)
    # a non-residue (k = 4) or a non-cube (k = 3) below p gives one.
    roots = (pow(c, (p - 1) // k, p) for c in range(2, p))
    if (z := next((z for z in roots if pow(z, 2, p) != 1), None)) is None:
        raise AssertionError(f"no element of order {k} mod p={p}")
    r_prev, x = p, z if d == 1 else (2 * z + 1) % p
    while x * x > p:
        r_prev, x = x, r_prev % x
    y = math.isqrt((p - x * x) // d)
    if y == 0 or x * x + d * y * y != p:
        raise AssertionError(f"descent failed for p={p}, d={d}")
    return x, y


def cornacchia_two_squares(p: Prime) -> TwoSquares:
    """The unique (a, b) with a >= b > 0 and a^2 + b^2 = p.

    Requires p = 2 or p = 1 (mod 4); no representation exists otherwise.
    """
    if p == 2:
        return TwoSquares(1, 1)
    if p % 4 != 1:
        raise ValueError(f"{p} = 3 (mod 4) has no two-square representation")
    a, b = _cornacchia(int(p), 1)
    return TwoSquares(max(a, b), min(a, b))


def eisenstein_solutions(p: Prime) -> tuple[EisensteinPair, EisensteinPair]:
    """Both solutions (a, b), (a, a-b) of a^2 - ab + b^2 = p with a > b > 0.

    Ordered by ascending second coordinate. Requires p = 1 (mod 3) and p >= 7.
    From x^2 + 3y^2 = p, the pair (x + y, 2y) solves the form in some order.
    """
    if p % 3 != 1:
        raise ValueError(f"{p} != 1 (mod 3): x^2 - xy + y^2 = p has no positive solution pair")
    if p < 7:
        raise ValueError(f"p must be at least 7, got {p}")
    x, y = _cornacchia(int(p), 3)
    a, b = max(x + y, 2 * y), min(x + y, 2 * y)
    first = EisensteinPair(a, min(b, a - b))
    return first, first.companion
