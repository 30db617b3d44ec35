"""Regenerate the benchmark's reference data from every applicable route.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 bench/make_reference.py

Writes bench/reference/table.txt, the table rows for 200 <= p <= the table
workload's bound, and bench/reference/genset.jsonl, every instance each genset
workload can draw with its expected generators (and, for the norm route, its
candidate sums). A row is written only when all applicable routes agree: the
dp, closed and norm routes of the program where they can run, and for the
closed route at p near 10^12, where the others cannot, an independent
Cornacchia solution computed here. Exits 1 on any disagreement.
"""

from __future__ import annotations

import json
import math
import sys

from hyperchar import (
    Prime, candidate_sums, characteristic_bitset, cross_validate, gen_set_closed_form,
    generating_set_via_norm, is_prime, minimal_generating_set,
)

from run import REFERENCE, SHIPPED_BELOW, TABLE_P_MAX

# (workload, slot, route, format, primes in [lo, hi], subgroup order from p).
# Each band is narrow enough that the instances it holds cost about the same,
# so the seed changes the inputs but hardly the amount of work.
BANDS = [
    ("genset-large", 0, "dp", "plain", 1480, 1500, lambda p: (p - 1) // 2),
    ("genset-large", 1, "dp", "plain", 20000, 20100, lambda p: 2),
    ("genset-large", 2, "norm", "json", 1015, 1040, lambda p: 3),
    ("genset-large", 3, "norm", "json", 950, 970, lambda p: 7),
    ("genset-large", 4, "closed", "plain", 10**12, 10**12 + 400, lambda p: 3),
    ("genset-large", 5, "closed", "plain", 10**12, 10**12 + 400, lambda p: 4),
]


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def cornacchia(d: int, p: int) -> tuple[int, int]:
    """(x, y) with x^2 + d y^2 = p, x, y > 0."""
    r0, r1 = p, sqrt_mod(-d, p)
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    rest = p - r1 * r1
    y = math.isqrt(rest // d)
    if rest % d or y * y * d != rest or y == 0:
        raise ValueError(f"no representation x^2 + {d}y^2 = {p}")
    return r1, y


def closed_generators(p: int, n: int) -> tuple[int, ...]:
    """The closed-form set for n = 3 or 4, from this file's own Cornacchia."""
    if n == 4:
        x, y = cornacchia(1, p)
        return tuple(sorted({2, x + y}))
    x, y = cornacchia(3, p)
    a, b = (x + y, 2 * y) if x > y else (2 * y, x + y)
    if not (a > b > 0 and a * a - a * b + b * b == p):
        raise ValueError(f"bad Eisenstein pair for {p}")
    return tuple(sorted({3, a + b, 2 * a - b}))


def route_results(p: int, n: int) -> dict[str, tuple[int, ...]]:
    if p > 10**6:
        return {"closed": gen_set_closed_form(Prime(p), n).generators,
                "independent": closed_generators(p, n)}
    out = {"dp": minimal_generating_set(characteristic_bitset(Prime(p), n)).generators}
    if n <= 4:
        out["closed"] = gen_set_closed_form(Prime(p), n).generators
    if is_prime(n):
        out["norm"] = generating_set_via_norm(Prime(p), Prime(n)).generators
    return out


def main() -> int:
    ok = True
    table = []
    for p in range(SHIPPED_BELOW, TABLE_P_MAX + 1):
        if is_prime(p):
            for n in (n for n in range(1, p) if (p - 1) % n == 0):
                comparison = cross_validate(Prime(p), n)
                ok &= comparison.agree
                gens = " ".join(map(str, comparison.results["dp"]))
                table.append(f"{p},{n},{{{gens}}}")
    (REFERENCE / "table.txt").write_text(
        f"# p,n,{{generators}} for {SHIPPED_BELOW} <= p <= {TABLE_P_MAX}; "
        "all applicable routes agree\n" + "\n".join(table) + "\n", encoding="utf-8")

    records = []
    for workload, slot, route, fmt, lo, hi, order in BANDS:
        for p in range(lo, hi + 1):
            if not is_prime(p) or (p - 1) % order(p):
                continue
            n = order(p)
            results = route_results(p, n)
            if len(set(results.values())) != 1:
                print(f"disagreement at p={p}, n={n}: {results}", file=sys.stderr)
                ok = False
            record = {"workload": workload, "slot": slot, "p": p, "n": n, "route": route,
                      "format": fmt, "generators": list(results[route])}
            if route == "norm":
                record["sums"] = list(candidate_sums(Prime(p), Prime(n)).sums)
            records.append(json.dumps(record, sort_keys=True))
    (REFERENCE / "genset.jsonl").write_text("\n".join(records) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
