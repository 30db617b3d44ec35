"""Closed-form minimal generating sets for subgroup orders 1 through 4.

Each branch is a direct formula in p (via a quadratic-form representation for
orders 3 and 4), needing no membership table. harness.ROUTES["closed"].applies
states the orders covered, once; any other order raises ValueError.
"""

from __future__ import annotations

from .characteristic import FixtureRow
from .modular import Prime, check_order, cornacchia_two_squares, eisenstein_solutions


def gen_set_closed_form(p: Prime, n: int) -> FixtureRow:
    """The row (p, n, minimal generators) of char(F_p/G) by formula, |G| = n in 1..4.

    Order 1 gives {p}; order 2 gives {2, p}; order 3 gives {3, a+b, 2a-b}
    from a^2 - ab + b^2 = p with a > b > 0; order 4 gives {2, a+b} from
    a^2 + b^2 = p with a > b > 0. Requiring n | p-1 already forces p into
    the range where each formula applies (p >= 3 for order 2, p >= 7 for
    order 3, p >= 5 for order 4), so no separate size check is needed. The
    generators are distinct with no dedupe: a + b is odd (p = a^2 + b^2 is odd)
    and at least 3 for order 4; for order 3, a + b and 2a - b both exceed 3
    (a >= 3) and differ, as a = 2b would give p = 3b^2. Minimality is
    re-verified against the table route in the test suite rather than trusted
    blindly. Raises ValueError for a p that is not prime.
    """
    p = check_order(p, n)
    if n == 1:
        return FixtureRow(p, n, (int(p),))
    if n == 2:
        return FixtureRow(p, n, (2, int(p)))
    if n == 3:
        sol, _ = eisenstein_solutions(p)
        return FixtureRow(p, n, (3, *sorted((sol.a + sol.b, 2 * sol.a - sol.b))))
    if n == 4:
        sq = cornacchia_two_squares(p)
        return FixtureRow(p, n, (2, sq.a + sq.b))
    raise ValueError(f"no closed form for subgroup order {n}")
