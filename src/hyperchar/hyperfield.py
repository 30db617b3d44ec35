"""Quotient hyperfields F_p/G: orbit classes with multivalued addition.

Elements are orbits of Z/pZ under multiplication by a unit subgroup G, named
by their smallest member. Addition of two classes returns the set of classes
meeting the elementwise sum of the orbits; multiplication of classes is
single-valued. Everything is small and finite, so the axiom audit below is a
plain exhaustive check rather than a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import product
from typing import Callable, Iterable

from .modular import check_order, subgroup_of_order


class QuotientHyperfield:
    """F_p/G for G the order-n subgroup of (Z/pZ)^x.

    Class representatives are 0 and the minimum of each unit orbit, so the
    element universe is reproducible across runs.
    """

    def __init__(self, p: int, n: int):
        self.p = p = check_order(p, n)
        self.order = n
        elements = subgroup_of_order(p, n)
        rep = [0] * p
        orbits: dict[int, tuple[int, ...]] = {0: (0,)}
        for r in range(1, p):
            if not rep[r]:  # no smaller residue shares r's orbit, so r is its least member
                orbits[r] = orbit = tuple(sorted(r * g % p for g in elements))
                for m in orbit:
                    rep[m] = r
        self._rep = tuple(rep)
        self._orbits = orbits
        self.classes: tuple[int, ...] = tuple(sorted(orbits))
        self.zero = 0
        self.one = self._rep[1]

    def __repr__(self) -> str:
        return f"QuotientHyperfield(p={int(self.p)}, n={self.order})"

    def class_of(self, value: int) -> int:
        """Canonical representative of the class containing an integer."""
        return self._rep[value % self.p]

    def orbit(self, x: int) -> tuple[int, ...]:
        """All residues in the class of x, sorted."""
        return self._orbits[self.class_of(x)]

    def hyperadd(self, x: int, y: int) -> frozenset[int]:
        """Set of classes contained in orbit(x) + orbit(y).

        The elementwise sum is G-stable, so it suffices to add the single
        representative x to each member of orbit(y).
        """
        x = self.class_of(x)
        return frozenset(self._rep[(x + b) % self.p] for b in self.orbit(y))

    def hypermul(self, x: int, y: int) -> int:
        """Product class; independent of the chosen orbit members."""
        return self._rep[x * y % self.p]

    def neg(self, x: int) -> int:
        """The unique class y with 0 in x + y."""
        return self._rep[(self.p - x % self.p) % self.p]

    def n_fold_sums(self, n: int) -> frozenset[int]:
        """Set of classes reachable as a sum of exactly n copies of one.

        Each fold is a function of the last, so the walk from {0} keeps one
        fold, stops at a fold equal to its predecessor, and on a return to {0}
        after k folds reduces n mod k. Within p folds one of the two happens
        (Cauchy-Davenport for nontrivial G: fold p-1 holds every class, and so
        does fold p; fold p is {0} for trivial G), so a walk that reaches fold
        p without either raises AssertionError rather than run n folds."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        fold, k = frozenset([self.zero]), 0
        while k < n:
            nxt = frozenset().union(*(self.hyperadd(x, self.one) for x in fold))
            if nxt == fold:
                break
            fold, k = nxt, k + 1
            if fold == {self.zero}:
                n, k = n % k, 0
            elif k >= self.p:
                raise AssertionError(f"{self!r}: no fixed point or return to 0 within {int(self.p)} folds")
        return fold


@dataclass
class AxiomReport:
    """Exhaustive audit results for one quotient hyperfield.

    `counterexamples` holds (axiom name, witness tuple) pairs and is empty
    exactly when every flag is true.
    """

    identity_ok: bool
    unique_inverses_ok: bool
    reversibility_ok: bool
    associativity_ok: bool
    commutativity_ok: bool
    distributivity_ok: bool
    absorption_ok: bool
    multiplicative_inverses_ok: bool
    counterexamples: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self) if f.name.endswith("_ok"))


def _first_failure(tuples: Iterable[tuple], holds: Callable[..., bool]) -> list[tuple]:
    """The first tuple that `holds` rejects, as a one-item list; [] if none."""
    for t in tuples:
        if not holds(*t):
            return [t]
    return []


def check_axioms(H: QuotientHyperfield) -> AxiomReport:
    """Check every hyperfield axiom on every tuple of classes.

    Exhaustive over pairs and triples, so only sensible at desk scale. Each
    failed axiom records its first witness, except unique_inverses, which
    records every class without exactly one inverse. Once every nonzero class
    has an inverse and the product commutes, the product is checked for
    associativity on every triple of nonzero classes, so multiplicative_inverses
    holds iff the nonzero classes form an abelian group; a product that does
    not commute has already failed commutativity.
    """
    cls = H.classes
    zero, one, mul = H.zero, H.one, H.hypermul
    add = {(x, y): H.hyperadd(x, y) for x, y in product(cls, repeat=2)}
    inverses = {x: tuple(y for y in cls if zero in add[x, y]) for x in cls}
    neg = {x: ys[0] for x, ys in inverses.items() if len(ys) == 1}
    singles = [(x,) for x in cls]
    nonzero = [x for x in cls if x != zero]
    # nonzero classes must form an abelian group with identity one != zero
    units = [(zero, one)] if one == zero else _first_failure(
        ((x,) for x in nonzero),
        lambda x: mul(x, one) == x and any(mul(x, y) == one for y in nonzero),
    )
    if not units and all(mul(x, y) == mul(y, x) for x, y in product(nonzero, repeat=2)):
        units = _first_failure(product(nonzero, repeat=3),
                               lambda x, y, z: mul(mul(x, y), z) == mul(x, mul(y, z)))

    # axiom name -> witnesses, in the order they are recorded; None means the
    # axiom could not be checked, which fails it without a witness
    found = {
        "identity": _first_failure(singles, lambda x: add[x, zero] == {x} == add[zero, x]),
        "unique_inverses": [(x, ys) for x, ys in inverses.items() if len(ys) != 1],
        "commutativity": _first_failure(
            product(cls, repeat=2),
            lambda x, y: add[x, y] == add[y, x] and mul(x, y) == mul(y, x),
        ),
        # z in x + y must give x in z + (-y), with -y read off the addition table
        "reversibility": _first_failure(
            ((x, y, z) for x, y in product(cls, repeat=2) for z in add[x, y]),
            lambda x, y, z: x in add[z, neg[y]],
        ) if len(neg) == len(cls) else None,
        "associativity": _first_failure(
            product(cls, repeat=3),
            lambda x, y, z: frozenset().union(*(add[w, z] for w in add[x, y]))
            == frozenset().union(*(add[x, v] for v in add[y, z])),
        ),
        "distributivity": _first_failure(
            product(cls, repeat=3),
            lambda a, x, y: frozenset(mul(a, w) for w in add[x, y]) == add[mul(a, x), mul(a, y)],
        ),
        "absorption": _first_failure(singles, lambda x: mul(x, zero) == zero == mul(zero, x)),
        "multiplicative_inverses": units,
    }
    return AxiomReport(
        **{f"{name}_ok": witnesses == [] for name, witnesses in found.items()},
        counterexamples=[(name, w) for name, witnesses in found.items() for w in witnesses or ()],
    )
