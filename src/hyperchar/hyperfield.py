"""Quotient hyperfields F_p/G: orbit classes with multivalued addition.

Elements are orbits of Z/pZ under multiplication by a unit subgroup G, named
by their smallest member. Addition of two classes returns the set of classes
meeting the elementwise sum of the orbits; multiplication of classes is
single-valued. Everything is small and finite, so the axiom audit below is a
plain exhaustive check rather than a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .modular import Prime, UnitSubgroup, subgroup_of_order


class QuotientHyperfield:
    """F_p/G for G the order-n subgroup of (Z/pZ)^x.

    Class representatives are 0 and the minimum of each unit orbit, so the
    element universe is reproducible across runs.
    """

    def __init__(self, p: int, n: int):
        p = Prime(p)
        self.p = p
        self.subgroup: UnitSubgroup = subgroup_of_order(p, n)
        rep = [0] * p
        orbits: dict[int, tuple[int, ...]] = {0: (0,)}
        for r in range(1, p):
            if rep[r]:  # already in the orbit of a smaller residue
                continue
            orbit = sorted(r * g % p for g in self.subgroup.elements)
            for m in orbit:
                rep[m] = orbit[0]
            orbits[orbit[0]] = tuple(orbit)
        self._rep = tuple(rep)
        self._orbits = orbits
        self.classes: tuple[int, ...] = tuple(sorted(orbits))
        self.zero = 0
        self.one = self._rep[1]
        self._add_memo: dict[tuple[int, int], frozenset[int]] = {}
        self._folds: list[frozenset[int]] = [frozenset([0]), frozenset([self.one])]

    def __repr__(self) -> str:
        return f"QuotientHyperfield(p={int(self.p)}, n={self.subgroup.order})"

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
        key = (x, y)
        out = self._add_memo.get(key)
        if out is None:
            x = self.class_of(x)
            out = frozenset(self._rep[(x + b) % self.p] for b in self.orbit(y))
            self._add_memo[key] = out
        return out

    def hyperadd_sets(self, xs, ys) -> frozenset[int]:
        """Union of x + y over x in xs, y in ys."""
        out: set[int] = set()
        for x in xs:
            for y in ys:
                out |= self.hyperadd(x, y)
        return frozenset(out)

    def hypermul(self, x: int, y: int) -> int:
        """Product class; independent of the chosen orbit members."""
        return self._rep[x * y % self.p]

    def neg(self, x: int) -> int:
        """The unique class y with 0 in x + y."""
        return self._rep[(self.p - x % self.p) % self.p]

    def n_fold_sums(self, n: int) -> frozenset[int]:
        """Set of classes reachable as a sum of exactly n copies of one."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        while len(self._folds) <= n:
            self._folds.append(self.hyperadd_sets(self._folds[-1], (self.one,)))
        return self._folds[n]

    def n_fold_sum_contains_zero(self, n: int) -> bool:
        return self.zero in self.n_fold_sums(n)


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
        return (
            self.identity_ok
            and self.unique_inverses_ok
            and self.reversibility_ok
            and self.associativity_ok
            and self.commutativity_ok
            and self.distributivity_ok
            and self.absorption_ok
            and self.multiplicative_inverses_ok
        )


def check_axioms(H: QuotientHyperfield) -> AxiomReport:
    """Check every hyperfield axiom on every tuple of classes.

    Exhaustive over pairs and triples, so only sensible at desk scale; the
    first witness of each failed axiom is recorded.
    """
    cls = H.classes
    zero, one = H.zero, H.one
    bad: list[tuple[str, tuple]] = []
    add = {(x, y): H.hyperadd(x, y) for x in cls for y in cls}

    identity_ok = True
    for x in cls:
        if add[(x, zero)] != {x} or add[(zero, x)] != {x}:
            identity_ok = False
            bad.append(("identity", (x,)))
            break

    unique_inverses_ok = True
    neg = {}
    for x in cls:
        ys = [y for y in cls if zero in add[(x, y)]]
        if len(ys) != 1:
            unique_inverses_ok = False
            bad.append(("unique_inverses", (x, tuple(ys))))
        else:
            neg[x] = ys[0]

    commutativity_ok = True
    for x in cls:
        for y in cls:
            if add[(x, y)] != add[(y, x)] or H.hypermul(x, y) != H.hypermul(y, x):
                commutativity_ok = False
                bad.append(("commutativity", (x, y)))
                break
        if not commutativity_ok:
            break

    reversibility_ok = unique_inverses_ok
    if unique_inverses_ok:
        for x in cls:
            for y in cls:
                for z in add[(x, y)]:
                    if x not in add[(z, neg[y])]:
                        reversibility_ok = False
                        bad.append(("reversibility", (x, y, z)))
                        break
                if not reversibility_ok:
                    break
            if not reversibility_ok:
                break

    associativity_ok = True
    for x in cls:
        for y in cls:
            for z in cls:
                left = frozenset().union(*(add[(w, z)] for w in add[(x, y)]))
                right = frozenset().union(*(add[(x, v)] for v in add[(y, z)]))
                if left != right:
                    associativity_ok = False
                    bad.append(("associativity", (x, y, z)))
                    break
            if not associativity_ok:
                break
        if not associativity_ok:
            break

    distributivity_ok = True
    for a in cls:
        for x in cls:
            for y in cls:
                scaled = frozenset(H.hypermul(a, w) for w in add[(x, y)])
                direct = add[(H.hypermul(a, x), H.hypermul(a, y))]
                if scaled != direct:
                    distributivity_ok = False
                    bad.append(("distributivity", (a, x, y)))
                    break
            if not distributivity_ok:
                break
        if not distributivity_ok:
            break

    absorption_ok = True
    for x in cls:
        if H.hypermul(x, zero) != zero or H.hypermul(zero, x) != zero:
            absorption_ok = False
            bad.append(("absorption", (x,)))
            break

    # nonzero classes must form an abelian group with identity one != zero
    multiplicative_inverses_ok = one != zero
    if not multiplicative_inverses_ok:
        bad.append(("multiplicative_inverses", (zero, one)))
    else:
        nonzero = [x for x in cls if x != zero]
        for x in nonzero:
            if H.hypermul(x, one) != x or not any(H.hypermul(x, y) == one for y in nonzero):
                multiplicative_inverses_ok = False
                bad.append(("multiplicative_inverses", (x,)))
                break

    return AxiomReport(
        identity_ok=identity_ok,
        unique_inverses_ok=unique_inverses_ok,
        reversibility_ok=reversibility_ok,
        associativity_ok=associativity_ok,
        commutativity_ok=commutativity_ok,
        distributivity_ok=distributivity_ok,
        absorption_ok=absorption_ok,
        multiplicative_inverses_ok=multiplicative_inverses_ok,
        counterexamples=bad,
    )
