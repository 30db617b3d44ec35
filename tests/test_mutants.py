"""Mutant gate: each kernel, rebound to a mutated copy of itself, fails a cheap
check within seconds.

A mutant is the function's own source with exact text edits, compiled in the
function's module namespace and rebound with monkeypatch in every hyperchar
module or class that binds the original. An edit that no longer matches the source
fails the test, so the mutants follow the code they mutate. A later kernel
change adds its mutants to MUTANTS.
"""

import __future__
import inspect
import sys
import textwrap

import pytest

from hyperchar import characteristic, closed_form, harness, hyperfield, modular, norm_criterion
from hyperchar.harness import load_fixtures, shipped_fixture_path, validate_fixture
from hyperchar.modular import Prime

from conftest import (
    as_mask,
    oracle_bfs_levels,
    oracle_candidate_sums,
    oracle_is_prime,
    oracle_members_setwalk,
    oracle_subgroup,
    subgroup_pairs,
)


def shipped_rows_verify() -> bool:
    """Every shipped fixture row agrees with every route that runs on it."""
    report = validate_fixture(load_fixtures(shipped_fixture_path()))
    return report.passed == report.total


def dp_masks_match_oracle() -> bool:
    """The dp mask equals the set-walk oracle's on every (p, n) with p <= 31."""
    return all(characteristic.characteristic_bitset(Prime(p), n).mask
               == as_mask(oracle_members_setwalk(p, n, 2 * p)) for p, n in subgroup_pairs(31))


def levels_match_oracle() -> bool:
    """_levels yields the set BFS oracle's levels by the steps 1 - g (g in G,
    g != 1) on every (p, n) with p <= 13."""
    def agree(p, n):
        steps = [(1 - g) % p for g in oracle_subgroup(p, n) if g != 1]
        levels = characteristic._levels(Prime(p), steps)
        return [{r for r in range(p) if new >> r & 1} for _, _, new in levels] == oracle_bfs_levels(p, steps)
    return all(agree(p, n) for p, n in subgroup_pairs(13))


def hyperfield_folds_match_dp() -> bool:
    """0 lies in the s-fold sum of one in F_p/G iff s is a dp member, for every
    (p, n) with p <= 13 and s <= 2p, and once at s = 10^18, past any walk."""
    def agree(p, n, s):
        return ((0 in hyperfield.QuotientHyperfield(p, n).n_fold_sums(s))
                == (s in characteristic.characteristic_bitset(Prime(p), n)))
    return agree(13, 3, 10**18) and all(
        agree(p, n, s) for p, n in subgroup_pairs(13) for s in range(2 * p + 1))


def kp_matches_dp() -> bool:
    """kp_representation_check(p, n, s) is s in characteristic_bitset(p, n)
    for every (p, n) with p <= 31 and every s <= 2p."""
    def agree(p, n):
        S = characteristic.characteristic_bitset(Prime(p), n)
        return all(characteristic.kp_representation_check(Prime(p), n, s) == (s in S)
                   for s in range(2 * p + 1))
    return all(agree(p, n) for p, n in subgroup_pairs(31))


def order_rule_refuses() -> bool:
    """characteristic_bitset, gen_set_closed_form and FixtureRow each refuse
    (7, 4) with the order rule's ValueError (4 does not divide 6), and (15, 7),
    which passes it, with check_order's primality test."""
    def refuses(call, p, n, message):
        try:
            call(p, n)
        except ValueError as exc:
            return message in str(exc)
        return False
    calls = (characteristic.characteristic_bitset, closed_form.gen_set_closed_form,
             lambda p, n: characteristic.FixtureRow(p, n, (2,)))
    return all(refuses(call, p, n, message) for call in calls
               for p, n, message in ((Prime(7), 4, "does not divide"), (15, 7, "15 is not prime")))


def routes_take_their_max_p() -> bool:
    """Each route, named alone, is chosen for a p of exactly its max_p."""
    try:
        return all(harness._select_routes(route.max_p, 2, (name,)) == ((name,), ())
                   for name, route in harness.ROUTES.items())
    except harness.RouteLimitError:
        return False


def norm_witnesses_hold() -> bool:
    """candidate_sums gives the oracle's sums for q in {3, 5, 7} and every
    prime p < 200 with q | p - 1, and each witness (a_0, ..., a_{q-2}) sums to
    its s with sum a_j g^j = 0 mod p, g = subgroup_generator(p, q)."""
    def holds(p, q):
        found = norm_criterion.candidate_sums(Prime(p), Prime(q))
        g = modular.subgroup_generator(Prime(p), q)
        return found.sums == oracle_candidate_sums(p, q).sums and all(
            sum(w) == s and sum(a * pow(g, j, p) for j, a in enumerate(w)) % p == 0
            for s, w in found.witnesses.items())
    return all(holds(p, q) for q in (3, 5, 7) for p in range(q + 1, 200, q) if oracle_is_prime(p))


CHECKS = {"verify": shipped_rows_verify, "oracle-masks": dp_masks_match_oracle,
          "oracle-levels": levels_match_oracle, "hyperfield-folds": hyperfield_folds_match_dp,
          "order-rule": order_rule_refuses, "route-limits": routes_take_their_max_p,
          "norm-witnesses": norm_witnesses_hold, "kp-matches-dp": kp_matches_dp}

# name: (function, [(old, new) source edits], the check that kills it)
MUTANTS = {
    "dp-walk-skips-an-element": (characteristic.characteristic_bitset, [
        ("for g in elements:", "for g in elements[1:]:")], "oracle-masks"),
    "dp-fold-dropped": (characteristic.characteristic_bitset, [
        ("(wide | wide >> p) & residues", "wide & residues")], "verify"),
    "trivial-group-without-bit-2p": (characteristic.characteristic_bitset, [
        ("1 | 1 << p | 1 << 2 * p", "1 | 1 << p")], "oracle-masks"),
    "index-2-odd-order-with-bit-2": (characteristic.characteristic_bitset, [
        ("(4 if n % 2 == 0 else 8)", "4")], "oracle-masks"),
    "order-2-odd-tail-two-bits-low": (characteristic.characteristic_bitset, [
        ("// 3 << p", "// 3 << p - 2")], "oracle-masks"),
    "order-2-formula-at-order-4": (characteristic.characteristic_bitset, [
        ("if n == 2:", "if n in (2, 4):")], "oracle-masks"),
    "index-2-formula-at-index-3": (characteristic.characteristic_bitset, [
        ("2 * n >= p - 1", "3 * n >= p - 1")], "oracle-masks"),
    "whole-group-formula-at-p-2": (characteristic.characteristic_bitset, [
        ("if n == 1:", "if n == 1 and p > 2:")], "oracle-masks"),
    "_levels-fold-dropped": (characteristic._levels, [
        ("(wide | wide >> p) & unseen", "wide & unseen")], "verify"),
    "_levels-stops-one-residue-early": (characteristic._levels, [
        ("if not unseen:", "if not unseen & unseen - 1:")], "oracle-levels"),
    "hyperadd-skips-an-orbit-member": (hyperfield.QuotientHyperfield.hyperadd, [
        ("for b in self.orbit(y))", "for b in self.orbit(y)[1:])")], "hyperfield-folds"),
    "n_fold_sums-misses-the-fixed-point": (hyperfield.QuotientHyperfield.n_fold_sums, [
        ("if nxt == fold:", "if False:")], "hyperfield-folds"),
    "_close-tripling": (characteristic._close, [("c *= 2", "c *= 3")], "verify"),
    "_generate-closes-only-the-generator": (characteristic._generate, [
        ("closure = _close(closure, g, bound)", "closure |= 1 << g")], "verify"),
    "kp-claims-s-at-its-own-level": (characteristic.kp_representation_check, [
        ("or level > s", "or level >= s")], "kp-matches-dp"),
    "kp-misses-s-equal-to-p": (characteristic.kp_representation_check, [
        ("s % p == 0", "s == 0")], "kp-matches-dp"),
    "_cornacchia-wrong-root-of-minus-3": (modular._cornacchia, [
        ("2 * z + 1", "2 * z - 1")], "verify"),
    "check_order-without-divisibility": (modular.check_order, [
        ("n < 1 or (p - 1) % n != 0", "n < 1")], "order-rule"),
    "check_order-skips-primality": (modular.check_order, [
        ("return Prime(p)", "return p")], "order-rule"),
    "_select_routes-excludes-max_p": (harness._select_routes, [
        ("if p <= ROUTES[name].max_p", "if p < ROUTES[name].max_p")], "route-limits"),
    "_offset_descent-counts-a-step-twice": (norm_criterion._offset_descent, [
        ("w[j] + 1", "w[j] + 2")], "norm-witnesses"),
    "_order_three-wrong-inverse": (norm_criterion._order_three, [
        ("pow(step, -1, p)", "pow(step, -1, p) + 1")], "norm-witnesses"),
    "generating_set_via_norm-keeps-sums-below-their-level": (norm_criterion.generating_set_via_norm, [
        ("new >> level << level", "new")], "verify"),
}


def mutant(function, edits):
    """A copy of function with each old text of its source, found exactly once,
    replaced by the new one."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, (function.__name__, old)
        source = source.replace(old, new)
    code = compile(source, inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def rebind(monkeypatch, function, copy) -> None:
    """Bind copy in place of function in every hyperchar module, and every
    class of one, that binds it."""
    modules = [module for name, module in list(sys.modules.items()) if name.startswith("hyperchar")]
    classes = [c for module in modules for c in vars(module).values() if isinstance(c, type)]
    owners = [o for o in dict.fromkeys(modules + classes) if vars(o).get(function.__name__) is function]
    assert owners, function.__name__
    for owner in owners:
        monkeypatch.setattr(owner, function.__name__, copy)


@pytest.mark.parametrize("function", dict.fromkeys(f for f, _, _ in MUTANTS.values()),
                         ids=lambda f: f.__name__)
def test_unedited_copy_passes_every_check(monkeypatch, function):
    rebind(monkeypatch, function, mutant(function, []))
    assert all(check() for check in CHECKS.values())


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    function, edits, check = MUTANTS[name]
    rebind(monkeypatch, function, mutant(function, edits))
    try:
        passed = CHECKS[check]()
    except AssertionError:  # the kernel's own stop fired, so the mutant cannot hang
        passed = False
    assert not passed
