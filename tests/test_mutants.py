"""Mutant gate: each kernel, rebound to a mutated copy of itself, fails a cheap
check within seconds.

A mutant is the function's own source with exact text edits, compiled in the
function's module namespace and rebound with monkeypatch in every hyperchar
module that binds the original. An edit that no longer matches the source
fails the test, so the mutants follow the code they mutate. A later kernel
change adds its mutants to MUTANTS.
"""

import __future__
import inspect
import sys
import textwrap

import pytest

from hyperchar import characteristic
from hyperchar.harness import load_fixtures, shipped_fixture_path, validate_fixture
from hyperchar.modular import Prime

from conftest import as_mask, oracle_members_setwalk, subgroup_pairs


def shipped_rows_verify() -> bool:
    """Every shipped fixture row agrees with every route that runs on it."""
    report = validate_fixture(load_fixtures(shipped_fixture_path()))
    return report.passed == report.total


def dp_masks_match_oracle() -> bool:
    """The dp mask equals the set-walk oracle's on every (p, n) with p <= 13."""
    return all(characteristic.characteristic_bitset(Prime(p), n).mask
               == as_mask(oracle_members_setwalk(p, n, 2 * p)) for p, n in subgroup_pairs(13))


CHECKS = {"verify": shipped_rows_verify, "oracle-masks": dp_masks_match_oracle}

# name: (function, [(old, new) source edits], the check that kills it)
MUTANTS = {
    "dp-walk-one-step-short": (characteristic.characteristic_bitset, [
        ("range(p - 2)", "range(p - 3)"), ('"1" * (p + 2)', '"1" * (p + 3)')], "oracle-masks"),
    "dp-fold-dropped": (characteristic.characteristic_bitset, [
        ("(wide | wide >> p) & residues", "wide & residues")], "verify"),
    "trivial-group-without-bit-2p": (characteristic.characteristic_bitset, [
        ("1 | 1 << p | 1 << 2 * p", "1 | 1 << p")], "oracle-masks"),
    "_levels-fold-dropped": (characteristic._levels, [
        ("(wide | wide >> p) & unseen", "wide & unseen")], "verify"),
    "_close-tripling": (characteristic._close, [("c *= 2", "c *= 3")], "verify"),
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
    """Bind copy in place of function in every hyperchar module that binds it."""
    modules = [module for name, module in list(sys.modules.items())
               if name.startswith("hyperchar") and getattr(module, function.__name__, None) is function]
    assert modules, function.__name__
    for module in modules:
        monkeypatch.setattr(module, function.__name__, copy)


@pytest.mark.parametrize("function", dict.fromkeys(f for f, _, _ in MUTANTS.values()),
                         ids=lambda f: f.__name__)
def test_unedited_copy_passes_every_check(monkeypatch, function):
    rebind(monkeypatch, function, mutant(function, []))
    assert all(check() for check in CHECKS.values())


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    function, edits, check = MUTANTS[name]
    rebind(monkeypatch, function, mutant(function, edits))
    assert not CHECKS[check]()
