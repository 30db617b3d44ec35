"""Top-level acceptance checks, one per shipped guarantee.

Each test maps to one line of the printed checklist (see the logreport hook
in conftest.py). All comparisons are exact; nothing here is tolerance-based.
"""

import subprocess
import sys

import pytest

from hyperchar.characteristic import (
    characteristic_bitset,
    kp_representation_check,
    minimal_generating_set,
)
from hyperchar.closed_form import gen_set_closed_form
from hyperchar.harness import conjecture_scan, load_fixtures, shipped_fixture_path
from hyperchar.hyperfield import QuotientHyperfield, check_axioms
from hyperchar.modular import Prime, is_prime
from hyperchar.norm_criterion import candidate_sums, generating_set_via_norm, tuple_bound


@pytest.fixture(scope="module")
def reference_rows():
    return load_fixtures(shipped_fixture_path())


@pytest.fixture(scope="module")
def reference_tables(reference_rows):
    return {
        (int(row.p), row.order): characteristic_bitset(row.p, row.order)
        for row in reference_rows
    }


def test_criterion_01_small_orders_reproduction():
    rows = load_fixtures(shipped_fixture_path("small_orders.txt"))
    assert len(rows) == 64
    for row in rows:
        dp = minimal_generating_set(characteristic_bitset(row.p, row.order))
        assert dp.generators == row.generators, row.as_line()


def test_criterion_02_full_table_reproduction(reference_rows, reference_tables):
    assert len(reference_rows) == 354
    for row in reference_rows:
        dp = minimal_generating_set(reference_tables[(int(row.p), row.order)])
        assert dp.generators == row.generators, row.as_line()


def test_criterion_03_closed_form_agreement():
    checked = 0
    for p in range(2, 500):
        if not is_prime(p):
            continue
        prime = Prime(p)
        for n in (1, 2, 3, 4):
            if (p - 1) % n != 0:
                continue
            closed = gen_set_closed_form(prime, n)
            dp = minimal_generating_set(characteristic_bitset(prime, n))
            assert closed == dp, (p, n)
            checked += 1
    assert checked > 250


def test_criterion_04_norm_agreement():
    checked = 0
    for q in (3, 5, 7, 11):
        for p in range(3, 200):
            if not is_prime(p) or (p - 1) % q != 0:
                continue
            prime = Prime(p)
            dp = minimal_generating_set(characteristic_bitset(prime, q))
            via_norm = generating_set_via_norm(prime, Prime(q))
            assert via_norm == dp, (p, q)
            allowed = {p, q, *candidate_sums(prime, Prime(q)).sums}
            assert set(dp.generators) <= allowed, (p, q)
            checked += 1
    assert checked == 41


def test_criterion_05_axiom_suite():
    for p in range(2, 32):
        if not is_prime(p):
            continue
        for n in range(1, p):
            if (p - 1) % n != 0:
                continue
            report = check_axioms(QuotientHyperfield(p, n))
            assert report.all_ok, (p, n, report.counterexamples)
            # reversibility holds wherever distributivity does
            assert not (report.distributivity_ok and not report.reversibility_ok)


def test_criterion_06_continuity(reference_tables):
    for (p, n), table in reference_tables.items():
        if n == 1:
            assert table.continuity_threshold is None, (p, n)
        else:
            assert table.continuity_threshold is not None, (p, n)
            assert table.continuity_threshold <= p - 1, (p, n)


def test_criterion_07_kp_representation():
    for p in range(2, 32):
        if not is_prime(p):
            continue
        prime = Prime(p)
        for n in range(1, p):
            if (p - 1) % n != 0:
                continue
            S = characteristic_bitset(prime, n)
            for s in range(0, 2 * (p - 1) + 1):
                assert kp_representation_check(prime, n, s) == S.member[s], (p, n, s)


def test_criterion_08_conjecture_scan():
    report = conjecture_scan(10001)
    assert report.failures == ()
    assert len(report.verified) == 5000


def test_criterion_09_tuple_bound():
    assert tuple_bound(Prime(7), Prime(3)) == 23
    assert tuple_bound(Prime(13), Prime(3)) == 69
    for q in (3, 5, 7, 11):
        for p in range(3, 200):
            if is_prime(p) and (p - 1) % q == 0:
                assert tuple_bound(Prime(p), Prime(q)) <= p ** (q - 1), (p, q)


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperchar", "table", "--p-max", "200"],
            capture_output=True,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 354
