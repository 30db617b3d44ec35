import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperchar.characteristic import characteristic_bitset
from hyperchar.hyperfield import AxiomReport, QuotientHyperfield, check_axioms
from hyperchar.modular import Prime

from conftest import oracle_folds, subgroup_pairs


class TestConstruction:
    def test_orbits_for_5_2(self):
        H = QuotientHyperfield(5, 2)
        assert H.classes == (0, 1, 2)
        assert H.orbit(1) == (1, 4) and H.orbit(2) == (2, 3) and H.orbit(0) == (0,)

    def test_orbits_for_7_3(self):
        H = QuotientHyperfield(7, 3)
        assert H.classes == (0, 1, 3)
        assert H.orbit(1) == (1, 2, 4) and H.orbit(3) == (3, 5, 6)

    def test_trivial_subgroup_is_the_prime_field(self):
        H = QuotientHyperfield(3, 1)
        assert H.classes == (0, 1, 2)
        assert all(len(H.orbit(x)) == 1 for x in H.classes)

    @pytest.mark.parametrize("p,n", subgroup_pairs(31))
    def test_classes_partition_the_residues(self, p, n):
        H = QuotientHyperfield(p, n)
        assert len(H.classes) == 1 + (p - 1) // n
        seen = set()
        for x in H.classes:
            orbit = H.orbit(x)
            assert x == min(orbit)
            assert len(orbit) == (1 if x == 0 else n)
            seen.update(orbit)
        assert seen == set(range(p))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            QuotientHyperfield(7, 4)
        with pytest.raises(ValueError):
            QuotientHyperfield(8, 1)


class TestOperations:
    def test_hyperadd_examples(self):
        H = QuotientHyperfield(5, 2)
        assert H.hyperadd(1, 1) == {0, 2}
        K = QuotientHyperfield(7, 3)
        assert K.hyperadd(1, 3) == {0, 1, 3}

    def test_hypermul_examples(self):
        H = QuotientHyperfield(5, 2)
        assert H.hypermul(2, 2) == 1
        K = QuotientHyperfield(7, 3)
        assert K.hypermul(3, 3) == 1

    @pytest.mark.parametrize("p,n", subgroup_pairs(19))
    def test_hyperadd_equals_full_orbit_sum(self, p, n):
        H = QuotientHyperfield(p, n)
        for x in H.classes:
            for y in H.classes:
                brute = frozenset(
                    H.class_of(u + v) for u in H.orbit(x) for v in H.orbit(y)
                )
                assert H.hyperadd(x, y) == brute
                assert brute  # set-valued addition never returns the empty set

    @given(st.sampled_from(subgroup_pairs(31)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_hypermul_is_representative_independent(self, pair, data):
        p, n = pair
        H = QuotientHyperfield(p, n)
        x = data.draw(st.sampled_from(H.classes))
        y = data.draw(st.sampled_from(H.classes))
        u = data.draw(st.sampled_from(H.orbit(x)))
        v = data.draw(st.sampled_from(H.orbit(y)))
        assert H.class_of(u * v) == H.hypermul(x, y)

    @given(st.sampled_from(subgroup_pairs(31)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_hyperadd_is_representative_independent(self, pair, data):
        p, n = pair
        H = QuotientHyperfield(p, n)
        x = data.draw(st.sampled_from(H.classes))
        y = data.draw(st.sampled_from(H.classes))
        u = data.draw(st.sampled_from(H.orbit(x)))
        v = data.draw(st.sampled_from(H.orbit(y)))
        assert H.hyperadd(u, v) == H.hyperadd(x, y)

    @pytest.mark.parametrize("p,n", subgroup_pairs(59))
    def test_neg_is_the_unique_hyperinverse(self, p, n):
        H = QuotientHyperfield(p, n)
        for x in H.classes:
            inverses = [y for y in H.classes if 0 in H.hyperadd(x, y)]
            assert inverses == [H.neg(x)]


class TestAxioms:
    @pytest.mark.parametrize("p,n", [(5, 2), (13, 4), (3, 1), (7, 3), (31, 6)])
    def test_reference_quotients_pass_all_flags(self, p, n):
        report = check_axioms(QuotientHyperfield(p, n))
        assert report.all_ok
        assert report.counterexamples == []

    def test_trivial_quotient_addition_is_single_valued(self):
        H = QuotientHyperfield(3, 1)
        assert all(len(H.hyperadd(x, y)) == 1 for x in H.classes for y in H.classes)
        assert check_axioms(H).all_ok

    def test_reversibility_reads_inverses_off_the_addition_table(self):
        class WrongNeg(QuotientHyperfield):
            def neg(self, x):
                return x

        assert check_axioms(WrongNeg(7, 1)) == check_axioms(QuotientHyperfield(7, 1))

    def test_counterexamples_empty_iff_all_flags(self):
        for p, n in subgroup_pairs(13):
            report = check_axioms(QuotientHyperfield(p, n))
            assert report.all_ok == (report.counterexamples == [])


# Quotients with one operation deliberately broken, so that the audit has
# something to find. Each targets one axiom; the pinned reports below also
# list whatever else the change breaks.


class ZeroSumHoldsNegative(QuotientHyperfield):
    """x + 0 also holds -x, so 0 is not an additive identity."""

    def hyperadd(self, x, y):
        out = super().hyperadd(x, y)
        return out | {self.neg(x + y)} if self.zero in (x, y) else out


class ZeroInNonzeroSums(QuotientHyperfield):
    """0 lies in every sum of two nonzero classes, so inverses are not unique."""

    def hyperadd(self, x, y):
        out = super().hyperadd(x, y)
        return out | {self.zero} if x != self.zero and y != self.zero else out


class RightFactorTwice(QuotientHyperfield):
    """x * y is the class of x*y*y, which is not commutative."""

    def hypermul(self, x, y):
        return super().hypermul(super().hypermul(x, y), y)


class DoublingDropsX(QuotientHyperfield):
    """x + x no longer holds x: inverses stay unique, reversibility breaks."""

    def hyperadd(self, x, y):
        out = super().hyperadd(x, y)
        return out - {x} if x == y != self.zero else out


class DoublingAddsX(QuotientHyperfield):
    """x + x also holds x, which breaks associativity."""

    def hyperadd(self, x, y):
        out = super().hyperadd(x, y)
        return out | {x} if x == y != self.zero else out


class DoublingAddsOne(QuotientHyperfield):
    """x + x also holds one, so scaling a sum no longer scales its summands."""

    def hyperadd(self, x, y):
        out = super().hyperadd(x, y)
        return out | {self.one} if x == y != self.zero else out


class ZeroProductIsOne(QuotientHyperfield):
    """Every product that should be 0 is one instead."""

    def hypermul(self, x, y):
        return super().hypermul(x, y) or self.one


class TwoSquaredIsTwo(QuotientHyperfield):
    """2 * 2 is 2: the product keeps its identity, inverses and commutativity,
    but (2 * 2) * 4 = 1 and 2 * (2 * 4) = 2 in F_7, so it is not associative."""

    def hypermul(self, x, y):
        return 2 if x == y == 2 else super().hypermul(x, y)


class MovedOne(QuotientHyperfield):
    """The class named as the multiplicative identity is another one."""

    def __init__(self, p, n, one):
        super().__init__(p, n)
        self.one = one


def failing_report(*failed, counterexamples):
    """AxiomReport with exactly the named axioms' flags false."""
    names = ("identity", "unique_inverses", "reversibility", "associativity", "commutativity",
             "distributivity", "absorption", "multiplicative_inverses")
    assert set(failed) <= set(names)
    return AxiomReport(**{f"{name}_ok": name not in failed for name in names},
                       counterexamples=counterexamples)


BROKEN_QUOTIENTS = {
    "identity": (
        ZeroSumHoldsNegative(7, 3),
        failing_report("identity", "reversibility", "associativity", counterexamples=[
            ("identity", (1,)), ("reversibility", (0, 1, 3)), ("associativity", (0, 1, 1))]),
    ),
    # every failing class is recorded; reversibility is false but has no
    # witness, since it is only checked once every inverse is unique
    "unique_inverses": (
        ZeroInNonzeroSums(13, 4),
        failing_report("unique_inverses", "reversibility", counterexamples=[
            ("unique_inverses", (1, (1, 2, 4))),
            ("unique_inverses", (2, (1, 2, 4))),
            ("unique_inverses", (4, (1, 2, 4)))]),
    ),
    "commutativity": (
        RightFactorTwice(13, 4),
        failing_report("commutativity", counterexamples=[("commutativity", (1, 2))]),
    ),
    "reversibility": (
        DoublingDropsX(7, 3),
        failing_report("reversibility", "associativity", counterexamples=[
            ("reversibility", (1, 3, 1)), ("associativity", (1, 1, 3))]),
    ),
    "associativity": (
        DoublingAddsX(11, 2),
        failing_report("associativity", counterexamples=[("associativity", (1, 1, 2))]),
    ),
    "distributivity": (
        DoublingAddsOne(5, 2),
        failing_report("distributivity", counterexamples=[("distributivity", (2, 1, 1))]),
    ),
    "absorption": (
        ZeroProductIsOne(5, 2),
        failing_report("distributivity", "absorption", counterexamples=[
            ("distributivity", (0, 0, 0)), ("absorption", (0,))]),
    ),
    # a commuting product with identity and inverses is checked for
    # associativity: the first triple of nonzero classes it fails
    "product_associativity": (
        TwoSquaredIsTwo(7, 1),
        failing_report("distributivity", "multiplicative_inverses", counterexamples=[
            ("distributivity", (2, 1, 1)), ("multiplicative_inverses", (2, 2, 3))]),
    ),
    "one_is_zero": (
        MovedOne(5, 2, one=0),
        failing_report("multiplicative_inverses", counterexamples=[
            ("multiplicative_inverses", (0, 0))]),
    ),
    "one_is_not_neutral": (
        MovedOne(5, 2, one=2),
        failing_report("multiplicative_inverses", counterexamples=[
            ("multiplicative_inverses", (1,))]),
    ),
}


class TestBrokenAxioms:
    @pytest.mark.parametrize("case", list(BROKEN_QUOTIENTS))
    def test_report_is_pinned(self, case):
        H, expected = BROKEN_QUOTIENTS[case]
        report = check_axioms(H)
        assert report == expected
        assert not report.all_ok


class TestNFoldSums:
    def test_examples(self):
        H = QuotientHyperfield(5, 2)
        assert 0 in H.n_fold_sums(2)
        assert 0 not in H.n_fold_sums(1)
        K = QuotientHyperfield(7, 3)
        assert 0 in K.n_fold_sums(3)

    def test_zero_fold_sum_is_zero(self):
        H = QuotientHyperfield(5, 2)
        assert H.n_fold_sums(0) == {0}

    @pytest.mark.parametrize("p,n", subgroup_pairs(19))
    def test_agrees_with_membership_table(self, p, n):
        H = QuotientHyperfield(p, n)
        S = characteristic_bitset(Prime(p), n)
        for s in range(0, 5 * p):
            assert (0 in H.n_fold_sums(s)) == (s in S), (p, n, s)

    @pytest.mark.parametrize("p,n", subgroup_pairs(59))
    def test_matches_kept_folds_oracle(self, p, n):
        H = QuotientHyperfield(p, n)
        for s, fold in enumerate(oracle_folds(H, 5 * p)):
            assert H.n_fold_sums(s) == fold, (p, n, s)

    @pytest.mark.parametrize("p,n", [(7, 1), (101, 1), (7, 3), (101, 5)])
    def test_huge_count_needs_bounded_work(self, p, n):
        H = QuotientHyperfield(p, n)
        if n == 1:
            expected = {H.class_of(10**12)}
        else:  # past the fixed point every fold is the same
            expected = oracle_folds(H, 2 * p + 1)[2 * p]
        assert H.n_fold_sums(10**12) == expected
