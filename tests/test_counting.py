"""Closed-form counters against frozen values and the edge-subset oracle.

Frozen [DERIVED] values in this module were computed with the
brute-force helpers in oracles.py (complete-graph edge subsets plus a
union-find tree check) before being inlined.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

import oracles
from treecount import counting, verifier
from treecount.core import (
    CompositionSumMismatch,
    InvalidDegreeSequence,
    OutOfRange,
    as_integer,
)
from treecount.counting import (
    assemble_double_count,
    binomial_collapse,
    count_supervertex_trees,
    count_total_trees,
    count_trees_deg_v1,
    count_trees_deg_v1_rational,
    count_trees_with_degrees,
    expand_L3,
    lemma1_lhs,
    recursion_T,
)
from treecount.enumeration import deg_v1_histogram, enumerate_compositions


class TestCountTotalTrees:
    def test_base_case(self):
        assert count_total_trees(2) == 1

    def test_small(self):
        # oracle: 16 spanning trees of the complete graph on 4 vertices
        assert count_total_trees(4) == 16

    def test_convention_n1(self):
        assert count_total_trees(1) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            count_total_trees(0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_oracle(self, n):
        assert count_total_trees(n) == len(oracles.spanning_trees(n))


class TestCountTreesWithDegrees:
    def test_examples(self):
        assert count_trees_with_degrees((1, 1)) == 1
        # oracle: filter the 16 trees on 4 vertices by degree vector
        assert count_trees_with_degrees((1, 1, 1, 3)) == 1
        assert count_trees_with_degrees((2, 2, 1, 1)) == 2

    def test_invalid(self):
        with pytest.raises(InvalidDegreeSequence):
            count_trees_with_degrees((0, 2, 2, 2))
        with pytest.raises(InvalidDegreeSequence):
            count_trees_with_degrees((1, 2))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_grid_against_oracle(self, n):
        for d in enumerate_compositions(2 * n - 2, n):
            assert count_trees_with_degrees(d) == len(oracles.trees_with_degrees(d))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_marginalizes_to_total(self, n):
        total = sum(
            count_trees_with_degrees(c)
            for c in enumerate_compositions(2 * n - 2, n)
        )
        assert total == count_total_trees(n)


class TestDegV1:
    def test_examples(self):
        # oracle: filter the 16 trees on 4 vertices by deg(v1)
        assert count_trees_deg_v1(4, 1) == 9
        assert count_trees_deg_v1(4, 3) == 1
        assert count_trees_deg_v1(2, 1) == 1

    def test_rational_examples(self):
        assert count_trees_deg_v1_rational(4, 2) == Fraction(6)
        # k = 1 puts (n-1) in the numerator
        assert count_trees_deg_v1_rational(4, 1) == Fraction(9)
        assert count_trees_deg_v1_rational(2, 1) == Fraction(1)

    def test_out_of_range(self):
        for fn in (count_trees_deg_v1, count_trees_deg_v1_rational, lemma1_lhs):
            with pytest.raises(OutOfRange):
                fn(4, 0)
            with pytest.raises(OutOfRange):
                fn(4, 4)
            with pytest.raises(OutOfRange):
                fn(1, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_oracle(self, n):
        for k in range(1, n):
            expected = len(oracles.trees_with_deg_v1(n, k))
            assert count_trees_deg_v1(n, k) == expected
            assert as_integer(count_trees_deg_v1_rational(n, k)) == expected
            assert lemma1_lhs(n, k) == expected

    @pytest.mark.parametrize("n", range(2, 16))
    def test_totality(self, n):
        assert sum(count_trees_deg_v1(n, k) for k in range(1, n)) == count_total_trees(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_match_histogram(self, n):
        hist = deg_v1_histogram(n)
        assert {k: count_trees_deg_v1(n, k) for k in range(1, n)} == hist


class TestLemma1Lhs:
    def test_examples(self):
        # (4,2): compositions (1,2) and (2,1) each contribute 6; 12/2! = 6
        assert lemma1_lhs(4, 2) == 6
        assert lemma1_lhs(4, 1) == 9
        assert lemma1_lhs(2, 1) == 1

    @pytest.mark.parametrize("n", range(2, 10))
    def test_never_non_integral(self, n):
        for k in range(1, n):
            assert lemma1_lhs(n, k) == count_trees_deg_v1(n, k)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_convolution_matches_composition_sum(self, n):
        for k in range(1, n):
            assert lemma1_lhs(n, k) == oracles.lemma1_sum(n, k)

    def test_never_uses_closed_form(self, monkeypatch):
        def refuse(n):
            raise AssertionError("closed form evaluated")

        counting._eq20.cache_clear()
        monkeypatch.setattr(counting, "count_total_trees", refuse)
        n = 30
        for k in range(1, n):
            assert lemma1_lhs(n, k) == (n - 1) ** (n - 1 - k) * comb(n - 2, k - 1)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestMemoDepth:
    def test_cold_memo_needs_no_deep_recursion(self):
        # the memo entries are asked for in increasing order, so a cold call
        # at n = 150 recurses a few frames, not 150
        counting._eq20.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 60)
        try:
            assert recursion_T(150) == 150**148
            counting._eq20.cache_clear()
            assert lemma1_lhs(150, 2) == 149**147 * 148
        finally:
            sys.setrecursionlimit(limit)


class TestRecursion:
    def test_examples(self):
        assert recursion_T(3) == 3
        assert recursion_T(4) == 16
        assert recursion_T(2) == 1
        assert recursion_T(1) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            recursion_T(0)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_closed_form(self, n):
        assert recursion_T(n) == count_total_trees(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_literal_ordered_sum(self, n):
        # direct re-evaluation over ordered compositions, no multiset grouping
        m = n - 1
        total = 0
        for k in range(1, n):
            ordered = 0
            for c in enumerate_compositions(m, k):
                term = factorial(m)
                for a in c:
                    term //= factorial(a)
                for a in c:
                    term *= a * recursion_T(a)
                ordered += term
            assert ordered % factorial(k) == 0
            total += ordered // factorial(k)
        assert recursion_T(n) == total

    def test_never_uses_closed_form(self, monkeypatch):
        def refuse(n):
            raise AssertionError("closed form evaluated")

        monkeypatch.setattr(counting, "count_total_trees", refuse)
        for fn in vars(counting).values():
            if callable(getattr(fn, "cache_clear", None)):
                fn.cache_clear()
        assert recursion_T(40) == 40**38

    @pytest.mark.parametrize("n", range(1, 23))
    def test_convolution_matches_partition_walk(self, n):
        assert recursion_T(n) == oracles.recursion_total(n)


class TestExpandL3:
    def test_examples(self):
        assert expand_L3((1, 2), 3) == 2
        assert expand_L3((1, 1, 2), 4) == 8
        assert expand_L3((3,), 3) == 1

    def test_sum_mismatch(self):
        with pytest.raises(CompositionSumMismatch):
            expand_L3((1, 2), 4)
        with pytest.raises(CompositionSumMismatch):
            expand_L3((0, 3), 3)

    def test_matches_power_form(self):
        for k in range(2, 6):
            for m in range(k, 11):
                for c in enumerate_compositions(m, k):
                    expected = m ** (k - 2)
                    for a in c:
                        expected *= a
                    assert expand_L3(c, m) == expected

    @pytest.mark.parametrize("k", range(1, 7))
    def test_convolution_matches_multinomial_expansion(self, k):
        for m in range(k, 13):
            for parts in oracles.compositions(m, k):
                assert expand_L3(parts, m) == oracles.l3_sum(parts)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_large_parts_match_multinomial_expansion(self, k):
        # k = 2 takes no inner convolution, only the last coefficient
        rng = random.Random(k)
        for _ in range(20):
            parts = tuple(rng.randint(1, 10**6) for _ in range(k))
            assert expand_L3(parts, sum(parts)) == oracles.l3_sum(parts)

    @pytest.mark.parametrize(
        "parts, m, message",
        [
            ((), 0, "parts must be nonempty"),
            ((), 3, "parts must sum to 3, got 0"),
            ((0, 3), 3, "parts must be positive: (0, 3)"),
            ((2, -1), 1, "parts must be positive: (2, -1)"),
            ((1, 2), 4, "parts must sum to 4, got 3"),
        ],
    )
    def test_validation_messages(self, parts, m, message):
        with pytest.raises(CompositionSumMismatch) as info:
            expand_L3(parts, m)
        assert str(info.value) == message

    def test_pascal_rows_memo_starts_cold_after_clear(self):
        counting._pascal_rows.cache_clear()
        assert expand_L3((1, 2, 3, 4), 10) == 10**2 * 24
        assert counting._pascal_rows.cache_info().currsize == 1
        counting._pascal_rows.cache_clear()
        assert expand_L3((1, 2, 3, 4), 10) == 10**2 * 24


class TestSupervertex:
    def test_examples(self):
        assert count_supervertex_trees((1, 1), (1, 2)) == 2
        assert count_supervertex_trees((1, 1), (1, 1)) == 1
        assert (
            count_supervertex_trees((1, 2, 1), (1, 1, 1)) == 1
        )

    def test_validation(self):
        with pytest.raises(InvalidDegreeSequence):
            count_supervertex_trees((2, 2), (1, 1))
        with pytest.raises(CompositionSumMismatch):
            count_supervertex_trees((1, 1), (1, 1, 1))
        with pytest.raises(CompositionSumMismatch):
            count_supervertex_trees((1, 1), (0, 2))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_factorial_form(self, k):
        rng = random.Random(k)
        degree_choices = list(enumerate_compositions(2 * k - 2, k))
        for _ in range(30):
            degrees = rng.choice(degree_choices)
            sizes = tuple(rng.randint(1, 10**6) for _ in range(k))
            assert count_supervertex_trees(degrees, sizes) == oracles.supervertex_count(
                degrees, sizes
            )

    @pytest.mark.parametrize(
        "degrees, sizes, error, message",
        [
            ((), (), InvalidDegreeSequence, "need at least 2 vertices, got 0"),
            ((1,), (1,), InvalidDegreeSequence, "need at least 2 vertices, got 1"),
            ((0, 2), (1, 1), InvalidDegreeSequence, "degrees must be positive: (0, 2)"),
            ((2, 2), (1, 1), InvalidDegreeSequence, "degree sum must be 2 for n=2, got 4"),
            ((1, 1), (), CompositionSumMismatch, "need 2 component sizes, got 0"),
            ((1, 1), (1, 1, 1), CompositionSumMismatch, "need 2 component sizes, got 3"),
            ((1, 1), (0, 2), CompositionSumMismatch, "component sizes must be positive: (0, 2)"),
            ((1, 1), (3, -2), CompositionSumMismatch, "component sizes must be positive: (3, -2)"),
        ],
    )
    def test_validation_messages(self, degrees, sizes, error, message):
        with pytest.raises(error) as info:
            count_supervertex_trees(degrees, sizes)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_marginalizes_to_expansion(self):
        for k in range(2, 6):
            degree_choices = list(enumerate_compositions(2 * k - 2, k))
            for m in range(k, 9):
                for sizes in enumerate_compositions(m, k):
                    total = sum(
                        count_supervertex_trees(d, sizes) for d in degree_choices
                    )
                    assert total == expand_L3(sizes, m)

    def test_join_counts_are_the_literal_sums_to_the_cap(self):
        # the verifier's joined counts on the whole grid at the work cap, one
        # call per k: the k-part degree vectors summed in the oracle
        grid = [sizes for _, sizes in verifier._composition_grid(verifier.SUPERVERTEX_CAP)]
        for k in range(2, 6):
            vectors = list(enumerate_compositions(2 * k - 2, k))
            size_list = [sizes for sizes in grid if len(sizes) == k]
            want = [sum(oracles.supervertex_count(d, sizes) for d in vectors) for sizes in size_list]
            assert counting._join_counts(vectors, size_list) == want, k

    def test_join_counts_check_degrees_then_sizes_then_weigh(self, monkeypatch):
        # every degree vector is checked before any size vector, and every
        # size vector before any weight is computed
        bad_degrees = [(1, 1), (2, 2)]
        bad_sizes = [(1, 2), (1, 2, 3)]
        with pytest.raises(InvalidDegreeSequence, match=r"^degree sum must be 2 for n=2, got 4$"):
            counting._join_counts(bad_degrees, bad_sizes)
        with pytest.raises(CompositionSumMismatch, match=r"^need 2 component sizes, got 3$"):
            counting._join_counts([(1, 1), (1.0, 1.0)], bad_sizes)
        weighed = []

        def weight(degrees):
            weighed.append(degrees)
            return count_trees_with_degrees(degrees)

        monkeypatch.setattr(counting, "count_trees_with_degrees", weight)
        with pytest.raises(CompositionSumMismatch, match=r"^component sizes must be positive: \(0, 3\)$"):
            counting._join_counts([(1, 1)], [(1, 2), (0, 3)])
        assert weighed == []
        vectors = list(enumerate_compositions(4, 3))
        assert counting._join_counts(vectors, [(1, 1, 1), (1, 2, 3)]) == [3, 6 * 6]
        assert weighed == vectors  # each weight once, for all the size vectors

    def test_two_components_joined_by_one_edge(self):
        # oracle: a 1-vertex and a 2-vertex component join in exactly
        # 1 * 2 ways (either vertex of the larger side)
        assert count_supervertex_trees((1, 1), (1, 2)) == 2

    @pytest.mark.parametrize(
        "degrees, sizes",
        [
            ((0, 2), (1, 1)),
            ((2, 2), (1, 1)),
            ((1,), (1,)),
            ([2, 2], (1, 1)),
            ((1, "a"), (1, 1)),
            ((1.0, 1.0), (1, 2)),
            ((1.0, 1.0), (1,)),
        ],
    )
    def test_errors_are_not_memoized(self, degrees, sizes):
        count_supervertex_trees((1, 1), (1, 2))  # the int twin of (1.0, 1.0)
        raised = []
        for _ in range(2):
            with pytest.raises(Exception) as info:
                count_supervertex_trees(degrees, sizes)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    def test_float_vector_fails_after_its_int_twin_is_memoized(self):
        # a float vector passes the degree checks and fails in multinomial,
        # after its int twin has been counted
        assert count_supervertex_trees((1, 2, 1), (2, 2, 2)) == 16
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            count_supervertex_trees((1, 2.0, 1), (2, 2, 2))
        # the size checks still come before the multinomial's
        with pytest.raises(CompositionSumMismatch, match="need 3 component sizes, got 2"):
            count_supervertex_trees((1, 2.0, 1), (2, 2))

    def test_list_degrees(self):
        for _ in range(2):  # a second call counts the same
            assert count_supervertex_trees([1, 2, 1], (2, 3, 4)) == 2 * 9 * 4
            assert count_supervertex_trees((1, 2, 1), (2, 3, 4)) == 2 * 9 * 4
        with pytest.raises(InvalidDegreeSequence) as info:
            count_supervertex_trees([0, 2], (1, 1))
        assert str(info.value) == "degrees must be positive: [0, 2]"
        with pytest.raises(InvalidDegreeSequence) as info:
            count_supervertex_trees([1, 2, 2], (1, 1, 1))
        assert str(info.value) == "degree sum must be 4 for n=3, got 5"


class TestMemos:
    def test_package_memos_are_the_known_caches(self):
        # the benchmark clears every cache_clear callable of the package's
        # modules before each op; a memo outside this list would stay warm.
        # Besides the two counting caches, enumeration keeps the chunk
        # tables of the edge masks of each n <= 9 and kind it has summed (the
        # CLI's text formats among the kinds, heads and tails edited in), and
        # the step tables of each n it has swept or decoded a word to a mask on
        import treecount.cli  # noqa: F401  loads every module of the package

        found = {
            f"{name}.{attr}"
            for name, module in sorted(sys.modules.items())
            if name.startswith("treecount")
            for attr, obj in vars(module).items()
            if callable(getattr(obj, "cache_clear", None))
        }
        assert found == {
            "treecount.enumeration._mask_tables",
            "treecount.enumeration._steps",
            "treecount.counting._eq20",
            "treecount.counting._pascal_rows",
        }


class TestDoubleCountAssembly:
    def test_small_values(self):
        # oracle: 3 trees on 3 vertices x C(2, k-1) marked-edge choices
        assert assemble_double_count(3, 1) == 3
        assert assemble_double_count(3, 2) == 6
        assert assemble_double_count(2, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            assemble_double_count(1, 1)
        with pytest.raises(OutOfRange):
            assemble_double_count(3, 4)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_equals_closed_form(self, m):
        for k in range(1, m + 1):
            assert assemble_double_count(m, k) == count_total_trees(m) * comb(m - 1, k - 1)


class TestBinomialCollapse:
    def test_examples(self):
        assert binomial_collapse(4) == 16  # 9 + 6 + 1
        assert binomial_collapse(2) == 1
        assert binomial_collapse(3) == 3  # 2 + 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binomial_collapse(1)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_matches_closed_form(self, n):
        assert binomial_collapse(n) == count_total_trees(n)
