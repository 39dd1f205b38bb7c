"""Seeded samplers: reproducibility, validity, degree fidelity, support."""

from __future__ import annotations

from collections import Counter

import pytest

from treecount import sampling
from treecount.core import (
    CapExceeded,
    LabeledTree,
    OutOfRange,
    canonicalize_tree,
    degree_sequence,
    tree_degrees,
)
from treecount.enumeration import decode_sequences
from treecount.sampling import (
    SamplerConfig,
    sample_sequence_with_degrees,
    sample_tree_with_degrees,
    sample_uniform_sequence,
    sample_uniform_tree,
)


class TestUniformSampler:
    def test_n2_always_the_single_edge(self):
        for seed in (0, 1, 99):
            trees = list(sample_uniform_tree(2, SamplerConfig(seed, 5)))
            assert trees == [LabeledTree(2, ((1, 2),))] * 5

    def test_n1_empty_tree(self):
        assert list(sample_uniform_tree(1, SamplerConfig(3, 2))) == [LabeledTree(1, ())] * 2

    def test_reproducible(self):
        a = list(sample_uniform_tree(6, SamplerConfig(123, 50)))
        b = list(sample_uniform_tree(6, SamplerConfig(123, 50)))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(sample_uniform_tree(6, SamplerConfig(1, 50)))
        b = list(sample_uniform_tree(6, SamplerConfig(2, 50)))
        assert a != b

    def test_samples_are_valid_trees(self):
        for tree in sample_uniform_tree(7, SamplerConfig(11, 200)):
            assert canonicalize_tree(tree.n, tree.edges) == tree

    def test_full_support_at_n4(self):
        seen = set(sample_uniform_tree(4, SamplerConfig(5, 2000)))
        assert len(seen) == 16

    def test_validation(self):
        with pytest.raises(OutOfRange):
            next(iter(sample_uniform_tree(0, SamplerConfig(1, 1))))
        with pytest.raises(OutOfRange):
            sample_uniform_tree(3, SamplerConfig(1, -1))

    def test_count_zero_is_empty(self):
        assert list(sample_uniform_tree(5, SamplerConfig(9, 0))) == []


class TestDegreeConstrainedSampler:
    def test_forced_star(self):
        d = degree_sequence((1, 1, 1, 3))
        star = canonicalize_tree(4, [(1, 4), (2, 4), (3, 4)])
        assert list(sample_tree_with_degrees(d, SamplerConfig(1, 10))) == [star] * 10

    def test_single_edge(self):
        d = degree_sequence((1, 1))
        assert list(sample_tree_with_degrees(d, SamplerConfig(0, 3))) == [
            LabeledTree(2, ((1, 2),))
        ] * 3

    def test_degree_fidelity_every_sample(self):
        d = degree_sequence((3, 2, 1, 1, 1, 2, 2))
        for tree in sample_tree_with_degrees(d, SamplerConfig(77, 300)):
            assert tree_degrees(tree) == d.degrees

    def test_reproducible(self):
        d = degree_sequence((2, 2, 1, 1))
        a = list(sample_tree_with_degrees(d, SamplerConfig(8, 40)))
        b = list(sample_tree_with_degrees(d, SamplerConfig(8, 40)))
        assert a == b

    def test_both_trees_reached(self):
        d = degree_sequence((2, 2, 1, 1))
        seen = Counter(sample_tree_with_degrees(d, SamplerConfig(3, 200)))
        assert len(seen) == 2


class TestSequenceSamplers:
    def test_uniform_draws_are_pinned(self):
        # the words the seeded stream has always drawn
        assert list(sample_uniform_sequence(7, SamplerConfig(123, 4))) == [
            (1, 3, 1, 7, 4),
            (3, 1, 7, 7, 1),
            (4, 5, 5, 3, 3),
            (7, 1, 2, 2, 3),
        ]

    def test_degree_draws_are_pinned(self):
        d = degree_sequence((3, 2, 1, 1, 1, 2, 2))
        assert list(sample_sequence_with_degrees(d, SamplerConfig(77, 4))) == [
            (6, 7, 1, 1, 2),
            (7, 2, 1, 6, 1),
            (1, 1, 2, 7, 6),
            (2, 1, 6, 1, 7),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 60])
    def test_trees_are_the_decode_of_the_words(self, n):
        cfg = SamplerConfig(n, 20)
        words = list(sample_uniform_sequence(n, cfg))
        assert all(len(w) == max(n - 2, 0) for w in words)
        assert list(sample_uniform_tree(n, cfg)) == list(decode_sequences(n, words))
        d = degree_sequence(tree_degrees(next(sample_uniform_tree(max(n, 2), cfg))))
        words = list(sample_sequence_with_degrees(d, cfg))
        want = list(decode_sequences(len(d.degrees), words))
        assert list(sample_tree_with_degrees(d, cfg)) == want

    def test_size_cap(self):
        cap = sampling.SAMPLE_N_CAP
        assert cap >= 1000
        path = degree_sequence((1,) + (2,) * (cap - 1) + (1,))
        for call in (
            lambda: sample_uniform_sequence(cap + 1, SamplerConfig(0, 1)),
            lambda: sample_uniform_tree(cap + 1, SamplerConfig(0, 1)),
            lambda: sample_sequence_with_degrees(path, SamplerConfig(0, 1)),
            lambda: sample_tree_with_degrees(path, SamplerConfig(0, 1)),
        ):
            with pytest.raises(CapExceeded) as info:
                call()
            assert (str(info.value), info.value.kind) == (
                f"n={cap + 1} beyond the sample cap {cap}",
                "sample",
            )
        assert list(sample_uniform_sequence(cap, SamplerConfig(0, 0))) == []
