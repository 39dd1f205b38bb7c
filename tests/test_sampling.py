"""Seeded samplers: reproducibility, validity, degree fidelity, support."""

from __future__ import annotations

import random
from collections import Counter
from itertools import permutations, product

import pytest

import oracles

from treecount import sampling
from treecount.core import (
    CapExceeded,
    LabeledTree,
    OutOfRange,
    canonicalize_tree,
    tree_degrees,
)
from treecount.enumeration import decode_sequences
from treecount.sampling import (
    sample_sequence_with_degrees,
    sample_tree_with_degrees,
    sample_uniform_sequence,
    sample_uniform_tree,
)


class TestUniformSampler:
    def test_n2_always_the_single_edge(self):
        for seed in (0, 1, 99):
            trees = list(sample_uniform_tree(2, seed=seed, count=5))
            assert trees == [LabeledTree(2, ((1, 2),))] * 5

    def test_n1_empty_tree(self):
        assert list(sample_uniform_tree(1, seed=3, count=2)) == [LabeledTree(1, ())] * 2

    def test_reproducible(self):
        a = list(sample_uniform_tree(6, seed=123, count=50))
        b = list(sample_uniform_tree(6, seed=123, count=50))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(sample_uniform_tree(6, seed=1, count=50))
        b = list(sample_uniform_tree(6, seed=2, count=50))
        assert a != b

    def test_samples_are_valid_trees(self):
        for tree in sample_uniform_tree(7, seed=11, count=200):
            assert canonicalize_tree(tree.n, tree.edges) == tree

    def test_full_support_at_n4(self):
        seen = set(sample_uniform_tree(4, seed=5, count=2000))
        assert len(seen) == 16

    def test_validation(self):
        with pytest.raises(OutOfRange):
            next(iter(sample_uniform_tree(0, seed=1, count=1)))
        with pytest.raises(OutOfRange):
            sample_uniform_tree(3, seed=1, count=-1)

    def test_count_zero_is_empty(self):
        assert list(sample_uniform_tree(5, seed=9, count=0)) == []

    def test_seed_and_count_are_keyword_only(self):
        for sampler, target in (
            (sample_uniform_sequence, 5),
            (sample_uniform_tree, 5),
            (sample_sequence_with_degrees, (2, 2, 1, 1)),
            (sample_tree_with_degrees, (2, 2, 1, 1)),
        ):
            with pytest.raises(TypeError):
                sampler(target, 1, 2)
            with pytest.raises(TypeError):
                sampler(target, seed=1)


class TestDegreeConstrainedSampler:
    def test_forced_star(self):
        d = (1, 1, 1, 3)
        star = canonicalize_tree(4, [(1, 4), (2, 4), (3, 4)])
        assert list(sample_tree_with_degrees(d, seed=1, count=10)) == [star] * 10

    def test_single_edge(self):
        d = (1, 1)
        assert list(sample_tree_with_degrees(d, seed=0, count=3)) == [
            LabeledTree(2, ((1, 2),))
        ] * 3

    def test_degree_fidelity_every_sample(self):
        d = (3, 2, 1, 1, 1, 2, 2)
        for tree in sample_tree_with_degrees(d, seed=77, count=300):
            assert tree_degrees(tree) == d

    def test_reproducible(self):
        d = (2, 2, 1, 1)
        a = list(sample_tree_with_degrees(d, seed=8, count=40))
        b = list(sample_tree_with_degrees(d, seed=8, count=40))
        assert a == b

    def test_both_trees_reached(self):
        d = (2, 2, 1, 1)
        seen = Counter(sample_tree_with_degrees(d, seed=3, count=200))
        assert len(seen) == 2


class TestSequenceSamplers:
    def test_uniform_draws_are_pinned(self):
        # the words the seeded stream has always drawn
        assert list(sample_uniform_sequence(7, seed=123, count=4)) == [
            (1, 3, 1, 7, 4),
            (3, 1, 7, 7, 1),
            (4, 5, 5, 3, 3),
            (7, 1, 2, 2, 3),
        ]

    def test_degree_draws_are_pinned(self):
        d = (3, 2, 1, 1, 1, 2, 2)
        assert list(sample_sequence_with_degrees(d, seed=77, count=4)) == [
            (6, 7, 1, 1, 2),
            (7, 2, 1, 6, 1),
            (1, 1, 2, 7, 6),
            (2, 1, 6, 1, 7),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 9, 60])
    def test_trees_are_the_decode_of_the_words(self, n):
        cfg = {"seed": n, "count": 20}
        words = list(sample_uniform_sequence(n, **cfg))
        assert all(len(w) == max(n - 2, 0) for w in words)
        assert list(sample_uniform_tree(n, **cfg)) == list(decode_sequences(n, words))
        d = tree_degrees(next(sample_uniform_tree(max(n, 2), **cfg)))
        words = list(sample_sequence_with_degrees(d, **cfg))
        want = list(decode_sequences(len(d), words))
        assert list(sample_tree_with_degrees(d, **cfg)) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 64, 65, 1000, 1024, 1025])
    def test_uniform_words_are_the_one_draw_per_call_stream(self, n):
        # the same draws in the same order, across word boundaries too
        for seed in (0, 1, 2**40 + 3):
            got = list(sample_uniform_sequence(n, seed=seed, count=6))
            assert got == list(oracles.uniform_words(n, seed, 6))

    @pytest.mark.parametrize("n", [2, 3, 5, 63, 64, 65, 1000, 1024, 1025])
    def test_degree_words_are_the_one_draw_per_call_stream(self, n):
        rng = random.Random(n)
        for seed in (0, 7):
            # a random degree vector: one plus each vertex's count in a random word
            counts = Counter(rng.randint(1, n) for _ in range(n - 2))
            d = tuple(1 + counts[v] for v in range(1, n + 1))
            got = list(sample_sequence_with_degrees(d, seed=seed, count=6))
            assert got == list(oracles.degree_words(d, seed, 6))

    def test_size_cap(self):
        cap = sampling.SAMPLE_N_CAP
        assert cap >= 1000
        path = (1,) + (2,) * (cap - 1) + (1,)
        for call in (
            lambda: sample_uniform_sequence(cap + 1, seed=0, count=1),
            lambda: sample_uniform_tree(cap + 1, seed=0, count=1),
            lambda: sample_sequence_with_degrees(path, seed=0, count=1),
            lambda: sample_tree_with_degrees(path, seed=0, count=1),
        ):
            with pytest.raises(CapExceeded) as info:
                call()
            assert (str(info.value), info.value.kind) == (
                f"n={cap + 1} beyond the sample cap {cap}",
                "sample",
            )
        assert list(sample_uniform_sequence(cap, seed=0, count=0)) == []


class _TapeEnd(Exception):
    """The tape ran out before the word was decided.  It is no
    StopIteration, which map and islice would take for the end of the
    draws and answer with a short word."""


class _TapeRandom:
    """A stand-in for random.Random whose getrandbits(k) is the top k bits
    of the next width-bit entry of a fixed tape, as CPython's is the top k
    bits of a 32-bit output; each k-bit value is then read from equally
    many entries."""

    def __init__(self, tape, width):
        self._next = iter(tape).__next__
        self._width = width

    def getrandbits(self, k):
        try:
            return self._next() >> (self._width - k)
        except StopIteration:
            raise _TapeEnd from None


def _tapes_per_word(monkeypatch, words, width, draws):
    """How many of the tapes of `draws` entries of `width` bits decide
    each word: the first word of words() drawn from each tape in turn."""
    tapes = product(range(1 << width), repeat=draws)
    monkeypatch.setattr(sampling.random, "Random", lambda seed: _TapeRandom(next(tapes), width))
    tally = Counter()
    for _ in range(1 << (width * draws)):
        try:
            tally[next(words())] += 1
        except _TapeEnd:
            pass
    return tally


class TestExactUniformity:
    """Every tape of draws is equally likely, so a sampler is exactly
    uniform when every word is decided by the same number of tapes.  The
    sizes are ones where draws are rejected, which no sampling frequency
    test at n = 4 or d = (2, 2, 1, 1) reaches."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_uniform_words(self, monkeypatch, n):
        width = (n - 1).bit_length()
        draws = max(5, n - 1)  # the n - 2 symbols and at least one rejection
        tally = _tapes_per_word(monkeypatch, lambda: sampling._uniform_words(n, 0, 1), width, draws)
        assert set(tally) == set(product(range(1, n + 1), repeat=n - 2))
        assert len(set(tally.values())) == 1

    @pytest.mark.parametrize("d", [(3, 2, 1, 1, 1), (2, 2, 2, 1, 1), (4, 1, 1, 1, 2, 1)])
    def test_degree_words(self, monkeypatch, d):
        base = [v for v, deg in enumerate(d, start=1) for _ in range(deg - 1)]
        width = (len(base) - 1).bit_length()
        tally = _tapes_per_word(monkeypatch, lambda: sampling._degree_words(d, 0, 1), width, 5)
        assert set(tally) == set(permutations(base))
        assert len(set(tally.values())) == 1
