"""Seeded uniform random generation of labeled trees.

The pinned generator is CPython's Mersenne Twister (random.Random).
Samplers consume randomness exclusively through getrandbits-based
rejection sampling and an explicit Fisher-Yates shuffle.  Reproducibility
contract: every sampler takes keyword-only ``seed`` and ``count``, and
the same seed and parameters yield a byte-identical stream on every
platform and Python version.

Uniformity: a uniform sequence of n-2 independent symbols decodes to a
uniform tree (the codec is a bijection).  For a fixed degree sequence,
a uniform random permutation of the fixed symbol multiset is uniform
over the distinct arrangements, because every distinct arrangement is
hit by the same number prod((d_i - 1)!) of permutations.

Each sampler draws Prufer words; its tree stream is the decode of the
words, with the same draws.
"""

from __future__ import annotations

import random
from itertools import islice, repeat
from typing import Iterator

from treecount.core import LabeledTree, OutOfRange, _check_cap, validate_degrees
from treecount.enumeration import decode_sequences

# Largest vertex count a sampler draws for, -n or the length of a degree
# vector: one tree at the cap draws, decodes and prints in about a second.
SAMPLE_N_CAP = 200_000


def _shuffle(rng: random.Random, items: list[int]) -> None:
    # Fisher-Yates; j is drawn uniformly from [0, i] by rejection on the
    # bit width of i
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        bits = i.bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


def sample_uniform_sequence(n: int, *, seed: int, count: int) -> Iterator[tuple[int, ...]]:
    """A stream of ``count`` Prufer words on n vertices, each a tuple of
    n-2 independent uniform symbols over 1..n."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if count < 0:
        raise OutOfRange(f"sample count must be >= 0, got {count}")
    _check_cap("n", n, "sample", SAMPLE_N_CAP)
    return _uniform_words(n, seed, count)


def _uniform_words(n: int, seed: int, count: int) -> Iterator[tuple[int, ...]]:
    # one stream of uniform draws from [0, n), by rejection on the bit width
    # of n - 1; no draws for n <= 2, whose sequence is empty
    rng = random.Random(seed)
    draws = filter(n.__gt__, map(rng.getrandbits, repeat((n - 1).bit_length())))
    length = max(n - 2, 0)
    for _ in range(count):
        yield tuple(map((1).__add__, islice(draws, length)))


def sample_uniform_tree(n: int, *, seed: int, count: int) -> Iterator[LabeledTree]:
    """A stream of ``count`` trees, each exactly uniform over all n^(n-2):
    the decode of sample_uniform_sequence with the same arguments."""
    return decode_sequences(n, sample_uniform_sequence(n, seed=seed, count=count))


def sample_sequence_with_degrees(
    degrees: tuple[int, ...], *, seed: int, count: int
) -> Iterator[tuple[int, ...]]:
    """A stream of ``count`` uniformly shuffled arrangements of the symbol
    multiset in which vertex i occurs d_i - 1 times."""
    validate_degrees(degrees)
    if count < 0:
        raise OutOfRange(f"sample count must be >= 0, got {count}")
    _check_cap("n", len(degrees), "sample", SAMPLE_N_CAP)
    return _degree_words(degrees, seed, count)


def _degree_words(degrees: tuple[int, ...], seed: int, count: int) -> Iterator[tuple[int, ...]]:
    rng = random.Random(seed)
    base = [v for v, deg in enumerate(degrees, start=1) for _ in range(deg - 1)]
    for _ in range(count):
        symbols = base[:]
        _shuffle(rng, symbols)
        yield tuple(symbols)


def sample_tree_with_degrees(
    degrees: tuple[int, ...], *, seed: int, count: int
) -> Iterator[LabeledTree]:
    """A stream of ``count`` trees, uniform over the trees whose degree
    vector equals ``degrees``; every sample has exactly that degree
    vector.  It is the decode of sample_sequence_with_degrees with the
    same arguments."""
    words = sample_sequence_with_degrees(degrees, seed=seed, count=count)
    return decode_sequences(len(degrees), words)
