"""Seeded uniform random generation of labeled trees.

The pinned generator is CPython's Mersenne Twister (random.Random).
Samplers consume randomness exclusively through getrandbits-based
rejection sampling and an explicit Fisher-Yates shuffle, so a given
(seed, parameters) pair yields byte-identical streams on every platform
and Python version.

Uniformity: a uniform sequence of n-2 independent symbols decodes to a
uniform tree (the codec is a bijection).  For a fixed degree sequence,
a uniform random permutation of the fixed symbol multiset is uniform
over the distinct arrangements, because every distinct arrangement is
hit by the same number prod((d_i - 1)!) of permutations.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from treecount.core import DegreeSequence, LabeledTree, OutOfRange, PruferSequence, validate_degrees
from treecount.enumeration import prufer_decode


class SamplerConfig(NamedTuple):
    """Reproducibility contract: same seed and parameters, same stream."""

    seed: int
    count: int


def _below(rng: random.Random, n: int) -> int:
    # unbiased uniform draw from [0, n) by rejection on the top bit width
    if n <= 1:
        return 0
    bits = (n - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _shuffle(rng: random.Random, items: list[int]) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def sample_uniform_tree(n: int, cfg: SamplerConfig) -> Iterator[LabeledTree]:
    """A stream of cfg.count trees, each exactly uniform over all n^(n-2)."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if cfg.count < 0:
        raise OutOfRange(f"sample count must be >= 0, got {cfg.count}")
    return _uniform_stream(n, cfg)


def _uniform_stream(n: int, cfg: SamplerConfig) -> Iterator[LabeledTree]:
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        # no draws for n <= 2, whose sequence is empty
        symbols = tuple(_below(rng, n) + 1 for _ in range(n - 2))
        yield prufer_decode(PruferSequence(n, symbols))


def sample_tree_with_degrees(
    d: DegreeSequence, cfg: SamplerConfig
) -> Iterator[LabeledTree]:
    """A stream of cfg.count trees, uniform over the trees whose degree
    vector equals ``d``; every sample has exactly that degree vector."""
    validate_degrees(d.degrees)
    if cfg.count < 0:
        raise OutOfRange(f"sample count must be >= 0, got {cfg.count}")
    return _degree_stream(d.degrees, cfg)


def _degree_stream(degrees: tuple[int, ...], cfg: SamplerConfig) -> Iterator[LabeledTree]:
    rng = random.Random(cfg.seed)
    n = len(degrees)
    base = [v for v, deg in enumerate(degrees, start=1) for _ in range(deg - 1)]
    for _ in range(cfg.count):
        symbols = base[:]
        _shuffle(rng, symbols)
        yield prufer_decode(PruferSequence(n, tuple(symbols)))
