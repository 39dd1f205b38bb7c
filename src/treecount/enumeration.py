"""Exhaustive oracles: tree generation and the Prufer codec.

Everything here enumerates or transforms concrete trees, providing the
brute-force reference paths that the closed-form counters are checked
against.  Streams are lazy generators with a deterministic
(lexicographic) order, so callers may count without materializing and
golden tests stay stable.  The sweeps are streams of Prufer words
(tuples of symbols); the tree streams are their decode, so a caller
that only needs the words, or their symbol counts, decodes nothing.
The decode is one pointer walk in two forms: ``_decode_edges`` gives the
sorted edge pairs that the tree streams and ``prufer_decode`` wrap, and,
for n <= 9, ``_decode_codes`` the sorted integer codes 10*u+v of the
edges (u, v), u < v, from which the CLI writes its small tree formats.  The
encode, ``_encode_walk``, peels leaves smallest first with the same
pointer, never vertex n, keeping each vertex's degree and the XOR of its
neighbours; it is also the tree test of the edges it is given, so the
CLI encodes edge text without building a tree and hands only a block it
refuses to ``canonicalize_tree``, for its diagnostic.  Both directions
take linear time.

Enumeration sizes are capped by the module constants PRUFER_ENUM_CAP,
EDGE_ENUM_CAP and PAIR_ENUM_CAP, so accidental huge sweeps fail fast
with CapExceeded.  No environment variable overrides them; a library
caller may assign a new value, which is read at call time.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product, repeat
from operator import sub
from typing import Iterable, Iterator

from treecount.core import (
    Edge,
    LabeledTree,
    NotATree,
    OutOfRange,
    _acyclic,
    _check_cap,
    validate_degrees,
)


# 9^7 ~ 4.8M trees keeps a full sweep in tens of seconds; subset-based
# oracles grow like C(n(n-1)/2, n-1) and get a smaller cap.
PRUFER_ENUM_CAP = 9
EDGE_ENUM_CAP = 6
PAIR_ENUM_CAP = 6


# ---------------------------------------------------------------------------
# Prufer codec


def _decode_edges(n: int, symbols: Iterable[int]) -> tuple[Edge, ...]:
    # pointer-based decode, n >= 2; the smallest current leaf is tracked in
    # leaf, the scan frontier in ptr
    deg = [1] * (n + 1)
    for s in symbols:
        deg[s] += 1
    edges = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in symbols:
        edges.append((leaf, s) if leaf < s else (s, leaf))
        deg[s] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    edges.sort()
    return tuple(edges)


def _decode_codes(n: int, symbols: Iterable[int]) -> list[int]:
    # the walk of _decode_edges to the sorted codes 10*u+v of the edges
    # (u, v), u < v, n <= 9: ints sort as the pairs do, faster, and index one
    # table of edge texts; splitting codes into pairs would slow the streams
    deg = [1] * (n + 1)
    for s in symbols:
        deg[s] += 1
    codes = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in symbols:
        codes.append(leaf * 10 + s if leaf < s else s * 10 + leaf)
        deg[s] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    codes.append(leaf * 10 + n)
    codes.sort()
    return codes


def prufer_decode(n: int, symbols: tuple[int, ...]) -> LabeledTree:
    """The unique tree on n vertices whose encoding is ``symbols``."""
    if n == 1:
        return LabeledTree(1, ())
    return LabeledTree(n, _decode_edges(n, symbols))


def _encode_walk(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...] | None:
    # the Prufer word of the multigraph on 1..n, n >= 2, with the n-1 edges
    # (u, v) of pairs, in any order and orientation, or None when they form
    # no tree.  pairs is read once, so a tree's edges or a zip of the CLI's
    # label lists go in as they are, with no copy.  Each vertex keeps its
    # degree and the XOR of its neighbours, which is its one neighbour once
    # it is a leaf, and leaves are peeled smallest first with the decode's
    # pointer, never vertex n.  Peeling n-2 leaves and then finding one more
    # leaf, joined to n as the only other vertex left, succeeds exactly when
    # the edges form a tree: a cycle, a repeated edge or a self-loop never
    # becomes a leaf, so the peel runs out of leaves first.
    deg = [0] * (n + 2)
    nbr = [0] * (n + 1)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
        nbr[u] ^= v
        nbr[v] ^= u
    deg[n] += n  # never 1, so n is never peeled
    deg[n + 1] = 1  # stops the scan past n - 1
    out = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    if ptr > n:
        return None
    leaf = ptr
    for _ in range(n - 2):
        p = nbr[leaf]
        out.append(p)
        nbr[p] ^= leaf
        deg[p] -= 1
        if deg[p] == 1 and p < ptr:
            leaf = p
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            if ptr > n:
                return None
            leaf = ptr
    return tuple(out)


def prufer_encode(tree: LabeledTree) -> tuple[int, ...]:
    """Encode by repeatedly removing the smallest-labeled leaf and
    recording its neighbor.

    Linear time: each vertex keeps the XOR of its remaining neighbours,
    which is its one neighbour once it is a leaf, and the smallest leaf
    is tracked with the same pointer as the decode."""
    n = tree.n
    if n < 2:
        raise OutOfRange("encoding needs at least 2 vertices")
    word = _encode_walk(n, tree.edges)
    if word is None:
        raise NotATree(f"the edges do not form a tree on {n} vertices")
    return word


# ---------------------------------------------------------------------------
# Exhaustive tree generation


def enumerate_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Every Prufer word on n vertices, as a tuple of its n-2 symbols, in
    lexicographic order; the empty word once for n in {1, 2}."""
    if n < 1:
        raise OutOfRange(f"vertex count must be >= 1, got {n}")
    _check_cap("n", n, "sweep", PRUFER_ENUM_CAP)
    return product(range(1, n + 1), repeat=max(n - 2, 0))


def enumerate_sequences_with_degrees(degrees: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The words of the trees whose degree vector equals ``degrees``: every
    distinct arrangement of the symbol multiset in which vertex i occurs
    d_i - 1 times, in lexicographic order."""
    validate_degrees(degrees)
    n = len(degrees)
    _check_cap("n", n, "sweep", PRUFER_ENUM_CAP)
    pool = [[v, c - 1] for v, c in enumerate(degrees, start=1) if c > 1]
    return _multiset_sequences(pool, n - 2)


def _multiset_sequences(pool: list[list[int]], length: int) -> Iterator[tuple[int, ...]]:
    # pool entries are [symbol, remaining] in ascending symbol order, so
    # output is lexicographic and free of duplicates
    buf = [0] * length

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == length:
            yield tuple(buf)
            return
        for entry in pool:
            if entry[1]:
                entry[1] -= 1
                buf[pos] = entry[0]
                yield from rec(pos + 1)
                entry[1] += 1

    return rec(0)


def decode_sequences(n: int, words: Iterable[tuple[int, ...]]) -> Iterator[LabeledTree]:
    """The tree of each word on n vertices, lazily and in stream order."""
    if n == 1:
        return (LabeledTree(1, ()) for _ in words)
    return (LabeledTree(n, _decode_edges(n, symbols)) for symbols in words)


def enumerate_all_trees(n: int) -> Iterator[LabeledTree]:
    """Every labeled tree on n vertices, in lexicographic order of its
    Prufer sequence; the single tree for n in {1, 2}."""
    return decode_sequences(n, enumerate_sequences(n))


def enumerate_all_trees_by_edges(n: int) -> Iterator[LabeledTree]:
    """Second, independent oracle: filter all (n-1)-subsets of the complete
    graph's edges down to the spanning trees."""
    if n < 1:
        raise OutOfRange(f"vertex count must be >= 1, got {n}")
    _check_cap("n", n, "edge-subset", EDGE_ENUM_CAP)
    return _edge_subset_stream(n)


def _edge_subset_stream(n: int) -> Iterator[LabeledTree]:
    all_edges = list(combinations(range(1, n + 1), 2))
    for subset in combinations(all_edges, n - 1):
        if _acyclic(n, subset):
            yield LabeledTree(n, subset)


def enumerate_trees_with_degrees(degrees: tuple[int, ...]) -> Iterator[LabeledTree]:
    """Exactly the trees whose degree vector equals ``degrees``, the decode
    of enumerate_sequences_with_degrees(degrees)."""
    return decode_sequences(len(degrees), enumerate_sequences_with_degrees(degrees))


def deg_v1_histogram(n: int) -> dict[int, int]:
    """Tree counts keyed by the degree of vertex 1, derived purely from
    symbol occurrences (degree = occurrences + 1), without decoding."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    ones = Counter(map(tuple.count, enumerate_sequences(n), repeat(1)))
    return {k: ones[k - 1] for k in range(1, n)}


# ---------------------------------------------------------------------------
# Pair and composition enumeration


def enumerate_edge_subsets_pairs(
    m: int, k: int
) -> Iterator[tuple[LabeledTree, tuple[Edge, ...]]]:
    """Every (tree on m vertices, (k-1)-subset of its edges) pair, exactly
    once; the stream has length T_m * C(m-1, k-1)."""
    if m < 2:
        raise OutOfRange(f"need m >= 2, got {m}")
    if not 1 <= k <= m:
        raise OutOfRange(f"need 1 <= k <= {m}, got k={k}")
    _check_cap("m", m, "pair", PAIR_ENUM_CAP)
    return _pairs_stream(m, k)


def _pairs_stream(m: int, k: int) -> Iterator[tuple[LabeledTree, tuple[Edge, ...]]]:
    for tree in enumerate_all_trees(m):
        for cut in combinations(tree.edges, k - 1):
            yield tree, cut


def enumerate_compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All C(total-1, k-1) ordered k-tuples of positive parts summing to
    ``total``, in lexicographic order: the parts between k-1 cut points
    from 1..total-1, whose lexicographic order they keep."""
    if total < 0:
        raise OutOfRange(f"total must be >= 0, got {total}")
    if k < 1:
        raise OutOfRange(f"part count must be >= 1, got {k}")
    if total == 0:  # the single empty cut set would give the part 0
        return iter(())
    # tuple() of a bare map sizes for 10 and shrinks, and the shrunk tuples
    # pile up on CPython's free lists (about 0.5 MiB); a list sizes it exactly
    return (
        tuple([*map(sub, cuts + (total,), (0,) + cuts)])
        for cuts in combinations(range(1, total), k - 1)
    )
