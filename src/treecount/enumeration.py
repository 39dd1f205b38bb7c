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
for n <= 9, ``_decode_mask`` the tree's edge mask, one bit per pair
(u, v), u < v, in lexicographic order, from which the CLI writes its
small tree formats.  ``_sweep_chunks`` gives the masks of a whole sweep,
or of its first trees, in chunks, and walks one word per suffix, inline:
a word's tree is its suffix's decode on the other vertices plus one
edge, the suffix's decode is kept in a per-suffix row, and where the
word's first leaf is not the suffix's smallest absent vertex the row is
patched in one edge.  The
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
from itertools import combinations, islice, product, repeat
from operator import or_, sub
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


def _mask_pairs(n: int) -> list[Edge]:
    """The edge of each bit of an edge mask on n vertices, bit 0 first: the
    pairs (u, v), u < v, of 1..n in lexicographic order, so the set bits of
    a tree's mask, read upward, list its edges sorted, vertex 1's first."""
    return list(combinations(range(1, n + 1), 2))


# _EDGE_BITS[n][u][v] is the bit of the edge {u, v}, either way round, in
# the edge masks of trees on n <= 9 vertices; made at import.
def _edge_bit_rows(n: int) -> list[list[int]]:
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(_mask_pairs(n)):
        rows[u][v] = rows[v][u] = 1 << i
    return rows


_EDGE_BITS = [None, None] + [_edge_bit_rows(n) for n in range(2, 10)]


def _decode_mask(n: int, symbols: Iterable[int]) -> int:
    # the walk of _decode_edges to the edge mask of the tree, 2 <= n <= 9:
    # OR-ing one bit per edge needs neither a list nor a sort
    bit = _EDGE_BITS[n]
    deg = [1] * (n + 1)
    for s in symbols:
        deg[s] += 1
    mask = 0
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in symbols:
        mask |= bit[leaf][s]
        deg[s] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return mask | bit[leaf][n]


def _sweep_chunks(n: int, stop: int, size: int) -> Iterator[list[int]]:
    """The edge masks of the first ``stop`` trees of enumerate_sequences(n),
    in its order and in lists of at most ``size``, for 4 <= n <= 9; only
    the words of block s1 = 1 are walked.

    Let t be a suffix, t1 its first symbol, and a1 < a2 the two smallest
    vertices absent from t.  A word s1.t decodes to the edge from s1 to its
    first leaf and the decode of t on the other n - 1 vertices.  For
    s1 != a1 that leaf is a1, so the word's mask is M1(t) | bit(a1, s1),
    where M1(t) is the mask of t decoded without a1.  For s1 = a1 it is a2,
    and t decoded without a2 differs from t decoded without a1 only in its
    first edge, (a1, t1) for (a2, t1): the mask is
    bit(a1, a2) | M1(t) ^ bit(a2, t1) ^ bit(a1, t1).  So block 1 is walked,
    inline, and keeps a1, a2 and M1 per suffix in typed rows, 10 bytes a
    suffix (5.1 MiB for the 9^6 suffixes of n = 9); each later block s is
    built a chunk at a time from the rows by a C-level map, and then its
    words with a1(t) = s, found by bytearray.find, are patched.  Nothing
    past stop is walked or built."""
    from array import array  # loaded here alone: only the sweep needs it

    bit = _EDGE_BITS[n]
    one = bit[1]  # one[1] = 0
    suffixes = n ** (n - 3)
    a1s, a2s, m1s = bytearray(), bytearray(), array("Q")
    keep_a1, keep_a2, keep_m1 = a1s.append, a2s.append, m1s.append
    words = product((1,), *[range(1, n + 1)] * (n - 3))
    for lo in range(0, min(stop, suffixes), size):
        masks = []
        keep = masks.append
        for w in islice(words, min(size, stop - lo)):
            # the walk of _decode_mask, inline, with a1(t) and a2(t) read off
            # the degrees first: vertex 1 is absent from t when it occurs
            # once in w, and then the word's first leaf is a2(t).  Calling
            # _decode_mask and finding a1(t) apart costs about a quarter more
            # per word (ROADMAP, Settled)
            deg = [1] * (n + 1)
            for s in w:
                deg[s] += 1
            ptr = 1
            while deg[ptr] != 1:
                ptr += 1
            first = one[ptr]
            if deg[1] == 2:
                a1, a2 = 1, ptr
            else:
                a1, a2 = ptr, ptr + 1
                while deg[a2] != 1:
                    a2 += 1
            leaf, mask = ptr, 0
            for s in w:
                mask |= bit[leaf][s]
                deg[s] -= 1
                if deg[s] == 1 and s < ptr:
                    leaf = s
                else:
                    ptr += 1
                    while deg[ptr] != 1:
                        ptr += 1
                    leaf = ptr
            mask |= bit[leaf][n]
            keep(mask)
            keep_a1(a1)
            keep_a2(a2)
            if a1 == 1:
                t1 = w[1]
                keep_m1(mask ^ first ^ bit[a2][t1] ^ one[t1])
            else:
                keep_m1(mask ^ first)
        yield masks
    step = suffixes // n  # the suffixes that share a first symbol
    for s in range(2, n + 1):
        end = min(suffixes, stop - (s - 1) * suffixes)
        row = bit[s]
        for lo in range(0, end, size):
            hi = min(lo + size, end)
            masks = list(map(or_, m1s[lo:hi], map(row.__getitem__, a1s[lo:hi])))
            i = a1s.find(s, lo, hi)
            while i >= 0:
                a2, t1 = a2s[i], i // step + 1
                masks[i - lo] = row[a2] | m1s[i] ^ bit[a2][t1] ^ row[t1]
                i = a1s.find(s, i + 1, hi)
            yield masks


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
