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
or of its first trees, in chunks, and walks no word: a suffix's row is
its decode without its smallest absent vertices, and each level of rows
is composed from the level one symbol shorter by ``_compose``, from the
empty suffix up to the words.  The encode, ``_encode_walk``, peels
leaves smallest first with the same pointer, never vertex n, keeping
each vertex's degree and the XOR of its neighbours; it is also the tree
test of the edges it is given, so the CLI encodes edge text without
building a tree and hands only a block it refuses to
``canonicalize_tree``, for its diagnostic.  Both directions take linear
time.

Enumeration sizes are capped by the module constants PRUFER_ENUM_CAP,
EDGE_ENUM_CAP and PAIR_ENUM_CAP, so accidental huge sweeps fail fast
with CapExceeded.  No environment variable overrides them; a library
caller may assign a new value, which is read at call time.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product, repeat
from operator import sub, xor
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


def _steps(n: int) -> list[tuple]:
    """The tables of _compose for each first symbol v of 1..n, at index v,
    4 <= n <= 9.  A set of vertices of 1..n-1 is a byte, bit u - 1 for
    vertex u; a row's set {e1, ..., e(m+1)} has largest vertex f = e(m+1)
    and second largest e = em, and v is one of e1..em exactly when the set
    holds v and a larger vertex.  Then ``keys`` maps the set to n + 1 + f
    and ``drops`` to the set less v; otherwise to e and to the set less f.
    ``lifts[y1][key]`` is P(x) ^ P(y): bit(e, v) at key e, and
    bit(f, v) ^ bit(f, y1) ^ bit(v, y1) at key n + 1 + f."""
    bit = _EDGE_BITS[n]
    size = 1 << n - 1
    plain = bytes(range(256))  # each set as itself
    tops = bytes(map(int.bit_length, range(256)))  # each set's largest vertex
    rests = bytes(1) + b"".join(plain[: 1 << u] for u in range(8))  # the set less it
    seconds, turns = rests.translate(tops), bytes(map((n + 1).__add__, tops[:size]))
    steps = [None]
    for v in range(1, n + 1):
        keys, drops, h = bytearray(seconds), bytearray(rests), 1 << v >> 1
        # the sets that hold v and a larger vertex: the upper half of each
        # run of 2h sets after the first
        for a in range(3 * h, size, 2 * h):
            keys[a : a + h] = turns[a : a + h]
            drops[a : a + h] = plain[a - h : a]
        row = bit[v]
        lifts = [row + [x ^ y ^ row[y1] for x, y in zip(row, bit[y1])] for y1 in range(n + 1)]
        steps.append((bytes(keys), bytes(drops), lifts))
    return steps


def _compose(step: tuple, sets: bytes, masks, lo: int, hi: int, first: int, run: int):
    """Rows lo..hi of block v of the level above a level of suffix rows: the
    sets and masks of the suffixes v.y, y the rows lo..hi of the level,
    through v's tables ``step`` of _steps, by C-level maps.

    A row y is a suffix of length k on 1..n, with absent vertices
    e1 < e2 < ... and m = n - k - 2.  It keeps the set {e1, ..., e(m+1)}
    and the mask P(y) of y decoded on 1..n without e1..em; y's first symbol
    y1 is first + r // run at row r (n for the empty suffix).  For x = v.y,
    v not among e1..em, x's first leaf is em: P(x) = P(y) ^ bit(em, v),
    and x's set is y's less e(m+1).  For v = ei, i <= m, the leaf is e(m+1),
    and y decoded without e(m+1) rather than ei differs only in its first
    edge, (e(m+1), y1) for (ei, y1): P(x) = P(y) ^ bit(e(m+1), v) ^
    bit(e(m+1), y1) ^ bit(v, y1), and x's set is y's less ei."""
    keys, drops, lifts = step
    ys = sets[lo:hi]
    ks = ys.translate(keys)
    out = []
    for a in range(lo - lo % run, hi, run):  # the runs of one first symbol
        b, c = max(a, lo), min(a + run, hi)
        out += map(xor, masks[b:c], map(lifts[first + a // run].__getitem__, ks[b - lo : c - lo]))
    return ys.translate(drops), out


def _sweep_chunks(n: int, stop: int, size: int) -> Iterator[list[int]]:
    """The edge masks of the first ``stop`` trees of enumerate_sequences(n),
    in its order and in lists of at most ``size``, for 4 <= n <= 9; no word
    is walked.

    Level k holds the rows of _compose of the suffixes of length k, in
    lexicographic order, so block v of level k + 1 is composed from all of
    level k, at most ``size`` rows a call.  Level 0 is the empty suffix:
    the set {1, ..., n - 1} and the mask bit(n - 1, n).  Level n - 3 keeps
    9 bytes a suffix (4.6 MiB for the 9^6 suffixes of n = 9), and the
    chunks of level n - 2, the words, are yielded.  The first h rows of a
    block need only the first h of the level below, so level k holds
    min(stop, n^k) rows and no mask past stop is built."""
    from array import array  # loaded here alone: only the sweep needs it

    steps = _steps(n)
    sets, masks, first, run = bytes([(1 << n - 1) - 1]), array("Q", [_EDGE_BITS[n][n - 1][n]]), n, 1
    for k in range(n - 2):
        block = n ** k
        up, ups = bytearray(), array("Q")
        for start in range(0, min(stop, n * block), block):
            v, end = start // block + 1, min(block, stop - start)
            for lo in range(0, end, size):
                part, out = _compose(steps[v], sets, masks, lo, min(lo + size, end), first, run)
                if k == n - 3:  # the words
                    yield out
                else:
                    up += part
                    ups.extend(out)
        sets, masks, first, run = up, ups, 1, block


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
