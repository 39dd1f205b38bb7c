"""Exhaustive oracles: tree generation and the Prufer codec.

Everything here enumerates or transforms concrete trees, providing the
brute-force reference paths that the closed-form counters are checked
against.  Streams are lazy generators with a deterministic
(lexicographic) order, so callers may count without materializing and
golden tests stay stable.  The sweeps are streams of Prufer words
(tuples of symbols); the tree streams are their decode, so a caller
that only needs the words, or their symbol counts, decodes nothing.
A degree vector's words are the distinct arrangements of its sorted
symbols (``_degree_symbols``), each the next permutation of the one
before (``_arrangements``).  The decode is one pointer walk,
``_decode_edges``, which gives the sorted edge pairs that
``decode_sequences`` and ``prufer_decode`` wrap (none on one vertex),
plus one level step, ``_compose``, which gives for n <= 9 a tree's edge
mask, one bit per pair (u, v), u < v, in lexicographic order: a
suffix's row is its decode without its smallest absent vertices, and
the step makes the rows one symbol longer, from the empty suffix's up.  ``_sweep_chunks`` applies
it to whole levels, in chunks, and walks no word; ``_decode_mask``
applies it along one word.  A vertex's degree is one more than its
count in the word, so ``_ones_per_word`` composes vertex 1's degree less
one for every word the same way, one byte a word, and makes no word;
``deg_v1_histogram`` counts its bytes, and ``_sequences_with_deg_v1``
keeps the words it selects.  One predicate, ``_has_masks``, sends the CLI's
plain enumerate, ``enumerate_all_trees`` and ``_degree_histogram`` to the
sweep for every 2 <= n <= 9.  A mask is read through ``_mask_tables``,
one lookup per chunk of its bits, each entry the sum of the pieces its
edges stand for: their pairs, the swept trees' sorted edges; their
degree increments packed in one int, which ``_degree_histogram`` counts
for THEOREM_1; or their text in a CLI tree format, with its head and
tail, so that a tree's sum is its record.  One size, _CHUNK, bounds the
sweep's lists and the CLI's writes.  The encode,
``_encode_walk``, peels leaves smallest first with the same pointer,
never vertex n, keeping each vertex's degree and the XOR of its
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
from functools import lru_cache
from itertools import combinations, compress, product, repeat
from operator import sub, xor
from typing import Callable, Iterable, Iterator

from treecount.core import (
    Edge,
    LabeledTree,
    NotATree,
    OutOfRange,
    _acyclic,
    _check_cap,
    _degree_vector,
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
    # pointer-based decode, n >= 1; the smallest current leaf is tracked in
    # leaf, the scan frontier in ptr.  The last leaf is joined to n, and on
    # one vertex it is n itself, with no edge
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
    if leaf < n:
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


def _decode_mask(n: int, symbols: tuple[int, ...]) -> int:
    # the tree's edge mask, 2 <= n <= 9, by _compose's step along one word
    steps = _steps(n)
    (s, mask), y1 = steps[0], n
    for v in reversed(symbols):
        keys, drops, lifts = steps[v]
        mask ^= lifts[y1][keys[s]]
        s, y1 = drops[s], v
    return mask


# The piece of the edge (u, v) and the empty sum, by kind of _mask_tables:
# a 1-tuple, so that a tree's sum is its sorted edge tuple, or the degree
# increment of u and v in 4-bit fields, field i - 1 for vertex i, so that
# a tree's sum packs its degree vector (a degree is at most 8 on n <= 9).
_PIECES = {
    "pairs": (lambda pair: (pair,), ()),
    "degrees": (lambda pair: 16 ** (pair[0] - 1) + 16 ** (pair[1] - 1), 0),
}


@lru_cache(maxsize=None)
def _mask_tables(n: int, kind: str | tuple) -> tuple[tuple[int, int, tuple], ...]:
    """(shift, width mask, table) per chunk of the edge masks on 2 <= n <= 9
    vertices, made once per (n, kind), on first use: at most 768 entries.

    Chunk 0 holds vertex 1's n - 1 edges, bits 0..n-2; the other bits are
    cut into 2 chunks up to n = 7 and into 4 at n = 8 and 9, each of at
    most 8 bits.  Entry m of a chunk's table is the sum, with +, of the
    pieces of the edges set in m, in bit order, so a tree's sum is one
    lookup per chunk, added up by _mask_sum.  The piece of the edge (u, v)
    is given by kind: "pairs" and "degrees" (see _PIECES), or a tree
    format's parts (piece, head, cut, tail) of cli._MASK_FORMATS, the piece
    a %-template of two ints, its text.  Every tree has an edge at vertex 1
    and the last chunk is added last, so a format's head and cut are put
    into chunk 0's entries and its tail into the last chunk's."""
    text = kind not in _PIECES  # a tree format's parts
    piece, zero = (kind[0].__mod__, "") if text else _PIECES[kind]
    pairs = _mask_pairs(n)
    rest, parts = len(pairs) - (n - 1), 2 if n <= 7 else 4
    bounds = [0] + [n - 1 + rest * j // parts for j in range(parts + 1)]
    tables = []
    for lo, hi in zip(bounds, bounds[1:]):
        table = [zero]
        for pair in pairs[lo:hi]:
            p = piece(pair)
            table += [t + p for t in table]
        tables.append(table)
    if text:  # by position: at n = 2 both tables after chunk 0's are [""]
        _, head, cut, tail = kind
        tables[0] = [(head and head % n) + t[cut:] for t in tables[0]]
        tables[-1] = [t + tail for t in tables[-1]]
    spans = zip(bounds, bounds[1:], tables)
    return tuple((lo, (1 << (hi - lo)) - 1, tuple(table)) for lo, hi, table in spans)


def _mask_sum(chunks) -> Callable[[int], object]:
    """The sum of an edge mask's table entries, for the chunks of
    _mask_tables: 3 lookups up to n = 7 and 5 at n = 8 and 9."""
    if len(chunks) == 3:
        (_, w0, t0), (s1, w1, t1), (s2, _, t2) = chunks
        return lambda m: t0[m & w0] + t1[m >> s1 & w1] + t2[m >> s2]
    (_, w0, t0), (s1, w1, t1), (s2, w2, t2), (s3, w3, t3), (s4, _, t4) = chunks
    return lambda m: (
        t0[m & w0] + t1[m >> s1 & w1] + t2[m >> s2 & w2] + t3[m >> s3 & w3] + t4[m >> s4]
    )


def _set_tables() -> list[tuple[bytes, bytes]]:
    # (keys, drops) of _steps for v = 1..9 at index v - 1, made at import:
    # a set that holds v and a larger vertex goes to its turn key 10 + f and
    # drops v, any other set to its second largest vertex e and drops f
    plain = bytes(range(256))  # each set as itself
    tops = bytes(map(int.bit_length, plain))  # each set's largest vertex
    rests = bytes(1) + b"".join(plain[: 1 << u] for u in range(8))  # the set less it
    seconds = rests.translate(tops)
    tables = []
    for v in range(1, 10):
        keys, drops, h = bytearray(seconds), bytearray(rests), 1 << v >> 1
        for s in range(3 * h, 256):  # a set that holds v holds a larger vertex from 3h up
            if s & h:
                keys[s] = 10 + tops[s]
                drops[s] = s - h
        tables.append((bytes(keys), bytes(drops)))
    return tables


_SET_TABLES = _set_tables()


@lru_cache(maxsize=None)
def _steps(n: int) -> tuple[tuple, ...]:
    """The tables of _compose for each first symbol v of 1..n, at index v,
    and the empty suffix's row at index 0, 2 <= n <= 9, made once per n, on
    its first sweep or mask decode.  A set of vertices of 1..n-1 is a byte,
    bit u - 1 for vertex u; a row's set {e1, ..., e(m+1)} has largest
    vertex f = e(m+1) and second largest e = em, and v is one of e1..em
    exactly when the set holds v and a larger vertex.  Then ``keys`` maps
    the set to 10 + f and ``drops`` to the set less v; otherwise to e and
    to the set less f: tables of every n, made at import (_SET_TABLES).
    ``lifts[y1][key]``, made per n, is P(x) ^ P(y): bit(e, v) at key e,
    and bit(f, v) ^ bit(f, y1) ^ bit(v, y1) at key 10 + f."""
    bit = _EDGE_BITS[n]
    steps = [((1 << n - 1) - 1, bit[n - 1][n])]
    for v, (keys, drops) in enumerate(_SET_TABLES[:n], 1):
        row = bit[v]
        pad = row + [0] * (9 - n)  # so that key 10 + f is f of the turn row
        lifts = [pad + [*map(xor, map(xor, row, bit[y1]), repeat(row[y1]))] for y1 in range(n + 1)]
        steps.append((keys, drops, lifts))
    return tuple(steps)


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


def _sweep_chunks(n: int, stop: int) -> Iterator[list[int]]:
    """The edge masks of the first ``stop`` trees of enumerate_sequences(n),
    in its order and in lists of at most _CHUNK, for 2 <= n <= 9; no word
    is walked.

    Level k holds the rows of _compose of the suffixes of length k, in
    lexicographic order, so block v of level k + 1 is composed from all of
    level k, at most _CHUNK rows a call.  Level n - 3 keeps 9 bytes a
    suffix (4.6 MiB for the 9^6 suffixes of n = 9), and the chunks of level
    n - 2, the words, are yielded.  The first h rows of a block need only
    the first h of the level below, so level k holds min(stop, n^k) rows
    and no mask past stop is built."""
    from array import array  # loaded here alone: only the sweep needs it

    steps = _steps(n)
    if n == 2 and stop:  # the empty suffix's row is the one word's
        yield [steps[0][1]]
    sets, masks, first, run = bytes(steps[0][:1]), array("Q", steps[0][1:]), n, 1
    for k in range(n - 2):
        block = n ** k
        up, ups = bytearray(), array("Q")
        for start in range(0, min(stop, n * block), block):
            v, end = start // block + 1, min(block, stop - start)
            for lo in range(0, end, _CHUNK):
                part, out = _compose(steps[v], sets, masks, lo, min(lo + _CHUNK, end), first, run)
                if k == n - 3:  # the words
                    yield out
                else:
                    up += part
                    ups.extend(out)
        sets, masks, first, run = up, ups, 1, block


# _CHUNK is the most masks a sweep's list holds, and the CLI's chunk size.
_CHUNK = 4096


def _has_masks(n: int) -> bool:
    """Whether trees on n vertices have edge masks, and so are swept."""
    return 2 <= n < len(_EDGE_BITS)


def prufer_decode(n: int, symbols: tuple[int, ...]) -> LabeledTree:
    """The unique tree on n vertices whose encoding is ``symbols``.  Raises
    OutOfRange unless n >= 1 and the word has max(n - 2, 0) symbols, each
    in 1..n."""
    if symbols:  # then its length n - 2 is at least 1
        valid = len(symbols) == n - 2 and min(symbols) >= 1 and max(symbols) <= n
    else:
        valid = 0 < n < 3
    if not valid:
        raise _word_error(n, symbols)
    return LabeledTree(n, _decode_edges(n, symbols))


def _word_error(n: int, symbols: tuple[int, ...]) -> OutOfRange:
    # why prufer_decode refuses (n, symbols): the first of its checks to fail
    if n < 1:
        return OutOfRange(f"vertex count must be >= 1, got {n}")
    if len(symbols) != max(n - 2, 0):
        return OutOfRange(f"need a word of length {max(n - 2, 0)} for n={n}, got length {len(symbols)}")
    bad = next(s for s in symbols if not 1 <= s <= n)
    return OutOfRange(f"symbol {bad} outside 1..{n}")


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
    distinct arrangement of _degree_symbols(degrees), in lexicographic order."""
    validate_degrees(degrees)
    _check_cap("n", len(degrees), "sweep", PRUFER_ENUM_CAP)
    return _arrangements(_degree_symbols(degrees))


def _degree_symbols(degrees: tuple[int, ...]) -> list[int]:
    """The symbols of a degree vector's words, sorted: vertex i occurs
    d_i - 1 times."""
    return [v for v, d in enumerate(degrees, start=1) for _ in range(d - 1)]


def _arrangements(word: list[int]) -> Iterator[tuple[int, ...]]:
    # each distinct arrangement of the sorted word, by next permutation
    # (Knuth's Algorithm L): after the last ascent i, swap word[i] with the
    # last larger symbol and reverse the tail
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


def decode_sequences(n: int, words: Iterable[tuple[int, ...]]) -> Iterator[LabeledTree]:
    """The tree of each word on n vertices, lazily and in stream order."""
    return (LabeledTree(n, _decode_edges(n, symbols)) for symbols in words)


def enumerate_all_trees(n: int) -> Iterator[LabeledTree]:
    """Every labeled tree on n vertices, in lexicographic order of its
    Prufer sequence; the single tree for n in {1, 2}.  On 2 <= n <= 9
    (_has_masks) each tree's edges are the sum of its swept edge mask's
    "pairs" tables; on one vertex, or past 9 under a raised
    PRUFER_ENUM_CAP, each word is decoded.  The sweep builds
    every level below the words before its first tree (0.1-0.12 s at
    n = 9, 5-7 ms at n = 8), so the first k trees are cheaper as
    decode_sequences(n, islice(enumerate_sequences(n), k))."""
    words = enumerate_sequences(n)  # checks n and the sweep cap
    if _has_masks(n):
        return _swept_trees(n)
    return decode_sequences(n, words)


def _swept_trees(n: int) -> Iterator[LabeledTree]:
    # a generator, as decode_sequences gives, so that perfbench's tracer
    # counts its trees; tuple.__new__ makes each tree of its (n, edges)
    # pair in C, as LabeledTree._make does behind a Python call
    edges = _mask_sum(_mask_tables(n, "pairs"))
    for masks in _sweep_chunks(n, n ** (n - 2)):
        yield from map(tuple.__new__, repeat(LabeledTree), zip(repeat(n), map(edges, masks)))


def enumerate_all_trees_by_edges(n: int) -> Iterator[LabeledTree]:
    """Second, independent oracle: filter all (n-1)-subsets of the complete
    graph's edges down to the spanning trees."""
    if n < 1:
        raise OutOfRange(f"vertex count must be >= 1, got {n}")
    _check_cap("n", n, "edge-subset", EDGE_ENUM_CAP)
    subsets = combinations(_mask_pairs(n), n - 1)
    return (LabeledTree(n, subset) for subset in subsets if _acyclic(n, subset))


def enumerate_trees_with_degrees(degrees: tuple[int, ...]) -> Iterator[LabeledTree]:
    """Exactly the trees whose degree vector equals ``degrees``, the decode
    of enumerate_sequences_with_degrees(degrees)."""
    return decode_sequences(len(degrees), enumerate_sequences_with_degrees(degrees))


def deg_v1_histogram(n: int) -> dict[int, int]:
    """Tree counts keyed by the degree of vertex 1, without decoding: one
    bytes.count per k over _ones_per_word(n)."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    ones = _ones_per_word(n)
    return {k: ones.count(k - 1) for k in range(1, n)}


def _sequences_with_deg_v1(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """The words of enumerate_sequences(n), in its order, whose trees give
    vertex 1 degree k: those with k - 1 ones, kept by _ones_per_word(n)."""
    return compress(enumerate_sequences(n), map((k - 1).__eq__, _ones_per_word(n)))


# each count of 1s, one more: the first symbol 1 prefixed to a suffix
_ONE_MORE = bytes(range(1, 256)) + bytes(1)


def _ones_per_word(n: int) -> bytes:
    """The number of 1s in each word of enumerate_sequences(n), one byte a
    word in its order, for 2 <= n <= the sweep cap; no word is made.  As
    in _sweep_chunks, level k + 1 is composed from level k, the suffixes
    one symbol shorter, from the empty suffix up: the block of first
    symbol 1 adds a 1 to each count, and the n - 1 other blocks repeat the
    level.  Only the level in hand and the one it makes are held (4.8 MB
    at n = 9)."""
    _check_cap("n", n, "sweep", PRUFER_ENUM_CAP)
    level = bytes(1)
    for _ in range(n - 2):
        level = b"".join([level.translate(_ONE_MORE), *repeat(level, n - 1)])
    return level


def _degree_histogram(n: int) -> Counter:
    """Tree counts keyed by the degree vector, for n >= 2, with no
    LabeledTree.  On 2 <= n <= 9 (_has_masks) the sum of each swept mask's
    "degrees" tables is counted, and only the distinct sums, at most
    C(2n-3, n-1), are unpacked.  Past 9, under a raised PRUFER_ENUM_CAP
    (no edge masks, and a degree may not fit its 4-bit field), each word's
    walked edges (_decode_edges) are counted by _degree_vector."""
    if not _has_masks(n):
        edges = map(_decode_edges, repeat(n), enumerate_sequences(n))
        return Counter(map(_degree_vector, repeat(n), edges))
    packed: Counter = Counter()
    pack = _mask_sum(_mask_tables(n, "degrees"))
    for masks in _sweep_chunks(n, n ** (n - 2)):
        packed.update(map(pack, masks))
    fields = range(0, 4 * n, 4)
    return Counter({tuple([key >> i & 15 for i in fields]): c for key, c in packed.items()})


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
    trees = enumerate_all_trees(m)
    return ((tree, cut) for tree in trees for cut in combinations(tree.edges, k - 1))


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
