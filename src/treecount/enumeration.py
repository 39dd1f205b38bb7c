"""Exhaustive oracles: tree generation, the Prufer codec, and decompositions.

Everything here enumerates or transforms concrete trees, providing the
brute-force reference paths that the closed-form counters are checked
against.  Streams are lazy generators with a deterministic
(lexicographic) order, so callers may count without materializing and
golden tests stay stable.

Enumeration sizes are capped by the module constants PRUFER_ENUM_CAP,
EDGE_ENUM_CAP and PAIR_ENUM_CAP, so accidental huge sweeps fail fast
with CapExceeded.  No environment variable overrides them; a library
caller may assign a new value, which is read at call time.
"""

from __future__ import annotations

import heapq
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple

from treecount.core import (
    BadVertex,
    Composition,
    DegreeSequence,
    Edge,
    EdgeNotInTree,
    LabeledTree,
    OutOfRange,
    PruferSequence,
    _acyclic,
    _check_cap,
    validate_degrees,
)


# 9^7 ~ 4.8M trees keeps a full sweep in tens of seconds; subset-based
# oracles grow like C(n(n-1)/2, n-1) and get a smaller cap.
PRUFER_ENUM_CAP = 9
EDGE_ENUM_CAP = 6
PAIR_ENUM_CAP = 6


class Component(NamedTuple):
    """One connected piece of a split tree, keeping the original labels."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


class Forest(NamedTuple):
    """The components left after removing edges (or a vertex) from a tree."""

    n: int
    components: tuple[Component, ...]
    removed_edges: tuple[Edge, ...]


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


def prufer_decode(seq: PruferSequence) -> LabeledTree:
    """The unique tree whose encoding is ``seq``."""
    n = seq.n
    if n == 1:
        return LabeledTree(1, ())
    return LabeledTree(n, _decode_edges(n, seq.symbols))


def prufer_encode(tree: LabeledTree) -> PruferSequence:
    """Encode by repeatedly removing the smallest-labeled leaf and
    recording its neighbor."""
    n = tree.n
    if n < 2:
        raise OutOfRange("encoding needs at least 2 vertices")
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in tree.edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = [v for v in adj if len(adj[v]) == 1]
    heapq.heapify(leaves)
    out = []
    for _ in range(n - 2):
        u = heapq.heappop(leaves)
        v = adj[u].pop()
        adj[v].discard(u)
        out.append(v)
        if len(adj[v]) == 1:
            heapq.heappush(leaves, v)
    return PruferSequence(n, tuple(out))


# ---------------------------------------------------------------------------
# Exhaustive tree generation


def enumerate_all_trees(n: int) -> Iterator[LabeledTree]:
    """Every labeled tree on n vertices, in lexicographic order of its
    Prufer sequence; the single tree for n in {1, 2}."""
    if n < 1:
        raise OutOfRange(f"vertex count must be >= 1, got {n}")
    _check_cap("n", n, "sweep", PRUFER_ENUM_CAP)
    return _all_trees_stream(n)


def _all_trees_stream(n: int) -> Iterator[LabeledTree]:
    if n == 1:
        yield LabeledTree(1, ())
        return
    decode = _decode_edges
    for symbols in product(range(1, n + 1), repeat=n - 2):
        yield LabeledTree(n, decode(n, symbols))


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


def enumerate_trees_with_degrees(d: DegreeSequence) -> Iterator[LabeledTree]:
    """Exactly the trees whose degree vector equals ``d``, generated by
    decoding every distinct arrangement of the symbol multiset in which
    vertex i occurs d_i - 1 times."""
    validate_degrees(d.degrees)
    n = len(d.degrees)
    _check_cap("n", n, "sweep", PRUFER_ENUM_CAP)
    return _degree_filtered_stream(d.degrees)


def _degree_filtered_stream(degrees: tuple[int, ...]) -> Iterator[LabeledTree]:
    n = len(degrees)
    pool = [[v, c - 1] for v, c in enumerate(degrees, start=1) if c > 1]
    for symbols in _multiset_sequences(pool, n - 2):
        yield LabeledTree(n, _decode_edges(n, symbols))


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


def deg_v1_histogram(n: int) -> dict[int, int]:
    """Tree counts keyed by the degree of vertex 1, derived purely from
    symbol occurrences (degree = occurrences + 1), without decoding."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    _check_cap("n", n, "sweep", PRUFER_ENUM_CAP)
    hist = {k: 0 for k in range(1, n)}
    for symbols in product(range(1, n + 1), repeat=n - 2):
        hist[symbols.count(1) + 1] += 1
    return hist


# ---------------------------------------------------------------------------
# Splitting


def _components(
    n: int, edges: Iterable[Edge], skip: int | None = None
) -> tuple[Component, ...]:
    adj: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        if v != skip:
            adj[v] = []
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    out = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        verts = []
        while stack:
            u = stack.pop()
            verts.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        vert_set = set(verts)
        comp_edges = tuple(sorted(e for e in edges if e[0] in vert_set))
        out.append(Component(tuple(sorted(verts)), comp_edges))
    return tuple(out)


def split_by_root_removal(tree: LabeledTree, v: int) -> Forest:
    """Delete vertex ``v`` and its incident edges; the deg(v) remaining
    components keep their original labels."""
    if tree.n < 2:
        raise OutOfRange("splitting needs at least 2 vertices")
    if not 1 <= v <= tree.n:
        raise BadVertex(f"vertex {v} outside 1..{tree.n}")
    removed = tuple(e for e in tree.edges if v in e)
    remaining = [e for e in tree.edges if v not in e]
    return Forest(tree.n, _components(tree.n, remaining, skip=v), removed)


def split_by_edge_removal(tree: LabeledTree, cut: Iterable[Edge]) -> Forest:
    """Delete the given edges; returns |cut| + 1 components whose
    reinsertion reconstitutes the tree."""
    own = set(tree.edges)
    cutset: set[Edge] = set()
    for pair in cut:
        u, v = pair
        e = (u, v) if u < v else (v, u)
        if e not in own:
            raise EdgeNotInTree(f"edge {e!r} is not in the tree")
        cutset.add(e)
    remaining = [e for e in tree.edges if e not in cutset]
    return Forest(tree.n, _components(tree.n, remaining), tuple(sorted(cutset)))


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


def enumerate_compositions(
    total: int, k: int, *, allow_zero: bool = False
) -> Iterator[Composition]:
    """All ordered k-tuples of (non)negative parts summing to ``total``,
    in lexicographic order.  There are C(total-1, k-1) positive ones and
    C(total+k-1, k-1) nonnegative ones."""
    if total < 0:
        raise OutOfRange(f"total must be >= 0, got {total}")
    if k < 1:
        raise OutOfRange(f"part count must be >= 1, got {k}")
    return _composition_stream(total, k, 0 if allow_zero else 1)


def _composition_stream(total: int, k: int, lo: int) -> Iterator[Composition]:
    def rec(remaining: int, slots: int, prefix: tuple[int, ...]) -> Iterator[Composition]:
        if slots == 1:
            if remaining >= lo:
                yield Composition(prefix + (remaining,), total)
            return
        for first in range(lo, remaining - lo * (slots - 1) + 1):
            yield from rec(remaining - first, slots - 1, prefix + (first,))

    return rec(total, k, ())
