"""Brute-force reference computations used by the test suite.

These helpers deliberately avoid the package's own enumeration paths:
trees come from edge-subset filtering over the complete graph with a
local union-find connectivity check, so they give an independent second
opinion on both the closed-form counters and the package's Prufer-based
enumerators.  Only practical for small n (the subset count is
C(n(n-1)/2, n-1)).

The literal sums over compositions and partitions behind Lemma 1, Eq. 20
and L3 live here too, with the super-vertex join count, written with
math.comb and math.factorial only: the package computes the same sums as
binomial convolutions.  So do the textbook heap Prufer encode, the
edge-list reader that checks one line at a time, `prufer encode` as that
reader followed by that encode, the Prufer line reader that converts
every symbol with int(), `prufer decode` as that reader followed by the
textbook heap decode, the deg(vertex 1) histogram as one count of 1s
per Prufer word, a degree vector's words as the distinct permutations
of its symbols, the per-edge text of the json and csv tree formats,
the samplers' one-draw-per-call word generators, and the command
line's parser as a chain of add_argument calls, which the package
replaced with faster equivalents or with a table.
"""

from __future__ import annotations

import argparse
import heapq
import io
import json
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product, repeat
from math import comb, factorial, prod

from treecount.cli import (
    cmd_count,
    cmd_enumerate,
    cmd_prufer,
    cmd_sample,
    cmd_verify,
)
from treecount.core import EdgeTextError, TreeCountError, canonicalize_tree

Edge = tuple[int, int]


def is_tree(n: int, edges: tuple[Edge, ...]) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def spanning_trees(n: int) -> set[tuple[Edge, ...]]:
    """All spanning trees of the complete graph on 1..n, as sorted edge tuples."""
    if n == 1:
        return {()}
    all_edges = list(combinations(range(1, n + 1), 2))
    return {
        subset
        for subset in combinations(all_edges, n - 1)
        if is_tree(n, subset)
    }


def degree_vector(n: int, edges: tuple[Edge, ...]) -> tuple[int, ...]:
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg[1:])


def trees_with_degrees(degrees: tuple[int, ...]) -> set[tuple[Edge, ...]]:
    n = len(degrees)
    return {
        t for t in spanning_trees(n) if degree_vector(n, t) == degrees
    }


def trees_with_deg_v1(n: int, k: int) -> set[tuple[Edge, ...]]:
    return {
        t for t in spanning_trees(n) if degree_vector(n, t)[0] == k
    }


def degree_arrangements(degrees: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The words of a degree vector, vertex i d_i - 1 times, as the distinct
    permutations of its symbols, sorted: every permutation is made."""
    symbols = [v for v, deg in enumerate(degrees, start=1) for _ in range(deg - 1)]
    return sorted(set(permutations(symbols)))


def deg_v1_histogram_by_word(n: int) -> dict[int, int]:
    """Tree counts keyed by the degree of vertex 1, for n >= 2, by counting
    the 1s of every Prufer word, one tuple.count a word: the brute force
    that enumeration.deg_v1_histogram composes from suffixes."""
    ones = Counter(map(tuple.count, product(range(1, n + 1), repeat=n - 2), repeat(1)))
    return {k: ones[k - 1] for k in range(1, n)}


def prufer_encode_heap(n: int, edges: tuple[Edge, ...]) -> tuple[int, ...]:
    """The Prufer word of a tree on n >= 2 vertices: repeatedly remove the
    smallest-labeled leaf, taken from a heap, and record its neighbor."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
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
    return tuple(out)


def read_trees_by_line(lines):
    """core.read_trees one line at a time: each edge line is split,
    checked and converted as it is read, and the block is a tree of
    canonicalize_tree once its n - 1 lines are in."""
    numbered = enumerate(lines, start=1)
    for line_no, raw in numbered:
        text = raw.strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 2 or fields[0] != "n":
            raise EdgeTextError(line_no, "expected header 'n <vertex-count>'")
        try:
            n = int(fields[1])
        except ValueError:
            raise EdgeTextError(line_no, f"vertex count {fields[1]!r} is not an integer") from None
        if n < 1:
            raise EdgeTextError(line_no, f"vertex count must be >= 1, got {n}")
        header_line = line_no
        raw_edges = []
        for _ in range(n - 1):
            try:
                line_no, raw = next(numbered)
            except StopIteration:
                raise EdgeTextError(
                    header_line, f"expected {n - 1} edge lines, got {len(raw_edges)}"
                ) from None
            tokens = raw.split()
            if len(tokens) != 2:
                raise EdgeTextError(line_no, "expected two vertex labels")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeTextError(line_no, "vertex labels must be integers") from None
            raw_edges.append((u, v))
        try:
            yield canonicalize_tree(n, raw_edges)
        except TreeCountError as err:
            raise EdgeTextError(header_line, str(err)) from err


def read_prufer_lines_by_line(lines):
    """core.read_prufer_lines converting every symbol with int(): one word
    per line, on len(word) + 2 vertices; an empty line is the n=2 word ()."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            yield ()
            continue
        try:
            symbols = tuple(map(int, text.split(",")))
        except ValueError:
            raise EdgeTextError(line_no, "symbols must be comma-separated integers") from None
        n = len(symbols) + 2
        if min(symbols) < 1 or max(symbols) > n:
            bad = next(s for s in symbols if not 1 <= s <= n)
            raise EdgeTextError(line_no, f"symbol {bad} outside 1..{n}")
        yield symbols


def prufer_decode_heap(n: int, symbols: tuple[int, ...]) -> tuple[Edge, ...]:
    """The textbook decode, n >= 2: join the smallest leaf to each symbol
    in turn, then the last two vertices; edges sorted (min, max)."""
    remaining = Counter(symbols)
    leaves = [v for v in range(1, n + 1) if not remaining[v]]
    heapq.heapify(leaves)
    edges = []
    for s in symbols:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        remaining[s] -= 1
        if not remaining[s]:
            heapq.heappush(leaves, s)
    u, v = sorted(leaves)
    edges.append((u, v))
    return tuple(sorted(edges))


def prufer_decode_output(text: str, fmt: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `treecount prufer decode
    --format fmt` on the stdin text: every line read by
    read_prufer_lines_by_line, which names the first bad one, and each
    word's tree written by the heap decode."""
    try:
        words = list(read_prufer_lines_by_line(io.StringIO(text)))
    except TreeCountError as err:
        return 2, "", f"treecount: {err}\n"
    out = []
    for w in words:
        n, edges = len(w) + 2, prufer_decode_heap(len(w) + 2, w)
        if fmt == "json":
            out.append(json_tree(n, edges))
        else:
            out.append(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return 0, "".join(out), ""


def prufer_encode_output(text: str, fmt: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `treecount prufer encode
    --format fmt` on the stdin text: every block read by
    read_trees_by_line, which names the first bad one, and each tree
    encoded by the heap walk before the next block is read."""
    encoded = []
    try:
        for tree in read_trees_by_line(io.StringIO(text)):
            if tree.n < 2:
                raise TreeCountError("encoding needs at least 2 vertices")
            encoded.append((tree.n, prufer_encode_heap(tree.n, tree.edges)))
    except TreeCountError as err:
        return 2, "", f"treecount: {err}\n"
    if fmt == "json":
        return 0, "".join(json.dumps({"n": n, "symbols": list(w)}) + "\n" for n, w in encoded), ""
    return 0, "".join(",".join(map(str, w)) + "\n" for _, w in encoded), ""


def json_tree(n: int, edges: tuple[Edge, ...]) -> str:
    """One json tree line: the bytes json.dumps({"n": n, "edges": [[u, v], ...]})
    writes, plus a line feed."""
    text = ", ".join(["[%d, %d]" % e for e in edges])
    return '{"n": %d, "edges": [%s]}\n' % (n, text)


def csv_tree(index: int, edges: tuple[Edge, ...]) -> str:
    """The csv rows "index,u,v" of one tree, one per edge."""
    return "".join([f"{index},{u},{v}\n" for u, v in edges])


def parse_decimal(text: str) -> int:
    """Read decimal digits of any length, 1000 at a time: int() refuses
    text beyond the interpreter's digit limit (4300 by default)."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    assert digits.isdigit(), text[:40]
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def _multinomial(parts) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def compositions(total: int, k: int, *, allow_zero: bool = False):
    """Ordered k-tuples of positive (or nonnegative) integers summing to
    total, by stars and bars."""
    if allow_zero:
        return [
            tuple(p - 1 for p in c) for c in compositions(total + k, k)
        ]
    if k < 1 or total < k:
        return []
    return [
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
        for cuts in combinations(range(1, total), k - 1)
    ]


def _partitions(total: int, k: int, max_part: int):
    # nonincreasing positive parts; total >= k >= 1
    if k == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    for first in range(min(max_part, total - k + 1), 0, -1):
        for rest in _partitions(total - first, k - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def recursion_total(n: int) -> int:
    """Eq. 20 by the partition walk: the ordered-composition sum of
    m!/prod(a_i!) * prod(a_i T_{a_i}) over compositions of m = n-1 into
    k parts, grouped by part multiset (each multiset stands for
    k!/prod(mult!) ordered tuples), divided by k! and summed over k.
    Lower totals come from this function itself."""
    if n == 1:
        return 1
    m = n - 1
    total = 0
    for k in range(1, n):
        ordered = 0
        for parts in _partitions(m, k, m):
            term = _multinomial(parts)
            for a in parts:
                term *= a * recursion_total(a)
            ordered += _multinomial(Counter(parts).values()) * term
        assert ordered % factorial(k) == 0, (n, k)
        total += ordered // factorial(k)
    return total


def lemma1_sum(n: int, k: int) -> int:
    """Lemma 1's left side as the literal sum over ordered compositions
    (a_1..a_k) of n-1 of (n-1)!/prod(a_i!) * prod(a_i T_{a_i}), over k!."""
    ordered = 0
    for parts in compositions(n - 1, k):
        term = _multinomial(parts)
        for a in parts:
            term *= a * (a ** (a - 2) if a > 1 else 1)
        ordered += term
    assert ordered % factorial(k) == 0, (n, k)
    return ordered // factorial(k)


def l3_sum(parts: tuple[int, ...]) -> int:
    """L3 as the literal multinomial expansion: the sum over nonnegative
    (c_1..c_k) with sum k-2 of (k-2)!/prod(c_i!) * prod(a_i^(c_i+1));
    1 for k = 1."""
    k = len(parts)
    if k == 1:
        return 1
    return sum(
        _multinomial(c) * prod(a ** (e + 1) for a, e in zip(parts, c))
        for c in compositions(k - 2, k, allow_zero=True)
    )


def supervertex_count(degrees: tuple[int, ...], sizes: tuple[int, ...]) -> int:
    """The super-vertex join count in its literal form,
    (k-2)!/prod((d_i-1)!) * prod(a_i^d_i), with factorials throughout."""
    ways = factorial(len(degrees) - 2) // prod(factorial(d - 1) for d in degrees)
    return ways * prod(a**d for a, d in zip(sizes, degrees))


def _below(rng: random.Random, n: int) -> int:
    # unbiased uniform draw from [0, n) by rejection on the top bit width
    if n <= 1:
        return 0
    bits = (n - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def uniform_words(n: int, seed: int, count: int):
    """The seeded uniform word stream, one call per symbol: ``count``
    words of n-2 symbols, each _below(rng, n) + 1."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(_below(rng, n) + 1 for _ in range(n - 2))


def degree_words(degrees: tuple[int, ...], seed: int, count: int):
    """The seeded degree-vector word stream: the symbol multiset, vertex i
    d_i - 1 times, shuffled by Fisher-Yates with one _below per swap."""
    rng = random.Random(seed)
    base = [v for v, deg in enumerate(degrees, start=1) for _ in range(deg - 1)]
    for _ in range(count):
        symbols = base[:]
        for i in range(len(symbols) - 1, 0, -1):
            j = _below(rng, i + 1)
            symbols[i], symbols[j] = symbols[j], symbols[i]
        yield tuple(symbols)


# The command line's parser as add_argument calls, one command at a time:
# the parser the command table of treecount.cli must build byte for byte.
# Its choices are written out here, not taken from treecount.cli, so a
# choice dropped from the table is a difference.

TREE_FORMATS = ("edges", "prufer", "json", "csv")
VERIFY_SUBJECTS = (
    "theorem1", "degv1", "lemma1", "recursion", "doublecount", "l3", "supervertex", "collapse", "roundtrip",
)

COMMAND_HELP = {
    "count": "print an exact tree count",
    "enumerate": "stream all trees on n vertices",
    "prufer": "convert between edge lists and Prufer sequences",
    "sample": "draw seeded uniform random trees",
    "verify": "check counting identities against oracles",
}


def _add_arguments(name: str, parser: argparse.ArgumentParser) -> None:
    if name == "count":
        parser.add_argument("subject", choices=["total", "degrees", "degv1"])
        parser.add_argument("-n", type=int, help="vertex count")
        parser.add_argument("-d", "--degrees", help="comma-separated degrees, vertex i at position i")
        parser.add_argument("-k", type=int, help="degree of vertex 1 (degv1 subject)")
        parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
        parser.set_defaults(handler=cmd_count)
    elif name == "enumerate":
        parser.add_argument("-n", type=int, required=True)
        filt = parser.add_mutually_exclusive_group()
        filt.add_argument("--degrees", help="restrict to this degree sequence")
        filt.add_argument("--deg-v1", type=int, help="restrict to trees with this degree at vertex 1")
        parser.add_argument("--format", choices=list(TREE_FORMATS), default="edges")
        parser.add_argument("--limit", type=int, help="stop after this many trees")
        parser.add_argument("--count", action="store_true", help="append a final count line")
        parser.set_defaults(handler=cmd_enumerate)
    elif name == "prufer":
        parser.add_argument("direction", choices=["encode", "decode"])
        parser.add_argument("--format", choices=["text", "json"], default="text")
        parser.set_defaults(handler=cmd_prufer)
    elif name == "sample":
        target = parser.add_mutually_exclusive_group(required=True)
        target.add_argument("-n", type=int)
        target.add_argument("--degrees", help="sample with this exact degree sequence")
        parser.add_argument("--count", type=int, default=1)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--format", choices=list(TREE_FORMATS), default="edges")
        parser.set_defaults(handler=cmd_sample)
    else:  # verify
        parser.add_argument("subject", choices=["all", *VERIFY_SUBJECTS])
        parser.add_argument("--max-n", type=int, help="top of the parameter grid for every selected identity")
        parser.add_argument("--json", action="store_true", help="emit one JSON document")
        parser.add_argument("--format", choices=["table", "json"], default="table")
        parser.set_defaults(handler=cmd_verify)


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="Exact counting, enumeration, verification, and sampling of labeled trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMAND_HELP.items():
        _add_arguments(name, sub.add_parser(name, help=help_text))
    return parser
