"""The benchmark's own arithmetic and parsers, independent of treecount.

Nothing here imports the package under test.  Counts come from textbook
identities computed with ``math``; trees are validated with a separate
union-find; big integers are rendered in decimal in chunks, so the
process-wide int-to-str digit limit is neither hit nor changed.
"""

from __future__ import annotations

import json
import math
from collections import Counter

# The CLI's documented default grid tops for ``verify`` (README, verifier).
DEFAULT_LIMITS = {
    "THEOREM_1": 7,
    "DEG_V1_TOTALITY": 30,
    "LEMMA_1": 8,
    "EQ_20_RECURSION": 30,
    "DOUBLE_COUNT_PAIRS": 6,
    "L3_EXPANSION": 10,
    "SUPERVERTEX_MARGINAL": 10,
    "BINOMIAL_COLLAPSE": 30,
    "PRUFER_ROUNDTRIP": 7,
}
IDENTITY_IDS = tuple(DEFAULT_LIMITS)
SUBJECTS = {
    "theorem1": "THEOREM_1",
    "degv1": "DEG_V1_TOTALITY",
    "lemma1": "LEMMA_1",
    "recursion": "EQ_20_RECURSION",
    "doublecount": "DOUBLE_COUNT_PAIRS",
    "l3": "L3_EXPANSION",
    "supervertex": "SUPERVERTEX_MARGINAL",
    "collapse": "BINOMIAL_COLLAPSE",
    "roundtrip": "PRUFER_ROUNDTRIP",
}
L3_K_MAX = 5


class Mismatch(Exception):
    """An output disagrees with the benchmark's own expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# Counts


def cayley(n: int) -> int:
    return 1 if n == 1 else n ** (n - 2)


def trees_with_degrees(degrees: tuple[int, ...]) -> int:
    n = len(degrees)
    out = math.factorial(n - 2)
    for d in degrees:
        out //= math.factorial(d - 1)
    return out


def trees_deg_v1(n: int, k: int) -> int:
    # Prufer sequences of length n-2 holding exactly k-1 ones
    return math.comb(n - 2, k - 1) * (n - 1) ** (n - 1 - k)


def checked_cases(identity_id: str, top: int) -> int:
    """The ``checked`` total each identity reports for grid top ``top``:
    the size of its parameter grid."""
    r = range(2, top + 1)
    if identity_id == "THEOREM_1":
        # compositions of 2n-2 into n positive parts
        return sum(math.comb(2 * n - 3, n - 1) for n in r)
    if identity_id == "LEMMA_1":
        return sum(n - 1 for n in r)
    if identity_id == "DOUBLE_COUNT_PAIRS":
        return sum(r)
    if identity_id in ("L3_EXPANSION", "SUPERVERTEX_MARGINAL"):
        # compositions of m into k parts, k = 2..5, m = k..top
        return sum(
            math.comb(m - 1, k - 1)
            for k in range(2, L3_K_MAX + 1)
            for m in range(k, top + 1)
        )
    if identity_id == "PRUFER_ROUNDTRIP":
        # both directions for each of the n^(n-2) sequences
        return sum(2 * cayley(n) for n in r)
    return top - 1


def decimal(x: int) -> str:
    """``str(x)`` for a nonnegative int of any size, built from pieces
    small enough for the interpreter's digit limit."""
    if x.bit_length() <= 8000:
        return str(x)
    half = int(x.bit_length() * 0.30103) // 2
    hi, lo = divmod(x, 10**half)
    return decimal(hi) + decimal(lo).zfill(half)


# ---------------------------------------------------------------------------
# Trees


def check_tree(n: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """Validate a canonical edge list (pairs ascending, list sorted) as a
    tree on 1..n; returns the degree vector."""
    edges = list(edges)
    expect(len(edges) == n - 1, f"{len(edges)} edges for n={n}")
    expect(edges == sorted(edges), "edges not sorted")
    parent = list(range(n + 1))
    deg = [0] * (n + 1)
    for u, v in edges:
        expect(1 <= u < v <= n, f"edge {u} {v} not canonical for n={n}")
        deg[u] += 1
        deg[v] += 1
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        expect(u != v, "cycle")
        parent[u] = v
    return tuple(deg[1:])


def parse_edge_blocks(lines: list[str]) -> list[tuple[int, list[tuple[int, int]]]]:
    """Split edge-list lines into (n, edges) blocks."""
    out = []
    i = 0
    while i < len(lines):
        head = lines[i].split()
        expect(len(head) == 2 and head[0] == "n", f"bad header {lines[i]!r}")
        n = int(head[1])
        body = lines[i + 1 : i + n]
        expect(len(body) == n - 1, "truncated block")
        out.append((n, [tuple(map(int, ln.split())) for ln in body]))
        i += n
    return out


def parse_prufer_lines(lines: list[str], n: int) -> list[tuple[int, ...]]:
    out = []
    for line in lines:
        syms = tuple(int(t) for t in line.split(",")) if line else ()
        expect(len(syms) == max(0, n - 2), f"sequence length {len(syms)} for n={n}")
        expect(all(1 <= s <= n for s in syms), "symbol out of range")
        out.append(syms)
    return out


def symbol_degrees(n: int, syms: tuple[int, ...]) -> tuple[int, ...]:
    # a vertex occurring c times in a Prufer sequence has degree c + 1
    occ = Counter(syms)
    return tuple(occ[v] + 1 for v in range(1, n + 1))


def parse_tree_stream(text: str, fmt: str, n: int, want_count: bool):
    """Parse ``enumerate`` output into (trees, count line value).

    Trees come back as edge tuples, or as symbol tuples for prufer."""
    lines = text.splitlines()
    count = None
    if want_count:
        expect(bool(lines), "missing count line")
        last = lines.pop()
        if fmt == "json":
            count = json.loads(last)["count"]
        elif fmt == "csv":
            key, _, val = last.partition(",")
            expect(key == "count", f"bad count line {last!r}")
            count = int(val)
        else:
            key, _, val = last.partition(" ")
            expect(key == "count", f"bad count line {last!r}")
            count = int(val)
    if fmt == "prufer":
        return parse_prufer_lines(lines, n), count
    if fmt == "edges":
        trees = []
        for m, edges in parse_edge_blocks(lines):
            expect(m == n, f"tree on {m} vertices, expected {n}")
            trees.append(tuple(edges))
        return trees, count
    if fmt == "json":
        trees = []
        for line in lines:
            rec = json.loads(line)
            expect(rec["n"] == n, "wrong n")
            trees.append(tuple(tuple(e) for e in rec["edges"]))
        return trees, count
    expect(bool(lines) and lines[0] == "tree,u,v", "missing csv header")
    rows: dict[int, list[tuple[int, int]]] = {}
    for line in lines[1:]:
        t, u, v = map(int, line.split(","))
        rows.setdefault(t, []).append((u, v))
    expect(list(rows) == list(range(len(rows))), "csv tree ids not consecutive")
    return [tuple(e) for e in rows.values()], count
