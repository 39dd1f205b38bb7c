"""Brute-force reference computations used by the test suite.

These helpers deliberately avoid the package's own enumeration paths:
trees come from edge-subset filtering over the complete graph with a
local union-find connectivity check, so they give an independent second
opinion on both the closed-form counters and the package's Prufer-based
enumerators.  Only practical for small n (the subset count is
C(n(n-1)/2, n-1)).
"""

from __future__ import annotations

from itertools import combinations

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
