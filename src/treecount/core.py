"""Domain types, validation, exact arithmetic, and text formats.

Vertices carry labels 1..n.  A tree is stored as a sorted tuple of
(min, max) edge pairs, so structurally equal trees compare and hash
equal.  Counts are plain Python ints, which are arbitrary precision;
exact rationals are fractions.Fraction.  Every type here is immutable
and every function is pure, so all of it is safe to share between
threads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# Errors


class TreeCountError(ValueError):
    """Base class for every validation error raised by this package."""


class BadVertex(TreeCountError):
    """A vertex label lies outside 1..n."""


class NotATree(TreeCountError):
    """Edge set is not a tree: wrong count, self-loop, cycle, or disconnected."""


class DuplicateEdge(TreeCountError):
    """The same unordered edge was given more than once."""


class OutOfRange(TreeCountError):
    """A numeric argument violates its documented range."""


class InvalidDegreeSequence(TreeCountError):
    """Degrees must be positive integers summing to 2n - 2 over n >= 2 vertices."""


class CompositionSumMismatch(TreeCountError):
    """Parts or component sizes break their required sum, length or sign."""


class NonIntegralResult(TreeCountError):
    """An exact division left a remainder where integrality is guaranteed."""


class CapExceeded(TreeCountError):
    """Requested size is beyond a fixed enumeration or work cap; ``kind``
    names the cap that was hit ("sweep", "pair", "EQ_20 work", ...)."""

    kind = ""


class EdgeTextError(TreeCountError):
    """Malformed edge-list or sequence text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_cap(name: str, value: int, kind: str, cap: int) -> None:
    """Raise CapExceeded when value lies beyond cap; every cap message is
    built here."""
    if value > cap:
        err = CapExceeded(f"{name}={value} beyond the {kind} cap {cap}")
        err.kind = kind
        raise err


# ---------------------------------------------------------------------------
# Domain types
#
# LabeledTree is a plain named tuple; canonicalize_tree validates it, so
# hot enumeration loops can build already-canonical trees without
# re-checking invariants.  Degree vectors, compositions and Prufer words
# are plain int tuples; a word on n vertices has n-2 symbols (none for
# n <= 2), so n travels beside it.  validate_degrees states the rule a
# degree vector must meet.


class LabeledTree(NamedTuple):
    """A tree on vertices 1..n with a canonical, sorted edge tuple."""

    n: int
    edges: tuple[Edge, ...]


# ---------------------------------------------------------------------------
# Construction and validation


def _acyclic(n: int, edges: Iterable[Edge]) -> bool:
    # union-find with path halving; n-1 acyclic edges imply connectivity
    parent = list(range(n + 1))
    for u, v in edges:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            return False
        parent[u] = v
    return True


def canonicalize_tree(n: int, raw_edges: Iterable[tuple[int, int]]) -> LabeledTree:
    """Validate and normalize an edge list into a canonical LabeledTree.

    Pairs may arrive in any order and orientation.  Raises BadVertex for
    labels outside 1..n, DuplicateEdge for a repeated unordered pair, and
    NotATree for a self-loop, wrong edge count, or a cyclic (equivalently
    disconnected) edge set.
    """
    if n < 1:
        raise OutOfRange(f"vertex count must be >= 1, got {n}")
    seen: set[Edge] = set()
    edges: list[Edge] = []
    for pair in raw_edges:
        u, v = pair
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise BadVertex(f"edge {tuple(pair)!r} references a vertex outside 1..{n}")
        if u == v:
            raise NotATree(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdge(f"edge {e!r} appears more than once")
        seen.add(e)
        edges.append(e)
    if len(edges) != n - 1:
        raise NotATree(f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    if not _acyclic(n, edges):
        raise NotATree("edge set contains a cycle")
    edges.sort()
    return LabeledTree(n, tuple(edges))


def degree_of(tree: LabeledTree, v: int) -> int:
    """Number of edges of ``tree`` incident to vertex ``v``."""
    if not 1 <= v <= tree.n:
        raise BadVertex(f"vertex {v} outside 1..{tree.n}")
    return sum(1 for u, w in tree.edges if u == v or w == v)


def _degree_vector(n: int, edges: Iterable[Edge]) -> tuple[int, ...]:
    # the degree vector of the edges on 1..n, read from the pairs alone,
    # with no LabeledTree
    deg = [0] * (n + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg[1:])


def tree_degrees(tree: LabeledTree) -> tuple[int, ...]:
    """The full degree vector (d_1..d_n) of a tree."""
    return _degree_vector(tree.n, tree.edges)


def validate_degrees(degrees: tuple[int, ...]) -> None:
    """Raise InvalidDegreeSequence unless degrees can belong to a tree."""
    n = len(degrees)
    if n < 2:
        raise InvalidDegreeSequence(f"need at least 2 vertices, got {n}")
    if min(degrees) < 1:
        raise InvalidDegreeSequence(f"degrees must be positive: {degrees}")
    if sum(degrees) != 2 * n - 2:
        raise InvalidDegreeSequence(
            f"degree sum must be {2 * n - 2} for n={n}, got {sum(degrees)}"
        )


# ---------------------------------------------------------------------------
# Exact arithmetic


def factorial(n: int) -> int:
    if n < 0:
        raise OutOfRange(f"factorial of negative {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        raise OutOfRange(f"binomial({n}, {k}) needs 0 <= k <= n")
    return math.comb(n, k)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(parts_i!), computed as a product of binomials."""
    total = 0
    out = 1
    for p in parts:
        if p < 0:
            raise OutOfRange(f"multinomial parts must be nonnegative, got {p}")
        total += p
        out *= math.comb(total, p)
    return out


def exact_div(numerator: int, divisor: int) -> int:
    """Integer division that must be exact."""
    q, r = divmod(numerator, divisor)
    if r:
        raise NonIntegralResult(f"{numerator} is not divisible by {divisor}")
    return q


def as_integer(value: Union[int, Fraction]) -> int:
    """Convert an int or an integer-valued Fraction to int, exactly."""
    if isinstance(value, int):
        return value
    if value.denominator != 1:
        raise NonIntegralResult(f"{value} is not an integer")
    return int(value)


def int_to_text(value: int) -> str:
    """The decimal digits of an int of any size, converted in pieces below
    the interpreter's process-wide int-to-str digit limit (4300 by
    default), which is left as it is."""
    # 2000 bits is at most 603 digits, below the smallest limit Python accepts (640)
    if value.bit_length() <= 2000:
        return str(value)
    if value < 0:
        return "-" + int_to_text(-value)
    half = value.bit_length() * 3 // 20  # log10(2) > 0.3, so hi is nonzero
    hi, lo = divmod(value, 10**half)
    return int_to_text(hi) + int_to_text(lo).zfill(half)


# ---------------------------------------------------------------------------
# Text formats
#
# Edge-list format: a header line "n <vertex-count>" followed by one edge
# per line, two space-separated labels with the smaller first, lines in
# sorted order.  A single-vertex tree is the header alone.  Sequence
# format: comma-separated symbols on one line; the empty line is the
# (empty) sequence for n = 2.
#
# Labels and symbols are read with int(), which takes any spelling of an
# int ("+3", "03", "1_0", other scripts' digits).  Up to n = _LABEL_MAX
# the tokens of a sequence line, or of an edge block's column of first or
# second labels, are first looked up in _LABELS, the dict from the texts
# str() writes for 1.._LABEL_MAX to their ints, which are exactly the
# ints int() gives; from the first token not found there (another
# spelling, 0, garbage) all of them go through int().  Either way every
# record then takes the same range checks, with the same diagnostics.
# The table is made once, at import, in about 0.3 ms and 0.2 MB.

# The largest label read through the table.  A lookup costs about 50 ns
# against 110 ns for int() at n = 1000, and lookups slow as n grows and
# the table's entries leave the cache: six-record prufer decode is 4-5%
# faster up to n = 2500, no faster at 3000-5000 and 7% slower at 10^4
# (best of 21, 2-vCPU VM, Python 3.11.7).
_LABEL_MAX = 2000
_LABELS = {str(i): i for i in range(1, _LABEL_MAX + 1)}


def _read_labels(n: int, tokens: Sequence[str]) -> tuple[int, ...]:
    """The ints of the tokens of a record on n vertices: looked up in
    _LABELS up to n = _LABEL_MAX, and all read with int() from the first
    token not found or above it, which raises ValueError for a token
    that is no int."""
    if n <= _LABEL_MAX:
        try:
            return tuple(map(_LABELS.__getitem__, tokens))
        except KeyError:
            pass  # a token int() alone reads, or no label
    return tuple(map(int, tokens))


def tree_to_text(tree: LabeledTree) -> str:
    lines = [f"n {tree.n}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"


def _edge_blocks(
    lines: Iterable[str],
) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """The header line number, vertex count n and two label tuples us and
    vs of each edge-list block, read by _read_labels and not range
    checked; blank lines between blocks are skipped.  A block's n - 1
    lines are read before anything is sized by n, and the first malformed
    line is named ahead of a block that is short."""
    it = iter(lines)
    line_no = 0
    for raw in it:
        line_no += 1
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != 2 or fields[0] != "n":
            raise EdgeTextError(line_no, "expected header 'n <vertex-count>'")
        try:
            n = int(fields[1])
        except ValueError:
            raise EdgeTextError(line_no, f"vertex count {fields[1]!r} is not an integer") from None
        if n < 1:
            raise EdgeTextError(line_no, f"vertex count must be >= 1, got {n}")
        header = line_no
        # islice stops at most at sys.maxsize, more lines than any text has
        block = list(islice(it, min(n - 1, sys.maxsize)))
        line_no += len(block)
        try:
            # a line of other than two fields makes zip or the unpacking fail
            us, vs = zip(*map(str.split, block), strict=True)
            us, vs = _read_labels(n, us), _read_labels(n, vs)
        except ValueError:
            for bad_no, raw in enumerate(block, start=header + 1):
                tokens = raw.split()
                if len(tokens) != 2:
                    raise EdgeTextError(bad_no, "expected two vertex labels") from None
                try:
                    int(tokens[0]), int(tokens[1])
                except ValueError:
                    raise EdgeTextError(bad_no, "vertex labels must be integers") from None
            us = vs = ()  # every line is well formed: the block has none
        if len(block) != n - 1:
            raise EdgeTextError(header, f"expected {n - 1} edge lines, got {len(block)}")
        yield header, n, us, vs


def read_trees(lines: Iterable[str]) -> Iterator[LabeledTree]:
    """Parse a stream of edge-list blocks; blank lines between blocks are skipped."""
    for header, n, us, vs in _edge_blocks(lines):
        try:
            tree = canonicalize_tree(n, zip(us, vs))
        except TreeCountError as err:
            raise EdgeTextError(header, str(err)) from err
        yield tree


def read_prufer_lines(lines: Iterable[str]) -> Iterator[tuple[int, ...]]:
    """Parse one word per line, on len(word) + 2 vertices; an empty line
    is the n=2 word ()."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            yield ()
            continue
        n = text.count(",") + 3
        try:
            symbols = _read_labels(n, text.split(","))
        except ValueError:
            raise EdgeTextError(line_no, "symbols must be comma-separated integers") from None
        if min(symbols) < 1 or max(symbols) > n:
            bad = next(s for s in symbols if not 1 <= s <= n)
            raise EdgeTextError(line_no, f"symbol {bad} outside 1..{n}")
        yield symbols
