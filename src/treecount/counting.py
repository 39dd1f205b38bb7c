"""Closed-form and recursive exact counters for labeled trees.

The quantities computed here:

* count_total_trees(n)            n^(n-2) total labeled trees (1 for n = 1)
* count_trees_with_degrees(d)     (n-2)! / prod((d_i - 1)!) trees with a
                                  fixed degree vector
* count_trees_deg_v1(n, k)        (n-1)^(n-1-k) * C(n-2, k-1) trees whose
                                  vertex 1 has degree k
* lemma1_lhs(n, k)                the same count assembled from the sizes
                                  of the components hanging off vertex 1
* recursion_T(n)                  the total rebuilt from lower totals only
* binomial_collapse(n)            sum_j C(n-2, j) (n-1)^(n-2-j), which
                                  telescopes back to n^(n-2)

plus the helpers that join component counts into whole-tree counts
(expand_L3, count_supervertex_trees, assemble_double_count).  All
arithmetic is exact; divisions assert exactness and raise
NonIntegralResult on failure, which would indicate a bug rather than a
rounding concern.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from treecount.core import (
    Composition,
    CompositionSumMismatch,
    DegreeSequence,
    OutOfRange,
    binomial,
    exact_div,
    factorial,
    multinomial,
    validate_degrees,
)
from treecount.enumeration import enumerate_compositions


class DegV1Count(NamedTuple):
    """One summand of the by-degree-of-vertex-1 decomposition of the total."""

    n: int
    k: int
    count: int


def count_total_trees(n: int) -> int:
    """Number of labeled trees on n vertices: n^(n-2), with 1 for n = 1."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    return n ** (n - 2)


def count_trees_with_degrees(d: DegreeSequence) -> int:
    """(n-2)! / prod((d_i - 1)!) labeled trees with degree vector d."""
    validate_degrees(d.degrees)
    # the parts d_i - 1 sum to n-2 by the degree-sum invariant
    return multinomial(deg - 1 for deg in d.degrees)


def _check_deg_v1_args(n: int, k: int) -> None:
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise OutOfRange(f"need 1 <= k <= {n - 1}, got k={k}")


def count_trees_deg_v1(n: int, k: int) -> int:
    """Trees on n vertices whose vertex 1 has degree k, in the
    rational-free form (n-1)^(n-1-k) * C(n-2, k-1)."""
    _check_deg_v1_args(n, k)
    return (n - 1) ** (n - 1 - k) * binomial(n - 2, k - 1)


def count_trees_deg_v1_rational(n: int, k: int) -> Fraction:
    """The same count in the literal form T_{n-1} / (n-1)^(k-2) * C(n-2, k-1).

    The value is kept as a Fraction because the exponent k-2 is negative
    for k = 1; it always reduces to the integer count_trees_deg_v1(n, k).
    """
    _check_deg_v1_args(n, k)
    t_prev = count_total_trees(n - 1)
    return Fraction(t_prev) / Fraction(n - 1) ** (k - 2) * binomial(n - 2, k - 1)


def lemma1_lhs(n: int, k: int) -> int:
    """Count trees with deg(vertex 1) = k by splitting off vertex 1.

    Sums (prod a_i * T_{a_i}) * (n-1)! / prod(a_i!) over all ordered
    positive compositions (a_1..a_k) of n-1, then divides the ordered
    total by k! (each unordered configuration is produced once per
    labeling of the k components).  The division is asserted exact.
    """
    _check_deg_v1_args(n, k)
    m = n - 1
    ordered = 0
    for comp in enumerate_compositions(m, k):
        term = multinomial(comp.parts)
        for a in comp.parts:
            term *= a * count_total_trees(a)
        ordered += term
    return exact_div(ordered, factorial(k))


def count_fixed_composition_trees(n: int, a: Composition) -> int:
    """Trees on n vertices where removing vertex 1 leaves components of
    sizes (a_1..a_k) under an implicit ordered group labeling:
    (prod a_i * T_{a_i}) * (n-1)! / prod(a_i!)."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    parts = a.parts
    if any(x < 1 for x in parts):
        raise CompositionSumMismatch(f"component sizes must be positive: {parts}")
    if sum(parts) != n - 1 or a.target_sum != n - 1:
        raise CompositionSumMismatch(
            f"component sizes must sum to {n - 1}, got {sum(parts)}"
        )
    out = multinomial(parts)
    for x in parts:
        out *= x * count_total_trees(x)
    return out


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
def _total_by_recursion(n: int) -> int:
    # The ordered-composition sum grouped by part multiset: each multiset
    # stands for k!/prod(mult!) ordered tuples with identical summands,
    # which keeps n = 30 tractable.  Lower totals come from this function
    # itself, never from the closed form.
    if n == 1:
        return 1
    m = n - 1
    total = 0
    for k in range(1, n):
        ordered = 0
        for parts in _partitions(m, k, m):
            term = multinomial(parts)
            for a in parts:
                term *= a * _total_by_recursion(a)
            orderings = multinomial(tuple(Counter(parts).values()))
            ordered += orderings * term
        total += exact_div(ordered, factorial(k))
    return total


def recursion_T(n: int) -> int:
    """Total tree count rebuilt from the by-degree-of-vertex-1 recursion,
    without ever evaluating the closed form n^(n-2)."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    return _total_by_recursion(n)


def expand_L3(a: Composition, m: int) -> int:
    """m^(k-2) * prod(a_i) written as the multinomial expansion
    sum over nonnegative (c_1..c_k) with sum k-2 of
    (k-2)!/prod(c_i!) * prod(a_i^(c_i+1)).

    For k = 1 the value is defined as 1 (a_1 = m cancels m^(-1)).
    """
    parts = a.parts
    if any(x < 1 for x in parts):
        raise CompositionSumMismatch(f"parts must be positive: {parts}")
    if sum(parts) != m:
        raise CompositionSumMismatch(f"parts must sum to {m}, got {sum(parts)}")
    k = len(parts)
    if k == 1:
        return 1
    total = 0
    for c in enumerate_compositions(k - 2, k, allow_zero=True):
        term = multinomial(c.parts)
        for base, exp in zip(parts, c.parts):
            term *= base ** (exp + 1)
        total += term
    return total


def count_supervertex_trees(degrees: DegreeSequence, sizes: Composition) -> int:
    """Ways to join k components of sizes (a_1..a_k) into one tree where
    component i sends out d_i edges, each startable at any of its a_i
    vertices: (k-2)!/prod((d_i-1)!) * prod(a_i^(d_i))."""
    validate_degrees(degrees.degrees)
    k = len(degrees.degrees)
    if len(sizes.parts) != k:
        raise CompositionSumMismatch(
            f"need {k} component sizes, got {len(sizes.parts)}"
        )
    if any(x < 1 for x in sizes.parts):
        raise CompositionSumMismatch(f"component sizes must be positive: {sizes.parts}")
    ways = count_trees_with_degrees(degrees)
    for a, d in zip(sizes.parts, degrees.degrees):
        ways *= a**d
    return ways


def assemble_double_count(m: int, k: int) -> int:
    """Count (tree on m vertices, k-1 marked edges) pairs from the
    component side: sum over ordered compositions of m into k parts of
    L1 * L2 * L3, divided by k!, where L1 = m!/prod(a_i!) partitions the
    vertices, L2 = prod T_{a_i} builds a tree inside each group, and L3
    (via expand_L3) wires the groups together.  Equals T_m * C(m-1, k-1).
    """
    if m < 2:
        raise OutOfRange(f"need m >= 2, got {m}")
    if not 1 <= k <= m:
        raise OutOfRange(f"need 1 <= k <= {m}, got k={k}")
    total = 0
    for comp in enumerate_compositions(m, k):
        group_ways = multinomial(comp.parts)
        inner_trees = 1
        for a in comp.parts:
            inner_trees *= count_total_trees(a)
        total += group_ways * inner_trees * expand_L3(comp, m)
    return exact_div(total, factorial(k))


def binomial_collapse(n: int) -> int:
    """sum_{j=0}^{n-2} C(n-2, j) * (n-1)^(n-2-j), evaluated term by term;
    the binomial theorem collapses it to ((n-1)+1)^(n-2) = n^(n-2)."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    return sum(binomial(n - 2, j) * (n - 1) ** (n - 2 - j) for j in range(n - 1))


def deg_v1_counts(n: int) -> tuple[DegV1Count, ...]:
    """The full decomposition of the total count by deg(vertex 1)."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    return tuple(DegV1Count(n, k, count_trees_deg_v1(n, k)) for k in range(1, n))
