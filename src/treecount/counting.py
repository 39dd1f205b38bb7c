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

The sums over compositions behind lemma1_lhs, recursion_T and expand_L3
are labelled products, m! [x^m] of a product of exponential generating
functions, so each is computed as repeated binomial convolution in time
polynomial in n.  lemma1_lhs and recursion_T share one memo of Lemma 1
rows, Eq. 20 being a row's sum; the tests keep the literal sums as oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat, starmap
from math import comb, prod
from operator import mul
from typing import Sequence

from treecount.core import (
    CompositionSumMismatch,
    InvalidDegreeSequence,
    OutOfRange,
    binomial,
    exact_div,
    factorial,
    multinomial,
    validate_degrees,
)
from treecount.enumeration import enumerate_compositions


def count_total_trees(n: int) -> int:
    """Number of labeled trees on n vertices: n^(n-2), with 1 for n = 1."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    return n ** (n - 2)


def count_trees_with_degrees(degrees: tuple[int, ...]) -> int:
    """(n-2)! / prod((d_i - 1)!) labeled trees with degree vector ``degrees``."""
    validate_degrees(degrees)
    # the parts d_i - 1 sum to n-2 by the degree-sum invariant
    return multinomial(deg - 1 for deg in degrees)


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
    positive compositions (a_1..a_k) of n-1 and divides the ordered total
    by k! (each unordered configuration is produced once per labeling of
    the k components).  The value is entry k of the Lemma 1 row that
    _eq20 memoizes for n-1, built from the recursive T_a.
    """
    _check_deg_v1_args(n, k)
    return _eq20(n - 1)[1][k]


@lru_cache(maxsize=None)
def _eq20(m: int) -> tuple[int, tuple[int, ...]]:
    # (T_{m+1}, row m): entry k of the Lemma 1 row is the number of trees on
    # m+1 vertices whose vertex 1 has degree k, m! [x^m] F^k / k! with
    # F = sum_{a>=1} a T_a x^a / a!.  As F^k/k! = F * F^(k-1)/(k-1)! / k,
    # it convolves w[a] = C(m, a) a T_a with entry k-1 of the lower rows and
    # divides by k, exactly.  Eq. 20: T_{m+1} is the row's sum.  T_a comes
    # from the lower entries, never the closed form; they are asked for in
    # increasing m, so no call recurses more than one level.
    if m == 0:
        return 1, (1,)
    lower = [_eq20(j) for j in range(m)]
    w = [0] + [comb(m, a) * a * lower[a - 1][0] for a in range(1, m + 1)]
    row = [0]
    for k in range(1, m + 1):
        # a component of size a > m-k+1 leaves too few vertices for k-1 more
        ordered = sum(w[a] * lower[m - a][1][k - 1] for a in range(1, m - k + 2))
        row.append(exact_div(ordered, k))
    return sum(row), tuple(row)


def recursion_T(n: int) -> int:
    """Total tree count rebuilt from the by-degree-of-vertex-1 recursion,
    without ever evaluating the closed form n^(n-2).  One memo, _eq20,
    holds each Lemma 1 row with the total built from it."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    return _eq20(n - 1)[0]


@lru_cache(maxsize=None)
def _pascal_rows(top: int) -> tuple[tuple[int, ...], ...]:
    # rows 0..top of Pascal's triangle, the weights of expand_L3's convolutions
    return tuple(tuple(map(comb, repeat(j), range(j + 1))) for j in range(top + 1))


def expand_L3(parts: tuple[int, ...], m: int) -> int:
    """m^(k-2) * prod(a_i) written as the multinomial expansion
    sum over nonnegative (c_1..c_k) with sum k-2 of
    (k-2)!/prod(c_i!) * prod(a_i^(c_i+1)).

    For k = 1 the value is defined as 1 (a_1 = m cancels m^(-1)).
    """
    if min(parts, default=1) < 1:
        raise CompositionSumMismatch(f"parts must be positive: {parts}")
    if sum(parts) != m:
        raise CompositionSumMismatch(f"parts must sum to {m}, got {sum(parts)}")
    if not parts:  # () passes the checks above only for m = 0
        raise CompositionSumMismatch("parts must be nonempty")
    k = len(parts)
    if k == 1:
        return 1
    # the binomial convolution of f_i(c) = a_i^(c+1), c = 0..k-2, over i:
    # coefficient j of f * g is sum_c C(j, c) f[c] g[j-c].  The Pascal rows
    # are one memo per k; of the last product only coefficient k-2 is needed
    top = k - 2
    rows = _pascal_rows(top)
    g = list(accumulate(repeat(parts[0], top + 1), mul))
    for base in parts[1:-1]:
        f = list(accumulate(repeat(base, top + 1), mul))
        g = [sum(map(mul, map(mul, row, f), g[j::-1])) for j, row in enumerate(rows)]
    f = accumulate(repeat(parts[-1], top + 1), mul)
    return sum(map(mul, map(mul, rows[top], f), reversed(g)))


@lru_cache(maxsize=256, typed=True)
def _join_weight(*degrees: int) -> int:
    # (k-2)!/prod((d_i - 1)!), the factor of a join count that depends on
    # the degree vector alone, once per vector.  typed keys the memo on
    # each entry's type as well, so (1.0, 1.0) never reads the entry of
    # (1, 1) and still fails in multinomial as it always did
    validate_degrees(degrees)
    return multinomial([d - 1 for d in degrees])


def count_supervertex_trees(degrees: tuple[int, ...], sizes: tuple[int, ...]) -> int:
    """Ways to join k components of sizes (a_1..a_k) into one tree where
    component i sends out d_i edges, each startable at any of its a_i
    vertices: (k-2)!/prod((d_i-1)!) * prod(a_i^(d_i))."""
    return _join_sum((degrees,), sizes)


def _join_sum(vectors: Sequence[tuple[int, ...]], sizes: tuple[int, ...]) -> int:
    # count_supervertex_trees(d, sizes) summed over the degree vectors d,
    # all of one length k, with sizes checked once: the degrees are checked
    # first, vector by vector, then the sizes, then the weights that failed
    # in the memo are computed
    try:
        weights = list(starmap(_join_weight, vectors))
    except (InvalidDegreeSequence, TypeError):
        # a failure is never memoized: the unmemoized checks run on the
        # caller's own degrees, so the error and its message (a list shown
        # as a list) are as they were, and a vector they pass (floats)
        # fails in multinomial after the checks of sizes
        for d in vectors:
            validate_degrees(d)
        weights = None
    k = len(vectors[0])
    if len(sizes) != k:
        raise CompositionSumMismatch(f"need {k} component sizes, got {len(sizes)}")
    # validate_degrees has seen at least 2 degrees, so sizes is not empty
    if min(sizes) < 1:
        raise CompositionSumMismatch(f"component sizes must be positive: {sizes}")
    if weights is None:
        weights = [multinomial([d - 1 for d in degrees]) for degrees in vectors]
    return sum(w * prod(map(pow, sizes, d)) for w, d in zip(weights, vectors))


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
    for parts in enumerate_compositions(m, k):
        group_ways = multinomial(parts)
        inner_trees = 1
        for a in parts:
            inner_trees *= count_total_trees(a)
        total += group_ways * inner_trees * expand_L3(parts, m)
    return exact_div(total, factorial(k))


def binomial_collapse(n: int) -> int:
    """sum_{j=0}^{n-2} C(n-2, j) * (n-1)^(n-2-j), evaluated term by term;
    the binomial theorem collapses it to ((n-1)+1)^(n-2) = n^(n-2)."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    # 0 <= j <= n-2, so comb needs no range check
    return sum(comb(n - 2, j) * (n - 1) ** (n - 2 - j) for j in range(n - 1))
