"""Formula-vs-oracle verification across parameter grids.

Each identity check walks its whole grid, collects every counterexample
(never fail-fast), and returns an IdentityReport.  The serialized record
of a report has exactly the fields identity_id, status, checked,
failures[], elapsed_ms; counts inside failures are rendered as decimal
strings so arbitrarily large values survive JSON.

Checks accept an optional replacement for the formula side, which lets
tests inject a corrupted formula and watch the counterexamples surface.

Failure and IdentityReport are immutable named tuples: besides field
access they can be indexed and unpacked, and each compares equal to a
plain tuple of the same fields.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count, repeat, zip_longest
from time import perf_counter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from treecount import counting, enumeration
from treecount.core import (
    CapExceeded,
    OutOfRange,
    TreeCountError,
    _check_cap,
    as_integer,
    binomial,
    int_to_text,
)

# Default grid tops, kept only here (the checks take their top without a
# default): enumeration-backed checks stay within the module caps;
# formula-only checks are cheap in exact arithmetic and reach 30.
DEFAULT_LIMITS: dict[str, int] = {
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

# Work caps of the formula-only grids: a grid top N costs about N^3
# big-integer products in the Lemma 1 rows of recursion_T and lemma1_lhs,
# about N^5 for the compositions of the L3 and supervertex grids, and about
# 11x per doubling of N in the totals of DEG_V1_TOTALITY and
# BINOMIAL_COLLAPSE.  At the cap each check takes at most about 1.2 s of
# CPU.  Best of 3 with time.process_time, in five processes, on a 2-vCPU
# VM with Python 3.11.7: EQ_20 0.41-0.60 s, LEMMA_1 0.022-0.036 s (its
# brute force to n = 9 reads one byte a word, enumeration._ones_per_word),
# L3 0.35-0.55 s, SUPERVERTEX 0.28-0.47 s (with the joiner's memo of
# counting._join_weight), DEG_V1_TOTALITY 0.84-1.19 s and
# BINOMIAL_COLLAPSE 0.75-1.10 s.
EQ_20_CAP = 175
LEMMA_1_CAP = 30
L3_CAP = 20
SUPERVERTEX_CAP = 16
TOTALS_CAP = 500


class Failure(NamedTuple):
    parameters: str
    expected: object
    got: object

    def to_record(self) -> dict:
        return {
            "parameters": self.parameters,
            "expected": _text(self.expected),
            "got": _text(self.got),
        }


def _text(value: object) -> str:
    return int_to_text(value) if isinstance(value, int) else str(value)


class IdentityReport(NamedTuple):
    identity_id: str
    checked: int
    failures: tuple[Failure, ...]
    elapsed: float

    @property
    def status(self) -> str:
        return "PASS" if not self.failures else "FAIL"

    @property
    def elapsed_ms(self) -> int:
        return int(self.elapsed * 1000)

    @property
    def capped(self) -> bool:
        """True for an entry verify_all made of a check stopped by a cap:
        no other report has a failure without a checked case."""
        return self.checked == 0 and bool(self.failures)

    def to_record(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "status": self.status,
            "checked": self.checked,
            "failures": [f.to_record() for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }


# A case of an identity check is (where, expected, legs): legs is a tuple
# of (suffix, got) pairs, each of which must equal expected.
_Case = tuple[tuple, object, tuple[tuple[str, object], ...]]


def _check_top(name: str, top: int, kind: str, cap: int) -> None:
    """Raise OutOfRange unless the grid top is at least 2, then
    CapExceeded if it lies beyond its cap."""
    if top < 2:
        raise OutOfRange(f"need {name} >= 2, got {top}")
    _check_cap(name, top, kind, cap)


def _run(identity_id: str, label: Callable[..., str], cases: Iterable[_Case]) -> IdentityReport:
    """Walk every case, timing the walk.  A case counts once in checked
    however many legs it has; a failing leg is reported under
    label(*where) + suffix, which is built only on failure."""
    start = perf_counter()
    failures = []
    checked = 0
    for where, expected, legs in cases:
        checked += 1
        for suffix, got in legs:
            if got != expected:
                failures.append(Failure(label(*where) + suffix, expected, got))
    return IdentityReport(identity_id, checked, tuple(failures), perf_counter() - start)


def _run_totals(identity_id: str, n_max: int, legs: Callable[[int], tuple]) -> IdentityReport:
    """Every leg of legs(n) against the total n^(n-2), for n = 2..n_max."""
    _check_top("n_max", n_max, f"{identity_id} work", TOTALS_CAP)
    cases = (((n,), counting.count_total_trees(n), legs(n)) for n in range(2, n_max + 1))
    return _run(identity_id, lambda n: f"n={n}", cases)


def _ilen(stream: Iterable) -> int:
    # zip draws the stream and the counter in step inside C, and the deque
    # keeps nothing: the counter's next value is the number of items drawn
    counter = count()
    deque(zip(stream, counter), maxlen=0)
    return next(counter)


def _parts_label(m: int, parts: tuple[int, ...]) -> str:
    return f"m={m},a={','.join(map(str, parts))}"


def verify_theorem1(
    n_max: int, *, formula: Callable[[tuple[int, ...]], int] | None = None
) -> IdentityReport:
    """Degree-sequence formula against the degree vectors read from every
    decoded tree, for every valid degree sequence with n <= n_max.  The
    trees are the edge masks of the sweep, each degree vector read from its
    mask's edges, or past 9, under a raised enumeration.PRUFER_ENUM_CAP,
    the walk's decoded edges (enumeration._degree_histogram)."""
    _check_top("n_max", n_max, "sweep", enumeration.PRUFER_ENUM_CAP)
    fn = formula if formula is not None else counting.count_trees_with_degrees

    def cases() -> Iterator[_Case]:
        for n in range(2, n_max + 1):
            hist = enumeration._degree_histogram(n)
            for d in enumeration.enumerate_compositions(2 * n - 2, n):
                yield (n, d), hist[d], (("", fn(d)),)

    return _run("THEOREM_1", lambda n, d: f"n={n},d={','.join(map(str, d))}", cases())


def verify_deg_v1_totality(
    n_max: int, *, formula: Callable[[int, int], int] | None = None
) -> IdentityReport:
    """The by-degree-of-vertex-1 counts must sum to the total count."""
    fn = formula if formula is not None else counting.count_trees_deg_v1
    return _run_totals(
        "DEG_V1_TOTALITY", n_max, lambda n: (("", sum(fn(n, k) for k in range(1, n))),)
    )


def verify_lemma1(n_max: int, *, lhs: Callable[[int, int], int] | None = None) -> IdentityReport:
    """Four-way agreement at every (n, k): the composition-sum count, the
    literal rational form, the rational-free form, and (while n is within
    the sweep cap) the occurrence-counting brute force."""
    _check_top("n_max", n_max, "LEMMA_1 work", LEMMA_1_CAP)
    fn = lhs if lhs is not None else counting.lemma1_lhs

    def cases() -> Iterator[_Case]:
        for n in range(2, n_max + 1):
            hist = (
                enumeration.deg_v1_histogram(n)
                if n <= enumeration.PRUFER_ENUM_CAP
                else None
            )
            for k in range(1, n):
                reference = counting.count_trees_deg_v1(n, k)
                legs = (
                    (",composition sum", fn(n, k)),
                    (",rational form", as_integer(counting.count_trees_deg_v1_rational(n, k))),
                )
                if hist is not None:
                    legs += ((",brute force", hist[k]),)
                yield (n, k), reference, legs

    return _run("LEMMA_1", lambda n, k: f"n={n},k={k}", cases())


def verify_double_count(
    m_max: int, *, assembly: Callable[[int, int], int] | None = None
) -> IdentityReport:
    """Pair enumeration against both closed form T_m * C(m-1, k-1) and the
    component-based assembly, for every m <= m_max and every k."""
    _check_top("m_max", m_max, "pair", enumeration.PAIR_ENUM_CAP)
    fn = assembly if assembly is not None else counting.assemble_double_count
    cases = (
        (
            (m, k),
            _ilen(enumeration.enumerate_edge_subsets_pairs(m, k)),
            (
                (",closed form", counting.count_total_trees(m) * binomial(m - 1, k - 1)),
                (",assembly", fn(m, k)),
            ),
        )
        for m in range(2, m_max + 1)
        for k in range(1, m + 1)
    )
    return _run("DOUBLE_COUNT_PAIRS", lambda m, k: f"m={m},k={k}", cases)


def verify_recursion_and_collapse(
    n_max: int, *, recursion: Callable[[int], int] | None = None
) -> IdentityReport:
    """recursion_T(n) = binomial_collapse(n) = n^(n-2) for n <= n_max."""
    _check_cap("n_max", n_max, "EQ_20 work", EQ_20_CAP)
    fn = recursion if recursion is not None else counting.recursion_T
    return _run_totals(
        "EQ_20_RECURSION",
        n_max,
        lambda n: ((",recursion", fn(n)), (",collapse", counting.binomial_collapse(n))),
    )


def verify_binomial_collapse(
    n_max: int, *, collapse: Callable[[int], int] | None = None
) -> IdentityReport:
    """Term-by-term binomial sum against the closed form."""
    fn = collapse if collapse is not None else counting.binomial_collapse
    return _run_totals("BINOMIAL_COLLAPSE", n_max, lambda n: (("", fn(n)),))


# Both composition grids stop at 5 parts; L3_CAP and SUPERVERTEX_CAP are
# sized for that: C(m, 2) + ... + C(m, 5) compositions up to m, ~m^5/120.
def _composition_grid(m_max: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(m, parts) for every composition of m into k = 2..5 parts with
    k <= m <= m_max, by k, then m, then parts in lexicographic order."""
    for k in range(2, 6):
        for m in range(k, m_max + 1):
            for parts in enumeration.enumerate_compositions(m, k):
                yield m, parts


def verify_l3_expansion(m_max: int, *, expansion=None) -> IdentityReport:
    """Multinomial expansion against m^(k-2) * prod(a_i) on every positive
    composition with 2 <= k <= 5 parts and total m <= m_max."""
    _check_top("m_max", m_max, "L3 work", L3_CAP)
    fn = expansion if expansion is not None else counting.expand_L3
    cases = (
        ((m, parts), m ** (len(parts) - 2) * math.prod(parts), (("", fn(parts, m)),))
        for m, parts in _composition_grid(m_max)
    )
    return _run("L3_EXPANSION", _parts_label, cases)


def verify_supervertex_marginal(m_max: int, *, joiner=None) -> IdentityReport:
    """Summing the component-joining counts over all degree sequences on k
    super vertices must reproduce the multinomial expansion, for every
    composition with 2 <= k <= 5 parts and total m <= m_max."""
    _check_top("m_max", m_max, "SUPERVERTEX work", SUPERVERTEX_CAP)
    fn = joiner if joiner is not None else counting.count_supervertex_trees

    def cases() -> Iterator[_Case]:
        degree_choices: dict[int, list[tuple[int, ...]]] = {}
        for m, sizes in _composition_grid(m_max):
            k = len(sizes)
            if k not in degree_choices:
                degree_choices[k] = list(enumeration.enumerate_compositions(2 * k - 2, k))
            got = sum(map(fn, degree_choices[k], repeat(sizes)))
            yield (m, sizes), counting.expand_L3(sizes, m), (("", got),)

    return _run("SUPERVERTEX_MARGINAL", _parts_label, cases())


def verify_prufer_roundtrip(n_max: int) -> IdentityReport:
    """encode(decode(s)) = s over all sequences s and decode(encode(t)) = t
    over all trees t, for 2 <= n <= n_max.  The trees, up to n = 9, never
    pass through the decode: they are the composed sweep's
    (enumeration.enumerate_all_trees), paired in order with the sequences.
    A pair costs one decode and one encode: the s side reuses encode(t)
    when decode(s) = t, and the t side reuses decode(s) when encode(t) = s.
    A refused codec call fails its side with got "<ErrorClass>: <message>".
    A tree source that yields more or fewer trees than sequences fails the
    case "n=N,trees"."""
    _check_top("n_max", n_max, "sweep", enumeration.PRUFER_ENUM_CAP)
    decode, encode = enumeration.prufer_decode, enumeration.prufer_encode

    def refused(fn: Callable, *args):
        # fn(*args), or the text of the TreeCountError it raises, as
        # verify_all reports a capped check; a text passes on
        try:
            return args[-1] if isinstance(args[-1], str) else fn(*args)
        except TreeCountError as err:
            return f"{type(err).__name__}: {err}"

    def cases() -> Iterator[_Case]:
        for n in range(2, n_max + 1):
            sizes = [0, 0]  # sequences and trees drawn
            for s, t in zip_longest(enumeration.enumerate_sequences(n), enumeration.enumerate_all_trees(n)):
                try:
                    tree = None if s is None else decode(n, s)
                    back = None if t is None else encode(t)
                    s_got = None if s is None else back if tree == t else encode(tree)
                    t_got = None if t is None else tree if back == s else decode(n, back)
                except TreeCountError:
                    s_got = None if s is None else refused(encode, refused(decode, n, s))
                    t_got = None if t is None else refused(decode, n, refused(encode, t))
                if s is not None:
                    sizes[0] += 1
                    yield (n, "s", s), s, (("", s_got),)
                if t is not None:
                    sizes[1] += 1
                    yield (n, "t", t.edges), t, (("", t_got),)
            if sizes[0] != sizes[1]:
                yield (n, "trees", None), sizes[0], (("", sizes[1]),)

    def label(n: int, side: str, x) -> str:
        return f"n={n},{side}" if x is None else f"n={n},{side}={x}"

    return _run("PRUFER_ROUNDTRIP", label, cases())


_REGISTRY: dict[str, Callable[[int], IdentityReport]] = {
    "THEOREM_1": verify_theorem1,
    "DEG_V1_TOTALITY": verify_deg_v1_totality,
    "LEMMA_1": verify_lemma1,
    "EQ_20_RECURSION": verify_recursion_and_collapse,
    "DOUBLE_COUNT_PAIRS": verify_double_count,
    "L3_EXPANSION": verify_l3_expansion,
    "SUPERVERTEX_MARGINAL": verify_supervertex_marginal,
    "BINOMIAL_COLLAPSE": verify_binomial_collapse,
    "PRUFER_ROUNDTRIP": verify_prufer_roundtrip,
}
IDENTITY_IDS = tuple(_REGISTRY)


def verify_all(limits: Mapping[str, int] | None = None) -> list[IdentityReport]:
    """Run every identity check.  A check whose limit is beyond its cap is
    reported as a capped entry (got = the CapExceeded message, expected =
    the class of cap that was hit) without aborting the remaining checks."""
    reports = []
    for identity_id, check in _REGISTRY.items():
        limit = DEFAULT_LIMITS[identity_id]
        if limits and identity_id in limits:
            limit = limits[identity_id]
        start = perf_counter()
        try:
            reports.append(check(limit))
        except CapExceeded as err:
            budget = "work" if err.kind.endswith(" work") else "enumeration"
            failure = Failure(f"limit={limit}", f"limit within {budget} cap", f"CapExceeded: {err}")
            reports.append(IdentityReport(identity_id, 0, (failure,), perf_counter() - start))
    return reports
