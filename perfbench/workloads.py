"""Seeded op lists for the three workloads, with the check of every op.

An op is one ``treecount`` invocation: an argv list, its stdin text and a
check.  Ops are grouped in cases (a later op of a case may read an
earlier op's stdout, as a shell pipe would) and cases in decks.  A deck
has the same shape on every seed: the seed picks the order and the
parameters inside each slot, never how many slots of each kind there
are, so the op mix, the failure share and the latency percentiles hold
still from seed to seed.  One pass runs a fixed number of decks.

A check returns the op's item count or raises ``Mismatch``.  It uses
only ``oracle``: no code of the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle
from oracle import expect

FORMATS = ("edges", "prufer", "json", "csv")


@dataclass
class Outcome:
    rc: Optional[int]
    out: str
    err: str
    exc: Optional[BaseException]
    seconds: float


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[Outcome, dict], int]
    name: str = ""  # key of this op's outcome within its case
    stdin_from: str = ""  # stdin is the stdout of this earlier op of the case
    # An exit-2/3 one-line diagnostic is an accepted answer: set only on
    # inputs where refusing is one of the documented ways to fix a defect.
    may_refuse: bool = False
    # Recognises the failure of a known, documented defect.
    known_defect: Optional[Callable[[Outcome], bool]] = None


def is_diagnostic(o: Outcome) -> bool:
    lines = o.err.splitlines()
    return (
        o.exc is None
        and o.rc in (2, 3)
        and len(lines) == 1
        and lines[0].startswith("treecount: ")
    )


def _degree_vector(rng: random.Random, n: int) -> tuple:
    # degrees of the tree behind a uniform Prufer sequence: always valid
    deg = [1] * n
    for _ in range(n - 2):
        deg[rng.randrange(n)] += 1
    return tuple(deg)


def _in_slice(rng: random.Random, lo: int, hi: int, i: int, k: int) -> int:
    """An int drawn uniformly from the i-th of k equal slices of [lo, hi].
    Sizes drawn one per slice spread evenly over the range on every seed,
    so the op mix, and with it every latency percentile, holds still; the
    seed moves each size within its slice."""
    a = lo + (hi - lo + 1) * i // k
    b = lo + (hi - lo + 1) * (i + 1) // k
    return rng.randrange(a, max(a + 1, b))


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list:
    return [_in_slice(rng, lo, hi, i, k) for i in range(k)]


def _csv(values) -> str:
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# stream: enumerate


class StreamCheck:
    """Full structural check the first time an argv is seen, then a
    comparison with the digest of the output that passed it (the output
    of ``enumerate`` is a deterministic function of its arguments)."""

    def __init__(self):
        self.golden: dict = {}

    def op(self, n: int, fmt: str, *, deg_v1=None, degrees=None, limit=None,
           count=False) -> Op:
        argv = ["enumerate", "-n", str(n), "--format", fmt]
        if deg_v1 is not None:
            argv += ["--deg-v1", str(deg_v1)]
            total = oracle.trees_deg_v1(n, deg_v1)
        elif degrees is not None:
            argv += ["--degrees", _csv(degrees)]
            total = oracle.trees_with_degrees(degrees)
        else:
            total = oracle.cayley(n)
        if limit is not None:
            argv += ["--limit", str(limit)]
            total = min(total, limit)
        if count:
            argv.append("--count")
        key = tuple(argv)

        def check(o: Outcome, _case) -> int:
            expect(o.rc == 0, f"exit {o.rc}")
            digest = hashlib.sha256(o.out.encode()).digest()
            if key in self.golden:
                expect(self.golden[key] == digest, "output differs from the checked one")
                return total
            trees, count_line = oracle.parse_tree_stream(o.out, fmt, n, count)
            expect(len(trees) == total, f"{len(trees)} trees, expected {total}")
            expect(len(set(trees)) == len(trees), "duplicate trees")
            if count:
                expect(count_line == total, f"count line {count_line}, expected {total}")
            for t in trees:
                if fmt == "prufer":
                    d = oracle.symbol_degrees(n, t)
                else:
                    d = oracle.check_tree(n, t)
                if deg_v1 is not None:
                    expect(d[0] == deg_v1, "vertex 1 has the wrong degree")
                elif degrees is not None:
                    expect(d == degrees, "wrong degree vector")
            self.golden[key] = digest
            return total

        return Op(f"enumerate n={n} {fmt}", argv, check)


def stream_deck(rng: random.Random, checks: StreamCheck) -> list:
    """Enumeration at n = 7 in every format, with cheap n = 6 and 8 ops.
    Latencies fall in three bands: five cheap ops (--deg-v1 at n = 6,
    --degrees, --limit at n = 8), six n = 7 sweeps cut by --limit 5000,
    and six full n = 7 sweeps.  So the median op is a limited sweep and
    the tail a full sweep on every seed; the seed draws flags, filters
    and the order."""
    op = checks.op
    pick = rng.choice
    coin = lambda: rng.random() < 0.5  # noqa: E731
    ops = [op(7, fmt, count=coin())
           for fmt in ("edges", "csv", "prufer", "json", "prufer", "json")]
    ops += [op(7, fmt, limit=5000, count=coin()) for fmt in ("edges", "csv") * 3]
    ops += [op(6, pick(FORMATS), deg_v1=rng.randint(1, 5), count=coin())
            for _ in range(2)]
    ops += [
        op(7, pick(FORMATS), degrees=_degree_vector(rng, 7), count=coin()),
        op(8, pick(FORMATS), degrees=_degree_vector(rng, 8), count=coin()),
        op(8, pick(FORMATS), limit=rng.randint(500, 1500), count=coin()),
    ]
    rng.shuffle(ops)
    return [[o] for o in ops]


# ---------------------------------------------------------------------------
# exact: verify and count


def _verify_op(subject: str, top: Optional[int] = None) -> Op:
    argv = ["verify", subject]
    if subject == "all":
        ids = oracle.IDENTITY_IDS
        tops = oracle.DEFAULT_LIMITS
    else:
        ids = (oracle.SUBJECTS[subject],)
        tops = {ids[0]: top if top is not None else oracle.DEFAULT_LIMITS[ids[0]]}
    if top is not None:
        argv += ["--max-n", str(top)]

    def check(o: Outcome, _case) -> int:
        expect(o.rc == 0, f"exit {o.rc}")
        lines = o.out.splitlines()
        expect(lines[0].split() == ["identity_id", "status", "checked", "failures",
                                    "elapsed_ms"], "bad table header")
        rows = [ln.split() for ln in lines[1:]]
        expect([r[0] for r in rows] == list(ids), "wrong identity rows")
        items = 0
        for ident, status, checked, failures, _ms in rows:
            want = oracle.checked_cases(ident, tops[ident])
            expect(status == "PASS" and failures == "0", f"{ident} {status}")
            expect(int(checked) == want, f"{ident} checked {checked}, expected {want}")
            items += want
        return items

    label = subject if top is None else f"{subject} --max-n"
    return Op(f"verify {label}", argv, check)


def _count_op(subject: str, fmt: str, value: int, params: dict, argv: list, **kw) -> Op:
    argv = ["count", subject] + argv + ["--format", fmt]

    def check(o: Outcome, _case) -> int:
        expect(o.rc == 0, f"exit {o.rc}")
        digits = oracle.decimal(value)
        if fmt == "json":
            rec = json.loads(o.out)
            expect(rec == {"subject": subject, **params, "count": digits}, "wrong json")
            expect(o.out.count("\n") == 1, "json must be one line")
        elif fmt == "csv":
            expect(o.out == f"count\n{digits}\n", "wrong csv count")
        else:
            expect(o.out == digits + "\n", "wrong count")
        return 1

    return Op(f"count {subject}", argv, check, **kw)


def _digit_limit_failure(o: Outcome) -> bool:
    # known defect: int -> str conversion refused beyond 4300 digits
    return isinstance(o.exc, ValueError) and "digits" in str(o.exc)


def exact_deck(rng: random.Random) -> list:
    """``verify all`` and every subject at its default grid, recursion on
    a ladder of grid tops up to 30, l3 at 14 and supervertex at 12; then
    43 exact counts with n up to 2000, three of which cross the 4300-digit
    output limit.  The verify ops have fixed grids, so the same op sits
    at every latency rank on every seed: the seed draws the counts and
    the order."""
    r = rng.randint
    fmts = ("text", "json", "csv")
    ops = [_verify_op("all")]
    ops += [_verify_op(s) for s in ("theorem1", "degv1", "lemma1", "doublecount",
                                    "collapse", "roundtrip")]
    ops += [_verify_op("recursion", top) for top in (24, 26, 28, 30)]
    ops += [_verify_op("l3", 14), _verify_op("supervertex", 12)]
    for n in _stratified(rng, 2, 1300, 24):
        ops.append(_count_op("total", rng.choice(fmts), oracle.cayley(n), {"n": n},
                             ["-n", str(n)]))
    for n in _stratified(rng, 1400, 2000, 3):
        ops.append(_count_op("total", rng.choice(fmts), oracle.cayley(n), {"n": n},
                             ["-n", str(n)], may_refuse=True,
                             known_defect=_digit_limit_failure))
    for n in _stratified(rng, 2, 1000, 8):
        d = _degree_vector(rng, n)
        ops.append(_count_op("degrees", rng.choice(fmts), oracle.trees_with_degrees(d),
                             {"degrees": list(d)}, ["-d", _csv(d)]))
    for n in _stratified(rng, 2, 1000, 8):
        k = r(1, n - 1)
        ops.append(_count_op("degv1", rng.choice(fmts), oracle.trees_deg_v1(n, k),
                             {"n": n, "k": k}, ["-n", str(n), "-k", str(k)]))
    rng.shuffle(ops)
    return [[o] for o in ops]


# ---------------------------------------------------------------------------
# roundtrip: sample, prufer encode, prufer decode


def _roundtrip_case(n: int, count: int, seed: int, degrees=None) -> list:
    """sample edges (E) and prufer (P) with one seed; then encode(E) must
    give P and decode(P) must give E back byte for byte."""
    target = ["--degrees", _csv(degrees)] if degrees else ["-n", str(n)]
    base = ["sample", *target, "--count", str(count), "--seed", str(seed)]
    tiny = n <= 2
    parsed: dict = {}

    def check_edges(o: Outcome, _case) -> int:
        expect(o.rc == 0, f"exit {o.rc}")
        blocks = oracle.parse_edge_blocks(o.out.splitlines())
        expect(len(blocks) == count, f"{len(blocks)} trees, expected {count}")
        degs = []
        for m, edges in blocks:
            expect(m == n, f"tree on {m} vertices, expected {n}")
            d = oracle.check_tree(n, edges)
            if degrees:
                expect(d == degrees, "wrong degree vector")
            degs.append(d)
        parsed["degrees"] = degs
        return 0

    def check_prufer(o: Outcome, _case) -> int:
        expect(o.rc == 0, f"exit {o.rc}")
        lines = o.out.splitlines()
        expect(len(lines) == count, f"{len(lines)} lines, expected {count}")
        if n >= 2:
            seqs = oracle.parse_prufer_lines(lines, n)
            got = [oracle.symbol_degrees(n, s) for s in seqs]
            expect(got == parsed.get("degrees"), "sequences disagree with the edges")
        return 0

    def check_encode(o: Outcome, case) -> int:
        expect(o.rc == 0, f"exit {o.rc}")
        p = case.get("P")
        expect(p is not None, "no sampled prufer text to compare with")
        expect(o.out == p.out, "encode(E) differs from sample --format prufer")
        return 0

    def check_decode(o: Outcome, case) -> int:
        expect(o.rc == 0, f"exit {o.rc}")
        expect(o.out == case["E"].out, "decode(P) differs from the sampled edges")
        return count

    def n1_decodes_to_n2(o: Outcome) -> bool:
        # known defect: the empty Prufer line of n = 1 reads back as n = 2
        return n == 1 and o.exc is None and o.out == "n 2\n1 2\n" * count

    kind = f"n={n}" if tiny else ("degrees" if degrees else "uniform")
    return [
        Op(f"sample {kind}", base, check_edges, name="E"),
        Op(f"sample {kind} prufer", base + ["--format", "prufer"], check_prufer,
           name="P", may_refuse=tiny),
        Op(f"prufer encode {kind}", ["prufer", "encode"], check_encode, stdin_from="E",
           may_refuse=tiny),
        Op(f"prufer decode {kind}", ["prufer", "decode"], check_decode, stdin_from="P",
           may_refuse=tiny, known_defect=n1_decodes_to_n2),
    ]


def roundtrip_deck(rng: random.Random, slot: int, decks: int) -> list:
    """Uniform samples on a ladder of sizes up to n = 1000, degree-vector
    samples on the same ladder, and one case each at n = 1 and n = 2.
    Deck ``slot`` of ``decks`` draws its sizes from that slice of each
    rung, so a pass covers every rung evenly."""
    r = rng.randint
    count = 6
    ladder = ((3, 60), (61, 250), (251, 600), (601, 999), (1000, 1000))
    cases = [_roundtrip_case(n, count, r(0, 2**31)) for n in (1, 2)]
    for lo, hi in ladder:
        n = _in_slice(rng, lo, hi, slot, decks)
        cases.append(_roundtrip_case(n, count, r(0, 2**31)))
        n = _in_slice(rng, lo, hi, slot, decks)
        cases.append(_roundtrip_case(n, count, r(0, 2**31), _degree_vector(rng, n)))
    rng.shuffle(cases)
    return cases


WARMUP = {
    "stream": ["enumerate", "-n", "5", "--format", "json"],
    "exact": ["verify", "collapse"],
    "roundtrip": ["sample", "-n", "50", "--count", "2"],
}

# Decks per pass, sized so a pass takes two to four seconds and a 40 s
# run repeats it about ten times.  A pass holds 34 ops on stream, 56 on
# exact and 288 on roundtrip: their tails are p70, p82 and p96.
DECKS = {"stream": 2, "exact": 1, "roundtrip": 6}


def op_list(workload: str, seed: int) -> list:
    """The workload's cases for one pass, all drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    checks = StreamCheck()
    decks = DECKS[workload]
    deck = {
        "stream": lambda _slot: stream_deck(rng, checks),
        "exact": lambda _slot: exact_deck(rng),
        "roundtrip": lambda slot: roundtrip_deck(rng, slot, decks),
    }[workload]
    return [case for slot in range(decks) for case in deck(slot)]
