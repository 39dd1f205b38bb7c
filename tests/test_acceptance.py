"""Acceptance suite: every exit criterion, exact equality, stated budgets.

Each criterion is one test that does the full sweep at its stated grid,
asserts exact integer equality (the claims are combinatorial identities,
so there is no tolerance), checks the wall-clock budget, and prints one
PASS line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import Counter
from itertools import product


from treecount import counting
from treecount.cli import main as cli_main
from treecount.core import (
    as_integer,
    binomial,
)
from treecount.counting import (
    assemble_double_count,
    binomial_collapse,
    count_supervertex_trees,
    count_total_trees,
    count_trees_deg_v1,
    count_trees_deg_v1_rational,
    count_trees_with_degrees,
    expand_L3,
    lemma1_lhs,
    recursion_T,
)
from treecount.enumeration import (
    deg_v1_histogram,
    enumerate_all_trees,
    enumerate_all_trees_by_edges,
    enumerate_compositions,
    enumerate_edge_subsets_pairs,
    enumerate_trees_with_degrees,
    prufer_decode,
    prufer_encode,
)
from treecount.sampling import sample_tree_with_degrees, sample_uniform_tree


def run_cli(argv, stdin_text: str = ""):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_c01_cayley_totals():
    """n in 2..9: the exhaustive sweep yields exactly n^(n-2) trees."""
    start = time.perf_counter()
    for n in range(2, 10):
        got = sum(1 for _ in enumerate_all_trees(n))
        assert got == n ** (n - 2), f"n={n}: {got}"
    assert n ** (n - 2) == 4_782_969  # the n=9 sweep really ran
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE C1 cayley-totals: PASS (n=2..9, {elapsed:.1f}s)")


def test_c02_oracle_agreement():
    """n in 1..6: Prufer sweep and edge-subset enumeration give the same set."""
    start = time.perf_counter()
    for n in range(1, 7):
        sweep = set(enumerate_all_trees(n))
        subsets = set(enumerate_all_trees_by_edges(n))
        assert sweep == subsets, f"n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    print(f"ACCEPTANCE C2 oracle-agreement: PASS (n=1..6, {elapsed:.1f}s)")


def test_c03_theorem1_all_degree_sequences():
    """n in 2..7: formula count equals filtered enumeration, every sequence."""
    start = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        for d in enumerate_compositions(2 * n - 2, n):
            formula = count_trees_with_degrees(d)
            enumerated = sum(1 for _ in enumerate_trees_with_degrees(d))
            assert formula == enumerated, f"d={d}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"ACCEPTANCE C3 theorem1: PASS ({checked} degree sequences, {elapsed:.1f}s)")


def test_c04_lemma1_four_way():
    """n in 2..8, all k: composition sum = rational form = integer-safe form
    = occurrence-counting brute force."""
    start = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        brute = deg_v1_histogram(n)
        for k in range(1, n):
            a = lemma1_lhs(n, k)
            b = as_integer(count_trees_deg_v1_rational(n, k))
            c = count_trees_deg_v1(n, k)
            d = brute[k]
            assert a == b == c == d, f"(n={n},k={k}): {a},{b},{c},{d}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"ACCEPTANCE C4 lemma1-four-way: PASS ({checked} grid points, {elapsed:.1f}s)")


def test_c05_double_count():
    """m in 2..6, all k: pair enumeration = T_m * C(m-1,k-1) = assembly."""
    start = time.perf_counter()
    checked = 0
    for m in range(2, 7):
        for k in range(1, m + 1):
            pairs = sum(1 for _ in enumerate_edge_subsets_pairs(m, k))
            closed = count_total_trees(m) * binomial(m - 1, k - 1)
            assembled = assemble_double_count(m, k)
            assert pairs == closed == assembled, f"(m={m},k={k})"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"ACCEPTANCE C5 double-count: PASS ({checked} grid points, {elapsed:.1f}s)")


def test_c06_l3_expansion_and_supervertex():
    """k in 2..5, positive compositions with m <= 10: the multinomial
    expansion equals m^(k-2) * prod(a_i), and the component-joining counts
    marginalize to it."""
    start = time.perf_counter()
    checked = 0
    for k in range(2, 6):
        degree_choices = list(enumerate_compositions(2 * k - 2, k))
        for m in range(k, 11):
            for comp in enumerate_compositions(m, k):
                power_form = m ** (k - 2)
                for a in comp:
                    power_form *= a
                expansion = expand_L3(comp, m)
                assert expansion == power_form, f"a={comp}"
                marginal = sum(count_supervertex_trees(d, comp) for d in degree_choices)
                assert marginal == expansion, f"a={comp}"
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"ACCEPTANCE C6 l3-expansion: PASS ({checked} compositions, {elapsed:.1f}s)")


def test_c07_recursion_and_collapse():
    """n in 2..30: recursion total = binomial collapse = n^(n-2), exact."""
    start = time.perf_counter()
    for n in range(2, 31):
        expected = count_total_trees(n)
        assert recursion_T(n) == expected, f"recursion n={n}"
        assert binomial_collapse(n) == expected, f"collapse n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    print(f"ACCEPTANCE C7 recursion-collapse: PASS (n=2..30, {elapsed:.1f}s)")


def test_c08_codec_round_trip():
    """Both compositions of encode/decode are identities for n <= 7."""
    start = time.perf_counter()
    checked = 0
    for n in range(2, 8):
        seqs = product(range(1, n + 1), repeat=n - 2) if n > 2 else [()]
        for symbols in seqs:
            seq = tuple(symbols)
            tree = prufer_decode(n, seq)
            assert prufer_encode(tree) == seq
            assert prufer_decode(n, prufer_encode(tree)) == tree
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"ACCEPTANCE C8 codec-round-trip: PASS ({checked} sequences, {elapsed:.1f}s)")


def test_c09_sampler_uniformity():
    """Seed-pinned frequency bands: 16,000 uniform samples at n=4 keep all
    16 trees within 1000 +/- 154 (5 sigma for Binomial(16000, 1/16) is
    153.1); 2,000 degree-constrained samples keep both trees within
    1000 +/- 112 (5 sigma for Binomial(2000, 1/2) is 111.8)."""
    band_uniform = 5 * math.sqrt(16000 * (1 / 16) * (15 / 16))
    assert math.ceil(band_uniform) == 154
    freqs = Counter(sample_uniform_tree(4, seed=42, count=16000))
    assert len(freqs) == 16  # full support
    for tree, freq in freqs.items():
        assert abs(freq - 1000) <= 154, f"{tree}: {freq}"

    band_degrees = 5 * math.sqrt(2000 * 0.5 * 0.5)
    assert math.ceil(band_degrees) == 112
    d = (2, 2, 1, 1)
    freqs2 = Counter(sample_tree_with_degrees(d, seed=42, count=2000))
    assert len(freqs2) == 2
    for tree, freq in freqs2.items():
        assert abs(freq - 1000) <= 112, f"{tree}: {freq}"
    print("ACCEPTANCE C9 sampler-uniformity: PASS (seed 42, bands 154/112)")


def test_c10_cli_contract(monkeypatch):
    """Golden invocations, the exit-code table, byte-exact reproducibility."""
    star = "n 4\n1 4\n2 4\n3 4\n"
    assert run_cli(["count", "total", "-n", "4"]) == (0, "16\n", "")
    assert run_cli(["count", "degrees", "-d", "2,2,1,1"]) == (0, "2\n", "")
    assert run_cli(["count", "degv1", "-n", "2", "-k", "1"]) == (0, "1\n", "")
    assert run_cli(["enumerate", "-n", "3", "--format", "prufer"]) == (0, "1\n2\n3\n", "")
    assert run_cli(["enumerate", "-n", "2"]) == (0, "n 2\n1 2\n", "")
    assert run_cli(["enumerate", "-n", "4", "--degrees", "1,1,1,3"]) == (0, star, "")
    assert run_cli(["prufer", "encode"], "n 3\n1 2\n2 3\n") == (0, "2\n", "")
    assert run_cli(["prufer", "decode"], "4,4\n") == (0, star, "")
    assert run_cli(["prufer", "encode"], "n 2\n1 2\n") == (0, "\n", "")
    assert run_cli(["sample", "-n", "2", "--count", "3", "--seed", "7"]) == (
        0,
        "n 2\n1 2\n" * 3,
        "",
    )
    assert run_cli(["sample", "--degrees", "1,1,1,3", "--count", "2", "--seed", "1"]) == (
        0,
        star * 2,
        "",
    )

    # byte-exact reproducibility across two runs
    first = run_cli(["sample", "-n", "4", "--count", "5", "--seed", "42"])
    second = run_cli(["sample", "-n", "4", "--count", "5", "--seed", "42"])
    assert first == second and first[0] == 0

    # verify: all-PASS JSON document, exit 0
    code, out, _ = run_cli(["verify", "all", "--max-n", "6", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "PASS" and len(doc["reports"]) == 9

    # exit-code table: 2 validation, 3 cap exceeded, 1 verification failure
    assert run_cli(["count", "degrees", "-d", "1,2,zzz"])[0] == 2
    assert run_cli(["enumerate", "-n", "12"])[0] == 3
    monkeypatch.setattr(counting, "count_trees_with_degrees", lambda d: 0)
    code, out, _ = run_cli(["verify", "theorem1", "--max-n", "3"])
    assert code == 1 and "counterexamples:" in out
    print("ACCEPTANCE C10 cli-contract: PASS (golden set, exit codes 0/1/2/3)")
