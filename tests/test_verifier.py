"""Identity reports: grids, determinism, fault injection, serialization."""

from __future__ import annotations

import io
import json
import time
from itertools import chain, islice
from math import comb

import pytest

import oracles
from treecount import counting, enumeration, verifier
from treecount.core import (
    CapExceeded,
    LabeledTree,
    NotATree,
    OutOfRange,
)
from treecount.cli import main
from treecount.verifier import (
    DEFAULT_LIMITS,
    EQ_20_CAP,
    IDENTITY_IDS,
    L3_CAP,
    LEMMA_1_CAP,
    SUPERVERTEX_CAP,
    TOTALS_CAP,
    Failure,
    IdentityReport,
    verify_all,
    verify_binomial_collapse,
    verify_deg_v1_totality,
    verify_double_count,
    verify_l3_expansion,
    verify_lemma1,
    verify_prufer_roundtrip,
    verify_recursion_and_collapse,
    verify_supervertex_marginal,
    verify_theorem1,
)

SMALL_LIMITS = {i: 4 for i in IDENTITY_IDS}


class TestIndividualChecks:
    def test_theorem1_counts_instances(self):
        report = verify_theorem1(4)
        assert report.status == "PASS"
        # 1 + 3 + 10 degree sequences for n = 2, 3, 4
        assert report.checked == 14
        assert report.failures == ()

    def test_theorem1_minimal(self):
        report = verify_theorem1(2)
        assert report.status == "PASS" and report.checked == 1

    def test_theorem1_full(self):
        assert verify_theorem1(7).status == "PASS"

    def test_lemma1(self):
        report = verify_lemma1(4)
        assert report.status == "PASS"
        assert report.checked == 6  # (n,k) pairs for n=2..4

    def test_lemma1_minimal(self):
        report = verify_lemma1(2)
        assert report.status == "PASS" and report.checked == 1

    def test_lemma1_beyond_brute_cap_still_checks_formulas(self, monkeypatch):
        from treecount import enumeration

        monkeypatch.setattr(enumeration, "PRUFER_ENUM_CAP", 3)
        report = verify_lemma1(5)
        assert report.status == "PASS"
        assert report.checked == 10

    def test_double_count(self):
        report = verify_double_count(6)
        assert report.status == "PASS"
        assert report.checked == sum(m for m in range(2, 7))  # k runs 1..m

    def test_recursion_and_collapse(self):
        report = verify_recursion_and_collapse(30)
        assert report.status == "PASS"
        assert report.checked == 29

    def test_binomial_collapse(self):
        assert verify_binomial_collapse(30).status == "PASS"

    def test_deg_v1_totality(self):
        assert verify_deg_v1_totality(30).status == "PASS"

    def test_l3_expansion(self):
        report = verify_l3_expansion(10)
        assert report.status == "PASS"
        # compositions of m into k parts, k = 2..5, m = k..10
        assert report.checked == 627

    def test_supervertex_marginal(self):
        report = verify_supervertex_marginal(10)
        assert report.status == "PASS"
        assert report.checked == 627

    def test_prufer_roundtrip(self):
        report = verify_prufer_roundtrip(5)
        assert report.status == "PASS"
        # two directions per sequence: 1 + 3 + 16 + 125 sequences
        assert report.checked == 2 * (1 + 3 + 16 + 125)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_prufer_roundtrip_counts_every_passing_pair(self, n):
        # a pair whose two sides pass is counted with no case of its own
        report = verify_prufer_roundtrip(n)
        assert report.failures == ()
        assert report.checked == 2 * sum(m ** (m - 2) for m in range(2, n + 1))

    def test_range_validation(self):
        for fn in (
            verify_theorem1,
            verify_lemma1,
            verify_recursion_and_collapse,
            verify_deg_v1_totality,
            verify_binomial_collapse,
            verify_prufer_roundtrip,
        ):
            with pytest.raises(OutOfRange, match=r"^need n_max >= 2, got 1$"):
                fn(1)
        for fn in (verify_double_count, verify_l3_expansion, verify_supervertex_marginal):
            with pytest.raises(OutOfRange, match=r"^need m_max >= 2, got 1$"):
                fn(1)

    def test_composition_grids_take_one_top(self):
        # the part count is fixed at 2..5: a second top is no parameter
        for fn in (verify_l3_expansion, verify_supervertex_marginal):
            with pytest.raises(TypeError):
                fn(5, 3)

    def test_cap_validation(self):
        with pytest.raises(CapExceeded, match=r"^n_max=10 beyond the sweep cap 9$"):
            verify_theorem1(10)
        with pytest.raises(CapExceeded, match=r"^m_max=7 beyond the pair cap 6$"):
            verify_double_count(7)
        with pytest.raises(CapExceeded, match=r"^n_max=10 beyond the sweep cap 9$"):
            verify_prufer_roundtrip(10)
        with pytest.raises(
            CapExceeded, match=rf"^n_max={EQ_20_CAP + 1} beyond the EQ_20 work cap {EQ_20_CAP}$"
        ):
            verify_recursion_and_collapse(EQ_20_CAP + 1)
        with pytest.raises(
            CapExceeded,
            match=rf"^n_max={LEMMA_1_CAP + 1} beyond the LEMMA_1 work cap {LEMMA_1_CAP}$",
        ):
            verify_lemma1(LEMMA_1_CAP + 1)


def _cold(check, top: int):
    for fn in vars(counting).values():
        if callable(getattr(fn, "cache_clear", None)):
            fn.cache_clear()
    start = time.perf_counter()
    report = check(top)
    return report, time.perf_counter() - start


class TestFormulaGridReach:
    def test_recursion_to_100(self):
        report, elapsed = _cold(verify_recursion_and_collapse, 100)
        assert report.status == "PASS" and report.checked == 99
        assert elapsed < 5

    def test_lemma1_to_30(self):
        # above the sweep cap only the composition and rational legs run
        report, elapsed = _cold(verify_lemma1, 30)
        assert report.status == "PASS" and report.checked == sum(range(1, 30))
        assert elapsed < 10

    def test_l3_to_cap(self):
        report, elapsed = _cold(verify_l3_expansion, L3_CAP)
        # compositions of m <= L3_CAP into 2..5 parts
        assert report.status == "PASS"
        assert report.checked == sum(comb(L3_CAP, k) for k in range(2, 6))
        assert elapsed < 10

    def test_supervertex_to_cap(self):
        report, elapsed = _cold(verify_supervertex_marginal, SUPERVERTEX_CAP)
        assert report.status == "PASS"
        assert report.checked == sum(comb(SUPERVERTEX_CAP, k) for k in range(2, 6))
        assert elapsed < 10


class TestFaultInjection:
    def test_theorem1_catches_broken_formula(self):
        def broken(d: tuple[int, ...]) -> int:
            value = counting.count_trees_with_degrees(d)
            return value + 1 if d == (2, 2, 1, 1) else value

        report = verify_theorem1(4, formula=broken)
        assert report.status == "FAIL"
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.parameters == "n=4,d=2,2,1,1"
        assert failure.expected == 2 and failure.got == 3

    @pytest.mark.parametrize("n", [4, 6])
    def test_theorem1_reads_degrees_from_decoded_trees(self, monkeypatch, n):
        # the sweep gives the mask of the star at 2 for the first word,
        # (1, ..., 1), whose tree is the star at 1: the word count per
        # degree vector is unchanged, the trees are not.  The sweep is read
        # through the module at call time, so the injected one is the one
        # checked
        bit = enumeration._EDGE_BITS[n]
        star1, star2 = (sum(bit[c][u] for u in range(1, n + 1) if u != c) for c in (1, 2))
        sweep = enumeration._sweep_chunks

        def wrong(*args):
            for i, masks in enumerate(sweep(*args)):
                if i == 0 and args[0] == n:
                    assert masks[0] == star1
                    masks[0] = star2
                yield masks

        monkeypatch.setattr(enumeration, "_sweep_chunks", wrong)
        report = verify_theorem1(n)
        assert report.status == "FAIL"
        leaves = ",1" * (n - 2)
        assert [(f.parameters, f.expected, f.got) for f in report.failures] == [
            (f"n={n},d=1,{n - 1}{leaves}", 2, 1),
            (f"n={n},d={n - 1},1{leaves}", 0, 1),
        ]

    def test_theorem1_builds_no_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("LabeledTree built")

        monkeypatch.setattr(enumeration, "LabeledTree", refuse)
        report = verify_theorem1(6)
        assert report.status == "PASS" and report.checked == sum(
            comb(2 * n - 3, n - 1) for n in range(2, 7)
        )

    def test_supervertex_oracle_joiner_gives_the_same_report(self):
        default = verify_supervertex_marginal(8)
        oracle = verify_supervertex_marginal(8, joiner=oracles.supervertex_count)
        assert default.status == "PASS"
        assert oracle._replace(elapsed=0) == default._replace(elapsed=0)

    def test_supervertex_joiner_is_called_per_vector_and_composition(self):
        # an injected joiner is called once per (d, sizes), composition by
        # composition in grid order and, within one, d in lexicographic order
        calls = []

        def recording(degrees, sizes):
            calls.append((degrees, sizes))
            return counting.count_supervertex_trees(degrees, sizes)

        assert verify_supervertex_marginal(6, joiner=recording).status == "PASS"
        assert calls == [
            (d, sizes)
            for _, sizes in verifier._composition_grid(6)
            for d in enumeration.enumerate_compositions(2 * len(sizes) - 2, len(sizes))
        ]

    def test_collects_all_failures(self):
        report = verify_recursion_and_collapse(6, recursion=lambda n: 0)
        assert report.status == "FAIL"
        assert len(report.failures) == 5  # one per n, collapse leg still fine
        assert all("recursion" in f.parameters for f in report.failures)

    def test_lemma1_brute_force_cross_checks(self):
        report = verify_lemma1(4, lhs=lambda n, k: -1)
        assert report.status == "FAIL"
        assert all("composition sum" in f.parameters for f in report.failures)

    def test_double_count_assembly_leg(self):
        report = verify_double_count(3, assembly=lambda m, k: 10**9)
        assert report.status == "FAIL"
        assert all("assembly" in f.parameters for f in report.failures)

    def test_deg_v1_totality_pins_failures(self):
        def broken(n: int, k: int) -> int:
            return counting.count_trees_deg_v1(n, k) + (k == 2 and n >= 5)

        report = verify_deg_v1_totality(6, formula=broken)
        assert report.checked == 5
        assert [(f.parameters, f.expected, f.got) for f in report.failures] == [
            ("n=5", 125, 126),
            ("n=6", 1296, 1297),
        ]

    def test_l3_expansion_pins_failures(self):
        def broken(comp, m: int) -> int:
            value = counting.expand_L3(comp, m)
            return 2 * value if comp[0] == 2 else value

        report = verify_l3_expansion(5, expansion=broken)
        assert report.checked == 26
        assert [(f.parameters, f.expected, f.got) for f in report.failures] == [
            ("m=3,a=2,1", 2, 4),
            ("m=4,a=2,2", 4, 8),
            ("m=5,a=2,3", 6, 12),
            ("m=4,a=2,1,1", 8, 16),
            ("m=5,a=2,1,2", 20, 40),
            ("m=5,a=2,2,1", 20, 40),
            ("m=5,a=2,1,1,1", 50, 100),
        ]

    def test_supervertex_marginal_pins_failures(self):
        def broken(d: tuple[int, ...], comp) -> int:
            value = counting.count_supervertex_trees(d, comp)
            return value + (d[0] == 2 and comp[-1] == 1)

        report = verify_supervertex_marginal(5, joiner=broken)
        assert report.checked == 26
        # with d_1 = 2 the other k-1 degrees sum to 2k-4, in C(2k-5, k-2)
        # ways, and each adds one wherever the last part is 1
        assert [(f.parameters, f.expected, f.got) for f in report.failures] == [
            ("m=3,a=1,1,1", 3, 4),
            ("m=4,a=1,2,1", 8, 9),
            ("m=4,a=2,1,1", 8, 9),
            ("m=5,a=1,3,1", 15, 16),
            ("m=5,a=2,2,1", 20, 21),
            ("m=5,a=3,1,1", 15, 16),
            ("m=4,a=1,1,1,1", 16, 19),
            ("m=5,a=1,1,2,1", 50, 53),
            ("m=5,a=1,2,1,1", 50, 53),
            ("m=5,a=2,1,1,1", 50, 53),
            ("m=5,a=1,1,1,1,1", 125, 135),
        ]

    def test_prufer_roundtrip_sequence_side(self, monkeypatch):
        real = enumeration.prufer_encode

        def broken(tree: LabeledTree) -> tuple[int, ...]:
            seq = real(tree)
            return (2, 1) if seq == (1, 2) else seq

        monkeypatch.setattr(enumeration, "prufer_encode", broken)
        report = verify_prufer_roundtrip(4)
        # no case is skipped, and the tree of (1, 2) fails its side too
        assert report.checked == 2 * (1 + 3 + 16)
        assert [f.to_record() for f in report.failures] == [
            {
                "parameters": "n=4,s=(1, 2)",
                "expected": "(1, 2)",
                "got": "(2, 1)",
            },
            {
                "parameters": "n=4,t=((1, 2), (1, 3), (2, 4))",
                "expected": "LabeledTree(n=4, edges=((1, 2), (1, 3), (2, 4)))",
                "got": "LabeledTree(n=4, edges=((1, 2), (1, 4), (2, 3)))",
            },
        ]

    def test_prufer_roundtrip_tree_side(self, monkeypatch):
        # the tree source gives the star at 1 on 3 vertices with its edges
        # out of order: its encode is its word's, so the word's case passes,
        # but the decode gives the edges sorted, and the tree's case fails
        real = enumeration.enumerate_all_trees
        star, unsorted = LabeledTree(3, ((1, 2), (1, 3))), LabeledTree(3, ((1, 3), (1, 2)))

        def trees(n: int):
            return (unsorted if t == star else t for t in real(n))

        monkeypatch.setattr(enumeration, "enumerate_all_trees", trees)
        report = verify_prufer_roundtrip(4)
        assert report.checked == 2 * (1 + 3 + 16)
        assert [f.to_record() for f in report.failures] == [
            {
                "parameters": "n=3,t=((1, 3), (1, 2))",
                "expected": "LabeledTree(n=3, edges=((1, 3), (1, 2)))",
                "got": "LabeledTree(n=3, edges=((1, 2), (1, 3)))",
            }
        ]

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_prufer_roundtrip_trees_come_from_another_source(self, monkeypatch, n):
        # the decode gives a non-tree, a repeated edge, for the star word,
        # and the encode maps it back, so encode(decode(s)) = s for every
        # word: only a tree that is not the decode's, the sweep's, can show
        # the fault
        decode, encode = enumeration.prufer_decode, enumeration.prufer_encode
        star = (1,) * (n - 2)
        wrong = LabeledTree(n, ((1, 2),) * (n - 1))

        def bad_decode(m: int, symbols: tuple[int, ...]) -> LabeledTree:
            return wrong if (m, symbols) == (n, star) else decode(m, symbols)

        def bad_encode(tree: LabeledTree) -> tuple[int, ...]:
            return star if tree == wrong else encode(tree)

        monkeypatch.setattr(enumeration, "prufer_decode", bad_decode)
        monkeypatch.setattr(enumeration, "prufer_encode", bad_encode)
        report = verify_prufer_roundtrip(n)
        assert report.checked == 2 * sum(m ** (m - 2) for m in range(2, n + 1))
        tree = LabeledTree(n, tuple((1, v) for v in range(2, n + 1)))
        assert report.failures == (Failure(f"n={n},t={tree.edges}", tree, wrong),)

    def test_prufer_roundtrip_reports_a_refused_decode(self, monkeypatch):
        # the decode gives a non-tree for the star word and the real encode
        # refuses it: the word's case fails with the refusal, and the star,
        # the sweep's tree paired with it, with the non-tree
        decode = enumeration.prufer_decode
        wrong = LabeledTree(4, ((1, 2),) * 3)

        def bad_decode(n: int, symbols: tuple[int, ...]) -> LabeledTree:
            return wrong if (n, symbols) == (4, (1, 1)) else decode(n, symbols)

        monkeypatch.setattr(enumeration, "prufer_decode", bad_decode)
        report = verify_prufer_roundtrip(4)
        assert report.checked == 2 * (1 + 3 + 16)
        star = LabeledTree(4, ((1, 2), (1, 3), (1, 4)))
        refusal = "NotATree: the edges do not form a tree on 4 vertices"
        assert report.failures == (
            Failure("n=4,s=(1, 1)", (1, 1), refusal),
            Failure(f"n=4,t={star.edges}", star, wrong),
        )
        # the CLI reports the FAIL, exit 1, where the refusal was exit 2
        out = io.StringIO()
        assert main(["verify", "roundtrip", "--max-n", "4"], stdout=out, stderr=out) == 1
        assert "n=4,s=(1, 1): expected (1, 1), got NotATree" in out.getvalue()

    def test_prufer_roundtrip_reports_a_refused_encode(self, monkeypatch):
        # the encode refuses the star at vertex 1 on 6 vertices, a swept
        # tree paired with its word: both cases fail with the refusal
        encode = enumeration.prufer_encode
        star = LabeledTree(6, tuple((1, v) for v in range(2, 7)))

        def refusing(tree: LabeledTree) -> tuple[int, ...]:
            if tree == star:
                raise NotATree("refused")
            return encode(tree)

        monkeypatch.setattr(enumeration, "prufer_encode", refusing)
        report = verify_prufer_roundtrip(6)
        assert report.checked == 2 * sum(m ** (m - 2) for m in range(2, 7))
        assert [f.to_record() for f in report.failures] == [
            {"parameters": "n=6,s=(1, 1, 1, 1)", "expected": "(1, 1, 1, 1)",
             "got": "NotATree: refused"},
            {"parameters": f"n=6,t={star.edges}", "expected": repr(star),
             "got": "NotATree: refused"},
        ]

    @pytest.mark.parametrize("change", ["one too few", "one too many"])
    def test_prufer_roundtrip_counts_the_trees(self, monkeypatch, change):
        # the sweep's trees are paired with the words in order: one tree
        # dropped at the front unpairs them all, and one added at the end
        # is checked alone; either way the count fails, with no traceback
        n = 6
        real = enumeration.enumerate_all_trees

        def trees(m: int):
            stream = real(m)
            if m != n:
                return stream
            if change == "one too few":
                return islice(stream, 1, None)
            return chain(stream, islice(real(m), 1))  # the first tree again

        monkeypatch.setattr(enumeration, "enumerate_all_trees", trees)
        report = verify_prufer_roundtrip(n)
        got = n ** (n - 2) + (1 if change == "one too many" else -1)
        assert report.failures == (Failure(f"n={n},trees", n ** (n - 2), got),)

    def test_prufer_roundtrip_fault_on_the_first_pair_only(self, monkeypatch):
        # the encode gives the one tree on 2 vertices a symbol: the empty
        # word's side fails with it, and the tree's side with the decode's
        # refusal of a word too long for n = 2; every other pair passes
        encode = enumeration.prufer_encode
        edge = LabeledTree(2, ((1, 2),))

        def broken(tree: LabeledTree) -> tuple[int, ...]:
            return (2,) if tree == edge else encode(tree)

        monkeypatch.setattr(enumeration, "prufer_encode", broken)
        report = verify_prufer_roundtrip(5)
        assert report.checked == 2 * (1 + 3 + 16 + 125)
        assert report.failures == (
            Failure("n=2,s=()", (), (2,)),
            Failure("n=2,t=((1, 2),)", edge, "OutOfRange: need a word of length 0 for n=2, got length 1"),
        )

    def test_prufer_roundtrip_fault_on_the_last_pair_only(self, monkeypatch):
        # the decode gives the star at 6 for the last word on 7 vertices,
        # the star at 7's: both sides of the last pair fail, and no other
        decode = enumeration.prufer_decode
        last = (7,) * 5
        star6 = LabeledTree(7, ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6), (6, 7)))
        star7 = LabeledTree(7, tuple((v, 7) for v in range(1, 7)))

        def broken(n: int, symbols: tuple[int, ...]) -> LabeledTree:
            return star6 if (n, symbols) == (7, last) else decode(n, symbols)

        monkeypatch.setattr(enumeration, "prufer_decode", broken)
        report = verify_prufer_roundtrip(7)
        assert report.checked == 2 * sum(m ** (m - 2) for m in range(2, 8))
        assert report.failures == (
            Failure(f"n=7,s={last}", last, (6,) * 5),
            Failure(f"n=7,t={star7.edges}", star7, star6),
        )

    def test_prufer_roundtrip_calls_the_codec_once_each_way_per_swept_word(self, monkeypatch):
        calls = {"decode": 0, "encode": 0}
        decode, encode = enumeration.prufer_decode, enumeration.prufer_encode

        def counted_decode(n: int, symbols: tuple[int, ...]) -> LabeledTree:
            calls["decode"] += 1
            return decode(n, symbols)

        def counted_encode(tree: LabeledTree) -> tuple[int, ...]:
            calls["encode"] += 1
            return encode(tree)

        monkeypatch.setattr(enumeration, "prufer_decode", counted_decode)
        monkeypatch.setattr(enumeration, "prufer_encode", counted_encode)
        assert verify_prufer_roundtrip(7).status == "PASS"
        swept = sum(m ** (m - 2) for m in range(2, 8))
        assert calls == {"decode": swept, "encode": swept}

    def test_lemma1_brute_force_leg_reads_the_histogram(self, monkeypatch):
        real = enumeration.deg_v1_histogram

        def moved(n: int) -> dict[int, int]:
            hist = real(n)
            if n == 6:  # one tree from k = 1 to k = 2
                hist[1] -= 1
                hist[2] += 1
            return hist

        monkeypatch.setattr(enumeration, "deg_v1_histogram", moved)
        report = verify_lemma1(6)
        assert report.checked == sum(range(1, 6))
        assert [(f.parameters, f.expected, f.got) for f in report.failures] == [
            ("n=6,k=1,brute force", 625, 624),
            ("n=6,k=2,brute force", 500, 501),
        ]


class TestVerifyAll:
    def test_all_pass_small(self):
        reports = verify_all(SMALL_LIMITS)
        assert [r.identity_id for r in reports] == list(IDENTITY_IDS)
        assert all(r.status == "PASS" for r in reports)
        assert all(r.checked > 0 for r in reports)

    def test_default_limits_cover_all_ids(self):
        assert set(DEFAULT_LIMITS) == set(IDENTITY_IDS)

    def test_cap_exceeded_entry_does_not_abort(self):
        limits = dict(SMALL_LIMITS)
        limits["THEOREM_1"] = 99
        reports = verify_all(limits)
        assert len(reports) == len(IDENTITY_IDS)
        by_id = {r.identity_id: r for r in reports}
        assert by_id["THEOREM_1"].status == "FAIL"
        assert "CapExceeded" in str(by_id["THEOREM_1"].failures[0].got)
        others = [r for r in reports if r.identity_id != "THEOREM_1"]
        assert all(r.status == "PASS" for r in others)

    def test_work_caps_are_capped_entries(self):
        limits = dict(SMALL_LIMITS, EQ_20_RECURSION=EQ_20_CAP + 1, LEMMA_1=LEMMA_1_CAP + 1)
        by_id = {r.identity_id: r for r in verify_all(limits)}
        for identity_id, name, cap in (
            ("EQ_20_RECURSION", "EQ_20", EQ_20_CAP),
            ("LEMMA_1", "LEMMA_1", LEMMA_1_CAP),
        ):
            report = by_id[identity_id]
            assert report.checked == 0
            assert [f.to_record() for f in report.failures] == [
                {
                    "parameters": f"limit={cap + 1}",
                    "expected": "limit within work cap",
                    "got": f"CapExceeded: n_max={cap + 1} beyond the {name} work cap {cap}",
                }
            ]

    def test_grid_work_caps_are_capped_entries(self):
        # the grids of L3 and SUPERVERTEX grow about as m_max^5; the
        # default grids of the two totals checks reach 30
        assert L3_CAP >= 14 and SUPERVERTEX_CAP >= 14 and TOTALS_CAP >= 30
        limits = dict(
            SMALL_LIMITS,
            L3_EXPANSION=L3_CAP + 1,
            SUPERVERTEX_MARGINAL=SUPERVERTEX_CAP + 1,
            DEG_V1_TOTALITY=TOTALS_CAP + 1,
            BINOMIAL_COLLAPSE=TOTALS_CAP + 1,
        )
        by_id = {r.identity_id: r for r in verify_all(limits)}
        for identity_id, top, name, cap in (
            ("L3_EXPANSION", "m_max", "L3", L3_CAP),
            ("SUPERVERTEX_MARGINAL", "m_max", "SUPERVERTEX", SUPERVERTEX_CAP),
            ("DEG_V1_TOTALITY", "n_max", "DEG_V1_TOTALITY", TOTALS_CAP),
            ("BINOMIAL_COLLAPSE", "n_max", "BINOMIAL_COLLAPSE", TOTALS_CAP),
        ):
            report = by_id[identity_id]
            assert report.capped
            assert [f.to_record() for f in report.failures] == [
                {
                    "parameters": f"limit={cap + 1}",
                    "expected": "limit within work cap",
                    "got": f"CapExceeded: {top}={cap + 1} beyond the {name} work cap {cap}",
                }
            ]
        for check, cap in (
            (verify_l3_expansion, L3_CAP),
            (verify_supervertex_marginal, SUPERVERTEX_CAP),
            (verify_deg_v1_totality, TOTALS_CAP),
            (verify_binomial_collapse, TOTALS_CAP),
        ):
            with pytest.raises(CapExceeded) as info:
                check(cap + 1)
            assert info.value.kind.endswith(" work")

    def test_only_capped_entries_are_capped(self):
        limits = dict(SMALL_LIMITS, THEOREM_1=10, EQ_20_RECURSION=EQ_20_CAP + 1)
        capped = {r.identity_id for r in verify_all(limits) if r.capped}
        assert capped == {"THEOREM_1", "EQ_20_RECURSION"}
        failing = verify_binomial_collapse(4, collapse=lambda n: n)
        assert failing.failures and not failing.capped

    def test_enumeration_caps_keep_their_label(self):
        limits = dict(SMALL_LIMITS, THEOREM_1=10, DOUBLE_COUNT_PAIRS=7, PRUFER_ROUNDTRIP=10)
        by_id = {r.identity_id: r for r in verify_all(limits)}
        for identity_id, got in (
            ("THEOREM_1", "n_max=10 beyond the sweep cap 9"),
            ("DOUBLE_COUNT_PAIRS", "m_max=7 beyond the pair cap 6"),
            ("PRUFER_ROUNDTRIP", "n_max=10 beyond the sweep cap 9"),
        ):
            limit = got.split()[0].split("=")[1]
            assert [f.to_record() for f in by_id[identity_id].failures] == [
                {
                    "parameters": f"limit={limit}",
                    "expected": "limit within enumeration cap",
                    "got": f"CapExceeded: {got}",
                }
            ]

    def test_deterministic_modulo_elapsed(self):
        strip = lambda rec: {k: v for k, v in rec.items() if k != "elapsed_ms"}
        first = [strip(r.to_record()) for r in verify_all(SMALL_LIMITS)]
        second = [strip(r.to_record()) for r in verify_all(SMALL_LIMITS)]
        assert first == second


class TestReportSerialization:
    def test_record_schema(self):
        record = verify_lemma1(3).to_record()
        assert set(record) == {"identity_id", "status", "checked", "failures", "elapsed_ms"}
        assert record["identity_id"] == "LEMMA_1"
        assert record["status"] == "PASS"
        assert isinstance(record["checked"], int)
        assert record["failures"] == []
        assert isinstance(record["elapsed_ms"], int)
        json.dumps(record)

    def test_failure_record_uses_decimal_strings(self):
        report = verify_binomial_collapse(25, collapse=lambda n: 1)
        record = report.to_record()
        assert record["status"] == "FAIL"
        entry = record["failures"][0]
        assert set(entry) == {"parameters", "expected", "got"}
        # n=2 passes by accident (collapse really is 1); n=3 is the first miss
        assert entry["parameters"] == "n=3"
        assert entry["expected"] == str(counting.count_total_trees(3))
        assert record["failures"][-1]["expected"] == str(counting.count_total_trees(25))
        json.dumps(record)

    def test_failure_record_beyond_digit_limit(self):
        report = verify_binomial_collapse(3, collapse=lambda n: -(10**5000))
        entry = report.to_record()["failures"][0]
        assert entry == {"parameters": "n=2", "expected": "1", "got": "-1" + "0" * 5000}

    def test_pass_iff_no_failures(self):
        good = verify_lemma1(3)
        assert good.status == "PASS" and not good.failures
        bad = verify_lemma1(3, lhs=lambda n, k: -1)
        assert bad.status == "FAIL" and bad.failures

    def test_records_print_and_freeze_as_before(self):
        failure = Failure("n=2", 1, 2)
        report = IdentityReport("X", 3, (failure,), 0.0125)
        assert repr(failure) == "Failure(parameters='n=2', expected=1, got=2)"
        assert repr(report) == (
            "IdentityReport(identity_id='X', checked=3, failures=("
            "Failure(parameters='n=2', expected=1, got=2),), elapsed=0.0125)"
        )
        for record, field in ((failure, "got"), (report, "checked")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        assert (report.status, report.elapsed_ms, report.capped) == ("FAIL", 12, False)
        assert report.to_record() == {
            "identity_id": "X",
            "status": "FAIL",
            "checked": 3,
            "failures": [{"parameters": "n=2", "expected": "1", "got": "2"}],
            "elapsed_ms": 12,
        }

    def test_records_are_tuples_of_their_fields(self):
        failure = Failure("n=2", 1, 2)
        parameters, expected, got = failure
        assert (parameters, expected, got, failure[2]) == ("n=2", 1, 2, 2)
        assert failure == ("n=2", 1, 2)
