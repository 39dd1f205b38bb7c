"""Golden-file tests for the command line interface and its exit codes."""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, islice, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecount
import oracles
from oracles import parse_decimal
from strategies import edge_texts, prufer_texts
from treecount import cli, core, counting, enumeration, sampling, verifier
from treecount.cli import _verify_exit, main
from treecount.core import (
    LabeledTree,
    degree_of,
    read_prufer_lines,
    read_trees,
    tree_degrees,
    tree_to_text,
)

STAR_TEXT = "n 4\n1 4\n2 4\n3 4\n"
TOP_USAGE = "usage: treecount [-h] {count,enumerate,prufer,sample,verify} ..."


def run_cli(argv, stdin_text: str = ""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestCount:
    def test_total(self):
        assert run_cli(["count", "total", "-n", "4"]) == (0, "16\n", "")

    def test_degrees(self):
        assert run_cli(["count", "degrees", "-d", "2,2,1,1"]) == (0, "2\n", "")

    def test_degv1(self):
        assert run_cli(["count", "degv1", "-n", "2", "-k", "1"]) == (0, "1\n", "")

    def test_json(self):
        code, out, _ = run_cli(["count", "total", "-n", "9", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"subject": "total", "n": 9, "count": "4782969"}

    def test_csv(self):
        assert run_cli(["count", "total", "-n", "4", "--format", "csv"])[1] == "count\n16\n"

    def test_validation_exit_2(self):
        code, _, err = run_cli(["count", "degrees", "-d", "2,x"])
        assert code == 2 and err.startswith("treecount:")
        code, _, err = run_cli(["count", "degrees", "-d", "1,2"])
        assert code == 2 and "degree sum" in err
        assert run_cli(["count", "degrees", "-d", "0,2"]) == (
            2,
            "",
            "treecount: degrees must be positive: (0, 2)\n",
        )
        code, _, err = run_cli(["count", "total"])
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        assert run_cli(["count", "nonsense"]) == (2, "", "")
        assert capsys.readouterr().err.startswith("usage: treecount count ")
        # an argument no parser takes is reported by the top-level parser
        assert run_cli(["count", "total", "-n", "5", "--bogus"]) == (2, "", "")
        err = capsys.readouterr().err.splitlines()
        assert err == [TOP_USAGE, "treecount: error: unrecognized arguments: --bogus"]
        # so does a value joined to a flag
        assert run_cli(["enumerate", "-n", "3", "--count=x"]) == (2, "", "")
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: treecount enumerate [-h] -n N")
        assert err[-1] == "treecount enumerate: error: argument --count: ignored explicit argument 'x'"

    def test_size_cap_exit_3(self):
        cap = cli.COUNT_N_CAP
        # the exact workload of the benchmark counts at n <= 2000
        assert cap >= 2000
        refused = (3, "", f"treecount: n={cap + 1} beyond the count cap {cap}\n")
        path = ",".join(["1"] + ["2"] * (cap - 1) + ["1"])
        for argv in (
            ["count", "total", "-n", str(cap + 1)],
            ["count", "degv1", "-n", str(cap + 1), "-k", "2"],
            ["count", "degrees", "-d", path, "--format", "json"],
        ):
            assert run_cli(argv) == refused, argv[:2]

    @pytest.mark.parametrize("n", [1500, 2000])
    @pytest.mark.parametrize("subject", ["total", "degv1"])
    def test_counts_beyond_digit_limit_print_in_full(self, n, subject):
        # n^(n-2) has more than 4300 digits from n = 1400 on
        if subject == "total":
            argv, value = ["-n", str(n)], counting.count_total_trees(n)
        else:
            argv, value = ["-n", str(n), "-k", "1"], counting.count_trees_deg_v1(n, 1)
        code, out, err = run_cli(["count", subject, *argv])
        assert (code, err) == (0, "")
        assert out.endswith("\n") and parse_decimal(out[:-1]) == value
        code, csv_out, _ = run_cli(["count", subject, *argv, "--format", "csv"])
        assert code == 0 and csv_out == "count\n" + out
        code, json_out, _ = run_cli(["count", subject, *argv, "--format", "json"])
        assert code == 0 and json_out.count("\n") == 1
        assert json.loads(json_out)["count"] == out[:-1]


class TestEnumerate:
    def test_prufer_format(self):
        assert run_cli(["enumerate", "-n", "3", "--format", "prufer"]) == (
            0,
            "1\n2\n3\n",
            "",
        )

    def test_single_edge(self):
        assert run_cli(["enumerate", "-n", "2"]) == (0, "n 2\n1 2\n", "")

    def test_degree_filter(self):
        assert run_cli(["enumerate", "-n", "4", "--degrees", "1,1,1,3"]) == (
            0,
            STAR_TEXT,
            "",
        )

    def test_deg_v1_filter(self):
        code, out, _ = run_cli(
            ["enumerate", "-n", "4", "--deg-v1", "3", "--format", "prufer"]
        )
        assert code == 0 and out == "1,1\n"

    def test_count_line(self):
        code, out, _ = run_cli(["enumerate", "-n", "4", "--format", "prufer", "--count"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "count 16" and len(lines) == 17

    def test_limit_truncates_cleanly(self):
        code, out, _ = run_cli(
            ["enumerate", "-n", "5", "--format", "prufer", "--limit", "3", "--count"]
        )
        assert code == 0
        assert out == "1,1,1\n1,1,2\n1,1,3\ncount 3\n"

    @pytest.mark.parametrize("fmt", ["edges", "prufer", "json", "csv"])
    def test_limit_pulls_no_tree_past_it(self, monkeypatch, fmt):
        # the tree formats are written from the sweep's edge masks
        # (enumeration._sweep_chunks), which pulls no word and composes no
        # row past the limit at any level; the prufer format from shared
        # texts of the words' prefixes and suffixes (cli._word_texts), none
        # of them past the limit
        argv = ["enumerate", "-n", "6", "--format", fmt, "--limit", "3", "--count"]
        expected = run_cli(argv)
        assert expected[0] == 0
        first_three = list(enumeration.enumerate_sequences(6))[:3]
        pulled, built = [], []

        def noting(items):
            for item in items:
                pulled.append(item)
                yield item

        if fmt == "prufer":
            word_texts = cli._word_texts
            formatted = lambda n, f, words: word_texts(n, f, noting(words))  # noqa: E731
            monkeypatch.setattr(cli, "_word_texts", formatted)
        else:
            compose = enumeration._compose

            def composing(*args):
                sets, masks = compose(*args)
                built.append(len(masks))
                return sets, masks

            monkeypatch.setattr(enumeration, "product", lambda *a, **k: noting(product(*a, **k)))
            monkeypatch.setattr(enumeration, "_compose", composing)
        assert run_cli(argv) == expected
        if fmt == "prufer":
            # the suffixes of the three words, then their one prefix
            assert pulled == [w[2:] for w in first_three] + [first_three[0][:2]]
        else:
            # level 1 a row in each of blocks 1..3, then levels 2, 3 and 4,
            # the words, three rows in block 1
            assert pulled == [] and built == [1, 1, 1, 3, 3, 3]

    def test_deg_v1_reads_the_composed_ones_once(self, monkeypatch):
        # the words kept are selected by enumeration's count of 1s of every
        # word, made once, not by a count in the CLI
        argv = ["enumerate", "-n", "6", "--deg-v1", "2"]
        expected = run_cli(argv)
        ones, calls = enumeration._ones_per_word, []
        monkeypatch.setattr(enumeration, "_ones_per_word", lambda n: calls.append(n) or ones(n))
        assert run_cli(argv) == expected and calls == [6]

    @pytest.mark.parametrize("fmt", ["edges", "prufer", "json", "csv"])
    def test_deg_v1_limit_pulls_no_word_past_it(self, monkeypatch, fmt):
        argv = ["enumerate", "-n", "6", "--deg-v1", "2", "--format", fmt, "--limit", "3", "--count"]
        expected = run_cli(argv)
        assert expected[0] == 0
        words = list(enumeration.enumerate_sequences(6))
        third = [i for i, w in enumerate(words) if w.count(1) == 1][2]
        pulled = []

        def noting(*args, **kwargs):
            for word in product(*args, **kwargs):
                pulled.append(word)
                yield word

        monkeypatch.setattr(enumeration, "product", noting)
        assert run_cli(argv) == expected
        assert pulled == words[: third + 1]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_plain_prufer_chunks_are_the_word_texts(self, n):
        # the shared texts of cli._plain_chunks against each word's own
        # line, at stops either side of the n^(n-3) words of a first symbol
        # and unlimited (at n = 9 a limit past two first symbols); at n <= 4
        # a word is all prefix, with no rest, and each line is its prefix's
        run = n ** max(n - 3, 0)
        for stop in (0, 1, 7, run - 1, run + 1, sys.maxsize if n < 9 else 2 * run + 3):
            chunks = list(cli._plain_chunks(n, "prufer", stop))
            want = list(cli._word_texts(n, "text", islice(enumeration.enumerate_sequences(n), stop)))
            assert "".join(text for _, text in chunks) == "".join(want), stop
            assert sum(number for number, _ in chunks) == len(want), stop

    def test_json_records_parse(self):
        code, out, _ = run_cli(["enumerate", "-n", "3", "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"n": 3, "edges": [[1, 2], [1, 3]]}
        assert len(records) == 3

    def test_csv(self):
        code, out, _ = run_cli(["enumerate", "-n", "3", "--format", "csv"])
        assert out.splitlines()[0] == "tree,u,v"
        assert "0,1,2" in out

    def test_single_vertex(self):
        assert run_cli(["enumerate", "-n", "1"]) == (0, "n 1\n", "")

    def test_single_vertex_prufer_refused(self):
        # a one-vertex tree has no sequence; an empty line would read back as n = 2
        refused = (2, "", "treecount: encoding needs at least 2 vertices\n")
        assert run_cli(["enumerate", "-n", "1", "--format", "prufer"]) == refused
        assert run_cli(["enumerate", "-n", "1", "--format", "prufer", "--count"]) == refused
        argv = ["enumerate", "-n", "1", "--format", "prufer", "--limit", "0", "--count"]
        assert run_cli(argv) == refused
        assert run_cli(["prufer", "encode"], "n 1\n") == refused

    def test_negative_limit_exit_2(self):
        for fmt in ("edges", "csv"):
            assert run_cli(["enumerate", "-n", "3", "--format", fmt, "--limit", "-1"]) == (
                2,
                "",
                "treecount: --limit must be >= 0, got -1\n",
            )
        assert run_cli(["enumerate", "-n", "3", "--limit", "0", "--count"]) == (
            0,
            "count 0\n",
            "",
        )

    @pytest.mark.parametrize("fmt", ["edges", "prufer", "json", "csv"])
    def test_limit_beyond_maxsize_same_as_none(self, fmt):
        # islice takes no limit above sys.maxsize: the CLI clamps it
        unlimited = run_cli(["enumerate", "-n", "4", "--format", fmt, "--count"])
        assert unlimited[0] == 0
        limit = str(10**20)
        for spelling in (["--limit", limit], ["--limit=" + limit]):
            argv = ["enumerate", "-n", "4", "--format", fmt, *spelling, "--count"]
            assert run_cli(argv) == unlimited

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([-1, 0, 1, 2, 3, 5, 10, 10**30]),
        limit=st.sampled_from([-1, 0, 1, sys.maxsize, sys.maxsize + 1, 10**30]),
        deg_v1=st.none() | st.sampled_from([-1, 0, 1, 2, 4, 10**30]),
        fmt=st.sampled_from(["edges", "prufer", "json", "csv"]),
    )
    def test_any_size_ends_in_output_or_one_diagnostic(self, n, limit, deg_v1, fmt):
        argv = ["enumerate", "-n", str(n), "--limit", str(limit), "--format", fmt]
        argv += [] if deg_v1 is None else ["--deg-v1", str(deg_v1)]
        code, out, err = run_cli(argv)
        assert code in (0, 2, 3), argv
        if code:
            assert out == "" and err.startswith("treecount: ") and err.count("\n") == 1, argv
        else:
            assert err == "", argv

    def test_cap_exit_3(self):
        code, _, err = run_cli(["enumerate", "-n", "12"])
        assert code == 3 and "cap" in err

    def test_degree_length_mismatch_exit_2(self):
        code, _, _ = run_cli(["enumerate", "-n", "4", "--degrees", "1,1"])
        assert code == 2
        assert run_cli(["enumerate", "-n", "5", "--degrees", "2,2,1,1"]) == (
            2,
            "",
            "treecount: --degrees lists 4 vertices but -n is 5\n",
        )
        # the length is compared before the vector is validated, whose
        # diagnostic would name the vector's length as n
        assert run_cli(["enumerate", "-n", "3", "--degrees", "1,1,1,1"]) == (
            2,
            "",
            "treecount: --degrees lists 4 vertices but -n is 3\n",
        )
        assert run_cli(["enumerate", "-n", "3", "--degrees", "2,1"]) == (
            2,
            "",
            "treecount: --degrees lists 2 vertices but -n is 3\n",
        )
        # a vector of the right length is validated as before
        assert run_cli(["enumerate", "-n", "3", "--degrees", "2,2,1"]) == (
            2,
            "",
            "treecount: degree sum must be 4 for n=3, got 5\n",
        )

    def test_bad_deg_v1_exit_2(self):
        assert run_cli(["enumerate", "-n", "4", "--deg-v1", "5"]) == (
            2,
            "",
            "treecount: --deg-v1 must lie in 1..3, got 5\n",
        )

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_deg_v1_below_two_vertices_exit_2(self, n):
        # no k lies in 1..n-1 here: the diagnostic names n, not an empty range
        for k in ("0", "1"):
            assert run_cli(["enumerate", "-n", str(n), "--deg-v1", k]) == (
                2,
                "",
                f"treecount: --deg-v1 needs n >= 2, got n={n}\n",
            )


class TestPrufer:
    def test_encode_path(self):
        assert run_cli(["prufer", "encode"], "n 3\n1 2\n2 3\n") == (0, "2\n", "")

    def test_decode_star(self):
        assert run_cli(["prufer", "decode"], "4,4\n") == (0, STAR_TEXT, "")

    def test_encode_single_edge_gives_empty_line(self):
        assert run_cli(["prufer", "encode"], "n 2\n1 2\n") == (0, "\n", "")

    def test_round_trip_through_text(self):
        _, encoded, _ = run_cli(["prufer", "encode"], STAR_TEXT + "n 3\n1 2\n2 3\n")
        _, decoded, _ = run_cli(["prufer", "decode"], encoded)
        assert decoded == STAR_TEXT + "n 3\n1 2\n2 3\n"

    def test_malformed_input_names_line(self):
        code, _, err = run_cli(["prufer", "encode"], "n 3\n1 2\nbogus line\n")
        assert code == 2 and "line 3" in err

    def test_decode_bad_symbol_names_line(self):
        code, _, err = run_cli(["prufer", "decode"], "4,4\n7,1\n")
        assert code == 2 and "line 2" in err

    def test_encode_bad_record_prints_nothing(self):
        assert run_cli(["prufer", "encode"], "n 3\n1 2\n2 3\nn 1\n") == (
            2,
            "",
            "treecount: encoding needs at least 2 vertices\n",
        )

    def test_decode_bad_record_prints_nothing(self):
        for fmt in ("text", "json"):
            assert run_cli(["prufer", "decode", "--format", fmt], "4,4\n7,1\n") == (
                2,
                "",
                "treecount: line 2: symbol 7 outside 1..4\n",
            )

    def test_encode_json(self):
        code, out, _ = run_cli(["prufer", "encode", "--format", "json"], STAR_TEXT)
        assert code == 0
        assert json.loads(out) == {"n": 4, "symbols": [4, 4]}

    def test_encode_json_takes_n_from_each_tree(self):
        edges = STAR_TEXT + "n 2\n1 2\n" + "n 3\n1 2\n2 3\n"
        assert run_cli(["prufer", "encode", "--format", "json"], edges) == (
            0,
            '{"n": 4, "symbols": [4, 4]}\n{"n": 2, "symbols": []}\n{"n": 3, "symbols": [2]}\n',
            "",
        )

    def test_decode_blank_line_and_spaced_symbols(self):
        # a blank line is the word of the edge on 2 vertices; spaces around
        # the symbols are ignored
        words = "4,4\n\n 2 , 3 \n"
        text = STAR_TEXT + "n 2\n1 2\n" + "n 4\n1 2\n2 3\n3 4\n"
        assert run_cli(["prufer", "decode"], words) == (0, text, "")
        as_json = (
            '{"n": 4, "edges": [[1, 4], [2, 4], [3, 4]]}\n'
            '{"n": 2, "edges": [[1, 2]]}\n'
            '{"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}\n'
        )
        assert run_cli(["prufer", "decode", "--format", "json"], words) == (0, as_json, "")

    @settings(max_examples=300, deadline=None)
    @given(text=prufer_texts(), fmt=st.sampled_from(["text", "json"]))
    def test_decode_same_as_line_reader(self, text, fmt):
        argv = ["prufer", "decode", "--format", fmt]
        assert run_cli(argv, text) == oracles.prufer_decode_output(text, fmt)

    def test_decode_empty_symbol_prints_nothing(self):
        assert run_cli(["prufer", "decode"], "4,4\n1,,2\n") == (
            2,
            "",
            "treecount: line 2: symbols must be comma-separated integers\n",
        )


class TestSample:
    def test_n2_fixed_stream(self):
        assert run_cli(["sample", "-n", "2", "--count", "3", "--seed", "7"]) == (
            0,
            "n 2\n1 2\n" * 3,
            "",
        )

    def test_degree_constrained_star(self):
        code, out, _ = run_cli(
            ["sample", "--degrees", "1,1,1,3", "--count", "2", "--seed", "1"]
        )
        assert code == 0 and out == STAR_TEXT * 2

    def test_reproducible_byte_exact(self):
        first = run_cli(["sample", "-n", "4", "--count", "5", "--seed", "42"])
        second = run_cli(["sample", "-n", "4", "--count", "5", "--seed", "42"])
        assert first == second and first[0] == 0

    def test_different_seeds_differ(self):
        a = run_cli(["sample", "-n", "6", "--count", "10", "--seed", "1"])[1]
        b = run_cli(["sample", "-n", "6", "--count", "10", "--seed", "2"])[1]
        assert a != b

    def test_prufer_format(self):
        code, out, _ = run_cli(
            ["sample", "-n", "5", "--count", "4", "--seed", "9", "--format", "prufer"]
        )
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_json_format(self):
        code, out, _ = run_cli(
            ["sample", "-n", "4", "--count", "3", "--seed", "0", "--format", "json"]
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3 and all(r["n"] == 4 for r in records)

    def test_requires_target(self, capsys):
        assert run_cli(["sample", "--count", "2"]) == (2, "", "")
        err = capsys.readouterr().err
        assert err.startswith("usage: treecount sample ")
        assert err.endswith("error: one of the arguments -n --degrees is required\n")

    def test_validation_exit_2(self):
        assert run_cli(["sample", "--degrees", "1,2", "--count", "1"])[0] == 2
        assert run_cli(["sample", "--degrees", "1,2"]) == (
            2,
            "",
            "treecount: degree sum must be 2 for n=2, got 3\n",
        )

    def test_single_vertex_prufer_refused(self):
        assert run_cli(["sample", "-n", "1", "--count", "3", "--format", "prufer"]) == (
            2,
            "",
            "treecount: encoding needs at least 2 vertices\n",
        )
        assert run_cli(["sample", "-n", "1", "--count", "0", "--format", "prufer"]) == (
            2,
            "",
            "treecount: encoding needs at least 2 vertices\n",
        )
        assert run_cli(["sample", "-n", "1", "--count", "2"]) == (0, "n 1\n" * 2, "")

    def test_size_cap_exit_3(self):
        cap = sampling.SAMPLE_N_CAP

        def refused(n):
            return 3, "", f"treecount: n={n} beyond the sample cap {cap}\n"

        assert run_cli(["sample", "-n", str(cap + 1)]) == refused(cap + 1)
        assert run_cli(["sample", "-n", str(10**8), "--format", "prufer"]) == refused(10**8)
        # a valid degree vector on cap + 1 vertices: a path
        path = ",".join(["1"] + ["2"] * (cap - 1) + ["1"])
        assert run_cli(["sample", "--degrees", path, "--count", "0"]) == refused(cap + 1)
        assert run_cli(["sample", "-n", str(cap), "--count", "0"]) == (0, "", "")


class TestVerify:
    def test_all_max_n_6_json(self):
        code, out, _ = run_cli(["verify", "all", "--max-n", "6", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "PASS"
        assert len(doc["reports"]) == 9
        for record in doc["reports"]:
            assert set(record) == {
                "identity_id",
                "status",
                "checked",
                "failures",
                "elapsed_ms",
            }
            assert record["status"] == "PASS"
            assert record["failures"] == []

    def test_lemma1_single_pass_row(self):
        code, out, _ = run_cli(["verify", "lemma1", "--max-n", "2"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("LEMMA_1") and "PASS" in lines[1]

    def test_fault_injected_build_fails(self, monkeypatch):
        def broken(d):
            return 0

        monkeypatch.setattr(counting, "count_trees_with_degrees", broken)
        code, out, _ = run_cli(["verify", "theorem1", "--max-n", "3"])
        assert code == 1
        assert "counterexamples:" in out
        assert "THEOREM_1 n=2,d=1,1: expected 1, got 0" in out

    def test_huge_counterexample_prints_in_full(self, monkeypatch):
        huge = 7**9000  # 7606 digits
        monkeypatch.setattr(counting, "binomial_collapse", lambda n: huge)
        code, out, err = run_cli(["verify", "collapse", "--max-n", "3"])
        assert (code, err) == (1, "")
        line = out.splitlines()[-1]
        assert line.startswith("  BINOMIAL_COLLAPSE n=3: expected 3, got ")
        assert parse_decimal(line.rsplit(" ", 1)[1]) == huge
        code, out, _ = run_cli(["verify", "collapse", "--max-n", "3", "--json"])
        assert code == 1
        failures = json.loads(out)["reports"][0]["failures"]
        assert [parse_decimal(f["got"]) for f in failures] == [huge, huge]

    def test_over_cap_single_subject_exit_3(self):
        code, _, err = run_cli(["verify", "theorem1", "--max-n", "12"])
        assert code == 3 and "cap" in err

    def test_over_work_cap_single_subject_exit_3(self):
        for subject, cap, name in (
            ("recursion", verifier.EQ_20_CAP, "EQ_20"),
            ("lemma1", verifier.LEMMA_1_CAP, "LEMMA_1"),
            ("degv1", verifier.TOTALS_CAP, "DEG_V1_TOTALITY"),
            ("collapse", verifier.TOTALS_CAP, "BINOMIAL_COLLAPSE"),
        ):
            assert run_cli(["verify", subject, "--max-n", str(cap + 1)]) == (
                3,
                "",
                f"treecount: n_max={cap + 1} beyond the {name} work cap {cap}\n",
            )

    def test_over_grid_work_cap_single_subject_exit_3(self):
        for subject, cap, name in (
            ("l3", verifier.L3_CAP, "L3"),
            ("supervertex", verifier.SUPERVERTEX_CAP, "SUPERVERTEX"),
        ):
            assert run_cli(["verify", subject, "--max-n", str(cap + 1)]) == (
                3,
                "",
                f"treecount: m_max={cap + 1} beyond the {name} work cap {cap}\n",
            )

    def test_over_cap_inside_all_exit_3(self):
        code, out, _ = run_cli(["verify", "all", "--max-n", "8"])
        # theorem1 accepts 8, but double-count caps at 6
        assert code == 3
        assert "CapExceeded" in out

    def test_exit_code_reads_no_failure_text(self):
        def report(checked, got):
            failure = verifier.Failure("n=2", 1, got)
            return verifier.IdentityReport("X", checked, (failure,), 0.0)

        # a mismatch whose value happens to read like a cap message is a mismatch
        assert _verify_exit([report(1, "CapExceeded: n=10 beyond the sweep cap 9")]) == 1
        assert _verify_exit([report(0, "anything")]) == 3
        assert _verify_exit([report(0, "anything"), report(1, 2)]) == 1

    def test_environment_sets_no_max_n(self, monkeypatch):
        monkeypatch.setenv("TREECOUNT_VERIFY_MAX_N", "3")
        code, out, _ = run_cli(["verify", "lemma1", "--json"])
        doc = json.loads(out)
        # the default grid n <= 8 has sum(n - 1 for n = 2..8) = 28 cases
        assert code == 0 and doc["reports"][0]["checked"] == 28

    def test_bad_max_n_exit_2(self):
        assert run_cli(["verify", "lemma1", "--max-n", "1"])[0] == 2

    def test_format_json_alias(self):
        code, out, _ = run_cli(["verify", "collapse", "--max-n", "5", "--format", "json"])
        assert code == 0
        assert json.loads(out)["status"] == "PASS"


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli([]) == (2, "", "")
        err = capsys.readouterr().err.splitlines()
        assert err == [TOP_USAGE, "treecount: error: the following arguments are required: command"]

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"]) == (2, "", "")
        err = capsys.readouterr().err.splitlines()
        assert err[0] == TOP_USAGE and len(err) == 2
        assert err[1].startswith("treecount: error: argument command: invalid choice: 'frobnicate'")

    def test_argv_none_reads_sys_argv(self, monkeypatch):
        for argv in (["count", "total", "-n", "4"], ["count", "total", "-n", "x"]):
            monkeypatch.setattr(sys, "argv", ["treecount", *argv])
            assert _outcome(None) == _outcome(argv)
        assert _outcome(None)[0] == 2

    def test_no_parser_outlives_main(self):
        def parsers():
            gc.collect()
            return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())

        before = parsers()
        for argv in (["count", "total", "-n", "4"], ["count", "-h"], ["frobnicate"]):
            _outcome(argv)
        assert parsers() == before


def _outcome(argv, stdin_text: str = ""):
    """What main makes of argv: the exit code, what it writes to its stdout
    and stderr, and what argparse writes to sys.stdout and sys.stderr."""
    out, err, sys_out, sys_err = (io.StringIO() for _ in range(4))
    with redirect_stdout(sys_out), redirect_stderr(sys_err):
        code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue(), sys_out.getvalue(), sys_err.getvalue()


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


HELP_ARGV = [
    [*command, flag]
    for command in ([], *([name] for name in cli.COMMANDS))
    for flag in ("-h", "--help", "--he")
]

# argv on which main must act as if it parsed with the full parser alone
DIFFERENTIAL_ARGV = [
    ["count", "total", "-n", "5"],
    ["count", "degrees", "--degrees=2,2,1,1", "--form", "json"],
    ["count", "degv1", "-n", "6", "-k", "2", "--format=csv"],
    ["count", "degv1", "-n", "4", "-k", "-1"],
    ["count", "total", "-n", "-3"],
    ["count", "-n", "4", "--", "total"],
    ["enumerate", "-n", "4", "--lim", "3", "--count"],
    ["enumerate", "-n", "5", "--deg-v1", "2", "--format", "csv"],
    ["enumerate", "-n", "4", "--degrees", "1,1,1,3", "--form=json"],
    ["enumerate", "-n", "3", "--limit", "-1"],
    ["enumerate", "-n", "3", "--limit=-1"],
    ["enumerate", "-n", "4", "--degrees=-n"],
    ["enumerate", "-n", "3", "--count=x"],
    ["count", "degrees", "--degrees="],
    ["count", "total", "-n=5", "--format="],
    ["count", "total", "-n", "5", "--format=json=x"],
    ["count", "total", "-n", "5", "--=x"],
    ["sample", "-n", "6", "--count=2", "--seed=-7"],
    ["verify", "collapse", "--max-n=4", "--json=1"],
    ["prufer", "encode"],
    ["prufer", "decode", "--format", "json"],
    ["sample", "-n", "6", "--count", "3", "--seed", "-7"],
    ["sample", "--degrees", "1,1,1,3", "--format", "prufer"],
    ["verify", "collapse", "--max-n", "4"],
    ["verify", "lemma1", "--max-n", "3", "--json"],
    *HELP_ARGV,
    ["count"],
    ["count", "nonsense"],
    ["count", "total", "-n", "x"],
    ["enumerate"],
    ["enumerate", "-n", "4", "--degrees", "1,1,1,3", "--deg-v1", "2"],
    ["sample"],
    ["sample", "-n", "3", "--degrees", "1,2,1"],
    ["prufer"],
    ["verify", "all", "--max-n"],
    ["frobnicate"],
    ["--bogus", "count", "total", "-n", "5"],
    [],
    ["count", "total", "-n", "5", "--bogus"],
    ["count", "total", "-n", "5", "extra"],
    ["prufer", "encode", "decode"],
    ["count", "total", "-n", "5", "--", "--bogus"],
]

# each command's subjects, options that take a value, and flags; -d is an
# option of count alone
GRAMMAR = {
    "count": (("total", "degrees", "degv1"), ("-n", "-d", "--degrees", "-k", "--format", "--form"), ()),
    "enumerate": ((), ("-n", "-d", "--degrees", "--deg-v1", "--format", "--limit", "--lim"), ("--count",)),
    "prufer": (("encode", "decode"), ("--format",), ()),
    "sample": ((), ("-n", "-d", "--degrees", "--count", "--seed", "--format"), ()),
    "verify": (("all", *oracles.VERIFY_SUBJECTS), ("--max-n", "--format"), ("--json",)),
}
# ints int() takes and refuses, with and without spaces, one past the
# interpreter's digit limit, and an option string in place of a value
INTS = ("3", "-1", "0", "1_0", "\u0665", "x", "", " 5", "-5 ", "9" * 4400, "--count")
FORMATS = ("text", "json", "csv", "edges", "prufer", "table")
DEGREES = ("2,2,1,1", "1,1,2", "2,x", "", "-n")
VALUES = {"--format": FORMATS, "--form": FORMATS, "-d": DEGREES, "--degrees": DEGREES}
STRAYS = (
    "-h", "--help", "--he", "--", "--bogus", "--format=json", "--lim=2", "--count", "--json", "3",
    "-n5", "--seed=-7",
)


@st.composite
def argvs(draw):
    """Argv drawn from the tokens of the grammar: mostly a command, its
    subject, options with values, the value its own token or joined as
    "--opt=value", and flags, at times given a value as "--flag=x", at
    times with a stray token.  An option may be drawn more than once."""
    command = draw(st.sampled_from(list(GRAMMAR)))
    subjects, options, flags = GRAMMAR[command]
    argv = [command, draw(st.sampled_from(subjects))] if subjects else [command]
    for option in draw(st.lists(st.sampled_from(options + flags), max_size=3)):
        if option in flags:
            joined = draw(st.integers(0, 4)) == 0
            argv.append(option + "=" + draw(st.sampled_from(("x", "1"))) if joined else option)
            continue
        value = draw(st.sampled_from(VALUES.get(option, INTS)))
        argv += [f"{option}={value}"] if draw(st.integers(0, 4)) < 2 else [option, value]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAYS)))
    return argv


def _parse_outcome(parse_args, argv):
    """The namespace parse_args makes of argv, or the code it exits with,
    and what it writes to sys.stdout and sys.stderr."""
    sys_out, sys_err = io.StringIO(), io.StringIO()
    with redirect_stdout(sys_out), redirect_stderr(sys_err):
        try:
            result = vars(parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, sys_out.getvalue(), sys_err.getvalue()


class TestSingleCommandParser:
    """main reads argv in its plain form, "--opt=value" included, against
    the command table, with no argparse parser built, and hands any other
    argv to the full parser built from the same table: the namespace, the
    exit code and every byte written must be those of the full parser."""

    @pytest.mark.parametrize("argv", DIFFERENTIAL_ARGV, ids=" ".join)
    def test_same_as_full_parser(self, argv):
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_full_parse, argv)
        stdin_text = "4,4\n" if "decode" in argv else STAR_TEXT
        with mock.patch.object(cli, "_parse_args", _full_parse):
            expected = _outcome(argv, stdin_text)
        assert _outcome(argv, stdin_text) == expected

    @settings(max_examples=300, deadline=None)
    @given(argv=argvs())
    def test_same_namespace_as_full_parser(self, argv):
        # main dispatches the namespace the same way on both paths, so the
        # parse alone is compared
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_full_parse, argv)

    def test_plain_argv_builds_no_parser(self, capsys):
        def refuse(self, *args, **kwargs):
            raise AssertionError("an argparse parser was built")

        cases = [
            (["count", "total", "-n", "4"], "", "16\n"),
            (["enumerate", "-n", "3", "--format", "prufer"], "", "1\n2\n3\n"),
            (["prufer", "decode"], "4,4\n", STAR_TEXT),
            (["sample", "-n", "2", "--count", "3", "--seed", "7"], "", "n 2\n1 2\n" * 3),
            (
                ["count", "total", "-n", "12", "--format=json"],
                "",
                '{"subject": "total", "n": 12, "count": "61917364224"}\n',
            ),
            (
                ["sample", "-n", "6", "--count=2", "--seed=7"],
                "",
                "n 6\n1 3\n2 3\n2 4\n4 6\n5 6\nn 6\n1 2\n1 3\n1 5\n1 6\n4 5\n",
            ),
        ]
        with mock.patch.object(argparse.ArgumentParser, "__init__", refuse):
            for argv, stdin_text, expected in cases:
                assert run_cli(argv, stdin_text) == (0, expected, ""), argv
            code, out, err = run_cli(["verify", "lemma1", "--max-n", "2"])
        assert (code, err) == (0, "")
        assert [line.split()[:3] for line in out.splitlines()[1:]] == [["LEMMA_1", "PASS", "1"]]
        assert capsys.readouterr() == ("", "")
        # argv the table does not read still reaches argparse
        assert run_cli(["count", "total", "-n", "5", "--bogus"]) == (2, "", "")
        err = capsys.readouterr().err.splitlines()
        assert err == [TOP_USAGE, "treecount: error: unrecognized arguments: --bogus"]
        # so does a value joined to a flag
        assert run_cli(["enumerate", "-n", "3", "--count=x"]) == (2, "", "")
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: treecount enumerate [-h] -n N")
        assert err[-1] == "treecount enumerate: error: argument --count: ignored explicit argument 'x'"


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _reference_parse(argv):
    return oracles.reference_parser().parse_args(argv)


class TestReferenceParser:
    """The parser build_parser() makes from the command table is the one
    the add_argument calls of oracles.reference_parser make, as argparse
    of the running interpreter formats and applies it."""

    def test_same_help_and_usage(self):
        table, reference = cli.build_parser(), oracles.reference_parser()
        assert table.format_help() == reference.format_help()
        assert table.format_usage() == reference.format_usage()
        commands = _subparsers(table)
        assert list(commands) == list(_subparsers(reference)) == list(cli.COMMANDS)
        for name, parser in _subparsers(reference).items():
            assert commands[name].format_help() == parser.format_help(), name
            assert commands[name].format_usage() == parser.format_usage(), name

    @pytest.mark.parametrize("argv", DIFFERENTIAL_ARGV, ids=" ".join)
    def test_same_outcome(self, argv):
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_reference_parse, argv)

    @settings(max_examples=300, deadline=None)
    @given(argv=argvs())
    def test_same_namespace(self, argv):
        assert _parse_outcome(cli._parse_args, argv) == _parse_outcome(_reference_parse, argv)


class TestNumberGrammar:
    """Ints in argv and on stdin are read by int(), and the fields of an
    edge-list line split by str.split(), so they take what those take:
    underscores between digits, digits of any script, and any Unicode
    whitespace between fields."""

    def test_underscore_int(self):
        assert run_cli(["count", "total", "-n", "1_0"]) == (0, "100000000\n", "")

    def test_arabic_indic_int(self):
        assert run_cli(["count", "total", "-n", "\u0665"]) == (0, "125\n", "")

    def test_arabic_indic_symbols(self):
        assert run_cli(["prufer", "decode"], "\u0661,\u0662\n") == run_cli(["prufer", "decode"], "1,2\n")

    def test_no_break_space_in_header(self):
        assert run_cli(["prufer", "encode"], "n\u00a03\n1 2\n2 3\n") == (0, "2\n", "")


def _python(*argv, env=None):
    src = str(Path(treecount.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


class TestModuleRun:
    def test_module_prints_and_exits(self):
        done = _python("-m", "treecount.cli", "count", "total", "-n", "4")
        assert (done.returncode, done.stdout, done.stderr) == (0, "16\n", "")

    def test_exit_code_reaches_the_shell(self):
        done = _python("-m", "treecount.cli", "enumerate", "-n", "10")
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "treecount: n=10 beyond the sweep cap 9\n"

    def test_cap_environment_variables_are_ignored(self):
        env = {"TREECOUNT_ENUM_CAP": "10", "TREECOUNT_EDGE_ENUM_CAP": "10",
               "TREECOUNT_PAIR_ENUM_CAP": "10"}
        done = _python("-m", "treecount.cli", "enumerate", "-n", "10", "--limit", "1", env=env)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "treecount: n=10 beyond the sweep cap 9\n"
        caps = _python(
            "-c",
            "from treecount import enumeration as e;"
            "print(e.PRUFER_ENUM_CAP, e.EDGE_ENUM_CAP, e.PAIR_ENUM_CAP)",
            env=env,
        )
        assert caps.stdout == "9 6 6\n"

    def test_import_loads_every_submodule_and_no_dataclasses(self):
        # the benchmark clears memos it finds in sys.modules after importing
        # cli, and --trace looks the six submodules up by name: all stay eager
        done = _python(
            "-c",
            "import sys; before = set(sys.modules); import treecount.cli;"
            "print(*set(sys.modules) - before)",
        )
        added = set(done.stdout.split())
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
        submodules = ("cli", "core", "counting", "enumeration", "sampling", "verifier")
        assert {f"treecount.{m}" for m in submodules} <= added


def _json_trees(text):
    records = map(json.loads, text.splitlines())
    return [LabeledTree(r["n"], tuple(map(tuple, r["edges"]))) for r in records]


def _csv_trees(text, n, count):
    lines = text.splitlines()
    assert lines[0] == "tree,u,v"
    edges = [[] for _ in range(count)]
    for row in lines[1:]:
        i, u, v = map(int, row.split(","))
        edges[i].append((u, v))
    return [LabeledTree(n, tuple(e)) for e in edges]


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32),
        count=st.integers(min_value=1, max_value=5),
    )
    def test_every_format_round_trips(self, n, seed, count):
        def sample(fmt):
            argv = ["sample", "-n", str(n), "--seed", str(seed), "--count", str(count)]
            return run_cli(argv + ["--format", fmt])

        code, edges, _ = sample("edges")
        assert code == 0
        trees = list(read_trees(io.StringIO(edges)))
        assert len(trees) == count and all(t.n == n for t in trees)
        code, as_json, _ = sample("json")
        assert code == 0 and _json_trees(as_json) == trees
        code, as_csv, _ = sample("csv")
        assert code == 0 and _csv_trees(as_csv, n, count) == trees
        if n == 1:
            assert as_csv == "tree,u,v\n"
            code, out, err = sample("prufer")
            assert (code, out) == (2, "") and len(err.splitlines()) == 1
            return

        code, prufer, _ = sample("prufer")
        assert code == 0
        seqs = list(read_prufer_lines(io.StringIO(prufer)))
        assert [enumeration.prufer_decode(n, s) for s in seqs] == trees
        assert run_cli(["prufer", "encode"], edges) == (0, prufer, "")
        code, encoded, _ = run_cli(["prufer", "encode", "--format", "json"], edges)
        assert code == 0
        assert [json.loads(line) for line in encoded.splitlines()] == [
            {"n": n, "symbols": list(s)} for s in seqs
        ]
        assert run_cli(["prufer", "decode"], prufer) == (0, edges, "")
        assert run_cli(["prufer", "decode", "--format", "json"], prufer) == (0, as_json, "")


# ---------------------------------------------------------------------------
# prufer and json output straight from the swept or drawn words, against
# the path that decodes every word, re-encodes the tree and calls json.dumps

REFUSED = (2, "", "treecount: encoding needs at least 2 vertices\n")
DEGREE_VECTORS = {
    2: [(1, 1)],
    3: [(1, 2, 1), (2, 1, 1)],
    4: [(1, 1, 1, 3), (2, 2, 1, 1)],
    5: [(2, 1, 2, 2, 1), (1, 1, 1, 1, 4)],
    6: [(3, 1, 1, 2, 2, 1), (1, 2, 2, 2, 2, 1)],
    7: [(2, 2, 2, 2, 2, 1, 1), (1, 3, 1, 3, 1, 2, 1), (1, 1, 1, 1, 1, 1, 6)],
}


def _decode_encode_lines(trees, fmt):
    if fmt == "prufer":
        return [",".join(map(str, enumeration.prufer_encode(t))) + "\n" for t in trees]
    return [json.dumps({"n": t.n, "edges": [list(e) for e in t.edges]}) + "\n" for t in trees]


def _expected(trees, fmt, *, limit=None, count=False):
    # a one-vertex stream is refused before any limit applies
    if fmt == "prufer" and any(t.n < 2 for t in trees):
        return REFUSED
    trees = trees[:limit]
    lines = _decode_encode_lines(trees, fmt)
    if count:
        total = len(trees)
        lines.append(json.dumps({"count": total}) + "\n" if fmt == "json" else f"count {total}\n")
    return 0, "".join(lines), ""


def _enumerate_filters(n):
    trees = list(enumeration.enumerate_all_trees(n))
    yield [], trees
    for k in range(1, n):
        yield ["--deg-v1", str(k)], [t for t in trees if degree_of(t, 1) == k]
    for d in DEGREE_VECTORS.get(n, ()):
        yield ["--degrees", ",".join(map(str, d))], [t for t in trees if tree_degrees(t) == d]


class TestDirectOutput:
    @pytest.mark.parametrize("fmt", ["prufer", "json"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumerate_matches_decode_and_encode(self, n, fmt):
        for flags, trees in _enumerate_filters(n):
            for limit in (None, 0, 1, 5):
                for count in (False, True):
                    argv = ["enumerate", "-n", str(n), "--format", fmt, *flags]
                    argv += [] if limit is None else ["--limit", str(limit)]
                    argv += ["--count"] if count else []
                    assert run_cli(argv) == _expected(trees, fmt, limit=limit, count=count), argv

    @pytest.mark.parametrize("fmt", ["prufer", "json"])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_sample_matches_decode_and_encode(self, fmt, seed):
        for n in (1, 2, 3, 8, 50, 300):
            trees = list(sampling.sample_uniform_tree(n, seed=seed, count=5))
            argv = ["sample", "-n", str(n), "--count", "5", "--seed", str(seed), "--format", fmt]
            assert run_cli(argv) == _expected(trees, fmt), argv
        big = next(sampling.sample_uniform_tree(300, seed=seed, count=1))
        for d in ((1, 1), (2, 1, 1), (3, 1, 2, 1, 1), tree_degrees(big)):
            trees = list(sampling.sample_tree_with_degrees(d, seed=seed, count=4))
            argv = ["sample", "--degrees", ",".join(map(str, d)), "--count", "4",
                    "--seed", str(seed), "--format", fmt]
            assert run_cli(argv) == _expected(trees, fmt), argv

    def test_prufer_output_decodes_and_encodes_nothing(self, monkeypatch):
        argvs = [
            ["enumerate", "-n", "6", "--format", "prufer", "--count"],
            ["enumerate", "-n", "6", "--format", "prufer", "--deg-v1", "2"],
            ["enumerate", "-n", "6", "--format", "prufer", "--degrees", "3,1,1,2,2,1"],
            ["sample", "-n", "40", "--count", "5", "--seed", "3", "--format", "prufer"],
            ["sample", "--degrees", "3,1,2,1,1", "--count", "5", "--format", "prufer"],
        ]
        expected = [run_cli(argv) for argv in argvs]
        assert all(code == 0 and out for code, out, _ in expected)

        def refuse(*args):
            raise AssertionError("the codec was called")

        for name in ("prufer_decode", "prufer_encode", "decode_sequences", "_decode_edges",
                     "_decode_mask", "_sweep_chunks"):
            monkeypatch.setattr(enumeration, name, refuse)
        monkeypatch.setattr(sampling, "decode_sequences", refuse)
        assert [run_cli(argv) for argv in argvs] == expected

    @pytest.mark.parametrize("fmt", ["edges", "json", "csv"])
    def test_deg_v1_decodes_only_the_trees_it_keeps(self, monkeypatch, fmt):
        decode = enumeration._decode_mask
        decoded = []

        def recording(n, word):
            decoded.append(word)
            return decode(n, word)

        monkeypatch.setattr(enumeration, "_decode_mask", recording)
        code, _, _ = run_cli(["enumerate", "-n", "6", "--deg-v1", "2", "--format", fmt])
        assert code == 0
        assert len(decoded) == counting.count_trees_deg_v1(6, 2)
        assert all(w.count(1) == 1 for w in decoded)


# ---------------------------------------------------------------------------
# edges, json and csv output against the per-edge formatters: the tree of
# each word through prufer_decode, written by core.tree_to_text or the
# oracles' json and csv lines.  Trees on up to 9 vertices are written
# from their edge masks through the chunk tables of enumeration._mask_tables
# with the format's parts as kind, larger ones from one template per run of
# one n.

COUNT_LINES = {"edges": "count %d\n", "json": '{"count": %d}\n', "csv": "count,%d\n"}


def _oracle_texts(words_by_n, fmt):
    trees = [enumeration.prufer_decode(n, w) for n, w in words_by_n]
    if fmt == "edges":
        return [tree_to_text(t) for t in trees]
    if fmt == "json":
        return [oracles.json_tree(t.n, t.edges) for t in trees]
    return [oracles.csv_tree(i, t.edges) for i, t in enumerate(trees)]


def _oracle_output(n, words, fmt, *, count=False):
    lines = ["tree,u,v\n"] if fmt == "csv" else []
    lines += _oracle_texts([(n, w) for w in words], fmt)
    if count:
        lines.append(COUNT_LINES[fmt] % len(words))
    return "".join(lines)


ENUMERATE_CASES = {
    "n1": (["-n", "1"], lambda: enumeration.enumerate_sequences(1)),
    "n2": (["-n", "2"], lambda: enumeration.enumerate_sequences(2)),
    "n3": (["-n", "3"], lambda: enumeration.enumerate_sequences(3)),
    "n9-limit": (
        ["-n", "9", "--limit", "3000"],
        lambda: islice(enumeration.enumerate_sequences(9), 3000),
    ),
    "n9-degrees": (
        ["-n", "9", "--degrees", "2,1,3,1,1,2,1,2,3"],
        lambda: enumeration.enumerate_sequences_with_degrees((2, 1, 3, 1, 1, 2, 1, 2, 3)),
    ),
}


class TestTreeFormatGoldens:
    @pytest.mark.parametrize("count", [False, True])
    @pytest.mark.parametrize("fmt", ["edges", "json", "csv"])
    @pytest.mark.parametrize("case", list(ENUMERATE_CASES))
    def test_enumerate(self, case, fmt, count):
        flags, words = ENUMERATE_CASES[case]
        words = list(words())
        n = int(flags[1])
        argv = ["enumerate", *flags, "--format", fmt] + (["--count"] if count else [])
        assert run_cli(argv) == (0, _oracle_output(n, words, fmt, count=count), "")

    @pytest.mark.parametrize("fmt", ["edges", "json", "csv"])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_enumerate_limits_at_the_sweep_blocks(self, n, fmt):
        # the sweep fills its per-suffix rows in block 1 and the rest of M1
        # in block 2, so a stream cut on either side of a block edge must
        # still be the decode of its words
        block = n ** (n - 3)
        limits = (block - 1, block, block + 1, 2 * block + 1)
        words = list(islice(enumeration.enumerate_sequences(n), max(limits)))
        texts = _oracle_texts([(n, w) for w in words], fmt)
        head = "tree,u,v\n" if fmt == "csv" else ""
        for limit in limits:
            argv = ["enumerate", "-n", str(n), "--format", fmt, "--limit", str(limit)]
            want = head + "".join(texts[:limit])
            assert run_cli(argv) == (0, want, ""), argv
            assert run_cli(argv + ["--count"]) == (0, want + COUNT_LINES[fmt] % limit, ""), argv

    @pytest.mark.parametrize("fmt", ["edges", "json", "csv"])
    @pytest.mark.parametrize("n", [9, 10, 1000])
    def test_sample(self, n, fmt):
        words = list(sampling.sample_uniform_sequence(n, seed=n, count=4))
        argv = ["sample", "-n", str(n), "--count", "4", "--seed", str(n), "--format", fmt]
        assert run_cli(argv) == (0, _oracle_output(n, words, fmt), "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prufer_decode_of_mixed_lengths(self, fmt):
        words = [()]  # the blank line: the edge on 2 vertices
        for n in (2, 3, 9, 10, 11, 1000):
            words += sampling.sample_uniform_sequence(n, seed=n, count=2)
        random.Random(5).shuffle(words)
        words += sorted(words, key=len)  # and runs of one length
        stdin = "".join(",".join(map(str, w)) + "\n" for w in words)
        expected = _oracle_texts([(len(w) + 2, w) for w in words], fmt.replace("text", "edges"))
        assert run_cli(["prufer", "decode", "--format", fmt], stdin) == (0, "".join(expected), "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prufer_decode_of_alternating_lengths(self, fmt):
        # every line its own run of one length, written with the same bytes
        # as the line alone
        words = []
        for n in (8, 9):
            words.append(list(sampling.sample_uniform_sequence(n, seed=n, count=50)))
        words = [w for pair in zip(*words) for w in pair]
        argv = ["prufer", "decode", "--format", fmt]
        alone = "".join(run_cli(argv, ",".join(map(str, w)) + "\n")[1] for w in words)
        stdin = "".join(",".join(map(str, w)) + "\n" for w in words)
        assert run_cli(argv, stdin) == (0, alone, "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prufer_decode_builds_each_table_once(self, fmt):
        # 4000 lines alternating n = 9 and n = 8 are 4000 runs of one length,
        # each decoded through the memo enumeration._steps and written
        # through the memo enumeration._mask_tables: the step tables of each
        # n and the table of each (n, format) are built on the first run and
        # read on the rest
        words = []
        for n in (9, 8):
            words.append(list(sampling.sample_uniform_sequence(n, seed=n, count=2000)))
        stdin = "".join(",".join(map(str, w)) + "\n" for pair in zip(*words) for w in pair)
        enumeration._mask_tables.cache_clear()
        enumeration._steps.cache_clear()
        assert run_cli(["prufer", "decode", "--format", fmt], stdin)[0] == 0
        info = enumeration._mask_tables.cache_info()
        assert (info.misses, info.hits) == (2, 3998)
        assert enumeration._steps.cache_info().misses == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prufer_codec_of_records_alternating_across_nine(self, fmt):
        # n = 3, 2, 9, 10 record by record: each record its own run, on
        # either side of the edge pieces' n <= 9
        by_n = [list(sampling.sample_uniform_sequence(n, seed=n, count=4)) for n in (3, 2, 9, 10)]
        words = [w for four in zip(*by_n) for w in four]
        stdin = "".join(",".join(map(str, w)) + "\n" for w in words)
        expected = _oracle_texts([(len(w) + 2, w) for w in words], fmt.replace("text", "edges"))
        assert run_cli(["prufer", "decode", "--format", fmt], stdin) == (0, "".join(expected), "")
        edges = "".join(_oracle_texts([(len(w) + 2, w) for w in words], "edges"))
        argv = ["prufer", "encode", "--format", fmt]
        assert run_cli(argv, edges) == oracles.prufer_encode_output(edges, fmt)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_mask_texts_are_the_oracle_edge_texts(self, n):
        # every edge through the chunk tables, as the per-edge writers spell
        # it: each single-edge mask in the edges and csv formats, and in all
        # three the tree that holds the edge and otherwise the star at 1
        # (the json writer takes a tree's first edge to be at vertex 1, as it
        # is in every tree), then the full mask, which has vertex 1's edges
        pairs = list(combinations(range(1, n + 1), 2))
        bit = {pair: 1 << i for i, pair in enumerate(pairs)}
        singles = [((pair,), bit[pair]) for pair in pairs]
        trees = []
        for u, v in pairs:
            edges = [(1, w) for w in range(2, n + 1) if w != v] + [(u, v)]
            trees.append((tuple(sorted(edges)), sum(map(bit.get, edges))))
        full = [(tuple(pairs), (1 << len(pairs)) - 1)]
        writers = {
            "edges": lambda i, e: tree_to_text(LabeledTree(n, e)),
            "json": lambda i, e: oracles.json_tree(n, e),
            "csv": oracles.csv_tree,
        }
        for fmt, write in writers.items():
            cases = (singles if fmt != "json" else []) + trees + full
            texts = cli._mask_texts(n, fmt, [mask for _, mask in cases])
            assert list(texts) == [write(i, e) for i, (e, _) in enumerate(cases)], fmt

    @pytest.mark.parametrize("n", range(2, 10))
    def test_text_tables_are_the_per_format_builder(self, n):
        # the text tables enumeration._mask_tables makes of a format's parts
        # equal those of a builder written out here for text alone: the text
        # of the edges of each chunk entry, then the head and the tail
        for fmt, (piece, head, cut, tail) in cli._MASK_FORMATS.items():
            pairs = list(combinations(range(1, n + 1), 2))
            rest, parts = len(pairs) - (n - 1), 2 if n <= 7 else 4
            bounds = [0] + [n - 1 + rest * j // parts for j in range(parts + 1)]
            chunks = []
            for lo, hi in zip(bounds, bounds[1:]):
                table = [""]
                for pair in pairs[lo:hi]:
                    text = piece % pair
                    table += [t + text for t in table]
                chunks.append((lo, (1 << (hi - lo)) - 1, table))
            head = head % n if head else ""
            lo, width, table = chunks[0]
            chunks[0] = lo, width, [head + t[cut:] for t in table]
            lo, width, table = chunks[-1]
            chunks[-1] = lo, width, [t + tail for t in table]
            tables = enumeration._mask_tables(n, cli._MASK_FORMATS[fmt])
            got = [(lo, width, list(table)) for lo, width, table in tables]
            assert got == chunks, fmt

    @pytest.mark.parametrize("fmt", ["edges", "json", "csv"])
    def test_raised_sweep_cap_builds_no_table(self, monkeypatch, fmt):
        # the mask tables cover n <= 9 whatever the sweep cap is: a library
        # caller who raises the cap gets the same bytes, with no table sized
        # by the cap
        argv = ["sample", "-n", "1000", "--count", "1", "--seed", "7", "--format", fmt]
        expected = run_cli(argv)
        assert expected[0] == 0
        monkeypatch.setattr(enumeration, "PRUFER_ENUM_CAP", 1000)
        tracemalloc.start()
        try:
            assert run_cli(argv) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", ["edges", "json", "csv"])
    def test_raised_sweep_cap_sweeps_ten_from_its_words(self, monkeypatch, fmt):
        # the suffix-shared sweep covers n <= 9; with the cap raised, n = 10
        # decodes each word and writes it from one template per run
        monkeypatch.setattr(enumeration, "PRUFER_ENUM_CAP", 10)
        words = list(islice(enumeration.enumerate_sequences(10), 1200))
        argv = ["enumerate", "-n", "10", "--limit", "1200", "--count", "--format", fmt]
        assert run_cli(argv) == (0, _oracle_output(10, words, fmt, count=True), "")


# ---------------------------------------------------------------------------
# Output is written a chunk of at most cli._CHUNK records at a time, one
# write per chunk, plus one for the csv header and one for the count line:
# a real stdout pays for each write it is given.


class _Writes:
    """A stdout that keeps each text it is given to write."""

    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return len(text)


def _records(fmt, text):
    # the tree or word records in a written text: an edges record starts
    # with its "n" line, a csv record is the rows of one tree index, and
    # the csv header and count lines are none
    lines = text.splitlines()
    if fmt == "edges":
        return sum(line.startswith("n ") for line in lines)
    if fmt == "csv":
        return len({line.split(",")[0] for line in lines} - {"tree", "count"})
    return sum(not line.startswith(("count", '{"count"')) for line in lines)


WRITE_CASES = [
    *((["enumerate", "-n", "8", "--count", "--format", fmt], fmt, 8 ** 6) for fmt in cli.TREE_FORMATS),
    (["enumerate", "-n", "9", "--degrees", "2,2,2,2,2,2,2,1,1", "--format", "csv"], "csv", 5040),
    (["sample", "-n", "8", "--count", "5000", "--format", "json"], "json", 5000),
]


class TestChunkedWrites:
    @pytest.mark.parametrize("argv, fmt, trees", WRITE_CASES)
    def test_one_write_per_chunk(self, argv, fmt, trees):
        writes = _Writes()
        assert main(argv, stdout=writes) == 0
        counts = [_records(fmt, text) for text in writes.texts]
        assert sum(counts) == trees
        assert max(counts) <= cli._CHUNK
        assert len(writes.texts) <= -(-trees // cli._CHUNK) + 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_prufer_codec_writes_per_chunk(self, fmt):
        words = list(sampling.sample_uniform_sequence(8, seed=8, count=5000))
        stdin = "".join(",".join(map(str, w)) + "\n" for w in words)
        for direction, text, records in (("decode", stdin, "edges" if fmt == "text" else "json"),
                                         ("encode", run_cli(["prufer", "decode"], stdin)[1], "text")):
            writes = _Writes()
            assert main(["prufer", direction, "--format", fmt], stdin=io.StringIO(text), stdout=writes) == 0
            counts = [_records(records, written) for written in writes.texts]
            assert sum(counts) == 5000 and max(counts) <= cli._CHUNK, direction
            assert len(writes.texts) == -(-5000 // cli._CHUNK), direction


# ---------------------------------------------------------------------------
# prufer encode parses each block into label lists with the parser of
# core.read_trees and lets the encode's leaf peel test for a tree; a block
# it refuses goes to canonicalize_tree alone for its diagnostic.  It must
# write what the line-by-line reader followed by the heap encode writes
# (oracles.prufer_encode_output).

_CYCLE_1000 = "n 1000\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 999)) + "1 999\n"
_DUPLICATE_1000 = "n 1000\n1 2\n2 1\n" + "".join(f"{v} {v + 1}\n" for v in range(2, 999))
_PATH_TEXT = "n 3\n1 2\n2 3\n"
_PATH_10 = "n 10\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 10))

ENCODE_INPUTS = [
    # the malformed inputs of TestPrufer
    "n 3\n1 2\nbogus line\n",
    "n 3\n1 2\n2 3\nn 1\n",
    "n 1\n",
    # trees, and trees in the shapes the reader allows
    STAR_TEXT + "n 2\n1 2\n" + _PATH_TEXT,
    "n 3\r\n1 2\r\n2 3\r\n",
    "\n\n" + STAR_TEXT + "\n  \n" + _PATH_TEXT + "\n",
    "n 4\n4 1\n 4   2 \n3\t4",
    "n\u00a03\n1 2\n2 3\n",
    "",
    # a bad block after good ones, and n = 1 before and after a good block
    STAR_TEXT + _PATH_TEXT + "n 3\n1 2\n1 2\n",
    "n 1\n" + STAR_TEXT,
    STAR_TEXT + "n 1\n",
    "n 1\n" + "n 3\n1 2\n",
    # a cycle with an isolated vertex, and a repeated edge, at n = 1000
    _CYCLE_1000,
    _DUPLICATE_1000,
    # self-loop, labels 0 and n + 1, too few lines, fields per line
    "n 3\n1 1\n2 3\n",
    "n 3\n0 1\n2 3\n",
    "n 3\n1 4\n2 3\n",
    "n 4\n1 2\n2 3\n",
    "n 4\n1 2\n2 3\n\n3 4\n",
    "n 100000000000\n1 2\n",
    "n 3\n1 2 3\n4\n",
    "n 3\n1\n2 3 4\n",
    "n 3\n1 2 3\n2 3\n",
    "n 3\n1 2\n2 3 1\n",
    "n 3\n1 2\n2 x\n",
    "n 3\n1 2\n",
    "n 2\n1 2\nn 3",
    # characters str.splitlines() would end a line at
    "n 3\n1 2\x0c2 3\n",
    "n 3\n1 2\u20282 3\n",
    "n 3\n1 2\x1c2 3\n",
    # labels respelled as int() reads them and a label table does not,
    # alone and after blocks of the same n read through the table
    "n 3\n+1 02\n3 2\n",
    _PATH_TEXT * 3 + "n 3\n+1 02\n3 2\n" + _PATH_TEXT,
    _PATH_TEXT * 2 + "n 3\n\u0661 \u0662\n\u0662 \u0663\n",
    _PATH_10 * 2 + _PATH_10.replace("9 10", "9 1_0"),
    # bad labels, spellings and lines after blocks read through the table
    _PATH_TEXT * 2 + "n 3\n+4 1\n2 3\n",
    _PATH_TEXT * 2 + "n 3\n0 1\n2 3\n",
    _PATH_TEXT * 2 + "n 3\n1 4\n2 3\n",
    _PATH_TEXT * 2 + "n 3\n1 -1\n2 3\n",
    _PATH_TEXT * 2 + "n 3\n1 2\n2 x\n",
    _PATH_TEXT * 2 + "n 3\n1 2 3\n2 3\n",
    _PATH_TEXT * 2 + "n 3\n1 2\n1 2\n",
    _PATH_TEXT * 2 + "n 3\n1 2\n",
    # headers
    "n x\n1 2\n",
    "m 3\n1 2\n2 3\n",
    "n 3 4\n1 2\n2 3\n",
    "n 0\n",
    "n -2\n",
    "1 2\n",
]


class TestEncodeFastPath:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("text", ENCODE_INPUTS)
    def test_same_as_validating_reader(self, text, fmt):
        argv = ["prufer", "encode", "--format", fmt]
        assert run_cli(argv, text) == oracles.prufer_encode_output(text, fmt)

    @settings(max_examples=300, deadline=None)
    @given(text=edge_texts(), fmt=st.sampled_from(["text", "json"]))
    def test_mutated_blocks_same_as_validating_reader(self, text, fmt):
        argv = ["prufer", "encode", "--format", fmt]
        assert run_cli(argv, text) == oracles.prufer_encode_output(text, fmt)

    @pytest.mark.parametrize(
        "text, message",
        [
            (_CYCLE_1000, "line 1: edge set contains a cycle"),
            (_DUPLICATE_1000, "line 1: edge (1, 2) appears more than once"),
            ("n 3\n1 2\x0c2 3\n", "line 2: expected two vertex labels"),
            ("n 3\n1 2\u20282 3\n", "line 2: expected two vertex labels"),
            ("n 3\n1 2 3\n4\n", "line 2: expected two vertex labels"),
            ("n 4\n1 2\n2 3\n", "line 1: expected 3 edge lines, got 2"),
            ("n 1\n" + STAR_TEXT + "n 3\n1 1\n", "encoding needs at least 2 vertices"),
        ],
    )
    def test_diagnostics(self, text, message):
        for fmt in ("text", "json"):
            assert run_cli(["prufer", "encode", "--format", fmt], text) == (
                2,
                "",
                f"treecount: {message}\n",
            )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_labels_either_side_of_the_tables(self, fmt):
        # a star on its last vertex writes n, the largest symbol, n - 2 times,
        # read through the label table at n = _LABEL_MAX and with int() one
        # past it
        n = core._LABEL_MAX
        stars = ("n %d\n" % m + "".join(f"{v} {m}\n" for v in range(1, m)) for m in (n, n + 1))
        text = "".join(stars)
        argv = ["prufer", "encode", "--format", fmt]
        assert run_cli(argv, text) == oracles.prufer_encode_output(text, fmt)

    def test_trees_skip_the_validating_reader(self, monkeypatch):
        trees = list(sampling.sample_uniform_tree(300, seed=4, count=3))
        text = "".join(map(tree_to_text, trees)) + STAR_TEXT + "n 2\n2 1\n"
        expected = oracles.prufer_encode_output(text, "text")
        assert expected[0] == 0

        def refuse(*args):
            raise AssertionError("a validating path was called")

        monkeypatch.setattr(cli, "canonicalize_tree", refuse)
        monkeypatch.setattr(enumeration, "prufer_encode", refuse)
        assert run_cli(["prufer", "encode"], text) == expected
