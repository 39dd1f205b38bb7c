"""Core types, validation, exact arithmetic, and the text formats."""

from __future__ import annotations

import io
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_decimal, read_prufer_lines_by_line, read_trees_by_line
from strategies import edge_texts, labeled_trees, prufer_texts
from test_cli import ENCODE_INPUTS
from treecount import core
from treecount.core import (
    BadVertex,
    DuplicateEdge,
    EdgeTextError,
    InvalidDegreeSequence,
    LabeledTree,
    NonIntegralResult,
    NotATree,
    OutOfRange,
    TreeCountError,
    as_integer,
    binomial,
    canonicalize_tree,
    degree_of,
    exact_div,
    factorial,
    int_to_text,
    multinomial,
    read_prufer_lines,
    read_trees,
    tree_degrees,
    tree_to_text,
    validate_degrees,
)


class TestCanonicalizeTree:
    def test_normalizes_orientation_and_order(self):
        tree = canonicalize_tree(3, [(2, 1), (2, 3)])
        assert tree == LabeledTree(3, ((1, 2), (2, 3)))

    def test_two_disconnected_edges_rejected(self):
        with pytest.raises(NotATree):
            canonicalize_tree(4, [(1, 2), (3, 4)])

    def test_single_vertex_tree(self):
        assert canonicalize_tree(1, []) == LabeledTree(1, ())

    def test_wrong_edge_count(self):
        with pytest.raises(NotATree):
            canonicalize_tree(3, [(1, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(NotATree):
            canonicalize_tree(3, [(1, 2), (2, 3), (1, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(NotATree):
            canonicalize_tree(2, [(1, 1)])

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            canonicalize_tree(3, [(1, 2), (2, 4)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            canonicalize_tree(3, [(1, 2), (2, 1)])

    def test_nonpositive_n(self):
        with pytest.raises(OutOfRange):
            canonicalize_tree(0, [])

    @given(labeled_trees())
    def test_idempotent(self, tree):
        assert canonicalize_tree(tree.n, tree.edges) == tree


class TestDegreeOf:
    def test_path_center(self):
        tree = canonicalize_tree(3, [(1, 2), (2, 3)])
        assert degree_of(tree, 2) == 2

    def test_star_center(self):
        tree = canonicalize_tree(4, [(1, 4), (2, 4), (3, 4)])
        assert degree_of(tree, 4) == 3

    def test_single_vertex(self):
        assert degree_of(LabeledTree(1, ()), 1) == 0

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            degree_of(LabeledTree(2, ((1, 2),)), 3)

    @given(labeled_trees(min_n=2))
    def test_handshake(self, tree):
        assert sum(degree_of(tree, v) for v in range(1, tree.n + 1)) == 2 * tree.n - 2

    @given(labeled_trees())
    def test_matches_degree_vector(self, tree):
        vec = tree_degrees(tree)
        assert vec == tuple(degree_of(tree, v) for v in range(1, tree.n + 1))


class TestArithmetic:
    def test_examples(self):
        assert binomial(2, 1) == 2
        assert multinomial([1, 2]) == 3
        assert binomial(0, 0) == 1
        assert factorial(0) == 1
        assert factorial(5) == 120

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            factorial(-1)
        with pytest.raises(OutOfRange):
            binomial(2, 3)
        with pytest.raises(OutOfRange):
            binomial(-1, 0)
        with pytest.raises(OutOfRange):
            multinomial([2, -1])

    def test_multinomial_definition(self):
        parts = (3, 1, 4)
        expect = factorial(8) // (factorial(3) * factorial(1) * factorial(4))
        assert multinomial(parts) == expect

    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
    def test_multinomial_permutation_invariant(self, parts):
        assert multinomial(parts) == multinomial(sorted(parts))
        assert multinomial(parts) == multinomial(sorted(parts, reverse=True))

    @given(st.integers(min_value=0, max_value=30))
    def test_multinomial_single_part(self, k):
        assert multinomial([k]) == 1

    def test_exact_div(self):
        assert exact_div(12, 4) == 3
        with pytest.raises(NonIntegralResult):
            exact_div(13, 4)

    def test_as_integer(self):
        assert as_integer(7) == 7
        assert as_integer(Fraction(14, 2)) == 7
        with pytest.raises(NonIntegralResult):
            as_integer(Fraction(1, 3))

    def test_int_to_text_small_matches_str(self):
        for value in (0, 7, -7, 10**600, 2**2000, -(2**2001) + 1, 10**4000 - 1):
            assert int_to_text(value) == str(value)

    def test_int_to_text_beyond_digit_limit(self):
        # str() refuses these under the default 4300-digit limit
        for value in (10**5000, 10**5000 - 1, 3**20000, -(7**9000), 2000**1998):
            text = int_to_text(value)
            assert parse_decimal(text) == value
            assert text.lstrip("-")[0] != "0"


class TestFactories:
    def test_degree_sequence_valid(self):
        for degrees in ((1, 1), (1, 1, 1, 3), (2, 2, 1, 1)):
            assert validate_degrees(degrees) is None

    @pytest.mark.parametrize("bad", [(1,), (0, 2), (1, 2), (2, 2, 2, 2)])
    def test_degree_sequence_invalid(self, bad):
        with pytest.raises(InvalidDegreeSequence):
            validate_degrees(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((), "need at least 2 vertices, got 0"),
            ((1,), "need at least 2 vertices, got 1"),
            ((0, 2), "degrees must be positive: (0, 2)"),
            ((3, -1, 2), "degrees must be positive: (3, -1, 2)"),
            ((1, 2), "degree sum must be 2 for n=2, got 3"),
            ((2, 2, 2, 2), "degree sum must be 6 for n=4, got 8"),
        ],
    )
    def test_degree_sequence_messages(self, bad, message):
        with pytest.raises(InvalidDegreeSequence) as info:
            validate_degrees(bad)
        assert str(info.value) == message


class TestEdgeText:
    def test_format_single_vertex(self):
        assert tree_to_text(LabeledTree(1, ())) == "n 1\n"

    def test_format_star(self):
        tree = canonicalize_tree(4, [(1, 4), (2, 4), (3, 4)])
        assert tree_to_text(tree) == "n 4\n1 4\n2 4\n3 4\n"

    @given(labeled_trees())
    def test_round_trip(self, tree):
        text = tree_to_text(tree)
        assert list(read_trees(text.splitlines())) == [tree]

    def test_multiple_trees_with_blank_separator(self):
        text = "n 2\n1 2\n\nn 1\n"
        trees = list(read_trees(text.splitlines()))
        assert trees == [LabeledTree(2, ((1, 2),)), LabeledTree(1, ())]

    def test_bad_header_names_line(self):
        with pytest.raises(EdgeTextError) as exc:
            list(read_trees(["m 3"]))
        assert exc.value.line_no == 1

    def test_bad_edge_line_number(self):
        with pytest.raises(EdgeTextError) as exc:
            list(read_trees(["n 3", "1 2", "nope"]))
        assert exc.value.line_no == 3

    def test_truncated_tree(self):
        with pytest.raises(EdgeTextError):
            list(read_trees(["n 3", "1 2"]))

    def test_structural_error_points_at_header(self):
        with pytest.raises(EdgeTextError) as exc:
            list(read_trees(["n 4", "1 2", "1 2", "3 4"]))
        assert exc.value.line_no == 1


def _read_all(reader, text):
    """The trees reader yields from text, and the type, message and line
    number of the error it ends in, or None."""
    trees = []
    try:
        for tree in reader(io.StringIO(text)):
            trees.append(tree)
    except TreeCountError as err:
        return trees, (type(err), str(err), getattr(err, "line_no", None))
    return trees, None


class TestReadTreesAgainstLineReader:
    @pytest.mark.parametrize("text", ENCODE_INPUTS + ["n %d\n1 2\n" % 10**30])
    def test_fixed_inputs(self, text):
        assert _read_all(read_trees, text) == _read_all(read_trees_by_line, text)

    @settings(max_examples=300, deadline=None)
    @given(text=edge_texts())
    def test_mutated_blocks(self, text):
        assert _read_all(read_trees, text) == _read_all(read_trees_by_line, text)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["n 4", "1 2", "1 x"], "line 3: vertex labels must be integers"),
            (["n 5", "1 2", "1 2 3"], "line 3: expected two vertex labels"),
        ],
    )
    def test_malformed_line_before_short_block(self, lines, message):
        with pytest.raises(EdgeTextError, match=f"^{message}$"):
            list(read_trees(lines))

    def test_huge_header_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(EdgeTextError) as exc:
                list(read_trees(["n 100000000000", "1 2"]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "line 1: expected 99999999999 edge lines, got 1"
        assert peak < 1 << 20

    def test_yields_before_reading_the_next_block(self):
        def lines():
            yield from ["n 2", "1 2"]
            raise AssertionError("read past the first block")

        assert next(read_trees(lines())) == LabeledTree(2, ((1, 2),))


class TestPruferText:
    def test_read_lines(self):
        assert list(read_prufer_lines(["4,4", "", "2"])) == [(4, 4), (), (2,)]

    def test_bad_symbol(self):
        with pytest.raises(EdgeTextError) as exc:
            list(read_prufer_lines(["1,9"]))
        assert exc.value.line_no == 1

    def test_not_integers(self):
        with pytest.raises(EdgeTextError):
            list(read_prufer_lines(["a,b"]))

    def test_first_symbol_out_of_range_is_named(self):
        for line, bad in (("1,9,0", 9), ("0,9,1", 0), ("5,5,5,-1", -1), ("6,6,6,7", 7)):
            with pytest.raises(EdgeTextError) as exc:
                list(read_prufer_lines(["4,4", line]))
            assert str(exc.value) == f"line 2: symbol {bad} outside 1..{len(line.split(',')) + 2}"
        assert list(read_prufer_lines(["1,5,3"])) == [(1, 5, 3)]

    @settings(max_examples=300, deadline=None)
    @given(text=prufer_texts())
    def test_drawn_lines_same_as_line_reader(self, text):
        assert _read_all(read_prufer_lines, text) == _read_all(read_prufer_lines_by_line, text)


def _path_block(n):
    return "n %d\n" % n + "".join(f"{v} {v + 1}\n" for v in range(1, n))


class TestLabelTables:
    """Up to n = _LABEL_MAX a record's tokens are looked up in _LABELS,
    and int() reads every token of a record with a token not found there;
    above it every token goes through int()."""

    def test_tables_spell_every_label(self):
        assert core._LABELS == {str(i): i for i in range(1, core._LABEL_MAX + 1)}

    @pytest.mark.parametrize("n", [1000, core._LABEL_MAX])
    def test_one_record_calls_int_on_headers_alone(self, monkeypatch, n):
        calls = []

        def counted(text):
            calls.append(text)
            return int(text)

        monkeypatch.setattr(core, "int", counted, raising=False)
        (tree,) = read_trees(io.StringIO(_path_block(n)))
        assert tree.edges == tuple((v, v + 1) for v in range(1, n))
        assert calls == [str(n)]
        word = tuple(range(1, n - 1))
        assert list(read_prufer_lines([",".join(map(str, word))])) == [word]
        assert calls == [str(n)]

    def test_above_the_table_no_lookup(self, monkeypatch):
        class Refuse:
            def __getitem__(self, token):
                raise AssertionError(f"{token!r} looked up above the tables")

        monkeypatch.setattr(core, "_LABELS", Refuse())
        n = core._LABEL_MAX + 1
        assert len(list(read_trees(io.StringIO(_path_block(n) * 2)))) == 2
        word = ",".join(["1"] * (n - 2))
        assert len(list(read_prufer_lines([word] * 2))) == 2

    @pytest.mark.parametrize("label", ["1500", "0", "+3", "03", "\u0663"])
    @pytest.mark.parametrize("records", [1, 2])
    def test_other_spellings_same_as_line_reader(self, label, records):
        # the last record of n = 1000 carries the label; a record before it
        # is read through the table
        n = 1000
        edges = _path_block(n) * (records - 1) + _path_block(n).replace(
            "\n3 4\n", f"\n{label} 4\n"
        )
        assert _read_all(read_trees, edges) == _read_all(read_trees_by_line, edges)
        plain = ",".join(["1"] * (n - 2))
        words = "\n".join([plain] * (records - 1) + [label + plain[1:]]) + "\n"
        assert _read_all(read_prufer_lines, words) == _read_all(read_prufer_lines_by_line, words)
