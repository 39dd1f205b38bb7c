"""Exhaustive enumerators and the Prufer codec."""

from __future__ import annotations

import io
import random
from collections import Counter
from itertools import chain, combinations, combinations_with_replacement, islice, product, repeat, zip_longest
from math import comb
from operator import eq

import pytest
from hypothesis import given

import oracles
from strategies import labeled_trees
from treecount.core import (
    CapExceeded,
    LabeledTree,
    NotATree,
    OutOfRange,
    _degree_vector,
    canonicalize_tree,
    degree_of,
    tree_degrees,
)
from treecount import cli, enumeration
from treecount.enumeration import (
    decode_sequences,
    deg_v1_histogram,
    enumerate_all_trees,
    enumerate_all_trees_by_edges,
    enumerate_compositions,
    enumerate_edge_subsets_pairs,
    enumerate_sequences,
    enumerate_sequences_with_degrees,
    enumerate_trees_with_degrees,
    prufer_decode,
    prufer_encode,
)


class TestCodec:
    def test_encode_examples(self):
        path = canonicalize_tree(3, [(1, 2), (2, 3)])
        assert prufer_encode(path) == (2,)
        star = canonicalize_tree(4, [(1, 4), (2, 4), (3, 4)])
        assert prufer_encode(star) == (4, 4)
        edge = canonicalize_tree(2, [(1, 2)])
        assert prufer_encode(edge) == ()

    def test_decode_examples(self):
        assert prufer_decode(3, (2,)).edges == ((1, 2), (2, 3))
        assert prufer_decode(4, (4, 4)).edges == ((1, 4), (2, 4), (3, 4))
        assert prufer_decode(2, ()).edges == ((1, 2),)
        assert prufer_decode(1, ()).edges == ()

    def test_encode_rejects_single_vertex(self):
        with pytest.raises(OutOfRange):
            prufer_encode(LabeledTree(1, ()))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_round_trip_all_sequences(self, n):
        seqs = product(range(1, n + 1), repeat=n - 2) if n > 2 else [()]
        for symbols in seqs:
            seq = tuple(symbols)
            tree = prufer_decode(n, seq)
            assert prufer_encode(tree) == seq
            assert prufer_decode(n, seq) == tree

    @pytest.mark.parametrize("n", [8, 9])
    def test_round_trip_sampled(self, n):
        rng = random.Random(2**n)
        for _ in range(5000):
            symbols = tuple(rng.randint(1, n) for _ in range(n - 2))
            assert prufer_encode(prufer_decode(n, symbols)) == symbols

    @pytest.mark.parametrize("n", range(2, 8))
    def test_encode_matches_heap_oracle_on_every_tree(self, n):
        for tree in enumerate_all_trees(n):
            assert prufer_encode(tree) == oracles.prufer_encode_heap(n, tree.edges)
        edge = ((1, 2),)
        assert prufer_encode(LabeledTree(2, edge)) == () == oracles.prufer_encode_heap(2, edge)

    @pytest.mark.parametrize("n", [3, 10, 57, 300, 1000, 2000])
    def test_encode_matches_heap_oracle_on_random_trees(self, n):
        # each vertex in a random order hangs from a random earlier one or
        # from the one before it, so bushy and long trees alike, built
        # without the codec
        rng = random.Random(n)
        for _ in range(10):
            order = rng.sample(range(1, n + 1), n)
            raw = [(order[i], order[rng.choice((rng.randrange(i), i - 1))]) for i in range(1, n)]
            tree = canonicalize_tree(n, raw)
            assert prufer_encode(tree) == oracles.prufer_encode_heap(n, tree.edges)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_encode_walk_accepts_exactly_the_trees(self, n):
        # every multiset of n-1 pairs of 1..n, self-loops and repeats
        # included, each edge in a random orientation: the walk gives the
        # heap encode's word on the spanning trees and None on the rest
        trees = oracles.spanning_trees(n)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
        rng = random.Random(n)
        accepted = 0
        for edges in combinations_with_replacement(pairs, n - 1):
            flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            word = enumeration._encode_walk(n, flipped)
            if edges in trees:
                accepted += 1
                assert word == oracles.prufer_encode_heap(n, edges)
            else:
                assert word is None, edges
        assert accepted == n ** (n - 2)

    def test_encode_reads_edges_in_any_order(self):
        # the walk reads the edge pairs as they are, unsorted or flipped
        canonical = canonicalize_tree(6, [(1, 4), (2, 4), (3, 5), (4, 5), (5, 6)])
        word = prufer_encode(canonical)
        assert word == oracles.prufer_encode_heap(6, canonical.edges)
        unsorted = LabeledTree(6, tuple(reversed(canonical.edges)))
        flipped = LabeledTree(6, tuple((v, u) for u, v in canonical.edges))
        shuffled = LabeledTree(6, ((5, 4), (6, 5), (1, 4), (5, 3), (4, 2)))
        for tree in (unsorted, flipped, shuffled):
            assert prufer_encode(tree) == word

    @pytest.mark.parametrize("tree", [LabeledTree(3, ()), LabeledTree(3, ((1, 2), (2, 3), (1, 3)))])
    def test_encode_rejects_no_edges_and_a_cycle(self, tree):
        with pytest.raises(NotATree) as info:
            prufer_encode(tree)
        assert str(info.value) == "the edges do not form a tree on 3 vertices"

    def test_encode_rejects_a_non_tree(self):
        with pytest.raises(NotATree):
            prufer_encode(LabeledTree(4, ((1, 2), (1, 2), (3, 4))))
        with pytest.raises(NotATree):
            prufer_encode(LabeledTree(3, ()))

    @given(labeled_trees(min_n=2, max_n=9))
    def test_round_trip_from_tree_side(self, tree):
        assert prufer_decode(tree.n, prufer_encode(tree)) == tree

    @given(labeled_trees(min_n=2, max_n=9))
    def test_degree_occurrence_law(self, tree):
        seq = prufer_encode(tree)
        for v in range(1, tree.n + 1):
            assert degree_of(tree, v) == 1 + seq.count(v)


class TestEnumerateAllTrees:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
    def test_counts(self, n, expected):
        assert sum(1 for _ in enumerate_all_trees(n)) == expected

    def test_lexicographic_by_sequence(self):
        trees = list(enumerate_all_trees(4))
        seqs = [prufer_encode(t) for t in trees]
        assert seqs == sorted(seqs)
        assert len(set(trees)) == 16

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_edge_subset_oracle(self, n):
        sweep = {t.edges for t in enumerate_all_trees(n)}
        assert sweep == oracles.spanning_trees(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_two_package_oracles_agree(self, n):
        sweep = set(enumerate_all_trees(n))
        by_edges = set(enumerate_all_trees_by_edges(n))
        assert sweep == by_edges

    def test_distinct_n8(self):
        seen = set()
        for tree in enumerate_all_trees(8):
            seen.add(tree.edges)
        assert len(seen) == 8**6

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stream_is_the_walk(self, n):
        # from n = 2 the trees are summed from the sweep's masks; the
        # stream equals the decode of every word, in order and type
        swept = enumerate_all_trees(n)
        walked = decode_sequences(n, enumerate_sequences(n))
        for tree, want in zip_longest(swept, walked):
            assert type(tree) is LabeledTree and tree == want

    def test_stream_at_nine(self):
        # blocks 1 and 2 against the walk, as test_sweep_at_nine does for masks
        stop = 2 * 9**6
        swept = islice(enumerate_all_trees(9), stop)
        walked = decode_sequences(9, islice(enumerate_sequences(9), stop))
        assert all(map(eq, swept, walked)) and next(swept, None) is None

    def test_raised_cap_walks_ten(self, monkeypatch):
        # the sweep covers n <= 9; with the cap raised, n = 10 decodes each word
        monkeypatch.setattr(enumeration, "PRUFER_ENUM_CAP", 10)
        swept = list(islice(enumerate_all_trees(10), 1200))
        assert swept == list(decode_sequences(10, islice(enumerate_sequences(10), 1200)))

    def test_caps(self):
        with pytest.raises(CapExceeded):
            enumerate_all_trees(enumeration.PRUFER_ENUM_CAP + 1)
        with pytest.raises(CapExceeded):
            enumerate_all_trees_by_edges(enumeration.EDGE_ENUM_CAP + 1)
        with pytest.raises(OutOfRange):
            enumerate_all_trees(0)

    def test_cap_messages(self):
        for call, message, kind in (
            (lambda: enumerate_all_trees(10), "n=10 beyond the sweep cap 9", "sweep"),
            (
                lambda: enumerate_trees_with_degrees((9,) + (1,) * 9),
                "n=10 beyond the sweep cap 9",
                "sweep",
            ),
            (lambda: deg_v1_histogram(10), "n=10 beyond the sweep cap 9", "sweep"),
            (
                lambda: enumeration._sequences_with_deg_v1(10, 3),
                "n=10 beyond the sweep cap 9",
                "sweep",
            ),
            (
                lambda: enumerate_all_trees_by_edges(7),
                "n=7 beyond the edge-subset cap 6",
                "edge-subset",
            ),
            (lambda: enumerate_edge_subsets_pairs(7, 1), "m=7 beyond the pair cap 6", "pair"),
        ):
            with pytest.raises(CapExceeded) as info:
                call()
            assert (str(info.value), info.value.kind) == (message, kind)

    def test_cap_is_module_level(self, monkeypatch):
        monkeypatch.setattr(enumeration, "PRUFER_ENUM_CAP", 3)
        with pytest.raises(CapExceeded):
            enumerate_all_trees(4)


class TestSequenceStreams:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_word_in_lexicographic_order(self, n):
        words = enumerate_sequences(n)
        assert not isinstance(words, (list, tuple))
        assert list(words) == list(product(range(1, n + 1), repeat=max(n - 2, 0)))

    def test_validation_and_cap(self):
        with pytest.raises(OutOfRange):
            enumerate_sequences(0)
        with pytest.raises(CapExceeded, match=r"^n=10 beyond the sweep cap 9$"):
            enumerate_sequences(10)
        with pytest.raises(CapExceeded, match=r"^n=10 beyond the sweep cap 9$"):
            enumerate_sequences_with_degrees((9,) + (1,) * 9)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_degree_words_are_the_filtered_sweep(self, n):
        # vertex v has degree (occurrences of v in the word) + 1
        for c in enumerate_compositions(2 * n - 2, n):
            want = [
                w for w in enumerate_sequences(n)
                if all(w.count(v) == c[v - 1] - 1 for v in range(1, n + 1))
            ]
            assert list(enumerate_sequences_with_degrees(c)) == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trees_are_the_decode_of_the_words(self, n):
        words = list(enumerate_sequences(n))
        want = [prufer_decode(n, w) for w in words]
        assert list(decode_sequences(n, words)) == want
        assert list(enumerate_all_trees(n)) == want


def _mask_edges(n, mask):
    # the edges whose bits are set in an edge mask: bit i is the i-th pair
    # (u, v), u < v, of 1..n in lexicographic order
    return tuple(pair for i, pair in enumerate(combinations(range(1, n + 1), 2)) if mask >> i & 1)


def _walked_mask(n, w):
    # the edge mask of the pointer walk's edges, a reference that reads
    # none of the step tables the sweep and _decode_mask share
    bit = enumeration._EDGE_BITS[n]
    return sum(bit[u][v] for u, v in enumeration._decode_edges(n, w))


class TestEdgeMasks:
    def test_bits_follow_the_lexicographic_pairs(self):
        for n in range(2, 10):
            bits = enumeration._EDGE_BITS[n]
            for i, (u, v) in enumerate(combinations(range(1, n + 1), 2)):
                assert bits[u][v] == bits[v][u] == 1 << i

    def test_set_tables_follow_their_definition(self):
        # a set of vertices of 1..8 is a byte, bit u - 1 for vertex u, with
        # largest vertex f and second largest e (0 for none): step v maps a
        # set that holds v and a larger vertex to the turn key 10 + f and
        # drops v, and any other set to e and drops f, for every n
        for v, (keys, drops) in enumerate(enumeration._SET_TABLES, 1):
            for s in range(256):
                f, e = ([u for u in range(8, 0, -1) if s >> u - 1 & 1] + [0, 0])[:2]
                if s >> v - 1 & 1 and f > v:
                    assert (keys[s], drops[s]) == (10 + f, s - (1 << v - 1)), (v, s)
                else:
                    assert (keys[s], drops[s]) == (e, s - (1 << f >> 1)), (v, s)
        for n in range(2, 10):
            assert [step[:2] for step in enumeration._steps(n)[1:]] == enumeration._SET_TABLES[:n]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_mask_is_the_decode_of_every_word(self, n):
        for w in enumerate_sequences(n):
            assert _mask_edges(n, enumeration._decode_mask(n, w)) == enumeration._decode_edges(n, w)

    @pytest.mark.parametrize("n", [8, 9])
    def test_mask_is_the_decode_of_drawn_words(self, n):
        rng = random.Random(n)
        for _ in range(3000):
            w = tuple(rng.randint(1, n) for _ in range(n - 2))
            assert _mask_edges(n, enumeration._decode_mask(n, w)) == enumeration._decode_edges(n, w)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_step_on_every_suffix(self, n):
        # the level step the sweep is built on, checked on its own: a suffix
        # y of length k with absent vertices e1 < e2 < ..., m = n - k - 2,
        # has the row of the set {e1, ..., e(m+1)} and the mask of y decoded
        # on the vertices other than e1..em (here by relabelling them
        # 1..k+2), and _compose turns the rows of level k into block v of
        # level k + 1, the rows of the suffixes v.y, up to the words
        bit = enumeration._EDGE_BITS[n]
        steps = enumeration._steps(n)

        def row(y):
            absent = [u for u in range(1, n + 1) if u not in y]
            m = n - len(y) - 2
            kept = [u for u in range(1, n + 1) if u not in absent[:m]]
            edges = enumeration._decode_edges(len(kept), [kept.index(s) + 1 for s in y])
            mask = sum(bit[kept[u - 1]][kept[w - 1]] for u, w in edges)
            return sum(1 << e - 1 for e in absent[: m + 1]), mask

        level = [row(())]
        assert steps[0] == level[0]
        for k in range(n - 2):
            sets, masks = bytes(b for b, _ in level), [mask for _, mask in level]
            first, run = (1, n ** (k - 1)) if k else (n, 1)
            level = []
            for v in range(1, n + 1):
                block = [row((v,) + y) for y in product(range(1, n + 1), repeat=k)]
                got = enumeration._compose(steps[v], sets, masks, 0, n**k, first, run)
                assert got == (bytes(b for b, _ in block), [mask for _, mask in block]), (k, v)
                level += block

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sweep_is_the_walk_of_every_word(self, n):
        walked = map(_walked_mask, repeat(n), enumerate_sequences(n))
        swept = enumeration._sweep_chunks(n, n ** (n - 2))
        assert list(chain.from_iterable(swept)) == list(walked)

    def test_sweep_at_nine(self):
        # blocks 1 and 2 whole against the walk, in chunks that end at every
        # multiple of the chunk size and at the block edge; in blocks 3..9
        # the words s.t, s = a1(t), whose first leaf is a2(t), of 3000
        # drawn suffixes t
        block, size = 9 ** 6, enumeration._CHUNK
        walked = map(_walked_mask, repeat(9), enumerate_sequences(9))
        rng = random.Random(9)
        hits = {}  # index in the sweep -> word
        while len(hits) < 3000:
            t = tuple(rng.randint(1, 9) for _ in range(6))
            a1 = min(set(range(1, 10)) - set(t))
            if a1 >= 3:
                i = sum((v - 1) * 9 ** (5 - j) for j, v in enumerate(t))
                hits[(a1 - 1) * block + i] = (a1,) + t
        ends, start = [], 0
        for chunk in enumeration._sweep_chunks(9, 9 ** 7):
            stop = start + len(chunk)
            if start < 2 * block:
                ends.append(stop)
                assert chunk == list(islice(walked, len(chunk))), start
            for i in filter(hits.__contains__, range(start, stop)):
                assert chunk[i - start] == _walked_mask(9, hits.pop(i)), i
            start = stop
        assert start == 9 ** 7 and not hits
        edges = sorted({*range(size, block, size), block, *range(block + size, 2 * block, size)})
        assert ends == edges + [2 * block]

    @pytest.mark.parametrize("n", [6, 7])
    def test_sweep_walks_no_word(self, monkeypatch, n):
        # plain enumerate never calls _decode_mask and pulls no word from
        # enumeration.product (enumerate_sequences still checks n and hands
        # back the lazy product); with --limit L, level k of the sweep is
        # composed of exactly min(L, n^k) rows, the words included, so no
        # mask past L is built
        suffixes = n ** (n - 3)
        argvs = [["enumerate", "-n", str(n), "--count"]]
        for limit in (0, 1, suffixes - 1, suffixes, suffixes + 1, 2 * suffixes + 3):
            argvs.append(argvs[0] + ["--limit", str(limit)])
        expected = [_run(argv) for argv in argvs]

        def refuse(*args):
            raise AssertionError("_decode_mask was called")

        def no_words(*args, **kwargs):
            raise AssertionError("a word was pulled")
            yield

        compose = enumeration._compose
        levels = []  # [a level, the rows composed from it]

        def recording(step, sets, masks, lo, hi, first, run):
            if not levels or levels[-1][0] is not masks:
                levels.append([masks, 0])
            levels[-1][1] += hi - lo
            return compose(step, sets, masks, lo, hi, first, run)

        monkeypatch.setattr(enumeration, "_decode_mask", refuse)
        monkeypatch.setattr(enumeration, "product", no_words)
        monkeypatch.setattr(enumeration, "_compose", recording)
        for argv, want in zip(argvs, expected):
            levels.clear()
            assert _run(argv) == want
            limit = int(argv[-1]) if argv[-2] == "--limit" else n ** (n - 2)
            built = [min(limit, n**k) for k in range(1, n - 1)] if limit else []
            assert [rows for _, rows in levels] == built, argv

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_one_switch_for_every_plain_stream(self, monkeypatch, n):
        # plain enumerate, enumerate_all_trees and _degree_histogram read
        # one predicate: every n with edge masks, 2 <= n <= 9, is swept, the
        # tree formats through the sweep's masks and the prufer format
        # through cli._plain_chunks, which sweeps none; one vertex is walked,
        # and has no word to write in the prufer format
        calls = []

        def noting(name, function):
            def noted(*args):
                calls.append(name)
                return function(*args)

            return noted

        monkeypatch.setattr(enumeration, "_sweep_chunks", noting("sweep", enumeration._sweep_chunks))
        monkeypatch.setattr(cli, "_plain_chunks", noting("plain", cli._plain_chunks))
        swept = n >= 2
        for fmt in cli.TREE_FORMATS:
            calls.clear()
            code = _run(["enumerate", "-n", str(n), "--format", fmt])[0]
            assert code == (0 if swept or fmt != "prufer" else 2), fmt
            assert ("sweep" in calls, "plain" in calls) == (swept and fmt != "prufer", swept), fmt
        for stream in (enumerate_all_trees, enumeration._degree_histogram)[: 1 + swept]:
            calls.clear()
            assert list(stream(n))
            assert ("sweep" in calls) == swept, stream.__name__


def _run(argv):
    out = io.StringIO()
    return cli.main(argv, stdout=out), out.getvalue()


class TestEnumerateWithDegrees:
    def test_star(self):
        trees = list(enumerate_trees_with_degrees((1, 1, 1, 3)))
        assert trees == [canonicalize_tree(4, [(1, 4), (2, 4), (3, 4)])]

    def test_two_paths(self):
        trees = list(enumerate_trees_with_degrees((2, 2, 1, 1)))
        assert len(trees) == 2
        assert all(tree_degrees(t) == (2, 2, 1, 1) for t in trees)

    def test_single_edge(self):
        assert list(enumerate_trees_with_degrees((1, 1))) == [
            LabeledTree(2, ((1, 2),))
        ]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_oracle(self, n):
        for c in enumerate_compositions(2 * n - 2, n):
            got = {t.edges for t in enumerate_trees_with_degrees(c)}
            assert got == oracles.trees_with_degrees(c)


class TestDegV1Histogram:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_against_oracle(self, n):
        hist = deg_v1_histogram(n)
        for k in range(1, n):
            assert hist[k] == len(oracles.trees_with_deg_v1(n, k))

    def test_two_vertices(self):
        assert deg_v1_histogram(2) == {1: 1}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_per_word_count(self, n):
        hist = deg_v1_histogram(n)
        expected = oracles.deg_v1_histogram_by_word(n)
        assert hist == expected and list(hist) == list(expected)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_level_is_each_words_count_of_ones(self, n):
        ones = enumeration._ones_per_word(n)
        assert list(ones) == [w.count(1) for w in enumerate_sequences(n)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_words_with_deg_v1_are_the_word_filter(self, n):
        words = list(enumerate_sequences(n))
        for k in range(1, n):
            kept = enumeration._sequences_with_deg_v1(n, k)
            assert list(kept) == [w for w in words if w.count(1) == k - 1], k

    def test_words_with_deg_v1_are_lazy(self, monkeypatch):
        # a kept word is pulled with the words before it, and no word after
        words, pulled = list(enumerate_sequences(8)), []

        def noting(*args, **kwargs):
            for word in product(*args, **kwargs):
                pulled.append(word)
                yield word

        monkeypatch.setattr(enumeration, "product", noting)
        kept = enumeration._sequences_with_deg_v1(8, 2)
        assert not isinstance(kept, (list, tuple)) and pulled == []
        first = next(kept)
        assert first == (1, 2, 2, 2, 2, 2)
        assert pulled == words[: words.index(first) + 1]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_oracle_sizes(self, n):
        # every k in 1..n-1 is a key, in increasing order
        hist = deg_v1_histogram(n)
        expected = {k: len(oracles.trees_with_deg_v1(n, k)) for k in range(1, n)}
        assert hist == expected
        assert list(hist) == list(expected)

    def test_range(self):
        with pytest.raises(OutOfRange):
            deg_v1_histogram(1)


class TestDegreeHistogram:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_is_the_degree_vectors_of_the_decodes(self, n):
        walked = map(enumeration._decode_edges, repeat(n), enumerate_sequences(n))
        assert enumeration._degree_histogram(n) == Counter(map(_degree_vector, repeat(n), walked))

    def test_above_nine_reads_the_decoded_edges(self, monkeypatch):
        # there are no edge masks above 9: with the cap raised, the first
        # 1200 words of n = 10 are decoded and their degree vectors counted
        monkeypatch.setattr(enumeration, "PRUFER_ENUM_CAP", 10)
        words = list(islice(enumerate_sequences(10), 1200))
        monkeypatch.setattr(enumeration, "enumerate_sequences", lambda n: iter(words))
        walked = map(enumeration._decode_edges, repeat(10), words)
        assert enumeration._degree_histogram(10) == Counter(map(_degree_vector, repeat(10), walked))


class TestMaskTables:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_entries_are_the_sums_of_their_pieces(self, n):
        # entry m of a chunk is the + of the pieces of its set bits, in bit
        # order; chunk 0 holds vertex 1's edges and the rest at most 8 bits
        pairs = list(combinations(range(1, n + 1), 2))
        kinds = {
            "pairs": lambda edges: tuple(edges),
            "degrees": lambda edges: sum(16 ** (u - 1) + 16 ** (v - 1) for u, v in edges),
            ("%d-%d;", "", 0, ""): lambda edges: "".join("%d-%d;" % e for e in edges),
        }
        for kind, total in kinds.items():
            chunks = enumeration._mask_tables(n, kind)
            assert len(chunks) == (3 if n <= 7 else 5)
            assert chunks[0][:2] == (0, (1 << n - 1) - 1)
            shifts = [lo for lo, _, _ in chunks] + [len(pairs)]
            for (lo, width, table), hi in zip(chunks, shifts[1:]):
                assert width == (1 << hi - lo) - 1 and hi - lo <= 8 and len(table) == width + 1
                for m, entry in enumerate(table):
                    assert entry == total([pairs[lo + i] for i in range(hi - lo) if m >> i & 1])


class TestEdgeSubsetPairs:
    def test_examples(self):
        assert sum(1 for _ in enumerate_edge_subsets_pairs(3, 2)) == 6
        assert sum(1 for _ in enumerate_edge_subsets_pairs(3, 1)) == 3
        assert sum(1 for _ in enumerate_edge_subsets_pairs(2, 1)) == 1

    @pytest.mark.parametrize("m", range(2, 6))
    def test_pair_count_law(self, m):
        t_m = len(oracles.spanning_trees(m))
        for k in range(1, m + 1):
            total = sum(1 for _ in enumerate_edge_subsets_pairs(m, k))
            assert total == t_m * comb(m - 1, k - 1)

    def test_pairs_unique_and_subsets_of_tree(self):
        seen = set()
        for tree, cut in enumerate_edge_subsets_pairs(4, 3):
            assert set(cut) <= set(tree.edges)
            assert len(cut) == 2
            seen.add((tree.edges, cut))
        assert len(seen) == 16 * comb(3, 2)

    @pytest.mark.parametrize("m", range(2, 6))
    def test_stream_matches_nested_loop(self, m):
        # pairs and order pinned against the tree-then-cut double loop
        for k in range(1, m + 1):
            expected = [
                (tree, cut)
                for tree in enumerate_all_trees(m)
                for cut in combinations(tree.edges, k - 1)
            ]
            assert list(enumerate_edge_subsets_pairs(m, k)) == expected

    def test_validation(self):
        with pytest.raises(OutOfRange):
            enumerate_edge_subsets_pairs(1, 1)
        with pytest.raises(OutOfRange):
            enumerate_edge_subsets_pairs(3, 4)
        with pytest.raises(CapExceeded):
            enumerate_edge_subsets_pairs(enumeration.PAIR_ENUM_CAP + 1, 1)


class TestCompositions:
    def test_positive_listing(self):
        assert list(enumerate_compositions(3, 2)) == [(1, 2), (2, 1)]

    def test_zero_total(self):
        # no positive part can sum to 0
        assert [list(enumerate_compositions(0, k)) for k in (1, 2, 3)] == [[], [], []]

    def test_counts(self):
        for total in range(1, 9):
            for k in range(1, total + 1):
                positive = sum(1 for _ in enumerate_compositions(total, k))
                assert positive == comb(total - 1, k - 1)

    def test_lexicographic_and_valid(self):
        comps = list(enumerate_compositions(6, 3))
        assert comps == sorted(comps)
        assert all(sum(p) == 6 and min(p) >= 1 for p in comps)

    def test_equals_filtered_product(self):
        # product yields in lexicographic order, so the filter keeps it
        for total in range(11):
            for k in range(1, 6):
                expected = [
                    p for p in product(range(1, total + 1), repeat=k) if sum(p) == total
                ]
                assert list(enumerate_compositions(total, k)) == expected, (total, k)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            enumerate_compositions(-1, 2)
        with pytest.raises(OutOfRange):
            enumerate_compositions(3, 0)
