"""Hypothesis strategies shared by the test modules.

The random tree builder attaches each new vertex to a uniformly chosen
earlier vertex.  That construction is independent of the Prufer codec,
so properties checked with it do not assume the codec is correct.
"""

from __future__ import annotations

from hypothesis import strategies as st

from treecount.core import LabeledTree, canonicalize_tree


@st.composite
def labeled_trees(draw, min_n: int = 1, max_n: int = 10) -> LabeledTree:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for v in range(2, n + 1):
        parent = draw(st.integers(min_value=1, max_value=v - 1))
        edges.append((parent, v))
    return canonicalize_tree(n, edges)


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def respellings(digits: str) -> list[str]:
    """Spellings of the decimal digits that int() reads as their value and
    str() never writes: a plus sign, a leading zero, Arabic-Indic digits,
    and for two digits or more an underscore after the first ("1_0")."""
    forms = ["+" + digits, "0" + digits, digits.translate(_ARABIC_INDIC)]
    if len(digits) > 1:
        forms.append(digits[0] + "_" + digits[1:])
    return forms


@st.composite
def edge_texts(draw) -> str:
    """Edge-list text for `prufer encode`: one to three valid blocks, each
    edge in drawn order and orientation, then up to three mutations of
    the lines: drop one, repeat one, swap two, give one label of an edge
    line a drawn value in 0..n+1 for the n of its block, or respell one
    label in a form int() reads and a label table does not."""
    lines = []  # (text, n of its block)
    for tree in draw(st.lists(labeled_trees(max_n=9), min_size=1, max_size=3)):
        edges = draw(st.permutations(tree.edges))
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        lines.append((f"n {tree.n}", tree.n))
        lines.extend(
            (f"{v} {u}" if flip else f"{u} {v}", tree.n) for (u, v), flip in zip(edges, flips)
        )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "relabel", "respell"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "relabel" and not lines[i][0].startswith("n"):
            text, n = lines[i]
            fields = text.split()
            fields[draw(st.integers(0, 1))] = str(draw(st.integers(0, n + 1)))
            lines[i] = (" ".join(fields), n)
        elif op == "respell" and not lines[i][0].startswith("n"):
            text, n = lines[i]
            fields = text.split()
            j = draw(st.integers(0, 1))
            fields[j] = draw(st.sampled_from(respellings(fields[j])))
            lines[i] = (" ".join(fields), n)
    return "".join(text + "\n" for text, _ in lines)


@st.composite
def prufer_texts(draw) -> str:
    """Text for `prufer decode`: up to ten lines, each a word of one of up
    to three drawn lengths, so that lengths mix and most come more than
    once, then up to three mutations: respell a symbol, give one the value
    0, n+1 or -1 for the n of its line, or put in a blank line.  Each line
    ends in "\\n" or "\\r\\n"."""
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
    words = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(st.sampled_from(lengths)) + 2
        words.append([str(draw(st.integers(1, n))) for _ in range(n - 2)])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(words) - 1))
        op = draw(st.sampled_from(["respell", "outside", "blank"]))
        if op == "blank":
            words.insert(i, [])
        elif words[i]:
            j = draw(st.integers(0, len(words[i]) - 1))
            if op == "respell":
                words[i][j] = draw(st.sampled_from(respellings(words[i][j])))
            else:
                words[i][j] = str(draw(st.sampled_from([0, len(words[i]) + 3, -1])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(words), max_size=len(words)))
    return "".join(",".join(w) + end for w, end in zip(words, ends))
