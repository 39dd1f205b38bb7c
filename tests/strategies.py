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


@st.composite
def edge_texts(draw) -> str:
    """Edge-list text for `prufer encode`: one to three valid blocks, each
    edge in drawn order and orientation, then up to three mutations of
    the lines: drop one, repeat one, swap two, or give one label of an
    edge line a drawn value in 0..n+1 for the n of its block."""
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
        op = draw(st.sampled_from(["drop", "repeat", "swap", "relabel"]))
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
    return "".join(text + "\n" for text, _ in lines)
