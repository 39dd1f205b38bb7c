"""Exact counting, exhaustive enumeration, verification, and uniform
sampling of labeled trees on vertices 1..n.

Every closed-form count ships with an independent brute-force companion
(edge-subset filtering, exhaustive Prufer sweeps, occurrence counting)
and a verifier that checks the two sides against each other across
whole parameter grids.  All arithmetic is exact.
"""

from treecount.core import (
    BadVertex,
    CapExceeded,
    CompositionSumMismatch,
    DuplicateEdge,
    Edge,
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
    multinomial,
    read_prufer_lines,
    read_trees,
    tree_degrees,
    tree_to_text,
    validate_degrees,
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
from treecount.sampling import (
    sample_sequence_with_degrees,
    sample_tree_with_degrees,
    sample_uniform_sequence,
    sample_uniform_tree,
)
from treecount.verifier import Failure, IdentityReport, verify_all

__version__ = "0.1.0"
