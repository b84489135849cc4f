"""Executable structural checks for character degree graphs of finite
solvable groups: a necessary-condition battery, diameter-3 partition
analysis, odd-degree theorem verdicts, join constructions, and an
exhaustive small-graph verification harness."""

from .canonical import canonical_form, is_isomorphic
from .checks import CheckReport, CheckResult, run_battery
from .constructions import complete_graph, direct_product, figure2_graph, odd_family
from .enumeration import (
    EnumerationSummary,
    enumerate_admissible,
    enumerate_nonisomorphic,
    verify_section_3,
)
from .formats import (
    Graph6ParseError,
    decode_edgelist,
    decode_graph6,
    encode_edgelist,
    encode_graph6,
)
from .graph import (
    BlockDecomposition,
    Graph,
    all_degrees_even,
    all_degrees_odd,
    block_decomposition,
    connected_components,
    cut_vertices,
    degree_multiset,
    diameter,
    induced_subgraph,
    is_block,
    is_complete,
    is_connected,
    is_eulerian,
    is_regular,
)
from .lewis import (
    LewisPartition,
    OddDegreeVerdict,
    PartitionValidity,
    TheoremVerdict,
    check_regular_odd,
    check_theorem_2_5,
    check_theorem_2_7,
    check_theorem_3_2,
    check_theorem_3_3,
    enumerate_lewis_partitions,
    first_valid_partition,
    lewis_partition,
    validate_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "CheckReport",
    "CheckResult",
    "EnumerationSummary",
    "Graph",
    "Graph6ParseError",
    "LewisPartition",
    "OddDegreeVerdict",
    "PartitionValidity",
    "TheoremVerdict",
    "all_degrees_even",
    "all_degrees_odd",
    "block_decomposition",
    "canonical_form",
    "check_regular_odd",
    "check_theorem_2_5",
    "check_theorem_2_7",
    "check_theorem_3_2",
    "check_theorem_3_3",
    "complete_graph",
    "connected_components",
    "cut_vertices",
    "decode_edgelist",
    "decode_graph6",
    "degree_multiset",
    "diameter",
    "direct_product",
    "encode_edgelist",
    "encode_graph6",
    "enumerate_admissible",
    "enumerate_lewis_partitions",
    "enumerate_nonisomorphic",
    "figure2_graph",
    "first_valid_partition",
    "induced_subgraph",
    "is_block",
    "is_complete",
    "is_connected",
    "is_eulerian",
    "is_isomorphic",
    "is_regular",
    "lewis_partition",
    "odd_family",
    "run_battery",
    "validate_partition",
    "verify_section_3",
]
