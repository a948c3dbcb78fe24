"""Exact decision procedures for one-dimensional Pisot substitution tilings:
overlap coincidence on the suspension tiling, strong coincidence over
admissible control-point families, and the equivalence between the two.
"""

from .numberfield import AlgebraicReal, NumberField, fast_cmp
from .substitution import (
    NotPisotError,
    Substitution,
    SubstitutionError,
    dekking_column_check,
    fixed_point_seed,
    is_irreducible,
    is_primitive,
    perron_data,
    power,
)
from .tiling import (
    ControlPoints,
    ModuleVectors,
    Patch,
    TileMap,
    TilingSystem,
    solve_control_points,
)
from .overlap import (
    CapExceededError,
    OverlapClass,
    OverlapGraph,
    build_graph,
    expansive_sccs,
    inflate_class,
    overlap_coincidence,
    seed_overlaps,
    stable_overlap_graph,
    stuck_scc_indices,
    to_dot,
)
from .strongcoin import (
    EnumerationCapError,
    GroupG,
    MSCResult,
    RodHypothesisError,
    StrongCoincidenceReport,
    compute_level_n,
    enumerate_tile_maps,
    extract_witness,
    group_G,
    multiple_strong_coincidence,
    strong_coincidence,
)
from .graphkit import Digraph, cycle_extension, perron_equals, scc

__version__ = "1.0.0"
