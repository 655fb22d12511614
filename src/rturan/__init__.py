"""Rainbow Turan toolkit: detection, matching lemmas, constructions, search.

A collection assigns one graph per color on a shared vertex set; a
rainbow copy of a pattern picks its edges from pairwise distinct colors.
This package detects rainbow copies, runs the matching/strong-color
machinery, builds the known lower-bound collections, and computes the
three extremal functions (max-min, max-sum, max-product of per-color
edge counts over rainbow-free collections) exactly at desk scale.
"""

from .graphcore import (
    Graph,
    PatternFamily,
    ParseError,
    SizeError,
    NotBipartite,
    parse_pattern,
    parse_family,
    canonical_form,
    are_isomorphic,
    family_deleted_independent,
    family_covering,
    bipartition_min_class,
    minimum_vertex_cover,
)
from .collection import (
    Collection,
    RainbowWitness,
    RainbowMatching,
    FormatError,
    RangeError,
    codec_read,
    codec_write,
    contains_subgraph,
    matching_number_at_least,
    find_rainbow_copy,
    rainbow_copy_exists,
    is_rainbow_free,
    max_rainbow_matching,
    nest_transform,
)
from .lemmas import (
    PreconditionViolated,
    TooSmall,
    StrongVerdict,
    StrongColorEvidence,
    M2Structure,
    StarCover,
    greedy_extend,
    greedy_from_degrees,
    strong_color_exact,
    strong_color_sufficient,
    very_strong_color,
    m2_structure,
    star_cover,
)
from .search import (
    BudgetExceeded,
    ExtremalQuery,
    ExtremalResult,
    default_budget,
    turan_exact,
    turan_extremal,
    extremal_min,
    extremal_sum,
    extremal_prod,
)
from .constructions import (
    CONSTRUCTION_IDS,
    FORMULA_IDS,
    GuardViolated,
    InnerTooLarge,
    InnerInfeasible,
    ConstructionInfo,
    describe,
    build,
    claimed_value,
    meshulam_collection,
    certification_grid,
)

__version__ = "0.1.0"
