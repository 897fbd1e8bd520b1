"""Exact lattice cohomology for del Pezzo surfaces.

Computes, over the integers and with no floating point anywhere, the
first cohomology of Weyl-subgroup actions on Picard lattices and on
their quotients modulo the canonical class, enumerates subgroup
conjugacy classes to rebuild the full table of attainable group pairs,
checks injectivity and divisibility properties of the induced map, and
evaluates effective uniform torsion bounds.
"""

from .bounds import (
    BoundConfig,
    FeasibilityError,
    TorsionBound,
    UniformBound,
    brauer_uniform_bound,
    merel_prime_bound,
    parent_prime_power_bound,
    torsion_bound,
)
from .brauer_table import (
    BrauerTable,
    LemmaReport,
    SubgroupAnalysis,
    TableRow,
    analyze_degree,
    analyze_subgroup,
    compute_table,
    diff_against_expected,
    expected_table,
    table_from_json_dict,
    verify_lemma_properties,
    verify_prop_bounds,
)
from .cache import ResultCache
from .lattice import PicardLattice, QuotientPresentation, build_picard_lattice
from .subgroups import (
    DeadlineExceeded,
    SubgroupClass,
    TierExceeded,
    enumerate_subgroup_classes,
    sample_subgroups,
)
from .weyl import MatrixGroup, generate_group, reflection, weyl_group
from .zcohomology import (
    AbelianGroupStructure,
    GModule,
    H1Result,
    cocycle_oracle_h1,
    h1,
    h1_induced_map,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "BoundConfig",
    "BrauerTable",
    "DeadlineExceeded",
    "FeasibilityError",
    "GModule",
    "H1Result",
    "LemmaReport",
    "PicardLattice",
    "QuotientPresentation",
    "ResultCache",
    "SubgroupAnalysis",
    "SubgroupClass",
    "TableRow",
    "TierExceeded",
    "MatrixGroup",
    "TorsionBound",
    "UniformBound",
    "analyze_degree",
    "analyze_subgroup",
    "brauer_uniform_bound",
    "build_picard_lattice",
    "cocycle_oracle_h1",
    "compute_table",
    "diff_against_expected",
    "enumerate_subgroup_classes",
    "expected_table",
    "generate_group",
    "h1",
    "h1_induced_map",
    "merel_prime_bound",
    "parent_prime_power_bound",
    "reflection",
    "sample_subgroups",
    "smith_normal_form",
    "table_from_json_dict",
    "torsion_bound",
    "verify_lemma_properties",
    "verify_prop_bounds",
    "weyl_group",
]
