"""Workbench for finite bounded distributive lattices and strategy-proof
voting rules: single-peaked preference domains, committee lattice
polynomials, nested-median trees, and exhaustive verification suites."""

from .errors import MedianVotingError
from .lattice import (
    Lattice,
    Valuation,
    build_boolean_hypercube,
    build_chain,
    build_from_covers,
    build_ideal_lattice,
    build_product,
)
from .preorders import (
    TotalPreorder,
    build_lsu_witness,
    build_three_class_witness,
    enumerate_lsu,
    enumerate_topped_preorders,
    enumerate_unimodal,
    is_locally_strictly_unimodal,
    is_separable,
    is_unimodal,
)
from .rules import (
    CommitteeRule,
    ExplicitRule,
    MedianTree,
    build_canonical_median_tree,
    corners,
    extended_median,
    extended_median_rule,
    tree_to_committee,
)
from .verify import (
    DomainDescriptor,
    ManipulationWitness,
    check_axioms,
    find_coalitional_manipulation,
    find_monotonicity_violation,
    find_strategy_violation,
    strategy_witness_from,
)

__version__ = "0.1.0"
