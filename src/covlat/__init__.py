"""Matroids and geometric lattices from finite coverings.

The package builds transversal matroids from block families, enumerates
their flat lattices, evaluates the three covering upper-approximation
operators, decides when those operators are matroidal closure operators,
and verifies the resulting structural relationships against brute-force
oracles.
"""

from .approximation import (
    AxiomWitness,
    ClosureVerdict,
    NeighborhoodTable,
    PartitionMatroid,
    UpperOperator,
    closure_operator_verdict,
    equ_condition,
    forms_partition,
    induced_partition_matroid,
    partition_lower,
    partition_upper,
    tra_condition,
)
from .bridge import (
    LatticeInducedMatroid,
    SubmodularSystem,
    independence_from_lattice,
    independent_iff_flat_bound,
    induced_rank,
)
from .errors import (
    CovlatError,
    CriterionNotSatisfied,
    GuardExceeded,
    InternalConsistencyError,
    NotAFlatError,
    ParseError,
    ValidationError,
)
from .lattice import (
    FlatLattice,
    enumerate_lattice,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_definition,
    modular_pair_by_heights,
)
from .oracle import BruteForce, OracleBudget, brute_flats, brute_independent, brute_operator_axioms
from .reduction import (
    ReductionReport,
    exclusion,
    immured_block_indices,
    reducible_block_indices,
    reduct,
    reduction_report,
)
from .relations import (
    ClaimRecord,
    RelationReport,
    check_containments,
    check_deletion_monotonicity,
    check_reduct_exclusion_containments,
    check_reduction_preservation,
    full_relation_report,
)
from .transversal import ABDecomposition, TransversalMatroid, ab_decomposition
from .universe import (
    Covering,
    ElementSet,
    Partition,
    SetFamily,
    Universe,
    as_covering,
    as_partition,
    is_partition,
    parse_family,
)

__version__ = "0.1.0"
