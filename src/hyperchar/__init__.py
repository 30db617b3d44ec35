"""Characteristic submonoids of quotient hyperfields F_p/G.

Three independent routes to the same minimal generating sets: an exact
reachable-residue membership table, closed forms for subgroup orders 1-4,
and a cyclotomic norm criterion for prime orders. A fixture harness
cross-validates all of them against the shipped reference tables.
"""

from .characteristic import (
    CharacteristicSet,
    FixtureRow,
    characteristic_bitset,
    kp_representation_check,
    minimal_generating_set,
)
from .closed_form import gen_set_closed_form
from .harness import (
    ConjectureReport,
    ConjectureWitness,
    FixtureParseError,
    RouteComparison,
    RouteLimitError,
    ValidationReport,
    conjecture_scan,
    cross_validate,
    load_fixtures,
    shipped_fixture_path,
    table_rows,
    validate_fixture,
)
from .hyperfield import AxiomReport, QuotientHyperfield, check_axioms
from .modular import (
    EisensteinPair,
    Prime,
    TwoSquares,
    cornacchia_two_squares,
    eisenstein_solutions,
    find_primitive_root,
    is_prime,
    subgroup_of_order,
)
from .norm_criterion import (
    NormCandidateSet,
    candidate_sums,
    generating_set_via_norm,
    tuple_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CharacteristicSet",
    "ConjectureReport",
    "ConjectureWitness",
    "EisensteinPair",
    "FixtureParseError",
    "FixtureRow",
    "NormCandidateSet",
    "Prime",
    "QuotientHyperfield",
    "RouteComparison",
    "RouteLimitError",
    "TwoSquares",
    "ValidationReport",
    "candidate_sums",
    "characteristic_bitset",
    "check_axioms",
    "conjecture_scan",
    "cornacchia_two_squares",
    "cross_validate",
    "eisenstein_solutions",
    "find_primitive_root",
    "gen_set_closed_form",
    "generating_set_via_norm",
    "is_prime",
    "kp_representation_check",
    "load_fixtures",
    "minimal_generating_set",
    "shipped_fixture_path",
    "subgroup_of_order",
    "table_rows",
    "tuple_bound",
    "validate_fixture",
]
