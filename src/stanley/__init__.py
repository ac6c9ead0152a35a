"""Greedy 3-AP-free sequences: generation, structure, and construction.

The package splits into five layers:

* ``core``: the greedy generator itself plus seed validation.
* ``structure``: block-identity analysis (independence certificates,
  characters, growth statistics).
* ``modsets``: modular and near-modular set verification, the shifted
  family table, and backtracking search for new sets.
* ``basis``: subset-sum expansions of tripling bases and their
  composition with near-modular sets, including exact decomposition of
  members back into coordinates.
* ``characters``: the constructive planner realizing every nonnegative
  even character outside the class 244 mod 486, cross-checked against
  the greedy generator.

The ``stanley`` console script exposes all of it; see ``stanley --help``.
"""

from .core import (
    APWitness,
    GreedySequence,
    generate,
    has_3ap,
    is_admissible,
    minimal_generating_prefix,
    validate_seed,
)
from .structure import (
    AnalysisResult,
    GrowthReport,
    GrowthSample,
    IdentityViolation,
    IndependenceCertificate,
    IndependenceReport,
    analyze_independence,
    character_at,
    growth_stats,
)
from .modsets import (
    FamilyEntry,
    ModSetReport,
    ModSetViolation,
    NearModularSet,
    expand_modular,
    family_modulus,
    family_set,
    family_table,
    search_near_modular,
    verify_modular,
    verify_near_modular,
    zero_sequence_value,
)
from .basis import (
    Basis,
    BasisReport,
    ComposedSystem,
    Decomposition,
    compose,
    compose_system,
    decompose,
    expand_basis,
    modularize,
    recompose,
    verify_basis,
)
from .characters import (
    BasisRecipe,
    CharacterPlan,
    CoverageEntry,
    CoverageMap,
    ExploredBasis,
    FamilyRecipe,
    explore_basic_characters,
    plan_character,
    plan_seed,
    realize_plan,
    residue_coverage,
    verify_plan,
)
from .errors import (
    BudgetExceededError,
    DuplicateSumError,
    InsufficientTermsError,
    InvalidSeedError,
    InvalidSystemError,
    NotModularError,
    NotRealizableError,
    NotRepresentableError,
    OverflowLimitError,
    PlanVerificationError,
    StanleyError,
)

__version__ = "0.1.0"

__all__ = [
    "APWitness",
    "AnalysisResult",
    "Basis",
    "BasisRecipe",
    "BasisReport",
    "BudgetExceededError",
    "CharacterPlan",
    "ComposedSystem",
    "CoverageEntry",
    "CoverageMap",
    "Decomposition",
    "DuplicateSumError",
    "ExploredBasis",
    "FamilyEntry",
    "FamilyRecipe",
    "GreedySequence",
    "GrowthReport",
    "GrowthSample",
    "IdentityViolation",
    "IndependenceCertificate",
    "IndependenceReport",
    "InsufficientTermsError",
    "InvalidSeedError",
    "InvalidSystemError",
    "ModSetReport",
    "ModSetViolation",
    "NearModularSet",
    "NotModularError",
    "NotRealizableError",
    "NotRepresentableError",
    "OverflowLimitError",
    "PlanVerificationError",
    "StanleyError",
    "analyze_independence",
    "character_at",
    "compose",
    "compose_system",
    "decompose",
    "expand_basis",
    "expand_modular",
    "explore_basic_characters",
    "family_modulus",
    "family_set",
    "family_table",
    "generate",
    "growth_stats",
    "has_3ap",
    "is_admissible",
    "minimal_generating_prefix",
    "modularize",
    "plan_character",
    "plan_seed",
    "realize_plan",
    "recompose",
    "residue_coverage",
    "search_near_modular",
    "validate_seed",
    "verify_basis",
    "verify_modular",
    "verify_near_modular",
    "verify_plan",
    "zero_sequence_value",
]
