"""Finite tournament combinatorics: decomposition, obstruction families, profiles."""

from .core import (
    ASCENDING,
    DESCENDING,
    CanonicalCode,
    ChainSpec,
    Tournament,
    TournamentError,
    automorphism_count,
    canonical_form,
    chain,
    cycle3,
    dual,
    embeds,
    find_embedding,
    is_acyclic,
    is_isomorphic,
    lex_sum,
    make_tournament,
    relabel,
    restrict,
    skew_product,
    tournament_from_code,
)
from .decomp import (
    Decomposition,
    SeparationWitness,
    acyclic_components,
    is_acyclically_indecomposable,
    is_autonomous,
    is_indecomposable,
    monomorphic_components,
    reconstruct,
    separated,
    spectrum,
)
from .families import (
    KINDS,
    WITNESS_NAMES,
    checked_family,
    descending,
    family,
    family_size,
    schmerl_trotter,
    witness,
    witness_family,
)
from .formulas import (
    FORMULA_TAGS,
    euler_totient,
    formula_value,
)
from .profiles import (
    DEFAULT_BUDGET,
    UNBOUNDED,
    ProfileSeries,
    SumSpec,
    age_leq,
    growth_of_sum,
    profile_count,
    profile_sequence,
    series_fit,
    stabilized_profile,
    sum_profile,
    sum_profile_sequence,
)
from .tfile import dump_path, dumps, load_path, loads
from .verify import (
    SuiteReport,
    check_compactness,
    check_decomposition,
    check_duality,
    check_incomparability,
    check_profile_formulas,
    enumerate_tournaments,
)

__version__ = "0.1.0"
