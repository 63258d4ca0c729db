"""Every input check raises its code and message: one case per check that
no other test reaches, among them each branch of ``Tournament``'s own
check, which the file loader and the skew product also rely on."""

import pytest

from tournkit.core import (
    CanonicalCode,
    ChainSpec,
    Tournament,
    TournamentError,
    chain,
    cycle3,
    make_tournament,
    relabel,
    skew_product,
    tournament_from_code,
)
from tournkit.decomp import is_autonomous, separated
from tournkit.families import family, family_size, schmerl_trotter
from tournkit.formulas import K_CLOSED, euler_totient, formula_value
from tournkit.profiles import (
    SumSpec,
    age_leq,
    profile_count,
    profile_sequence,
    series_fit,
    stabilized_profile,
    sum_profile,
    sum_profile_sequence,
)
from tournkit.verify import (
    _census,
    check_compactness,
    check_decomposition,
    check_duality,
    check_incomparability,
    check_profile_formulas,
    enumerate_tournaments,
)

# a counting series whose product with (1-x)(1-x^2) is 1 + x^6: its last
# coefficient vanishes but not the whole window of three
SHORT_ZERO_TAIL = [1, 1, 2, 2, 3, 3, 5, 5]
UNBOUNDED_C3 = SumSpec(cycle3(), (None, None, None))


def c3_member(size):
    return family("c3", size)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Tournament(-1, []), "OUT_OF_RANGE: negative vertex count"),
        (lambda: Tournament(2, [0b10]), "ARITY_MISMATCH: expected 2 rows, got 1"),
        (lambda: Tournament(2, [0b110, 0]), "OUT_OF_RANGE: row 0 has bits outside 0..1"),
        (lambda: Tournament(2, [0b11, 0]), "SELF_LOOP: vertex 0 beats itself"),
        (lambda: ChainSpec(-1), "OUT_OF_RANGE: chain length must be non-negative"),
        (lambda: ChainSpec(2.5), "OUT_OF_RANGE: chain length must be an int, got 2.5"),
        (lambda: ChainSpec("3"), "OUT_OF_RANGE: chain length must be an int, got '3'"),
        (lambda: ChainSpec(True), "OUT_OF_RANGE: chain length must be an int, got True"),
        (lambda: ChainSpec(2, "up"), "OUT_OF_RANGE: unknown orientation 'up'"),
        (lambda: chain(2.5), "OUT_OF_RANGE: chain length must be an int, got 2.5"),
        (lambda: make_tournament(-1, []), "OUT_OF_RANGE: n must be non-negative"),
        (lambda: skew_product(ChainSpec(2), {"h0", "x9"}), "OUT_OF_RANGE: unknown generator 'x9'"),
        (lambda: skew_product(ChainSpec(2), {"v1"}), "NOT_A_TOURNAMENT: generator covers no pair"),
        (lambda: relabel(cycle3(), [0, 0, 1]), "OUT_OF_RANGE: not a permutation of the vertices"),
        (lambda: tournament_from_code(CanonicalCode(-1, 0)), "OUT_OF_RANGE: negative vertex count"),
        (lambda: tournament_from_code(CanonicalCode(3, -1)), "OUT_OF_RANGE: code bits outside 0..2**3-1 for n=3"),
        (lambda: tournament_from_code(CanonicalCode(3, 1 << 10)), "OUT_OF_RANGE: code bits outside 0..2**3-1 for n=3"),
        (lambda: family("z", 2), "OUT_OF_RANGE: unknown family kind 'z'"),
        (lambda: family("c3", 2.7), "OUT_OF_RANGE: chain length must be an int, got 2.7"),
        (lambda: family("c3", "3"), "OUT_OF_RANGE: chain length must be an int, got '3'"),
        (lambda: family_size("z", 3), "OUT_OF_RANGE: unknown family kind 'z'"),
        (lambda: family_size("c3", -1), "OUT_OF_RANGE: chain length must be non-negative"),
        (lambda: family_size("c3", "3"), "OUT_OF_RANGE: chain length must be an int, got '3'"),
        (lambda: family_size("c3", 2.5), "OUT_OF_RANGE: chain length must be an int, got 2.5"),
        (lambda: schmerl_trotter("w", 3), "OUT_OF_RANGE: unknown tag 'w'"),
        (lambda: separated(cycle3(), 0, 3), "OUT_OF_RANGE: pair (0,3) outside 0..2"),
        (lambda: is_autonomous(cycle3(), [3]), "OUT_OF_RANGE: vertex 3 outside 0..2"),
        (lambda: enumerate_tournaments(-1), "OUT_OF_RANGE: n must be non-negative"),
        (lambda: enumerate_tournaments(2.5), "OUT_OF_RANGE: n must be an int, got 2.5"),
        (lambda: enumerate_tournaments(True), "OUT_OF_RANGE: n must be an int, got True"),
        (lambda: age_leq(cycle3(), cycle3(), -1), "OUT_OF_RANGE: n_max must be non-negative"),
        (lambda: series_fit([1] * 8, -1), "OUT_OF_RANGE: k must be non-negative"),
        (lambda: series_fit(SHORT_ZERO_TAIL, 2), "TOO_FEW_TERMS: zero tail shorter than the stabilisation window"),
        (lambda: chain(True), "OUT_OF_RANGE: chain length must be an int, got True"),
        (lambda: make_tournament(2.5, []), "OUT_OF_RANGE: n must be an int, got 2.5"),
        (lambda: make_tournament(True, []), "OUT_OF_RANGE: n must be an int, got True"),
        (lambda: profile_count(cycle3(), 2.0), "OUT_OF_RANGE: n must be an int, got 2.0"),
        (lambda: profile_count(cycle3(), True), "OUT_OF_RANGE: n must be an int, got True"),
        (lambda: profile_sequence(cycle3(), 2.5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: profile_sequence(cycle3(), True), "OUT_OF_RANGE: n_max must be an int, got True"),
        (lambda: sum_profile(UNBOUNDED_C3, 2.5), "OUT_OF_RANGE: n must be an int, got 2.5"),
        (lambda: sum_profile(UNBOUNDED_C3, True), "OUT_OF_RANGE: n must be an int, got True"),
        (lambda: sum_profile_sequence(UNBOUNDED_C3, 2.5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: sum_profile_sequence(UNBOUNDED_C3, True), "OUT_OF_RANGE: n_max must be an int, got True"),
        (lambda: series_fit([1] * 8, 1.5), "OUT_OF_RANGE: k must be an int, got 1.5"),
        (lambda: series_fit([1] * 8, True), "OUT_OF_RANGE: k must be an int, got True"),
        (lambda: age_leq(cycle3(), cycle3(), 2.5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: age_leq(cycle3(), cycle3(), True), "OUT_OF_RANGE: n_max must be an int, got True"),
        (lambda: stabilized_profile(c3_member, 2.5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: stabilized_profile(c3_member, True), "OUT_OF_RANGE: n_max must be an int, got True"),
        (lambda: stabilized_profile(c3_member, 2.5, limit=5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: _census(2.5), "OUT_OF_RANGE: n must be an int, got 2.5"),
        (lambda: _census(True), "OUT_OF_RANGE: n must be an int, got True"),
        (lambda: (enumerate_tournaments(2), enumerate_tournaments(2.0)), "OUT_OF_RANGE: n must be an int, got 2.0"),
        (lambda: check_decomposition(2.5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: check_decomposition(True), "OUT_OF_RANGE: n_max must be an int, got True"),
        (lambda: check_decomposition(7, samples_per_size=1.5), "OUT_OF_RANGE: samples_per_size must be an int, got 1.5"),
        (lambda: check_decomposition(7, samples_per_size=True), "OUT_OF_RANGE: samples_per_size must be an int, got True"),
        (lambda: check_profile_formulas(2.5), "OUT_OF_RANGE: n_max must be an int, got 2.5"),
        (lambda: check_profile_formulas(True), "OUT_OF_RANGE: n_max must be an int, got True"),
        (lambda: check_incomparability(2.5), "OUT_OF_RANGE: host size must be an int, got 2.5"),
        (lambda: check_incomparability(True), "OUT_OF_RANGE: host size must be an int, got True"),
        (lambda: check_duality(2.5), "OUT_OF_RANGE: max chain must be an int, got 2.5"),
        (lambda: check_duality(True), "OUT_OF_RANGE: max chain must be an int, got True"),
        (lambda: check_compactness(2, 2.5), "OUT_OF_RANGE: size bound must be an int, got 2.5"),
        (lambda: check_compactness(2, True), "OUT_OF_RANGE: size bound must be an int, got True"),
        (lambda: check_compactness(2.0), "DOMAIN: compactness scan supports chain lengths 2 and 3"),
        (lambda: check_compactness(True), "DOMAIN: compactness scan supports chain lengths 2 and 3"),
        (lambda: SumSpec(cycle3(), (2.5, None, None)), "OUT_OF_RANGE: caps must be non-negative or UNBOUNDED"),
        (lambda: SumSpec(cycle3(), ("3", None, None)), "OUT_OF_RANGE: caps must be non-negative or UNBOUNDED"),
        (lambda: SumSpec(cycle3(), (True, None, None)), "OUT_OF_RANGE: caps must be non-negative or UNBOUNDED"),
        (lambda: formula_value(K_CLOSED, 2.5), "DOMAIN: closed form defined for int n, got 2.5"),
        (lambda: formula_value(K_CLOSED, True), "DOMAIN: closed form defined for int n, got True"),
        (lambda: euler_totient(2.5), "DOMAIN: totient needs an int n, got 2.5"),
        (lambda: euler_totient(True), "DOMAIN: totient needs an int n, got True"),
        (lambda: schmerl_trotter("t", 2.5), "OUT_OF_RANGE: h must be an int, got 2.5"),
        (lambda: schmerl_trotter("t", True), "OUT_OF_RANGE: h must be an int, got True"),
        (lambda: schmerl_trotter("t", -1), "H_TOO_SMALL: need h >= 2"),
    ],
    ids=["negative_n", "arity", "bits_outside", "self_loop", "chain_length", "chain_length_float",
         "chain_length_str", "chain_length_bool", "orientation", "chain_float_length",
         "make_negative_n", "unknown_generator", "position_one_pair", "relabel", "code_negative_n",
         "code_negative_bits", "code_too_wide", "family_kind", "family_float_length", "family_str_length",
         "family_size_kind", "family_size_length", "family_size_str_length", "family_size_float_length",
         "st_tag", "separated", "is_autonomous",
         "enumerate", "enumerate_float", "enumerate_bool", "age_leq_n_max", "fit_k",
         "fit_zero_tail", "chain_bool_length", "make_float_n", "make_bool_n", "profile_count_float",
         "profile_count_bool", "profile_sequence_float", "profile_sequence_bool", "sum_profile_float",
         "sum_profile_bool", "sum_sequence_float", "sum_sequence_bool", "fit_float_k", "fit_bool_k",
         "age_leq_float", "age_leq_bool", "stabilized_float", "stabilized_bool", "stabilized_float_with_limit",
         "census_float", "census_bool", "enumerate_float_cached", "decomposition_float", "decomposition_bool",
         "decomposition_float_samples", "decomposition_bool_samples", "formulas_float", "formulas_bool",
         "incomparability_float", "incomparability_bool", "duality_float", "duality_bool",
         "compactness_float_bound", "compactness_bool_bound", "compactness_float_n", "compactness_bool_n",
         "caps_float", "caps_str", "caps_bool", "formula_float_n", "formula_bool_n", "totient_float",
         "totient_bool", "st_float_h", "st_bool_h", "st_negative_h"],
)
def test_input_check(call, message):
    with pytest.raises(TournamentError) as e:
        call()
    assert str(e.value) == message
    assert e.value.details == {}


def test_missing_or_doubled_pair_names_it():
    # 0 beats 1 and 2 beats 0; the pair (1, 2) is oriented neither way
    with pytest.raises(TournamentError) as e:
        Tournament(3, [0b010, 0, 0b001])
    assert str(e.value) == "NOT_A_TOURNAMENT: pair (1,2) is missing or doubled"
    assert e.value.details == {"pair": (1, 2)}


def test_repeated_skew_token_names_its_pair():
    # "v0" twice orients (0, 1) twice; the rest of the selection is family t's
    with pytest.raises(TournamentError) as e:
        skew_product(ChainSpec(2), ["v0", "v0", "h0", "h1", "d0", "d1"])
    assert str(e.value) == "NOT_A_TOURNAMENT: pair (0,1) is oriented twice"
    assert e.value.details == {"pair": (0, 1)}


def test_separated_vertex_from_itself_is_none():
    assert separated(cycle3(), 1, 1) is None
