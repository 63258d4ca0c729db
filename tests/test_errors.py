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
from tournkit.profiles import age_leq, series_fit
from tournkit.verify import enumerate_tournaments

# a counting series whose product with (1-x)(1-x^2) is 1 + x^6: its last
# coefficient vanishes but not the whole window of three
SHORT_ZERO_TAIL = [1, 1, 2, 2, 3, 3, 5, 5]


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
    ],
    ids=["negative_n", "arity", "bits_outside", "self_loop", "chain_length", "chain_length_float",
         "chain_length_str", "chain_length_bool", "orientation", "chain_float_length",
         "make_negative_n", "unknown_generator", "position_one_pair", "relabel", "code_negative_n",
         "code_negative_bits", "code_too_wide", "family_kind", "family_float_length", "family_str_length",
         "family_size_kind", "family_size_length", "family_size_str_length", "family_size_float_length",
         "st_tag", "separated", "is_autonomous",
         "enumerate", "enumerate_float", "enumerate_bool", "age_leq_n_max", "fit_k",
         "fit_zero_tail"],
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
