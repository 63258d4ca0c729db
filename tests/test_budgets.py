"""Budget and size errors carry what was consumed, the limit and where."""

import pytest

from tournkit.core import TournamentError, chain, cycle3, make_tournament
from tournkit.decomp import _subset_code_table
from tournkit.families import family
from tournkit.profiles import UNBOUNDED, SumSpec, profile_count, stabilized_profile, sum_profile
from tournkit.verify import check_compactness, check_profile_formulas, enumerate_tournaments


def error_of(call):
    with pytest.raises(TournamentError) as e:
        call()
    return e.value


def test_tournament_error_details_default_empty():
    assert error_of(lambda: make_tournament(2, [(0, 0)])).details == {}


@pytest.mark.parametrize(
    "call, message, details",
    [
        (lambda: enumerate_tournaments(10), "TOO_LARGE: enumeration limited to n <= 9",
         {"consumed": 10, "limit": 9, "where": "verify.enumerate_tournaments"}),
        (lambda: check_profile_formulas(10), "BUDGET_EXCEEDED: n_max above 9 is out of budget",
         {"consumed": 10, "limit": 9, "where": "verify.check_profile_formulas"}),
        (lambda: check_compactness(2, 9), "TOO_LARGE: size bound limited to 8",
         {"consumed": 9, "limit": 8, "where": "verify.check_compactness"}),
        (lambda: _subset_code_table(chain(11)), "TOO_LARGE: oracle limited to 10 vertices, got 11",
         {"consumed": 11, "limit": 10, "where": "decomp._subset_code_table"}),
        (lambda: profile_count(family("c3", 12), 12, budget=1000),
         "BUDGET_EXCEEDED: 1010 prefix states of size 8 exceed budget 1000",
         {"consumed": 1010, "limit": 1000, "where": "profiles.subset_census"}),
        (lambda: sum_profile(SumSpec(chain(9), (UNBOUNDED,) * 9), 3),
         "INDEX_TOO_LARGE: index limited to 8 vertices, got 9",
         {"consumed": 9, "limit": 8, "where": "profiles.sum_profile"}),
        (lambda: sum_profile(SumSpec(cycle3(), (UNBOUNDED,) * 3), 10, budget=5),
         "BUDGET_EXCEEDED: 9 Burnside steps exceed budget 5",
         {"consumed": 9, "limit": 5, "where": "profiles.sum_profile"}),
        (lambda: stabilized_profile(lambda size: family("c3", size), 6, limit=3),
         "BUDGET_EXCEEDED: no stabilisation up to size 3",
         {"consumed": 3, "limit": 3, "where": "profiles.stabilized_profile"}),
    ],
    ids=["enumerate", "profile_formulas", "compactness", "monomorphic_oracle", "subset_census",
         "sum_profile_index", "sum_profile_vectors", "stabilized_profile"],
)
def test_budget_error_details(call, message, details):
    err = error_of(call)
    assert str(err) == message
    assert err.details == details
