"""Acceptance gate: one test per shipped criterion, each printing a PASS line.

Run with -v (or -s) to see one line per criterion. Every expected value here
was frozen from the independent oracles before the library was wired up.
"""

import json

from tournkit.core import automorphism_count, chain, cycle3, lex_sum, make_tournament
from tournkit.decomp import is_acyclically_indecomposable
from tournkit.families import schmerl_trotter
from tournkit.formulas import (
    C3_RECURRENCE,
    CAMERON_DIAMOND_FREE,
    H_LOWER,
    K_CLOSED,
    U_LOWER,
    V_LOWER,
    formula_value,
)
from tournkit.profiles import (
    ProfileSeries,
    SumSpec,
    UNBOUNDED,
    growth_of_sum,
    profile_count,
    series_fit,
    sum_profile,
    sum_profile_sequence,
)
from tournkit.tfile import loads
from tournkit.verify import (
    check_compactness,
    check_decomposition,
    check_duality,
    check_incomparability,
    check_profile_formulas,
    enumerate_tournaments,
)

import pytest

from conftest import k_recurrence, parts_at_most_k


@pytest.fixture(scope="module")
def profile_suite():
    return check_profile_formulas(9)


def stabilized(report, kind):
    for c in report.checks:
        if c["name"] == f"stabilized_{kind}":
            return c["details"]["values"]
    raise AssertionError(f"no stabilized values for {kind}")


def announce(num, label):
    print(f"[PASS] criterion {num}: {label}")


def test_01_c3_profile_and_series(profile_suite):
    values = stabilized(profile_suite, "c3")
    assert values == [1, 1, 1, 2, 3, 4, 6, 9, 13, 19]
    # expand 1/(1 - x - x^3) by long division and compare with the recurrence
    den = [1, -1, 0, -1]
    series = []
    for n in range(21):
        c = 1 if n == 0 else 0
        for i in range(1, min(n, 3) + 1):
            c -= den[i] * series[n - i]
        series.append(c)
    assert series == [formula_value(C3_RECURRENCE, n) for n in range(21)]
    announce(1, "C3-family profile 1,1,1,2,3,4,6,9,13,19 and series 1/(1-x-x^3)")


def test_02_k_profile_and_recurrence(profile_suite):
    values = stabilized(profile_suite, "k")
    assert values[2:] == [formula_value(K_CLOSED, n) for n in range(2, 8)]
    assert all(k_recurrence(n) == formula_value(K_CLOSED, n) for n in range(3, 21))
    announce(2, "K-family profile 2^(n-2) and recurrence/closed-form agreement to n=20")


def test_03_v_profile_and_bound(profile_suite):
    values = stabilized(profile_suite, "v")
    assert values == [1, 1, 1, 2, 4, 9, 21, 48]
    assert all(values[n] >= formula_value(V_LOWER, n) for n in range(5, 8))
    announce(3, "V-family profile 1,1,1,2,4,9,21,48 with 2^(n-5) bound")


def test_04_t_profile_cameron(profile_suite):
    values = stabilized(profile_suite, "t")
    assert values[1:] == [formula_value(CAMERON_DIAMOND_FREE, n) for n in range(1, 8)]
    announce(4, "T-family profile equals the totient count 1,1,2,2,4,6,10")


def test_05_u_h_lower_bounds(profile_suite):
    u = stabilized(profile_suite, "u")
    h = stabilized(profile_suite, "h")
    u_pos = [n for n in range(8) if formula_value(U_LOWER, n) > 0]
    h_pos = [n for n in range(8) if formula_value(H_LOWER, n) > 0]
    assert u_pos and h_pos
    assert all(u[n] >= formula_value(U_LOWER, n) for n in u_pos)
    assert all(h[n] >= formula_value(H_LOWER, n) for n in h_pos)
    announce(5, "U and H profiles dominate their proof bounds where positive")


def test_06_decomposition_laws():
    report = check_decomposition(6)
    assert report.passed
    assert not report.counterexamples
    classes = sum(c["details"]["classes"] for c in report.checks if c["name"].startswith("exhaustive"))
    assert classes == 76
    announce(6, "decomposition laws exhaustive on all 76 classes up to 6 vertices")


def test_07_census():
    counts = [len(enumerate_tournaments(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 4, 12, 56, 456]
    announce(7, "canonical census 1,1,2,4,12,56,456")


def test_08_incomparability():
    report = check_incomparability(14)
    assert report.passed
    assert not report.counterexamples
    assert len(report.checks) == 36
    announce(8, "six witnesses embed in their own family only, hosts up to 14 vertices")


def test_09_duality():
    report = check_duality(5)
    assert report.passed
    announce(9, "duality clauses for chain lengths 2..5, K self-dual, U mutual")


_DIAMOND_DOM = make_tournament(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
_DIAMOND_SUB = make_tournament(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
_STRONG4 = make_tournament(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (3, 2)])
SUM_SPECS = (
    SumSpec(cycle3(), (UNBOUNDED,) * 3),
    SumSpec(cycle3(), (UNBOUNDED, UNBOUNDED, 1)),
    SumSpec(cycle3(), (1, 2, UNBOUNDED)),
    SumSpec(cycle3(), (2, 2, 2)),
    SumSpec(cycle3(), (3, 1, 2)),
    SumSpec(chain(4), (UNBOUNDED, 2, UNBOUNDED, 1)),
    SumSpec(_DIAMOND_DOM, (UNBOUNDED, 1, 1, UNBOUNDED)),
    SumSpec(_DIAMOND_SUB, (2, UNBOUNDED, UNBOUNDED, UNBOUNDED)),
    SumSpec(_DIAMOND_SUB, (2, 1, 1, 1)),
    SumSpec(_STRONG4, (UNBOUNDED, 1, UNBOUNDED, 1)),
    SumSpec(_STRONG4, (1, 1, 1, 1)),
    SumSpec(schmerl_trotter("t", 2), (UNBOUNDED, 1, 1, UNBOUNDED, 0)),
)


def test_10_sum_profile_laws():
    assert len(SUM_SPECS) >= 10
    for spec in SUM_SPECS:
        g = growth_of_sum(spec)
        finite = all(c is not UNBOUNDED for c in spec.caps)
        if finite:
            mat = lex_sum(spec.index, [chain(c) for c in spec.caps])
            for n in range(mat.n + 2):
                assert sum_profile(spec, n) == (profile_count(mat, n) if n <= mat.n else 0)
            assert g["k"] == 0
        else:
            n_max = 18 if g["k"] >= 3 else 14
            fit = series_fit(sum_profile_sequence(spec, n_max), g["k"])
            assert fit is not None
            assert all(isinstance(c, int) for c in fit)
        for n in range(g["p"], 15):
            assert sum_profile(spec, n) >= parts_at_most_k(g["k"], n - g["p"])
    prefix = ProfileSeries(tuple(formula_value(C3_RECURRENCE, n) for n in range(15)))
    for k in range(4):
        assert series_fit(prefix, k) is None
    announce(10, "12 sum specs: finite consistency, integer fits, partition bound, non-rational prefix")


def test_11_rigidity():
    assert automorphism_count(schmerl_trotter("u", 2)) == 1
    assert automorphism_count(schmerl_trotter("u", 3)) == 1
    announce(11, "U5 and U7 are rigid")


def test_12_compactness_determinism():
    first = check_compactness(2, 8)
    again = check_compactness(2, 8)
    assert first.passed
    assert first.to_json() == again.to_json()
    data = json.loads(first.to_json())
    for c in data["checks"]:
        for lines in c.get("details", {}).get("avoiders", []):
            assert is_acyclically_indecomposable(loads("\n".join(lines) + "\n"))
    announce(12, "compactness scan byte-identical across runs")
