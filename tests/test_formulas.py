import math

import pytest

from tournkit.core import TournamentError
from tournkit.formulas import (
    C3_RECURRENCE,
    CAMERON_DIAMOND_FREE,
    FORMULA_TAGS,
    H_LOWER,
    K_CLOSED,
    U_LOWER,
    V_LOWER,
    euler_totient,
    formula_value,
)

from conftest import k_recurrence, parts_at_most_k


class TestC3Recurrence:
    def test_prefix(self):
        expect = [1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41, 60, 88, 129]
        assert [formula_value(C3_RECURRENCE, n) for n in range(15)] == expect

    def test_recurrence_law(self):
        for n in range(3, 40):
            assert formula_value(C3_RECURRENCE, n) == formula_value(C3_RECURRENCE, n - 1) + formula_value(
                C3_RECURRENCE, n - 3
            )

    def test_domain(self):
        with pytest.raises(TournamentError) as e:
            formula_value(C3_RECURRENCE, -1)
        assert e.value.code == "DOMAIN"


class TestCameron:
    def test_values(self):
        assert [formula_value(CAMERON_DIAMOND_FREE, n) for n in range(1, 8)] == [1, 1, 2, 2, 4, 6, 10]

    def test_spot(self):
        assert formula_value(CAMERON_DIAMOND_FREE, 3) == 2
        assert formula_value(CAMERON_DIAMOND_FREE, 5) == 4

    def test_exponential_growth(self):
        assert formula_value(CAMERON_DIAMOND_FREE, 14) > 1.8 * formula_value(CAMERON_DIAMOND_FREE, 13)

    def test_domain(self):
        with pytest.raises(TournamentError):
            formula_value(CAMERON_DIAMOND_FREE, 0)

    def test_division_always_exact(self):
        for n in range(1, 30):
            formula_value(CAMERON_DIAMOND_FREE, n)


class TestKFormulas:
    def test_closed(self):
        assert [formula_value(K_CLOSED, n) for n in range(2, 10)] == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_recurrence_expansion_at_5(self):
        assert k_recurrence(5) == 8

    def test_recurrence_matches_closed(self):
        for n in range(3, 21):
            assert k_recurrence(n) == formula_value(K_CLOSED, n)

    def test_domains(self):
        with pytest.raises(TournamentError):
            formula_value(K_CLOSED, 1)


class TestBounds:
    def test_u_lower(self):
        assert [formula_value(U_LOWER, n) for n in range(5, 8)] == [1, 5, 16]

    def test_h_lower(self):
        assert formula_value(H_LOWER, 7) == 3

    def test_v_lower(self):
        assert [formula_value(V_LOWER, n) for n in range(5, 8)] == [1, 2, 4]

    def test_negative_region_clamps_to_zero(self):
        assert formula_value(U_LOWER, 4) == 0
        assert formula_value(H_LOWER, 6) == 0
        assert formula_value(V_LOWER, 4) == 0

    def test_unknown_tag(self):
        with pytest.raises(TournamentError):
            formula_value("NO_SUCH", 3)

    def test_tag_listing(self):
        assert len(FORMULA_TAGS) == 6


class TestTotient:
    def test_spots(self):
        assert euler_totient(1) == 1
        assert euler_totient(7) == 6
        assert euler_totient(12) == 4

    def test_brute_force(self):
        for n in range(1, 200):
            assert euler_totient(n) == sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)

    def test_domain(self):
        with pytest.raises(TournamentError) as e:
            euler_totient(0)
        assert e.value.code == "DOMAIN"


class TestPartitions:
    """The oracle that bounds ``sum_profile`` from below."""

    def test_base_cases(self):
        for k in range(6):
            assert parts_at_most_k(k, 0) == 1
        for n in range(1, 10):
            assert parts_at_most_k(1, n) == 1
            assert parts_at_most_k(0, n) == 0

    def test_spot(self):
        assert parts_at_most_k(2, 4) == 3

    def test_generating_series_identity(self):
        # by conjugation the series is prod 1/(1-x^i) over i <= k: convolving
        # it with prod(1-x^i) telescopes to 1
        for k in range(1, 6):
            series = [parts_at_most_k(k, n) for n in range(21)]
            poly = [1]
            for i in range(1, k + 1):
                new = poly + [0] * i
                for idx, c in enumerate(poly):
                    new[idx + i] -= c
                poly = new
            out = [0] * 21
            for a in range(21):
                for b, c in enumerate(poly):
                    if a + b < 21:
                        out[a + b] += series[a] * c
            assert out == [1] + [0] * 20


class TestFloorForm:
    def test_matches_recurrence(self):
        # A000930 is round(d * c**n), c the real root of x**3 = x**2 + 1
        c, d = 1.465571231876768, 0.611491991950812
        for n in range(31):
            assert round(d * c ** n) == formula_value(C3_RECURRENCE, n)


class TestLargeN:
    """The formulas are loops, so large n neither recurses nor caches."""

    def test_c3_recurrence_at_5000(self):
        a, b, c = 1, 1, 1
        for _ in range(5000):
            a, b, c = b, c, c + a
        assert formula_value(C3_RECURRENCE, 5000) == a

    def test_k_recurrence_matches_closed_to_60(self):
        for n in range(3, 61):
            assert k_recurrence(n) == formula_value(K_CLOSED, n)


class TestFormulaTable:
    def test_tag_order(self):
        assert FORMULA_TAGS == (
            C3_RECURRENCE,
            CAMERON_DIAMOND_FREE,
            K_CLOSED,
            U_LOWER,
            H_LOWER,
            V_LOWER,
        )

    @pytest.mark.parametrize(
        "tag, n, message",
        [
            (C3_RECURRENCE, -1, "recurrence defined for n >= 0"),
            (CAMERON_DIAMOND_FREE, 0, "count defined for n >= 1"),
            (K_CLOSED, 1, "closed form defined for n >= 2"),
            (U_LOWER, -1, "bound defined for n >= 0"),
            (H_LOWER, -1, "bound defined for n >= 0"),
            (V_LOWER, -1, "bound defined for n >= 0"),
            ("X", 3, "unknown formula tag 'X'"),
        ],
    )
    def test_domain_messages(self, tag, n, message):
        with pytest.raises(TournamentError) as e:
            formula_value(tag, n)
        assert str(e.value) == f"DOMAIN: {message}"
