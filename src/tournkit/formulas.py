"""Closed forms, recurrences, bounds and class counts used as independent oracles."""

from __future__ import annotations

from itertools import combinations
from math import factorial, gcd, prod

from .core import TournamentError

C3_RECURRENCE = "C3_RECURRENCE"
CAMERON_DIAMOND_FREE = "CAMERON_DIAMOND_FREE"
K_CLOSED = "K_CLOSED"
U_LOWER = "U_LOWER"
H_LOWER = "H_LOWER"
V_LOWER = "V_LOWER"


def _c3_value(n: int) -> int:
    # window of three consecutive values, starting at n = 0, 1, 2
    a, b, c = 1, 1, 1
    for _ in range(n):
        a, b, c = b, c, c + a
    return a


def euler_totient(n: int) -> int:
    """Count of 1..n coprime to n, by trial-division factoring."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TournamentError("DOMAIN", f"totient needs an int n, got {n!r}")
    if n < 1:
        raise TournamentError("DOMAIN", f"totient needs n >= 1, got {n}")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _cameron(n: int) -> int:
    total = 0
    for d in range(1, n + 1, 2):
        if n % d == 0:
            total += euler_totient(d) * 2 ** (n // d)
    if total % (2 * n):
        raise TournamentError("NON_INTEGER", f"divisor sum not divisible by 2n at n={n}")
    return total // (2 * n)


def _cycle_index_sum(size: int, f) -> list[int]:
    """Coefficients of x^0..x^size of Davis's cycle index of tournaments
    (Bull. Math. Biophys. 16, 1954) at p_l = f(x^l), for the power series f
    with coefficients f[0] = 0, f[1], ...; f(y) = y counts the classes on n
    vertices (OEIS A000568).

    Burnside over the n! relabelings: a permutation with an even cycle
    reverses the pair of opposite vertices on it and fixes no tournament.
    One of odd cycle type lambda fixes 2^e of them, one orientation per orbit
    on pairs: (l - 1)/2 orbits inside each cycle of length l and gcd(l, l')
    between two cycles.  Its conjugacy class holds n!/z_lambda permutations,
    z_lambda = prod over part sizes p of p^m_p * m_p! for multiplicities m_p.
    """
    def odd_partitions(room, largest):  # each multiset of odd parts with total <= room
        yield ()
        for part in range(min(room, largest), 0, -1):
            if part % 2:
                yield from ((part, *rest) for rest in odd_partitions(room - part, part))

    scale, series = factorial(size), [0] * (size + 1)  # z_lambda divides n!, which divides size!
    for parts in odd_partitions(size, size):
        exponent = sum((p - 1) // 2 for p in parts) + sum(gcd(a, b) for a, b in combinations(parts, 2))
        z = prod(parts) * prod(factorial(parts.count(p)) for p in set(parts))
        term = [(scale // z) << exponent] + [0] * size
        for l in parts:  # times f(x^l)
            term = [sum(f[j] * term[i - l * j] for j in range(min(i // l + 1, len(f)))) for i in range(size + 1)]
        series = [a + b for a, b in zip(series, term)]
    return [c // scale for c in series]


# tag -> (least n, what the tag is, value at n)
_FORMULAS = {
    C3_RECURRENCE: (0, "recurrence", _c3_value),
    CAMERON_DIAMOND_FREE: (1, "count", _cameron),
    K_CLOSED: (2, "closed form", lambda n: 2 ** (n - 2)),
    U_LOWER: (0, "bound", lambda n: max(2 ** (n - 2) - 1 - (n - 1) * (n - 2) // 2, 0) if n >= 2 else 0),
    H_LOWER: (0, "bound", lambda n: max(2 ** (n - 4) - (n - 3) - 1, 0) if n >= 4 else 0),
    V_LOWER: (0, "bound", lambda n: 2 ** (n - 5) if n >= 5 else 0),
}
FORMULA_TAGS = tuple(_FORMULAS)


def formula_value(kind: str, n: int) -> int:
    """Evaluate one of the tagged closed forms / recurrences / bounds at n."""
    if not isinstance(kind, str) or kind not in _FORMULAS:
        raise TournamentError("DOMAIN", f"unknown formula tag {kind!r}")
    least, noun, value = _FORMULAS[kind]
    if isinstance(n, bool) or not isinstance(n, int):
        raise TournamentError("DOMAIN", f"{noun} defined for int n, got {n!r}")
    if n < least:
        raise TournamentError("DOMAIN", f"{noun} defined for n >= {least}")
    return value(n)
