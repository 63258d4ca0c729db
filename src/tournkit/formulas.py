"""Closed forms, recurrences, and bounds used as independent profile oracles."""

from __future__ import annotations

from .core import TournamentError

C3_RECURRENCE = "C3_RECURRENCE"
CAMERON_DIAMOND_FREE = "CAMERON_DIAMOND_FREE"
K_CLOSED = "K_CLOSED"
K_RECURRENCE = "K_RECURRENCE"
U_LOWER = "U_LOWER"
H_LOWER = "H_LOWER"
V_LOWER = "V_LOWER"

# floor form of the C3 recurrence: round(d * c**n); c is the real root of
# x**3 = x**2 + 1
A000930_C = 1.465571231876768
A000930_D = 0.611491991950812


def _c3_value(n: int) -> int:
    # window of three consecutive values, starting at n = 0, 1, 2
    a, b, c = 1, 1, 1
    for _ in range(n):
        a, b, c = b, c, c + a
    return a


def _k_value(n: int) -> int:
    # profile of the K family via its dilation recurrence
    values = [1, 1, 1]
    for m in range(3, n + 1):
        values.append(1 + sum((m - j - 1) * values[j] for j in range(1, m - 1)))
    return values[n]


def euler_totient(n: int) -> int:
    """Count of 1..n coprime to n, by trial-division factoring."""
    if n < 1:
        raise TournamentError("DOMAIN", f"totient needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def partition_count(k: int, n: int) -> int:
    """Partitions of n into at most k parts; by conjugation, into parts <= k."""
    if k < 0 or n < 0:
        raise TournamentError("DOMAIN", f"need k, n >= 0, got k={k}, n={n}")
    ways = [1] + [0] * n
    for part in range(1, min(k, n) + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _cameron(n: int) -> int:
    total = 0
    for d in range(1, n + 1, 2):
        if n % d == 0:
            total += euler_totient(d) * 2 ** (n // d)
    if total % (2 * n):
        raise TournamentError("NON_INTEGER", f"divisor sum not divisible by 2n at n={n}")
    return total // (2 * n)


# tag -> (least n, what the tag is, value at n)
_FORMULAS = {
    C3_RECURRENCE: (0, "recurrence", _c3_value),
    CAMERON_DIAMOND_FREE: (1, "count", _cameron),
    K_CLOSED: (2, "closed form", lambda n: 2 ** (n - 2)),
    K_RECURRENCE: (3, "recurrence", _k_value),
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
    if n < least:
        raise TournamentError("DOMAIN", f"{noun} defined for n >= {least}")
    return value(n)


def a000930_floor_form(n: int) -> int:
    """Float evaluation round(d * c**n), cross-checked against the recurrence."""
    if n < 0:
        raise TournamentError("DOMAIN", "defined for n >= 0")
    try:
        value = int(A000930_D * A000930_C ** n + 0.5)
    except OverflowError:
        raise TournamentError("PRECISION", f"floor form overflows a float at n={n}") from None
    if value != _c3_value(n):
        raise TournamentError("PRECISION", f"floor form disagrees with recurrence at n={n}")
    return value
