"""Closed forms, recurrences, and bounds used as independent profile oracles."""

from __future__ import annotations

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
