import itertools
import random

import pytest

from tournkit.core import Tournament
from tournkit.verify import _random_tournament as random_tournament


def all_labeled_tournaments(n: int):
    """Every labeled tournament on n vertices, one per orientation bitmask."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if (mask >> idx) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield Tournament(n, rows)


def k_recurrence(n: int) -> int:
    """Profile of the K family at n >= 3 by its dilation recurrence, the
    oracle for the closed form 2^(n-2)."""
    values = [1, 1, 1]
    for m in range(3, n + 1):
        values.append(1 + sum((m - j - 1) * values[j] for j in range(1, m - 1)))
    return values[n]


def parts_at_most_k(k: int, n: int) -> int:
    """Partitions of n into at most k parts, by recursion on the largest part."""
    def rec(remaining, largest, slots):
        if remaining == 0:
            return 1
        if slots == 0:
            return 0
        return sum(rec(remaining - p, p, slots - 1) for p in range(min(remaining, largest), 0, -1))

    return rec(n, n, k)


@pytest.fixture
def rng():
    return random.Random(987123)
