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


@pytest.fixture
def rng():
    return random.Random(987123)
