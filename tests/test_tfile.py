import random
from itertools import combinations

import pytest

from tournkit.core import TournamentError, cycle3
from tournkit.tfile import dump_path, dumps, load_path, loads

from conftest import random_tournament


def test_roundtrip_cycle():
    assert loads(dumps(cycle3())) == cycle3()


def test_roundtrip_random(rng):
    for _ in range(30):
        t = random_tournament(rng, rng.randint(0, 10))
        assert loads(dumps(t)) == t


def test_comments_and_blanks_skipped():
    text = "# generated\n\n3\n010\n# middle\n001\n100\n"
    assert loads(text) == cycle3()


def test_path_roundtrip(tmp_path, rng):
    t = random_tournament(rng, 6)
    p = tmp_path / "t.txt"
    dump_path(t, p)
    assert load_path(p) == t


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("x\n", "count"),
        ("-1\n", "count"),
        ("2\n01\n", "2 matrix rows"),
        ("2\n01\n100\n", "line 3"),
        ("2\n0a\n10\n", "line 2"),
        ("2\n11\n00\n", "line 2"),
        ("3\n011\n001\n100\n", "line 4"),
        ("3\n010\n001\n000\n", "line 4"),
    ],
)
def test_malformed(text, fragment):
    with pytest.raises(TournamentError) as e:
        loads(text)
    assert e.value.code == "BAD_FILE"
    assert fragment in str(e.value)


def test_extra_rows_rejected():
    with pytest.raises(TournamentError) as e:
        loads("2\n01\n10\n01\n")
    assert e.value.code == "BAD_FILE"


def oracle_first_bad_pair(text):
    """The per-character pair loop that row and column bitmasks replaced:
    the BAD_FILE message of the first pair (i, j), i < j, oriented twice or
    never, or None."""
    kept = [(lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1)]
    matrix = [(lineno, line) for lineno, line in kept if line and not line.startswith("#")][1:]
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][1][j] == matrix[j][1][i]:
                return f"BAD_FILE: line {matrix[j][0]}: pair ({i},{j}) must be oriented exactly once"
    return None


@pytest.mark.parametrize("broken", [1, 2])
def test_first_bad_pair_matches_pair_loop(broken):
    rng = random.Random(4100 + broken)
    for _ in range(300):
        n = rng.randint(3, 14)
        rows = [list(line) for line in dumps(random_tournament(rng, n)).split()[1:]]
        for i, j in rng.sample(list(combinations(range(n), 2)), broken):
            if rng.getrandbits(1):
                i, j = j, i
            rows[i][j] = "1" if rows[i][j] == "0" else "0"
        lines = [str(n)] + ["".join(row) for row in rows]
        lines.insert(rng.randint(1, n + 1), "# a comment shifts the line numbers")
        text = "\n".join(lines) + "\n"
        with pytest.raises(TournamentError) as e:
            loads(text)
        assert e.value.code == "BAD_FILE"
        assert str(e.value) == oracle_first_bad_pair(text)
