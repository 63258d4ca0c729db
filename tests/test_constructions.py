"""The row-built constructions against the edge-list builders they replaced.

Each ``oracle_*`` below is the earlier construction: it lists every oriented
pair and lets ``make_tournament`` check the list.  The row builders must give
the same rows tuple, or raise an error with the same code, on every family
kind, every Schmerl-Trotter tag, every witness, every small skew-product
selection and every three-level chain pattern."""

import random
from itertools import combinations, product

import pytest

from tournkit.core import (
    ChainSpec,
    Tournament,
    TournamentError,
    _pattern,
    _resolve_generator,
    chain,
    cycle3,
    lex_sum,
    make_tournament,
    skew_product,
)
from tournkit.families import KINDS, WITNESS_NAMES, X_SETS, family, schmerl_trotter, witness

from conftest import random_tournament

ORIENTATIONS = ("asc", "desc")
TOKENS = sorted(g + inv for g in ("h0", "h1", "v0", "v1", "d0", "d1") for inv in ("", "^-1"))


def oracle_cycle3() -> Tournament:
    return make_tournament(3, [(0, 1), (1, 2), (2, 0)])


def oracle_chain(spec: ChainSpec) -> Tournament:
    pairs = combinations(range(spec.length), 2)
    return make_tournament(spec.length, [(i, j) if spec.orientation == "asc" else (j, i) for i, j in pairs])


def oracle_lex_sum(d: Tournament, blocks) -> Tournament:
    """Each block's own rows, then every pair of block vertices that the
    index orients, one index edge at a time."""
    blocks = list(blocks)
    offs = [sum(b.n for b in blocks[:i]) for i in range(len(blocks))]
    total = sum(b.n for b in blocks)
    rows = [0] * total
    for i, b in enumerate(blocks):
        o = offs[i]
        for u in range(b.n):
            rows[o + u] = b.rows[u] << o
    for i in range(d.n):
        for j in range(d.n):
            if i != j and d.edge(i, j):
                mask_j = ((1 << blocks[j].n) - 1) << offs[j]
                for u in range(blocks[i].n):
                    rows[offs[i] + u] |= mask_j
    return Tournament(total, rows, validate=False)


def oracle_pattern(spec: ChainSpec, levels: int, rules) -> Tournament:
    """Vertex (x, i) is levels*x + i; each rule lists the pairs it orients."""
    length = spec.length
    c = oracle_chain(spec)
    edges = []
    for (s, i), (t, j) in rules:
        if s == 0 and t == 0:
            edges.extend(((levels * x + i, levels * x + j) for x in range(length)))
        elif s == 0 and t == 1:
            edges.extend((levels * x + i, levels * y + j)
                         for x in range(length) for y in range(length) if c.edge(x, y))
        elif s == 1 and t == 0:
            edges.extend((levels * x + i, levels * y + j)
                         for x in range(length) for y in range(length) if c.edge(y, x))
        else:
            raise TournamentError("NOT_A_TOURNAMENT", "generator covers no pair")
    try:
        return make_tournament(levels * length, edges)
    except TournamentError as exc:
        raise TournamentError("NOT_A_TOURNAMENT", f"selection does not orient every pair once ({exc.code})") from exc


def oracle_skew_product(spec: ChainSpec, x_set) -> Tournament:
    return oracle_pattern(spec, 2, [_resolve_generator(tok) for tok in sorted(x_set)])


def oracle_v_family(spec: ChainSpec) -> Tournament:
    length = spec.length
    c = oracle_chain(spec)
    apex = 2 * length
    edges = []
    for x in range(length):
        edges.append((2 * x, 2 * x + 1))
        edges.append((apex, 2 * x))
        edges.append((2 * x + 1, apex))
        for y in range(length):
            if c.edge(x, y):
                for i in (0, 1):
                    for j in (0, 1):
                        edges.append((2 * x + i, 2 * y + j))
    return make_tournament(2 * length + 1, edges)


def oracle_schmerl_trotter(tag: str, h: int) -> Tournament:
    n = 2 * h + 1
    edges = []
    if tag == "v":
        edges.extend((i, j) for i in range(2 * h) for j in range(i + 1, 2 * h))
        for i in range(h):
            edges.append((2 * i + 1, 2 * h))
            edges.append((2 * h, 2 * i))
        return make_tournament(n, edges)
    edges.extend((i, j) for i in range(h + 1) for j in range(i + 1, h + 1))
    for i in range(h + 1, n):
        for j in range(i + 1, n):
            edges.append((i, j) if tag == "t" else (j, i))
    for i in range(h):
        for j in range(i + 1, h + 1):
            edges.append((j, i + h + 1))
        for k in range(i + 1):
            edges.append((i + h + 1, k))
    return make_tournament(n, edges)


def oracle_family(kind: str, spec: ChainSpec) -> Tournament:
    if kind == "c3":
        return oracle_lex_sum(oracle_chain(spec), [oracle_cycle3()] * spec.length)
    if kind == "v":
        return oracle_v_family(spec)
    return oracle_skew_product(spec, X_SETS[kind])


ORACLE_WITNESSES = {
    "tau1": lambda: oracle_lex_sum(chain(2), [oracle_cycle3(), oracle_cycle3()]),
    "tau2": lambda: oracle_lex_sum(oracle_cycle3(), [oracle_cycle3(), chain(1), chain(1)]),
    "T5": lambda: oracle_schmerl_trotter("t", 2),
    "U7": lambda: oracle_schmerl_trotter("u", 3),
    "V7": lambda: oracle_schmerl_trotter("v", 3),
    "H3": lambda: oracle_family("h", ChainSpec(3)),
}


def outcome(build):
    """The rows tuple that build() returns, or the code of its error."""
    try:
        return build().rows
    except TournamentError as exc:
        return exc.code


def test_cycle3_is_its_edge_list():
    assert cycle3() == oracle_cycle3()


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_family_matches_edge_list(kind, orientation):
    for length in range(1, 13):
        spec = ChainSpec(length, orientation)
        assert family(kind, spec).rows == oracle_family(kind, spec).rows


@pytest.mark.parametrize("tag", ["t", "u", "v"])
def test_schmerl_trotter_matches_edge_list(tag):
    for h in range(2, 9):
        assert schmerl_trotter(tag, h).rows == oracle_schmerl_trotter(tag, h).rows


def test_witnesses_match_edge_lists():
    assert sorted(ORACLE_WITNESSES) == sorted(WITNESS_NAMES)
    for name, build in ORACLE_WITNESSES.items():
        assert witness(name).rows == build().rows


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_skew_product_matches_edge_list_on_every_small_selection(length, orientation):
    """Every selection of up to 6 of the 12 generator tokens: the same rows
    or the same error code, and the valid selections include the families'."""
    spec = ChainSpec(length, orientation)
    valid = set()
    for size in range(7):
        for x_set in combinations(TOKENS, size):
            got = outcome(lambda: skew_product(spec, x_set))
            assert got == outcome(lambda: oracle_skew_product(spec, x_set)), x_set
            if not isinstance(got, str):
                valid.add(frozenset(x_set))
    assert set(X_SETS.values()) <= valid


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_skew_product_matches_edge_list_with_a_repeated_token(length, orientation):
    """Every selection of up to 5 tokens with one of them given twice: the
    edge list orients its pairs twice, unless the chain is too short for that
    generator to cover any pair."""
    spec = ChainSpec(length, orientation)
    for size in range(1, 6):
        for x_set in combinations(TOKENS, size):
            for token in x_set:
                doubled = x_set + (token,)
                got = outcome(lambda: skew_product(spec, doubled))
                assert got == outcome(lambda: oracle_skew_product(spec, doubled)), doubled


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_pattern_matches_edge_list_on_every_three_level_rule_set(orientation):
    """Each of the 3 within pairs and the 9 cross pairs of levels, in either
    direction: 4,096 rule sets, each orienting every pair of a length-3 chain
    of 3-vertex patterns once."""
    spec = ChainSpec(3, orientation)
    within = [((0, i), (0, j)) for i, j in combinations(range(3), 2)]
    cross = [((0, i), (1, j)) for i in range(3) for j in range(3)]
    for flips in product((False, True), repeat=len(within) + len(cross)):
        rules = [(q, p) if flip else (p, q) for (p, q), flip in zip(within + cross, flips)]
        assert tuple(_pattern(spec, 3, rules)) == oracle_pattern(spec, 3, rules).rows, rules


@pytest.mark.parametrize("seed", range(3))
def test_lex_sum_matches_edge_list_on_random_blocks(seed):
    rng = random.Random(5200 + seed)
    for _ in range(40):
        d = random_tournament(rng, rng.randint(0, 6))
        blocks = [random_tournament(rng, rng.randint(0, 4)) for _ in range(d.n)]
        assert lex_sum(d, blocks).rows == oracle_lex_sum(d, blocks).rows

