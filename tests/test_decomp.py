import itertools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tournkit.core import (
    Tournament,
    TournamentError,
    canonical_form,
    chain,
    cycle3,
    is_acyclic,
    is_isomorphic,
    lex_sum,
    make_tournament,
    relabel,
    restrict,
)
from tournkit import decomp
from tournkit.decomp import (
    DIAMOND,
    DOUBLE_DIAMOND,
    LINEAR,
    PRIME,
    THREE_CYCLE,
    _bits,
    _is_monomorphic_in,
    _least_partition,
    _reach,
    _strong_components,
    _strong_tree,
    _subset_code_table,
    acyclic_components,
    is_acyclically_indecomposable,
    is_autonomous,
    is_indecomposable,
    monomorphic_components,
    reconstruct,
    separated,
    spectrum,
)
from tournkit.families import KINDS, descending, family
from tournkit.verify import enumerate_tournaments

from conftest import all_labeled_tournaments, random_tournament
from test_core import diamond, paley, tournaments


# The pair-closure decomposition that the strong-module tree replaced, kept
# verbatim as the oracle: _closure, _is_acyclic_mask, _classes and the pair
# loop of acyclic_components, the all-pairs closure of is_indecomposable, and
# the is_autonomous triple scan of _monomorphic_classes with _common_cycle_mask.


def _closure(t: Tournament, x: int, y: int) -> int:
    """Bitmask of the smallest autonomous set containing x and y.

    Autonomous sets that meet intersect in an autonomous set, so this set is
    unique.  An outside vertex that beats one member and is beaten by another
    lies in every autonomous set holding the members; such splitters are
    added until none is left, O(n) big-int operations.
    """
    mask, beaten, beating, add = 0, 0, 0, (1 << x) | (1 << y)
    while add:
        for v in _bits(add):
            beaten, beating = beaten | t.rows[v], beating | t.in_mask(v)
        mask |= add
        add = beaten & beating & ~mask
    return mask


def _is_acyclic_mask(t, mask):
    """The restriction to mask is transitive: its out-degrees are distinct."""
    degrees = set()
    for v in _bits(mask):
        d = (t.rows[v] & mask).bit_count()
        if d in degrees:
            return False
        degrees.add(d)
    return True


def _classes(masks):
    """Classes of a partition given as each vertex's class bitmask, ordered
    by least vertex."""
    return tuple(tuple(_bits(m)) for m in dict.fromkeys(masks))


def oracle_blocks(t):
    """Blocks of acyclic_components by the pair loop over closures."""
    n = t.n
    together = [1 << v for v in range(n)]
    for x in range(n):
        for y in range(n - 1, x, -1):  # far pairs first: one acyclic closure joins a whole block
            closure = 0 if together[x] >> y & 1 else _closure(t, x, y)
            if closure and _is_acyclic_mask(t, closure):
                for v in _bits(closure):
                    together[v] |= closure
    return _classes(together)


def oracle_is_indecomposable(t):
    """No autonomous set strictly between one vertex and all of them: the
    closure of every pair is the whole vertex set."""
    full = (1 << t.n) - 1
    return all(_closure(t, x, y) == full for x, y in itertools.combinations(range(t.n), 2))


def _common_cycle_mask(t, a, b):
    """Vertices forming a 3-cycle with the ordered pair a, b."""
    if t.edge(a, b):
        return t.rows[b] & t.in_mask(a)
    return t.rows[a] & t.in_mask(b)


def oracle_monomorphic_classes(t, blocks):
    """``monomorphic_components`` given the blocks of the acyclic decomposition."""
    n = t.n
    part = [1 << v for v in range(n)]

    def join(*vs):
        m = 0
        for v in vs:
            m |= part[v]
        for v in _bits(m):
            part[v] = m

    for b in blocks:
        join(*b)
    for x, y in itertools.combinations(range(n), 2):
        if (part[x] >> y) & 1:
            continue
        zs = _common_cycle_mask(t, x, y)
        z = next((z for z in _bits(zs) if is_autonomous(t, (x, y, z))), None)
        if z is not None:
            join(x, y, z)
        elif _is_acyclic_mask(t, zs) and is_autonomous(t, [x, y, *_bits(zs)]):
            join(x, y)
    return _classes(part)


def definition_is_monomorphic_part(t, subset):
    """_is_monomorphic_in before its table of subset codes: every slice is
    canonized on its own."""
    bset = sorted(set(subset))
    outside = [v for v in range(t.n) if v not in bset]
    for k in range(len(outside) + 1):
        for s_out in itertools.combinations(outside, k):
            for m in range(1, len(bset) + 1):
                ref = None
                for inner in itertools.combinations(bset, m):
                    code = canonical_form(restrict(t, s_out + inner))
                    if ref is None:
                        ref = code
                    elif code != ref:
                        return False
    return True


# The maximal modules of a prime node as they were found before the forcing
# relation's source component: one closure with the least vertex per part,
# kept verbatim.


def oracle_maximal_modules(t, mask):
    """Maximal modules of a strongly connected t|mask other than mask.  Those
    avoiding its least vertex v partition the rest: a part is split by any
    vertex of mask outside it that beats some but not all of it.  The module
    holding v is v with each part whose closure with v is not all of mask."""
    rows, low = t.rows, mask & -mask
    todo, own, modules = [mask ^ low], low, []
    while todo:
        part = todo.pop()
        beaten = unbeaten = 0  # by some vertex of part
        for u in _bits(part):
            beaten, unbeaten = beaten | rows[u], unbeaten | ~rows[u]
        splitters = beaten & unbeaten & (mask ^ part)
        if splitters:
            row = rows[(splitters & -splitters).bit_length() - 1]
            todo += (part & row, part & ~row)
        elif _closure(t, low.bit_length() - 1, (part & -part).bit_length() - 1) == mask:
            modules.append(part)
        else:
            own |= part
    return sorted(modules + [own])


# The maximal modules of a prime node as they were found before each chain of
# nested strong modules was read from one condensation: the forcing
# relation's source component, searched for at every node, kept verbatim.


def _maximal_modules(t: Tournament, mask: int, partition=None) -> list[int]:
    """Maximal modules of a strongly connected t|mask other than mask, read
    from P(mask, v) or from P(M, v) of a strong module M holding mask and v:
    the parts in mask that reach all of them, the forcing relation's one
    source component, are maximal modules; the others join v."""
    parts, reps, forces, forced_by = partition or _least_partition(t, mask)
    unseen = reps = reps & mask
    for r in parts:  # the root of the last search over unseen parts reaches them all
        if unseen >> r & 1:
            root, unseen = r, unseen & ~_reach(1 << r, forces, unseen)
    modules = [parts[r] for r in _bits(_reach(1 << root, forced_by, reps))]
    return sorted(modules + [mask ^ sum(modules)])


# _strong_tree before one partition was handed down each chain of nested
# strong modules, kept verbatim: every PRIME node finds its maximal modules
# from scratch through _maximal_modules(t, mask).


def oracle_strong_tree(t):
    """Each strong module (one overlapping no module) of 2+ vertices mapped to
    its kind and children: LINEAR with its strong components in condensation
    order, or, if strongly connected, PRIME with its maximal proper modules,
    which hold every smaller module.  Polynomial; singletons are leaves."""
    tree = {}
    todo = [(1 << t.n) - 1] if t.n != 1 else []
    while todo:
        mask = todo.pop()
        children = _strong_components(t, mask)
        tree[mask] = (LINEAR, children) if len(children) != 1 else (PRIME, _maximal_modules(t, mask))
        todo += (c for c in tree[mask][1] if c & (c - 1))
    return tree


def assert_tree_matches_oracles(t):
    d = acyclic_components(t)
    blocks = oracle_blocks(t)
    assert d.blocks == blocks
    assert_acyclically_indecomposable_matches_oracles(t)
    assert is_indecomposable(t) == oracle_is_indecomposable(t)
    assert monomorphic_components(t) == oracle_monomorphic_classes(t, blocks)


def _together(t, x, y):
    """x and y share an acyclic autonomous set, i.e. their closure is acyclic:
    every subset of an acyclic set is acyclic, and every autonomous set
    holding x and y contains their closure."""
    return _is_acyclic_mask(t, _closure(t, x, y))


def oracle_is_acyclically_indecomposable(t):
    """The closure test that the autonomous-pair test replaced."""
    return not any(_together(t, x, y) for x, y in combinations(range(t.n), 2))


def oracle_pair_scan_is_acyclically_indecomposable(t):
    """The XOR scan of all pairs that the row lookup replaced: no two rows
    agree off the pair itself."""
    rows = t.rows
    return not any((rows[x] ^ rows[y]) & ~(1 << x | 1 << y) == 0 for x, y in itertools.combinations(range(t.n), 2))


def assert_acyclically_indecomposable_matches_oracles(t):
    assert (is_acyclically_indecomposable(t) == oracle_pair_scan_is_acyclically_indecomposable(t)
            == oracle_is_acyclically_indecomposable(t))


def brute_acyclic_autonomous_sets(t):
    """Every subset that is both acyclic and autonomous, by definition."""
    out = []
    for k in range(1, t.n + 1):
        for sub in combinations(range(t.n), k):
            if is_acyclic(restrict(t, sub)) and is_autonomous(t, sub):
                out.append(frozenset(sub))
    return out


def subset_scan_indecomposable(t):
    """No autonomous subset strictly between one vertex and all: 2^n scan."""
    return not any(
        is_autonomous(t, sub) for k in range(2, t.n) for sub in combinations(range(t.n), k)
    )


class TestAutonomous:
    def test_sum_block(self):
        t = lex_sum(cycle3(), [chain(2), chain(1), chain(1)])
        assert is_autonomous(t, [0, 1])

    def test_cycle_pairs_not(self):
        for pair in ([0, 1], [1, 2], [0, 2]):
            assert not is_autonomous(cycle3(), pair)

    def test_trivial_sets(self):
        t = cycle3()
        assert is_autonomous(t, [])
        assert is_autonomous(t, [1])
        assert is_autonomous(t, [0, 1, 2])


class TestSeparated:
    def test_cycle_pair(self):
        w = separated(cycle3(), 0, 1)
        assert w is not None and w.kind == THREE_CYCLE
        assert w.vertices == (0, 1, 2)

    def test_chain_never(self):
        t = chain(4)
        assert separated(t, 0, 3) is None
        assert separated(t, 1, 2) is None

    def test_diamond_apex_pair(self):
        d = diamond()
        w = separated(d, 0, 3)
        assert w is not None and w.kind == DIAMOND
        assert w.vertices == (0, 1, 2, 3)

    def test_witness_is_sound(self, rng):
        for _ in range(200):
            t = random_tournament(rng, rng.randint(2, 8))
            x, y = rng.sample(range(t.n), 2)
            w = separated(t, x, y)
            if w is None:
                continue
            sub = restrict(t, w.vertices)
            if w.kind == THREE_CYCLE:
                assert sub.n == 3 and not is_acyclic(sub)
            elif w.kind == DIAMOND:
                assert sub.n == 4
                cycles = sum(
                    1
                    for a in range(4)
                    for b in range(4)
                    for c in range(4)
                    if a < b < c and not is_acyclic(restrict(sub, [a, b, c]))
                )
                assert cycles == 1
            else:
                assert w.kind == DOUBLE_DIAMOND and sub.n == 5
                assert is_isomorphic(sub, lex_sum(chain(3), [chain(1), cycle3(), chain(1)]))

    def test_separation_matches_brute_force(self, rng):
        # x,y separated iff no acyclic autonomous set holds both
        for _ in range(60):
            t = random_tournament(rng, rng.randint(2, 6))
            sets = brute_acyclic_autonomous_sets(t)
            for x in range(t.n):
                for y in range(x + 1, t.n):
                    together = any(x in s and y in s for s in sets)
                    assert (separated(t, x, y) is None) == together


class TestComponents:
    def test_chain_single_block(self):
        d = acyclic_components(chain(5))
        assert d.spectrum == (5,)
        assert d.quotient.n == 1

    def test_cycle_all_singletons(self):
        d = acyclic_components(cycle3())
        assert d.spectrum == (1, 1, 1)
        assert is_isomorphic(d.quotient, cycle3())

    def test_mixed_sum(self):
        t = lex_sum(cycle3(), [chain(2), chain(1), chain(1)])
        d = acyclic_components(t)
        assert d.spectrum == (2, 1, 1)
        assert d.blocks[0] == (0, 1)
        assert is_isomorphic(d.quotient, cycle3())

    def test_longer_sum_spectrum(self):
        t = lex_sum(cycle3(), [chain(3), chain(2), chain(1)])
        assert spectrum(t) == (3, 2, 1)

    def test_two_chain_of_cycles_indecomposable(self):
        t = lex_sum(chain(2), [cycle3(), cycle3()])
        assert spectrum(t) == (1,) * 6

    def test_blown_up_cycle_all_singletons(self):
        t = lex_sum(cycle3(), [cycle3()] * 3)
        assert spectrum(t) == (1,) * 9

    def test_spectrum_relabel_invariant(self, rng):
        for _ in range(50):
            t = random_tournament(rng, rng.randint(1, 9))
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert spectrum(relabel(t, perm)) == spectrum(t)

    def test_reconstruction(self, rng):
        for _ in range(120):
            t = random_tournament(rng, rng.randint(1, 10))
            d = acyclic_components(t)
            assert is_isomorphic(reconstruct(d, t), t)

    def test_blocks_are_maximal(self, rng):
        # every acyclic autonomous set lies inside one block
        for _ in range(40):
            t = random_tournament(rng, rng.randint(2, 6))
            d = acyclic_components(t)
            owner = {}
            for b in d.blocks:
                for v in b:
                    owner[v] = b
            for s in brute_acyclic_autonomous_sets(t):
                blocks = {owner[v] for v in s}
                assert len(blocks) == 1

    def test_traces(self, rng):
        # restriction meeting every block decomposes into the block traces
        for _ in range(60):
            t = random_tournament(rng, rng.randint(2, 9))
            d = acyclic_components(t)
            picked = set()
            for b in d.blocks:
                take = rng.randint(1, len(b))
                picked.update(rng.sample(b, take))
            sub = sorted(picked)
            expect = sorted(
                (tuple(sub.index(v) for v in b if v in picked) for b in d.blocks),
                key=min,
            )
            got = acyclic_components(restrict(t, sub))
            assert sorted(got.blocks, key=min) == expect


class TestIndecomposability:
    def test_cycle(self):
        assert is_acyclically_indecomposable(cycle3())
        assert is_indecomposable(cycle3())

    def test_two_chain(self):
        assert not is_acyclically_indecomposable(chain(2))

    def test_chain3_decomposable(self):
        assert not is_indecomposable(chain(3))

    def test_singleton(self):
        assert is_acyclically_indecomposable(chain(1))

    def test_pair_test_matches_closure_oracle(self, rng):
        # against the pair scan too; the tree tests run both oracles on the
        # hypothesis tournaments, the lex sums and the family members
        cases = [t for n in range(9) for t in enumerate_tournaments(n)]
        cases += [t for n in range(6) for t in all_labeled_tournaments(n)]
        for t in cases[:]:
            perm = list(range(t.n))
            rng.shuffle(perm)
            cases.append(relabel(t, perm))
        cases += [lex_sum(cycle3(), [chain(12)] * 3), family("v", 19)]
        for t in cases:
            assert_acyclically_indecomposable_matches_oracles(t)

    def test_indecomposable_brute(self, rng):
        for _ in range(40):
            t = random_tournament(rng, rng.randint(2, 6))
            assert is_indecomposable(t) == subset_scan_indecomposable(t)

    def test_indecomposable_matches_subset_scan_exhaustive(self):
        for n in range(8):
            for t in enumerate_tournaments(n):
                assert is_indecomposable(t) == subset_scan_indecomposable(t)


class TestClosure:
    def test_least_autonomous_superset(self, rng):
        for _ in range(60):
            t = random_tournament(rng, rng.randint(2, 6))
            x, y = rng.sample(range(t.n), 2)
            supersets = [
                sum(1 << v for v in sub)
                for k in range(2, t.n + 1)
                for sub in combinations(range(t.n), k)
                if x in sub and y in sub and is_autonomous(t, sub)
            ]
            least = min(supersets, key=int.bit_count)
            assert all(m & least == least for m in supersets)
            assert _closure(t, x, y) == least

    def test_together_matches_separated_exhaustive(self):
        for n in range(2, 8):
            for t in enumerate_tournaments(n):
                for x, y in combinations(range(n), 2):
                    assert _together(t, x, y) == (separated(t, x, y) is None)

    def test_together_matches_separated_large(self, rng):
        cases = [random_tournament(rng, rng.randint(10, 40)) for _ in range(6)]
        for k in (2, 3, 4, 5):
            index = random_tournament(rng, k)
            cases.append(lex_sum(index, [chain(rng.randint(1, 6)) for _ in range(k)]))
        cases += [family(kind, 6) for kind in KINDS]
        cases.append(family("v", 19))
        for t in cases:
            for x, y in combinations(range(t.n), 2):
                assert _together(t, x, y) == (separated(t, x, y) is None)

    def test_long_chain_single_block(self):
        assert acyclic_components(chain(160)).blocks == (tuple(range(160)),)

    def test_long_chain_one_closure(self, monkeypatch):
        # the farthest pair's closure is the whole chain and joins every pair
        long_chain = chain(160)
        assert _closure(long_chain, 0, 159) == (1 << 160) - 1
        # a chain is one LINEAR node of leaves: no PRIME node, so no
        # partition to read maximal modules from
        calls, least_partition = [], decomp._least_partition
        monkeypatch.setattr(decomp, "_least_partition", lambda t, mask: calls.append(mask) or least_partition(t, mask))
        d = acyclic_components(long_chain)
        assert d.blocks == (tuple(range(160)),)
        assert d.tree == {(1 << 160) - 1: (LINEAR, [1 << v for v in range(160)])}
        assert calls == [] and prime_children(long_chain) == {}

    def test_blocks_are_classes_of_together(self):
        # pairs skipped as already joined must agree with their own closure
        cases = [t for n in range(1, 8) for t in enumerate_tournaments(n)]
        cases += [family(kind, length) for kind in KINDS for length in (3, 6)]
        cases.append(lex_sum(cycle3(), [chain(12)] * 3))
        for t in cases:
            block_of = {v: b for b in acyclic_components(t).blocks for v in b}
            for x, y in combinations(range(t.n), 2):
                assert (block_of[x] == block_of[y]) == _together(t, x, y)


class TestMonomorphic:
    def test_chain_whole(self):
        assert monomorphic_components(chain(5)) == ((0, 1, 2, 3, 4),)

    def test_cycle_whole(self):
        assert monomorphic_components(cycle3()) == ((0, 1, 2),)

    def test_diamond_splits(self):
        assert monomorphic_components(diamond()) == ((0, 1, 2), (3,))
        assert monomorphic_components(diamond(False)) == ((0, 1, 2), (3,))

    def test_two_chain_of_cycles(self):
        t = lex_sum(chain(2), [cycle3(), cycle3()])
        assert monomorphic_components(t) == ((0, 1, 2), (3, 4, 5))

    def test_oracle_singletons(self):
        t = diamond()
        for v in range(4):
            assert _is_monomorphic_in(_subset_code_table(t), t.n, 1 << v)

    def test_oracle_apex_cycle_pair_fails(self):
        assert not _is_monomorphic_in(_subset_code_table(diamond()), 4, 0b1001)

    def test_oracle_whole_chain(self):
        assert _is_monomorphic_in(_subset_code_table(chain(4)), 4, 0b1111)

    def test_oracle_matches_definition(self, rng):
        cases = [t for n in range(6) for t in enumerate_tournaments(n)]
        cases += [random_tournament(rng, 6) for _ in range(4)]
        for t in cases:
            codes = _subset_code_table(t)
            for k in range(t.n + 1):
                for subset in combinations(range(t.n), k):
                    mask = sum(1 << v for v in subset)
                    assert _is_monomorphic_in(codes, t.n, mask) == definition_is_monomorphic_part(t, subset)

    def test_oracle_too_large(self):
        with pytest.raises(TournamentError) as e:
            _subset_code_table(chain(11))
        assert e.value.code == "TOO_LARGE"

    def test_agreement_with_oracle_exhaustive(self):
        from tournkit.verify import enumerate_tournaments, _oracle_partition

        for n in range(1, 7):
            for t in enumerate_tournaments(n):
                assert monomorphic_components(t) == _oracle_partition(t)

    def test_large_parts_are_acyclic_components(self, rng):
        for _ in range(60):
            t = random_tournament(rng, rng.randint(4, 8))
            acyc = set(acyclic_components(t).blocks)
            for part in monomorphic_components(t):
                if len(part) >= 4:
                    assert part in acyc


@st.composite
def lex_sums(draw, max_n=40):
    """A lex sum of small tournaments, chains and 3-cycles over a small index,
    so that modules of every kind occur."""
    index = draw(tournaments(max_n=5))
    piece = st.one_of(st.integers(1, 8).map(chain), st.just(cycle3()), tournaments(max_n=6))
    blocks = [draw(piece) for _ in range(index.n)]
    t = lex_sum(index, blocks)
    return t if t.n <= max_n else blocks[0]


NESTED = [
    lex_sum(cycle3(), [lex_sum(chain(3), [cycle3(), chain(2), family("v", 2)]), chain(4), cycle3()]),
    lex_sum(chain(2), [lex_sum(cycle3(), [lex_sum(chain(2), [cycle3(), chain(3)]), chain(1), chain(2)]), cycle3()]),
    lex_sum(family("v", 2), [lex_sum(cycle3(), [chain(2), lex_sum(cycle3(), [chain(1), chain(1), chain(3)]), chain(1)]),
                             chain(1), chain(5), cycle3(), lex_sum(chain(3), [cycle3()] * 3)]),
    lex_sum(cycle3(), [lex_sum(cycle3(), [lex_sum(cycle3(), [chain(2)] * 3)] * 3)] * 3),
]


class TestStrongTree:
    def test_small_trees(self):
        assert _strong_tree(chain(0)) == {0: (LINEAR, [])}
        assert _strong_tree(chain(1)) == {}
        assert _strong_tree(chain(3)) == {0b111: (LINEAR, [1, 2, 4])}
        assert _strong_tree(cycle3()) == {0b111: (PRIME, [1, 2, 4])}
        t = lex_sum(chain(2), [cycle3(), chain(2)])
        assert _strong_tree(t) == {0b11111: (LINEAR, [0b111, 8, 16]), 0b111: (PRIME, [1, 2, 4])}
        t = lex_sum(cycle3(), [chain(2), chain(1), chain(1)])
        assert _strong_tree(t) == {0b1111: (PRIME, [0b11, 4, 8]), 0b11: (LINEAR, [1, 2])}

    def test_nodes_are_strong_modules(self, rng):
        # children partition their node and are modules; a LINEAR node's children
        # beat each later one and its non-leaves are strongly connected; a PRIME
        # node's quotient is indecomposable
        cases = [random_tournament(rng, rng.randint(2, 12)) for _ in range(40)] + NESTED
        cases += [family(kind, 4) for kind in KINDS]
        for t in cases:
            tree = _strong_tree(t)
            assert (1 << t.n) - 1 in tree
            for mask, (kind, children) in tree.items():
                assert sum(children) == mask and all(a & b == 0 for a, b in combinations(children, 2))
                assert all(is_autonomous(t, list(_bits(c))) for c in children)
                heads = [(c & -c).bit_length() - 1 for c in children]
                if kind == LINEAR:
                    assert all(t.edge(a, b) for a, b in combinations(heads, 2))
                    assert all(tree[c][0] == PRIME for c in children if c & (c - 1))
                else:
                    assert kind == PRIME and len(children) >= 3
                    assert oracle_is_indecomposable(restrict(t, heads))

    def test_matches_oracles_exhaustive(self, rng):
        for n in range(8):
            for t in enumerate_tournaments(n):
                perm = list(range(n))
                rng.shuffle(perm)
                assert_tree_matches_oracles(t)
                assert_tree_matches_oracles(relabel(t, perm))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(tournaments(max_n=40), lex_sums()), st.randoms(use_true_random=False))
    def test_matches_oracles_hypothesis(self, t, r):
        perm = list(range(t.n))
        r.shuffle(perm)
        assert_tree_matches_oracles(relabel(t, perm))

    def test_matches_oracles_families(self):
        for kind in KINDS:
            for length in range(1, 13):
                assert_tree_matches_oracles(family(kind, length))
                assert_tree_matches_oracles(family(kind, descending(length)))

    def test_matches_oracles_nested_lex_sums(self):
        rng = random.Random(31)
        for t in NESTED:
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert_tree_matches_oracles(t)
            assert_tree_matches_oracles(relabel(t, perm))

    def test_large_inputs(self):
        # 120 vertices each: a chain of 40 autonomous 3-cycles, and a 3-cycle of chains
        t = family("c3", 40)
        assert acyclic_components(t).blocks == tuple((v,) for v in range(120))
        assert is_acyclically_indecomposable(t) and not is_indecomposable(t)
        t = lex_sum(cycle3(), [chain(40)] * 3)
        assert acyclic_components(t).blocks == tuple(tuple(range(k, k + 40)) for k in (0, 40, 80))
        assert not is_acyclically_indecomposable(t) and not is_indecomposable(t)
        assert monomorphic_components(t) == acyclic_components(t).blocks


def prime_children(t):
    """Each PRIME node of the strong-module tree mapped to its children."""
    return {mask: children for mask, (kind, children) in _strong_tree(t).items() if kind == PRIME}


def assert_prime_children_match_oracle(t):
    for mask, children in prime_children(t).items():
        assert children == oracle_maximal_modules(t, mask)


class TestMaximalModules:
    def test_matches_oracle_exhaustive(self, rng):
        for n in range(8):
            for t in enumerate_tournaments(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for u in (t, relabel(t, perm)):
                    assert_prime_children_match_oracle(u)

    def test_matches_oracle_random(self):
        rng = random.Random(40)
        for _ in range(200):
            assert_prime_children_match_oracle(random_tournament(rng, rng.randint(3, 40)))

    def test_matches_oracle_families_and_nested_sums(self):
        for t in [family(kind, length) for kind in KINDS for length in range(1, 15)] + NESTED:
            assert_prime_children_match_oracle(t)

    def test_k_family_without_closures(self, monkeypatch):
        # 19 nested prime nodes, whose modules the oracle finds by 399 closures
        t = family("k", 20)
        closures, columns, closure = [], [], _closure
        monkeypatch.setitem(globals(), "_closure", lambda t, x, y: closures.append((x, y)) or closure(t, x, y))
        want = {mask: oracle_maximal_modules(t, mask) for mask in prime_children(t)}
        assert (len(want), len(closures)) == (19, 399)
        # each closure reads the column of every vertex it adds; the tree
        # reads at most one column per part of its one partition, fewer than
        # the vertices of one node
        in_mask = Tournament.in_mask
        monkeypatch.setattr(Tournament, "in_mask", lambda self, v: columns.append(v) or in_mask(self, v))
        assert prime_children(t) == want
        assert len(columns) < t.n


def random_nested_lex_sum(rng, depth):
    """A lex sum over a random index of 1 to 4 vertices whose blocks are
    chains, 3-cycles or, while depth lasts, such lex sums again."""
    index = random_tournament(rng, rng.randint(1, 4))
    return lex_sum(index, [random_nested_lex_sum(rng, depth - 1) if depth and rng.random() < 0.5
                           else rng.choice((cycle3(), chain(rng.randint(1, 3)))) for _ in range(index.n)])


def assert_tree_matches_per_node_oracle(t, rng):
    """The tree equals the per-node oracle on t and on one seeded relabeling."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    for u in (t, relabel(t, perm)):
        assert _strong_tree(u) == oracle_strong_tree(u)


class TestTreeHandDown:
    def test_matches_per_node_oracle_exhaustive(self):
        rng = random.Random(21)
        for n in range(9):
            for t in enumerate_tournaments(n):
                assert_tree_matches_per_node_oracle(t, rng)

    def test_matches_per_node_oracle_families(self):
        rng = random.Random(22)
        for kind in KINDS:
            for length in range(1, 41):
                for spec in (length, descending(length)):
                    assert_tree_matches_per_node_oracle(family(kind, spec), rng)

    def test_matches_per_node_oracle_nested_lex_sums(self):
        rng = random.Random(23)
        for t in NESTED + [random_nested_lex_sum(rng, 3) for _ in range(300)]:
            assert_tree_matches_per_node_oracle(t, rng)

    def test_one_partition_per_chain(self, monkeypatch):
        calls, least_partition = [], decomp._least_partition
        monkeypatch.setattr(decomp, "_least_partition", lambda t, mask: calls.append(mask) or least_partition(t, mask))

        def partitions(t):
            calls.clear()
            tree = _strong_tree(t)
            count = len(calls)
            assert tree == oracle_strong_tree(t)
            return count

        # family("k", 20) nests its 19 PRIME nodes around vertex 0, so the
        # root's partition serves them all; descending, vertex 0 is a leaf of
        # the root and each nested node has a new least vertex, so each one
        # builds its own partition, as every PRIME node did before
        assert partitions(family("k", 20)) == 1
        assert partitions(family("k", descending(20))) == 19
        # the partition passes through the LINEAR node between the two 3-cycles
        assert partitions(lex_sum(cycle3(), [lex_sum(chain(2), [cycle3(), chain(1)]), chain(1), chain(1)])) == 1

    def test_one_condensation_per_chain(self, monkeypatch):
        # family("k", 160) nests 159 PRIME nodes and one LINEAR node around
        # vertex 0: one partition and one condensation serve the whole chain,
        # and only the root is sorted into strong components
        calls = {"_least_partition": 0, "_strong_components": 0, "_condensation": 0}
        for name in calls:
            def counted(*args, name=name, f=getattr(decomp, name)):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(decomp, name, counted)
        t = family("k", 160)
        tree = _strong_tree(t)
        assert calls == {"_least_partition": 1, "_strong_components": 1, "_condensation": 1}
        assert sorted(kind for kind, _ in tree.values()) == [LINEAR] + [PRIME] * 159
        monkeypatch.undo()
        assert tree == oracle_strong_tree(t)

    def test_one_node_chain_skips_the_condensation(self, monkeypatch):
        # a PRIME node whose other children are all leaves and a LINEAR node
        # holding a 3-cycle: neither has a second node around its least vertex
        calls, condensation = [], decomp._condensation
        monkeypatch.setattr(decomp, "_condensation", lambda *args: calls.append(args) or condensation(*args))
        for t in (cycle3(), family("c3", 12), family("t", 20), paley(19)):
            assert _strong_tree(t) == oracle_strong_tree(t)
        assert calls == []
        # a LINEAR node between two PRIME ones: the chain around vertex 0 has three nodes
        t = lex_sum(cycle3(), [lex_sum(chain(2), [cycle3(), chain(1)]), chain(1), chain(1)])
        assert _strong_tree(t) == oracle_strong_tree(t)
        assert len(calls) == 1
