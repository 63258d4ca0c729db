from itertools import combinations

import pytest

from tournkit.core import (
    TournamentError,
    chain,
    cycle3,
    is_acyclic,
    is_isomorphic,
    lex_sum,
    make_tournament,
    relabel,
    restrict,
)
from tournkit.decomp import (
    DIAMOND,
    DOUBLE_DIAMOND,
    THREE_CYCLE,
    _closure,
    _together,
    acyclic_components,
    is_acyclically_indecomposable,
    is_autonomous,
    is_indecomposable,
    is_monomorphic_part_oracle,
    monomorphic_components,
    reconstruct,
    separated,
    spectrum,
)
from tournkit.families import KINDS, family
from tournkit.verify import enumerate_tournaments

from conftest import all_labeled_tournaments, random_tournament
from test_core import diamond


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
            assert is_monomorphic_part_oracle(t, [v])

    def test_oracle_apex_cycle_pair_fails(self):
        assert not is_monomorphic_part_oracle(diamond(), [0, 3])

    def test_oracle_whole_chain(self):
        assert is_monomorphic_part_oracle(chain(4), range(4))

    def test_oracle_too_large(self):
        with pytest.raises(TournamentError) as e:
            is_monomorphic_part_oracle(chain(11), [0])
        assert e.value.code == "TOO_LARGE"

    def test_agreement_with_oracle_exhaustive(self):
        from tournkit.verify import enumerate_tournaments, _oracle_partition

        for n in range(1, 6):
            for t in enumerate_tournaments(n):
                assert monomorphic_components(t) == _oracle_partition(t)

    def test_large_parts_are_acyclic_components(self, rng):
        for _ in range(60):
            t = random_tournament(rng, rng.randint(4, 8))
            acyc = set(acyclic_components(t).blocks)
            for part in monomorphic_components(t):
                if len(part) >= 4:
                    assert part in acyc
